"""Golden outputs of the exact CLI commands.

``golden_cli.json`` holds, for each argv, the exit code and the ``outputs``
or ``error`` object of its ``--json`` report (for ``sweep --csv``, the whole
stdout), recorded at commit e6f64fd.  Entries 00-04 (the ``witness`` of
``analyze --hesse-t``) and 12 (the message of ``cayleyan --hesse-t 1``) were
re-recorded when Hesse-pencil members came to be decided by the rank of
their partials on the quartics.  ``inputs`` is left out because the
file mode of ``reconstruct`` puts temporary paths there, and ``involution``
is left out because its floats depend on the LAPACK build.  A change that
alters any of these outputs on purpose updates the file and lists the
change in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from logcubic.cli import main

CASES = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{i:02d}-{case['argv'][0]}" for i, case in enumerate(CASES)]
)
def test_golden_output(case, capsys, tmp_path):
    paths = {}
    for name, content in case.get("files", {}).items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(content))
        paths[f"{name}_file"] = str(path)
    argv = [arg.format(**paths) for arg in case["argv"]]
    if "stdout" not in case:
        argv.append("--json")
    code = main(argv)
    out = capsys.readouterr().out
    assert code == case["code"]
    if "stdout" in case:
        assert out == case["stdout"]
        return
    key = "outputs" if code == 0 else "error"
    # Dumped with key order kept, so a reordered object fails too.
    assert json.dumps(json.loads(out)[key]) == json.dumps(case[key])
