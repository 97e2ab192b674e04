"""Self-tests of the benchmark: generators, oracles and the traced run.

    python3 -m pytest perfbench/selftest.py    # from the root of a checkout

They check that generators repeat per seed, that every oracle turns a
deliberately corrupted output into a failure, that traced and untraced runs
give identical outputs and CLI bytes, that layer self times fit inside the
op wall time, and that removing the wrappers restores every binding.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from itertools import islice

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import generators  # noqa: E402
import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import oracles  # noqa: E402
import worker  # noqa: E402

LIB = worker.import_library(ROOT)
OUT = os.path.join(HERE, "out")
os.makedirs(OUT, exist_ok=True)


def take(workload: str, seed: int, n: int) -> list:
    return list(islice(generators.GENERATORS[workload](seed), n))


def make(workload: str, traced: bool = False):
    return worker.WORKLOADS[workload](LIB, ROOT, OUT, traced)


def run(wl, item):
    return wl.op(wl.prepare(item))


def test_generators_repeat_per_seed():
    for name in generators.GENERATORS:
        first, again, other = take(name, 7, 30), take(name, 7, 30), take(name, 8, 30)
        assert first == again, name
        assert first != other, name


def test_generated_mix_is_stratified():
    kinds = [item["kind"] for item in take("dense-analyze", 3, 80)]
    assert sum(k in generators.SINGULAR_KINDS for k in kinds) == 10
    cycle = len(generators.PENCIL_CYCLE)
    pencil = take("pencil-roundtrip", 3, 9 * cycle + 3)
    assert {item["t"] for item in pencil if item["refusal"]} == {0, -2, 1}
    slots = [item["kind"] for item in pencil[:cycle]]
    assert cycle == 28 and slots.count("p3q3-rich") == 2
    assert len(set(slots)) == 27
    cli = [item["kind"] for item in take("cli-oneshot", 3, 20)]
    assert sorted(cli) == sorted(generators.CLI_CYCLE * 2)


def test_dense_oracle_rejects_corruption():
    wl = make("dense-analyze")
    items = take("dense-analyze", 5, 8)
    smooth = next(i for i in items if i["kind"] == "integer")
    singular = next(i for i in items if i["kind"] in generators.SINGULAR_KINDS)
    out = run(wl, smooth)
    assert oracles.check_dense(smooth, out) is None
    assert oracles.check_dense(singular, run(wl, singular)) is None
    status, stable, cayleyan, normal, dims = out
    bent = list(normal)
    bent[0] += Fraction(1, 10**6)
    assert oracles.check_dense(smooth, (status, stable, cayleyan, bent, dims))
    bent_cay = list(cayleyan)
    bent_cay[-1] += 1
    assert oracles.check_dense(smooth, (status, stable, bent_cay, normal, dims))
    assert oracles.check_dense(smooth, (status, stable, cayleyan, normal, (0, 3, 9, 17, 28)))
    assert oracles.check_dense(singular, ("smooth", True, None, None, None))


def test_pencil_oracle_rejects_corruption():
    wl = make("pencil-roundtrip")
    items = take("pencil-roundtrip", 5, 3 * len(generators.PENCIL_CYCLE) + 1)
    item = items[0]
    ok, cayleyan, normal, t = run(wl, item)
    assert oracles.check_pencil(item, (ok, cayleyan, normal, t)) is None
    assert oracles.check_pencil(item, (ok, cayleyan, normal, t + 1))
    bent = list(normal)
    bent[6] += 1
    assert oracles.check_pencil(item, (ok, cayleyan, bent, t))
    refusal = next(i for i in items if i["refusal"])
    assert oracles.check_pencil(refusal, run(wl, refusal)) is None
    assert oracles.check_pencil(refusal, ("error", "singular-curve" if refusal["t"] != 1
                                          else "cayleyan-singular"))


def test_involution_oracle_rejects_failure():
    item = take("involution-sampling", 5, 1)[0]
    out = run(make("involution-sampling"), item)
    assert oracles.check_involution(item, out) is None
    assert oracles.check_involution(item, ("ok", False) + out[2:])


def test_cli_oracle_rejects_changed_byte():
    wl = make("cli-oneshot")
    for item in take("cli-oneshot", 5, 10):
        code, stdout = run(wl, item)
        assert oracles.check_cli(item, (code, stdout), wl.library) is None, item["kind"]
        digit = next(i for i, b in enumerate(stdout) if chr(b).isdigit())
        changed = stdout[:digit] + (b"7" if stdout[digit:digit + 1] != b"7" else b"3") + \
            stdout[digit + 1:]
        assert oracles.check_cli(item, (code, changed), wl.library), item["kind"]
        assert oracles.check_cli(item, (code, stdout.replace(b"\n", b" \n", 1)), wl.library)


def test_traced_and_untraced_outputs_identical():
    for name in ("dense-analyze", "pencil-roundtrip", "involution-sampling"):
        wl = make(name)
        items = take(name, 9, 4)
        plain, _, traced, _ = worker.paired_replay(wl, items, layertrace.Tracer())
        assert plain == traced, name
    items = take("cli-oneshot", 9, 10)
    subprocess_bytes = [run(make("cli-oneshot"), item) for item in items]
    _, _, traced, _ = worker.paired_replay(make("cli-oneshot", traced=True), items,
                                           layertrace.Tracer())
    assert traced == subprocess_bytes


def test_self_times_fit_in_op_wall():
    wl = make("dense-analyze")
    items = take("dense-analyze", 4, 6)
    tracer = layertrace.Tracer()
    _, _, _, walls = worker.paired_replay(wl, items, tracer)
    per_op: dict = {}
    for span, own in zip(tracer.spans, layertrace.self_times(tracer.spans)):
        assert own >= 0
        per_op[span[4]] = per_op.get(span[4], 0) + own
    assert set(per_op) == set(range(len(items)))
    assert all(per_op[i] <= walls[i] for i in per_op)
    metrics = layertrace.layer_metrics(tracer.spans, dict(enumerate(walls)))
    assert 0 <= metrics["trace.unattributed_frac"] < 1
    assert metrics["cubics.is_smooth_cubic.calls"] == 1.0


def test_remove_restores_every_binding():
    modules = {n: dict(vars(m)) for n, m in sys.modules.items() if n.startswith("logcubic")}
    matrix = dict(vars(LIB.ExactMatrix))
    tracer = layertrace.Tracer()
    tracer.install()
    assert LIB.sheaf.det_form_matrix is not modules["logcubic.sheaf"]["det_form_matrix"]
    assert LIB.cubics.det_form_matrix is LIB.linalg.det_form_matrix
    tracer.remove()
    for name, saved in modules.items():
        assert all(vars(sys.modules[name])[k] is v for k, v in saved.items()), name
    assert all(vars(LIB.ExactMatrix)[k] is v for k, v in matrix.items())


def test_tail_leaves_ten_samples_beyond():
    for n in (11, 20, 75, 100, 333, 600, 1000):
        values = list(range(n))
        value, percentile, samples = layertrace.tail(values)
        assert samples == n and sum(v > value for v in values) == 10, n
        assert 0 < percentile < 100



def test_host_scale_is_mean_of_passes_around_op():
    ms = 1_000_000
    assert hostspeed.scales([ms, ms, 3 * ms], 2.0) == [2.0, 1.0]
    assert hostspeed.child_pass_ns() > 0
