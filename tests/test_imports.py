"""Every name a library module imports is used in that module or listed in
its ``__all__``.  No linter runs on this code, so an import left behind by a
refactor is caught here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "logcubic"

# Imported but unused on purpose: the benchmark's selftest reads
# det_form_matrix through this module.
KEPT = {("sheaf", "det_form_matrix")}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line; `import a.b`
    binds a, and `from __future__` imports bind nothing."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {ast.literal_eval(elt) for elt in node.value.elts}
    return set()


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    return [
        f"{path.name}:{line}: {name}"
        for name, line in imported_names(tree).items()
        if name not in used and (path.stem, name) not in KEPT
    ]


def test_no_unused_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [entry for path in modules for entry in unused_imports(path)] == []


def test_a_planted_unused_import_is_found(tmp_path):
    module = tmp_path / "planted.py"
    module.write_text("import os\nfrom math import gcd, lcm\nimport numpy.linalg\n\nprint(gcd)\n")
    assert unused_imports(module) == ["planted.py:1: os", "planted.py:2: lcm", "planted.py:3: numpy"]
