"""The traced benchmark run (perfbench/layertrace.py) wraps library
functions by name; every name it lists must exist, so that renaming or
deleting one fails here rather than in the benchmark."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_functions_resolve(layertrace):
    for layer, names in layertrace.LAYERS.items():
        module = importlib.import_module(f"logcubic.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"logcubic.{layer}.{name}"


def test_matrix_methods_resolve(layertrace):
    from logcubic.linalg import ExactMatrix

    for method in layertrace.MATRIX_METHODS:
        # install() patches the class's own attribute, not an inherited one.
        assert callable(vars(ExactMatrix).get(method)), f"ExactMatrix.{method}"
