"""The traced benchmark run (perfbench/layertrace.py) wraps library
functions by name; every name it lists must exist, and the library must
call them through the names the tracer rebinds, so that renaming, deleting
or bypassing one fails here rather than in the benchmark."""

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


def test_det_form_matrix_bound_where_the_tracer_reads_it():
    """The benchmark's selftest reads det_form_matrix through sheaf and
    cubics; both names must stay bound to the linalg function."""
    import logcubic.cubics
    import logcubic.linalg
    import logcubic.sheaf

    for module in (logcubic.sheaf, logcubic.cubics):
        assert getattr(module, "det_form_matrix", None) is logcubic.linalg.det_form_matrix, module


def test_matrix_methods_resolve(layertrace):
    from logcubic.linalg import ExactMatrix

    for method in layertrace.MATRIX_METHODS:
        # install() patches the class's own attribute, not an inherited one.
        assert callable(vars(ExactMatrix).get(method)), f"ExactMatrix.{method}"


def test_traced_involution_run(layertrace):
    """A traced check_involution call records its spans: each of the two
    applications of the involution is one call of the wrapped involution_s
    on the whole sample stack, and the sampling span carries its line and
    point counts."""
    for layer in layertrace.LAYERS:
        importlib.import_module(f"logcubic.{layer}")
    from logcubic import involution
    from logcubic.cubics import hesse_cubic

    tracer = layertrace.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        involution.check_involution(hesse_cubic(2), 10, 1e-8, seed=0)
    finally:
        tracer.remove()
    metrics = layertrace.layer_metrics(tracer.spans, {0: 1})
    assert metrics["involution.involution_s.calls"] == 2
    assert metrics["involution.involution_s.self_ms"] > 0
    assert metrics["involution.points_per_line"] > 0
