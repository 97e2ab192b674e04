"""Layer spans recorded from outside the program, for the traced run only.

install() wraps the public functions of the layer modules (forms, linalg,
cubics, sheaf, torelli, involution, cli) and the ExactMatrix methods.  Every
module attribute that binds a wrapped function is rebound, because the
layers import each other's functions by name (det_form_matrix lives on in
sheaf and cubics, reconstruct_candidates is called through the torelli
globals).  remove() puts the original objects back; an untraced run never
calls install().

Spans stay in memory as [name, start_ns, end_ns, parent, op, capture] and
are summarised or written out when the run ends.  A span's self time is its
duration minus the durations of its direct children, which are disjoint
because the program is single-threaded.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter_ns

LAYERS = {
    "forms": ("parse_form", "partial_derivative", "coefficient_vector", "substitute_linear",
              "form_from_coefficients", "projectively_equal", "vectors_projectively_equal"),
    "linalg": ("det_form_matrix", "sylvester_resultant"),
    "cubics": ("is_smooth_cubic", "hessian_curve"),
    "sheaf": ("cayleyan_cubic", "jacobi_degree3", "d0_graded_dim", "is_stable"),
    "torelli": ("forward_invariants", "reconstruct", "reconstruct_candidates"),
    "involution": ("check_involution", "sample_hessian_points", "involution_s"),
    "cli": ("main",),
}
MATRIX_METHODS = ("rank", "determinant", "kernel_basis")


def _capture_args(args, kwargs, result, exc):
    return args


# What a span keeps beyond its times; evaluated after the end time is taken,
# and turned into numbers only when the run is summarised.
CAPTURES = {
    "linalg.rank": _capture_args,
    "linalg.determinant": _capture_args,
    "linalg.kernel_basis": _capture_args,
    "linalg.det_form_matrix": _capture_args,
    "cubics.is_smooth_cubic": lambda a, k, r, e: None if r is None else r.status,
    "torelli.reconstruct_candidates": lambda a, k, r, e: a[0] if a else k.get("s"),
    "involution.sample_hessian_points": lambda a, k, r, e: (a[1] if len(a) > 1 else k["n"],
                                                            0 if r is None else len(r)),
    "involution.involution_s": lambda a, k, r, e: None if e is None else type(e).__name__,
    "cli.main": lambda a, k, r, e: (a[0] if a else k["argv"])[0],
}


class Tracer:
    """Span recorder; op is the id stamped on spans, set by the caller."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = None
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack, capture = self.spans, self.stack, CAPTURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
                if capture is not None:
                    span[5] = capture(args, kwargs, result, exc)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "logcubic" or n.startswith("logcubic."))]
        for layer, names in LAYERS.items():
            module = sys.modules[f"logcubic.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        matrix = sys.modules["logcubic.linalg"].ExactMatrix
        for method in MATRIX_METHODS:
            original = vars(matrix)[method]
            self._patches.append((matrix, method, original))
            setattr(matrix, method, self._wrap(f"linalg.{method}", original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op, _ in self.spans:
                handle.write(json.dumps([name, start, end, parent, op]) + "\n")


def self_times(spans: list) -> list:
    child = [0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - c for span, c in zip(spans, child)]


def tail(values: list) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile, in tenths, that
    still leaves at least 10 samples beyond it, by nearest rank.  With 10 or
    fewer samples it is the maximum, reported as percentile 100."""
    n = len(values)
    if n == 0:
        return 0.0, 100.0, 0
    ordered = sorted(values)
    if n <= 10:
        return ordered[-1], 100.0, n
    tenths = (1000 * (n - 10)) // n
    rank = -(-tenths * n // 1000)  # ceil(tenths/1000 * n), at most n - 10
    return ordered[max(rank, 1) - 1], tenths / 10, n


def _bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _matrix_stats(name: str, captured) -> tuple[int, int]:
    """(entries, largest entry bit length) of a linalg call's matrix."""
    if name == "linalg.det_form_matrix":
        rows = captured[0]
        bits = max((_bits(c) for row in rows for form in row for c in form.terms.values()),
                   default=0)
        return len(rows) * len(rows), bits
    matrix = captured[0]
    bits = max((_bits(x) for row in matrix.entries for x in row), default=0)
    return matrix.rows * matrix.cols, bits


FUNCTION_METRICS = {
    "linalg": ("rank", "determinant", "kernel_basis", "det_form_matrix", "sylvester_resultant"),
    "sheaf": ("cayleyan_cubic", "jacobi_degree3", "d0_graded_dim", "is_stable"),
    "torelli": ("forward_invariants", "reconstruct", "reconstruct_candidates"),
}
CLI_SUBCOMMANDS = ("analyze", "cayleyan", "jacobi", "reconstruct", "sweep", "involution",
                   "verify-identities")


def layer_metrics(spans: list, op_walls_ns: dict) -> dict:
    """Per-layer metrics per op from the spans of ops with ids in op_walls_ns."""
    ops = max(len(op_walls_ns), 1)
    selfs = self_times(spans)
    calls: dict = {}
    self_ns: dict = {}
    by_name: dict = {}
    covered: dict = {}
    for span, own in zip(spans, selfs):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own
        by_name.setdefault(name, []).append(span)
        if span[3] is None:
            covered[span[4]] = covered.get(span[4], 0) + span[2] - span[1]

    def per_op_calls(names):
        return sum(calls.get(n, 0) for n in names) / ops

    def per_op_ms(names):
        return sum(self_ns.get(n, 0) for n in names) / 1e6 / ops

    m: dict = {}
    for layer, funcs in FUNCTION_METRICS.items():
        for fn in funcs:
            m[f"{layer}.{fn}.calls"] = per_op_calls([f"{layer}.{fn}"])
            m[f"{layer}.{fn}.self_ms"] = per_op_ms([f"{layer}.{fn}"])

    entries = bits = 0
    for name in ("linalg.rank", "linalg.determinant", "linalg.kernel_basis",
                 "linalg.det_form_matrix"):
        for span in by_name.get(name, ()):
            e, b = _matrix_stats(name, span[5])
            entries += e
            bits = max(bits, b)
    m["linalg.matrix_entries"] = entries / ops
    m["linalg.max_entry_bits"] = bits

    forms = [f"forms.{fn}" for fn in LAYERS["forms"]]
    m["forms.calls"] = per_op_calls(forms)
    m["forms.self_ms"] = per_op_ms(forms)

    smooth = by_name.get("cubics.is_smooth_cubic", [])
    m["cubics.is_smooth_cubic.calls"] = per_op_calls(["cubics.is_smooth_cubic"])
    m["cubics.is_smooth_cubic.self_ms"] = per_op_ms(["cubics.is_smooth_cubic"])
    m["cubics.is_smooth_cubic.tail_ms"] = tail([(s[2] - s[1]) / 1e6 for s in smooth])[0]
    m["cubics.uncertified_frac"] = (
        sum(s[5] not in ("smooth", "singular") for s in smooth) / len(smooth) if smooth else 0.0)
    m["cubics.hessian_curve.self_ms"] = per_op_ms(["cubics.hessian_curve"])

    rebuilt = by_name.get("torelli.reconstruct", [])
    m["torelli.reconstruct.tail_ms"] = tail([(s[2] - s[1]) / 1e6 for s in rebuilt])[0]
    m["torelli.s_height_bits_max"] = max(
        (_bits(s[5]) for s in by_name.get("torelli.reconstruct_candidates", [])), default=0)

    sampled = by_name.get("involution.sample_hessian_points", [])
    applied = by_name.get("involution.involution_s", [])
    m["involution.sample_hessian_points.self_ms"] = per_op_ms(["involution.sample_hessian_points"])
    m["involution.involution_s.calls"] = per_op_calls(["involution.involution_s"])
    m["involution.involution_s.self_ms"] = per_op_ms(["involution.involution_s"])
    m["involution.rank_reject_frac"] = (
        sum(s[5] == "NumericRankError" for s in applied) / len(applied) if applied else 0.0)
    lines = sum(s[5][0] for s in sampled)
    m["involution.points_per_line"] = sum(s[5][1] for s in sampled) / lines if lines else 0.0

    mains = by_name.get("cli.main", [])
    m["cli.main_ms"] = statistics.median([(s[2] - s[1]) / 1e6 for s in mains]) if mains else 0.0
    for sub in CLI_SUBCOMMANDS:
        times = [(s[2] - s[1]) / 1e6 for s in mains if s[5] == sub]
        m[f"cli.main_ms.{sub}"] = statistics.median(times) if times else 0.0

    wall = sum(op_walls_ns.values())
    m["trace.unattributed_frac"] = (
        sum(w - covered.get(op, 0) for op, w in op_walls_ns.items()) / wall if wall else 0.0)
    return m
