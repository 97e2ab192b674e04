"""Command-line front end.

Every subcommand is deterministic given its arguments; only `involution`
samples at random, from its --seed.  Output is human-readable text by
default and machine-readable JSON with --json (the JSON carries no timing,
so identical invocations produce identical bytes).
Exact rationals are always printed as p/q strings, never floats; domain
errors exit with status 1 and a stable error category, usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .cubics import (
    hesse_cubic,
    hesse_parameter,
    is_smooth_cubic,
    j_invariant_hesse,
)
from .errors import (
    CayleyanSingularError,
    DomainError,
    InvolutionCheckError,
    OutputTooLargeError,
    ParseError,
    SingularCurveError,
    SpaceMismatchError,
    ZeroInputError,
)
from .forms import (
    PRIMAL,
    TernaryForm,
    coefficient_vector,
    form_from_coefficients,
    parse_form,
    parse_rational,
)
from .involution import check_involution
from .sheaf import (
    _cayleyan_cubic,
    _jacobi_degree3,
    _jumping_rank,
    _require_smooth,
    _splitting_of_rank,
    cayleyan_cubic,
    chern_data,
    is_stable,
    jacobi_degree3,
)
from .torelli import (
    SheafInvariants,
    _counterexample,
    _reconstruct,
    cayleyan_hesse_param,
    cayleyan_singularity_identity,
    forward_invariants,
)


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _rational_list(text: str) -> list[Fraction]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a nonempty comma-separated list")
    return [_rational(piece) for piece in items]


def _json_rational(value) -> Fraction:
    """An exact rational from a JSON entry, which must be a p/q string or an
    integer: a float would be read as its binary double."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise TypeError(f"not a p/q string or an integer: {value!r}")
    return parse_rational(value) if isinstance(value, str) else Fraction(value)


def _json_rationals(values) -> list[Fraction]:
    """Exact rationals from a JSON array; anything else is refused, where
    iterating a string would read each of its characters as a digit."""
    if not isinstance(values, list):
        raise TypeError(f"not a JSON list: {values!r}")
    return [_json_rational(c) for c in values]


class _Parser(argparse.ArgumentParser):
    """Reads -p/q and lists led by a negative number (-5/3, -2,1) as values,
    where argparse sees unknown flags; subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?(,|$)")


def form_record(form: TernaryForm) -> dict:
    """JSON record of a form: degree tag plus coefficients in basis order."""
    return {
        "space": form.space,
        "degree": form.degree,
        "coeffs": [str(c) for c in coefficient_vector(form)],
        "text": str(form),
    }


def form_from_record(record: dict) -> TernaryForm:
    """The form of a :func:`form_record`; its degree must be a JSON integer,
    where int() would truncate 3.9 to 3 and read true as 1, and the form
    refuses a space other than "primal" or "dual"."""
    degree = record["degree"]
    if isinstance(degree, bool) or not isinstance(degree, int):
        raise TypeError(f"degree is not an integer: {degree!r}")
    return form_from_coefficients(
        _json_rationals(record["coeffs"]), degree, record.get("space", PRIMAL)
    )


def _input_cubic(args) -> tuple[TernaryForm, dict]:
    """The cubic of --hesse-t or --form, one of which argparse requires."""
    if args.hesse_t is not None:
        return hesse_cubic(args.hesse_t), {"hesse_t": str(args.hesse_t)}
    return parse_form(args.form, PRIMAL), {"form": args.form}


# -- subcommand handlers -----------------------------------------------------


def cmd_analyze(args) -> tuple[dict, dict]:
    f, inputs = _input_cubic(args)
    verdict = is_smooth_cubic(f)
    outputs: dict = {
        "form": form_record(f),
        "smoothness": {"status": verdict.status, "witness": verdict.witness},
        "stable": is_stable(f),
    }
    t = hesse_parameter(f)
    if t is not None:
        outputs["hesse_t"] = str(t)
        try:
            outputs["j_invariant"] = str(j_invariant_hesse(t))
            outputs["cayleyan_s"] = str(cayleyan_hesse_param(t))
        except SingularCurveError:
            pass
        except CayleyanSingularError:
            outputs["cayleyan_s"] = None
    if verdict.is_smooth:
        # The verdict above is the gate; the ungated bodies do not decide it again.
        outputs["cayleyan"] = form_record(_cayleyan_cubic(f))
        outputs["jacobi_normal"] = [str(c) for c in _jacobi_degree3(f)]
    return inputs, outputs


def cmd_cayleyan(args) -> tuple[dict, dict]:
    f, inputs = _input_cubic(args)
    return inputs, {"cayleyan": form_record(cayleyan_cubic(f))}


def cmd_jump_line(args) -> tuple[dict, dict]:
    f, inputs = _input_cubic(args)
    alpha = parse_form(args.alpha, PRIMAL)
    inputs["alpha"] = args.alpha
    rank = _jumping_rank(f, alpha)
    split = _splitting_of_rank(rank)
    return inputs, {
        "alpha": [str(c) for c in coefficient_vector(alpha)],
        "rank": rank,
        "jumping": rank < 6,
        "splitting": list(split),
    }


def cmd_jacobi(args) -> tuple[dict, dict]:
    f, inputs = _input_cubic(args)
    return inputs, {"normal": [str(c) for c in jacobi_degree3(f)]}


def cmd_reconstruct(args) -> tuple[dict, dict]:
    if args.hesse_t is not None:
        # Self-test mode: run the forward map, then invert it.
        t = args.hesse_t
        inputs = {"hesse_t": str(t), "mode": "self-test"}
        invariants = forward_invariants(t)
    elif args.cayleyan_file and args.hyperplane_file:
        inputs = {
            "cayleyan_file": args.cayleyan_file,
            "hyperplane_file": args.hyperplane_file,
            "mode": "files",
        }
        try:
            with open(args.cayleyan_file) as handle:
                cay_record = json.load(handle)
            with open(args.hyperplane_file) as handle:
                hyp_record = json.load(handle)
            cayleyan = form_from_record(cay_record)
            normal = tuple(_json_rationals(hyp_record["normal"]))
        except (OSError, KeyError, TypeError, ValueError, ParseError, SpaceMismatchError) as exc:
            raise ZeroInputError(f"cannot read invariant files: {exc}") from exc
        if len(normal) != 10:
            raise ZeroInputError("hyperplane file must list 10 rationals")
        invariants = SheafInvariants(cayleyan=cayleyan, hyperplane=normal)
    else:
        raise ZeroInputError(
            "provide --hesse-t for a self-test or both --cayleyan-file and "
            "--hyperplane-file for raw invariants"
        )
    recovered, s, candidates = _reconstruct(invariants)
    outputs = {
        "cayleyan_s": str(s),
        "candidates": {
            "exact_roots": [str(r) for r in candidates.exact_roots],
            "residual_coeffs": [str(c) for c in candidates.residual],
        },
        "reconstructed_t": str(recovered),
    }
    if args.hesse_t is not None:
        outputs["round_trip_ok"] = recovered == args.hesse_t
    return inputs, outputs


def cmd_counterexample(args) -> tuple[dict, dict]:
    if len(args.abc) != 3:
        raise ZeroInputError("--abc needs exactly three rationals")
    a, b, c = args.abc
    inputs = {"a": str(a), "b": str(b), "c": str(c)}
    shared, invariants = _counterexample(a, b, c)
    return inputs, {
        "invariants_independent_of_abc": shared,
        "cayleyan": form_record(invariants.cayleyan),
        "normal": [str(x) for x in invariants.hyperplane],
    }


def cmd_involution(args) -> tuple[dict, dict]:
    f, inputs = _input_cubic(args)
    inputs.update({"samples": args.samples, "tol": args.tol, "seed": args.seed})
    if f.degree == 3:  # one verdict before sampling; check_involution refuses other degrees
        _require_smooth(f)
    report = check_involution(f, args.samples, args.tol, args.seed)
    if not report.passed:
        raise InvolutionCheckError(
            f"involution check failed at tolerance {report.tolerance}: "
            f"max_err = {report.max_double_apply_error}, "
            f"min_fix_dist = {report.min_fixed_point_distance}"
        )
    return inputs, {
        "samples": report.samples,
        "max_err": report.max_double_apply_error,
        "min_fix_dist": report.min_fixed_point_distance,
        "tolerance": report.tolerance,
        "pass": report.passed,
    }


def cmd_verify_identities(args) -> tuple[dict, dict]:
    lhs, rhs = cayleyan_singularity_identity()
    holds = lhs == rhs
    if not holds:
        raise DomainError("polynomial identity check failed")
    return {}, {
        "identity": "(t^3+2)^3 - (3t)^3 == (t^3-1)^2*(t^3+8)",
        "coefficients": [str(c) for c in lhs],
        "holds": holds,
    }


def cmd_chern(args) -> tuple[dict, dict]:
    data = chern_data(args.curve_degree, args.twist)
    return (
        {"d": data.d, "k": data.k},
        {"c1": data.c1, "c2": data.c2},
    )


_SWEEP_COLUMNS = ["t", "smooth", "j", "s", "cayleyan_smooth", "stable", "note"]


def cmd_sweep(args) -> tuple[dict, dict]:
    rows = []
    for t in args.t_values:
        row = {**dict.fromkeys(_SWEEP_COLUMNS), "t": str(t), "note": ""}
        rows.append(row)
        try:
            row["j"] = str(j_invariant_hesse(t))
        except SingularCurveError:
            row.update(smooth=False, note="singular member (t^3 = 1)")
            continue
        row.update(smooth=True, stable=is_stable(hesse_cubic(t)))
        try:
            s = cayleyan_hesse_param(t)
        except CayleyanSingularError:
            row.update(cayleyan_smooth=False, note="jumping-line cubic degenerates to a0*a1*a2 = 0")
            continue
        row.update(s=str(s), cayleyan_smooth=s**3 != 1)
    return {"t_values": [str(t) for t in args.t_values]}, {"rows": rows}


# -- driver -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="logcubic",
        description=(
            "Exact invariants of plane cubics: jumping lines, Cayleyan "
            "curves, Jacobi hyperplanes, stability, and Torelli-type "
            "reconstruction on the Hesse pencil."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    cubic_in = argparse.ArgumentParser(add_help=False)
    group = cubic_in.add_mutually_exclusive_group(required=True)
    group.add_argument("--hesse-t", type=_rational, metavar="T",
                       help="Hesse pencil parameter (rational, e.g. 2 or 1/2)")
    group.add_argument("--form", metavar="TEXT",
                       help="cubic as polynomial text in z0, z1, z2")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common, cubic_in],
                       help="smoothness, stability, and invariants of a cubic")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("cayleyan", parents=[common, cubic_in],
                       help="jumping-line cubic in dual coordinates")
    p.set_defaults(handler=cmd_cayleyan)

    p = sub.add_parser("jump-line", parents=[common, cubic_in],
                       help="test one line for jumping and report the splitting type")
    p.add_argument("--alpha", required=True, metavar="TEXT",
                   help="linear form of the line, e.g. 'z0 - z1'")
    p.set_defaults(handler=cmd_jump_line)

    p = sub.add_parser("jacobi", parents=[common, cubic_in],
                       help="normal vector of the degree-3 Jacobi hyperplane")
    p.set_defaults(handler=cmd_jacobi)

    p = sub.add_parser("reconstruct", parents=[common],
                       help="recover the pencil parameter from sheaf invariants")
    p.add_argument("--hesse-t", type=_rational, metavar="T",
                   help="self-test: forward map at T, then invert")
    p.add_argument("--cayleyan-file", metavar="PATH",
                   help="JSON form record of the jumping-line cubic (dual)")
    p.add_argument("--hyperplane-file", metavar="PATH",
                   help="JSON {\"normal\": [10 rationals]}")
    p.set_defaults(handler=cmd_reconstruct)

    p = sub.add_parser("counterexample", parents=[common],
                       help="check the shared invariants of a*z0^3 + b*z1^3 + c*z2^3")
    p.add_argument("--abc", type=_rational_list, required=True, metavar="A,B,C",
                   help="three nonzero rationals")
    p.set_defaults(handler=cmd_counterexample)

    p = sub.add_parser("involution", parents=[common, cubic_in],
                       help="numeric check of the polar involution on the Hessian curve")
    p.add_argument("--samples", type=int, default=100, help="number of sampling lines")
    p.add_argument("--tol", type=float, default=1e-8, help="chordal tolerance")
    p.add_argument("--seed", type=int, default=0, help="seed for sampling the Hessian curve")
    p.set_defaults(handler=cmd_involution)

    p = sub.add_parser("verify-identities", parents=[common],
                       help="exact polynomial identity behind the singular-Cayleyan locus")
    p.set_defaults(handler=cmd_verify_identities)

    p = sub.add_parser("chern", parents=[common],
                       help="Chern numbers of the twisted logarithmic sheaf")
    p.add_argument("--curve-degree", "-d", dest="curve_degree", type=int, required=True)
    p.add_argument("--twist", "-k", dest="twist", type=int, required=True)
    p.set_defaults(handler=cmd_chern)

    p = sub.add_parser("sweep", parents=[common],
                       help="tabulate pencil members: smoothness, j, s, stability")
    p.add_argument("--t-values", type=_rational_list, required=True, metavar="T1,T2,...")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of text")
    p.set_defaults(handler=cmd_sweep)

    return parser


def _human_lines(outputs: dict, indent: str = "") -> list[str]:
    lines = []
    for key, value in outputs.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines += _human_lines(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}:")
            for item in value:
                lines += _human_lines(item, indent + "  ")
                lines.append("")
        else:
            lines.append(f"{indent}{key}: {value}")
    return lines


def _sweep_csv_lines(rows: list[dict]) -> list[str]:
    lines = [",".join(_SWEEP_COLUMNS)]
    for row in rows:
        cells = []
        for col in _SWEEP_COLUMNS:
            value = row[col]
            if value is None:
                cells.append("")
            elif isinstance(value, bool):
                cells.append("true" if value else "false")
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return lines


def _render(args, inputs: dict, outputs: dict, elapsed_ms: float) -> str:
    """The whole stdout text of a successful command, built before any of
    it is printed."""
    if args.json:
        report = {
            "command": args.command,
            "inputs": inputs,
            "outputs": outputs,
            "status": "ok",
        }
        return json.dumps(report, indent=2)
    if args.command == "sweep" and args.csv:
        return "\n".join(_sweep_csv_lines(outputs["rows"]))
    lines = [f"command: {args.command}"]
    lines += [f"  {key}: {value}" for key, value in inputs.items()]
    lines += _human_lines(outputs)
    lines.append(f"elapsed: {elapsed_ms:.1f} ms")
    return "\n".join(lines)


def _refuse(args, exc: DomainError) -> int:
    if args.json:
        report = {
            "command": args.command,
            "status": "error",
            "error": {"category": exc.category, "message": str(exc)},
        }
        print(json.dumps(report, indent=2))
    else:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
    return 1


# CPython 3.10.7 and later refuse to turn an int of more than
# sys.get_int_max_str_digits() digits into text, with a ValueError that
# says so; an exact result can pass that length.
_INT_TEXT_LIMIT = "integer string conversion"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        inputs, outputs = args.handler(args)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        text = _render(args, inputs, outputs, elapsed_ms)
    except DomainError as exc:
        return _refuse(args, exc)
    except ValueError as exc:
        if _INT_TEXT_LIMIT not in str(exc):
            raise
        return _refuse(args, OutputTooLargeError(
            f"an exact result has more than {sys.get_int_max_str_digits()} digits, "
            "the most Python prints of one integer"
        ))
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
