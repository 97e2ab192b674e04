"""A fuzzer of the CLI's input paths, run in-process through
``logcubic.cli.main``.

It draws three kinds of input: polynomial text from a small grammar (deep
nesting and numerals of up to 5000 digits included), JSON invariant files
for ``reconstruct`` (degrees, coefficients of mixed JSON types, spaces),
and numeric flags.  Every input must end in exit 0 with valid JSON on
stdout, exit 1 with valid JSON naming a category of ``logcubic.errors``, or
a usage error (exit 2); never in a traceback.  Work must stay bounded by
the size of the input: the ``bounded_basis`` fixture fails any build of a
monomial basis of high degree, where a record's degree of a million would
ask for 5 * 10^11 exponent triples.

Coefficient heights that are accepted stay small, so that the run takes a
few seconds: a numeral has at most 3 digits or at least 1250, and past
1233 digits it has more than 4096 bits, so a product that holds it is
refused as parse-error.
Examples are derandomized and capped, and the explain phase is left out.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import logcubic.errors
import logcubic.forms
from logcubic.cli import main
from logcubic.forms import coefficient_vector
from logcubic.torelli import forward_invariants

CATEGORIES = {
    cls.category
    for cls in vars(logcubic.errors).values()
    if isinstance(cls, type) and issubclass(cls, logcubic.errors.DomainError)
}
FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=120,
    phases=[Phase.explicit, Phase.generate, Phase.shrink],
    # The basis guard is one fixture for all examples, not per-example
    # state; 5000-digit numerals make large examples on purpose.
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                           HealthCheck.large_base_example,
                           HealthCheck.function_scoped_fixture],
)


@pytest.fixture(autouse=True)
def _bounded(bounded_basis):
    pass


def check_main(argv: list[str]) -> None:
    """The property: valid JSON and a listed category, or a usage error."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, (argv, exc.code)
        return
    report = json.loads(out.getvalue(), parse_constant=lambda name: pytest.fail(name))
    if code == 0:
        assert report["status"] == "ok", argv
    else:
        assert code == 1, (argv, code)
        assert report["error"]["category"] in CATEGORIES, (argv, report)


# -- polynomial text --------------------------------------------------------

numerals = st.one_of(
    st.integers(0, 999).map(str),
    st.builds(lambda digit, n: digit * n, st.sampled_from("123456789"), st.integers(1250, 5000)),
)
atoms = st.one_of(
    numerals,
    st.builds(lambda p, q: f"{p}/{q}", numerals, numerals),
    st.sampled_from(["z0", "z1", "z2", "a0", "x", ""]),
)


def _extend(inner):
    return st.one_of(
        st.builds(lambda a, op, b: f"{a} {op} {b}", inner, st.sampled_from("+-*"), inner),
        st.builds(lambda sign, a: sign + a, st.sampled_from(["-", "+", "--", "- +"]), inner),
        st.builds(lambda a, n: f"({a})^{n}", inner, st.one_of(st.integers(0, 4).map(str), numerals)),
        st.builds(lambda a, depth: "(" * depth + a + ")" * depth, inner, st.integers(1, 2000)),
    )


expressions = st.recursive(atoms, _extend, max_leaves=6)
dense_cubics = st.lists(st.integers(-3, 3), min_size=10, max_size=10).map(
    lambda cs: " + ".join(
        f"({c})*{m}" for c, m in zip(cs, ["z0^3", "z0^2*z1", "z0^2*z2", "z0*z1^2", "z0*z1*z2",
                                          "z0*z2^2", "z1^3", "z1^2*z2", "z1*z2^2", "z2^3"])
    )
)
junk = st.text(alphabet="z012a+-*^()/ 9", max_size=30)
nested_cubics = st.builds(
    lambda depth, text: "(" * depth + text + ")" * depth, st.integers(1, 2000), dense_cubics
)
form_texts = st.one_of(expressions, dense_cubics, nested_cubics, junk)


@FUZZ
@given(
    command=st.sampled_from(["analyze", "cayleyan", "jacobi", "jump-line", "involution"]),
    text=form_texts,
    alpha=st.one_of(st.just("z0 - z1"), form_texts),
)
def test_form_text(command, text, alpha):
    argv = [command, f"--form={text}", "--json"]
    if command == "jump-line":
        argv.append(f"--alpha={alpha}")
    if command == "involution":
        argv.append("--samples=4")
    check_main(argv)


# -- JSON invariant files ------------------------------------------------------

json_values = st.one_of(
    st.integers(-9, 9),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(-2, 9)),
    st.sampled_from([10**6, 2**70, "x", "", "1.5", "½", "1e3", "dual", "primal"]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-9, 9), max_size=12),
    st.just({"p": 1}),
)
# An edit sets a field of one file, or one entry of its coefficient list, to
# a drawn JSON value, or replaces the whole file.
edits = st.one_of(
    st.tuples(
        st.sampled_from(["cayleyan", "hyperplane"]),
        st.one_of(st.sampled_from(["space", "degree", "coeffs", "normal", None]),
                  st.integers(0, 11)),
        json_values,
    ),
    st.tuples(st.just("cayleyan"), st.just("degree"),
              st.sampled_from([10**6, 2**70, 3.0, True, 0, -1, 4])),
)


def _edited_records(t, changes):
    """The invariant files of the pencil member at t, edited."""
    inv = forward_invariants(t)
    files = {
        "cayleyan": {"space": "dual", "degree": 3,
                     "coeffs": [str(c) for c in coefficient_vector(inv.cayleyan)]},
        "hyperplane": {"normal": [str(c) for c in inv.hyperplane]},
    }
    for name, key, value in changes:
        record = files[name]
        if key is None:
            files[name] = value
        elif isinstance(key, int) and isinstance(record, dict):
            entries = record.get("coeffs" if name == "cayleyan" else "normal")
            if isinstance(entries, list) and key < len(entries):
                entries[key] = value
        elif isinstance(record, dict):
            record[key] = value
    return files


@FUZZ
@given(
    t=st.fractions(-5, 5, max_denominator=4).filter(lambda t: t**3 != 1),
    changes=st.lists(edits, max_size=3),
    garbled=st.sampled_from([False] * 9 + [True]),
)
def test_invariant_files(tmp_path_factory, t, changes, garbled):
    files = _edited_records(t, changes)
    folder = tmp_path_factory.mktemp("records", numbered=True)
    paths = []
    for name, record in files.items():
        text = json.dumps(record)
        path = folder / f"{name}.json"
        path.write_text(text[:-1] if garbled and name == "cayleyan" else text)
        paths.append(path)
    check_main(["reconstruct", f"--cayleyan-file={paths[0]}",
                f"--hyperplane-file={paths[1]}", "--json"])


# -- numeric flags ---------------------------------------------------------------

rationals = st.one_of(
    st.fractions(-20, 20, max_denominator=9).map(str),
    st.sampled_from(["0", "1", "-2", "1/2"]),
    st.sampled_from(["1/0", "abc", "", "-", "1e5", "nan", "inf", "½", "1_0"]),
)
integers = st.one_of(
    st.integers(-10, 12).map(str),
    st.integers(-(10**40), 10**40).map(str),
    st.sampled_from(["", "x", "1.5", "-0"]),
)
flag_argvs = st.one_of(
    st.builds(lambda cmd, t: [cmd, f"--hesse-t={t}"],
              st.sampled_from(["analyze", "cayleyan", "jacobi", "reconstruct"]), rationals),
    st.builds(lambda ts: ["sweep", "--t-values=" + ",".join(ts)], st.lists(rationals, max_size=6)),
    st.builds(lambda *abc: ["counterexample", "--abc=" + ",".join(abc)],
              rationals, rationals, rationals),
    st.builds(lambda abc: ["counterexample", "--abc=" + ",".join(abc)], st.lists(rationals)),
    st.builds(lambda d, k: ["chern", f"-d={d}", f"-k={k}"], integers, integers),
    st.builds(
        lambda t, samples, tol, seed: ["involution", f"--hesse-t={t}", f"--samples={samples}",
                                       f"--tol={tol}", f"--seed={seed}"],
        rationals,
        st.one_of(st.integers(-3, 6).map(str), st.just("x")),
        st.sampled_from(["1e-8", "0", "-1", "nan", "inf", "1", "x"]),
        integers,
    ),
)


@FUZZ
@given(argv=flag_argvs)
def test_numeric_flags(argv):
    check_main(argv + ["--json"])


def test_categories_listed():
    assert {"parse-error", "degree-mismatch", "zero-input", "output-too-large"} <= CATEGORIES
