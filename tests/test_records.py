"""The five result records are NamedTuples: the field names, order, default,
immutability, properties and repr of the frozen dataclasses they replace,
plus tuple equality and unpacking.  InvolutionReport.passed is checked in
test_involution.py."""

from fractions import Fraction

import pytest

from logcubic.cubics import SmoothnessVerdict, is_smooth_cubic
from logcubic.forms import DUAL, parse_form
from logcubic.involution import InvolutionReport
from logcubic.sheaf import ChernData, chern_data
from logcubic.torelli import CandidateSet, SheafInvariants, reconstruct_candidates

DENSE = "z0^3 + z1^3 + z2^3 + z0^2*z1 - 5*z1*z2^2"
NODAL = "z1^2*z2 - z0^3 - z0^2*z2"


def records():
    """One record of each kind, with its repr as the dataclass printed it."""
    return [
        (is_smooth_cubic(parse_form(DENSE)),
         "SmoothnessVerdict(status='smooth', witness='partials generate all 15 quartics')"),
        (chern_data(3, 1), "ChernData(c1=2, c2=4, d=3, k=1)"),
        (SheafInvariants(parse_form("a0^3 - a0*a1*a2", DUAL), (Fraction(1), Fraction(1, 2))),
         "SheafInvariants(cayleyan=TernaryForm(3, dual: a0^3 - a0*a1*a2), "
         "hyperplane=(Fraction(1, 1), Fraction(1, 2)))"),
        (reconstruct_candidates(Fraction(5, 3)),
         "CandidateSet(exact_roots=(Fraction(2, 1),), "
         "residual=(Fraction(1, 1), Fraction(2, 1), Fraction(-1, 1)))"),
        (InvolutionReport(60, 6.1e-16, 0.5, 1e-08),
         "InvolutionReport(samples=60, max_double_apply_error=6.1e-16, "
         "min_fixed_point_distance=0.5, tolerance=1e-08)"),
    ]


IDS = ["verdict", "chern", "invariants", "candidates", "involution"]


@pytest.mark.parametrize(
    "cls, fields",
    [
        (SmoothnessVerdict, ("status", "witness")),
        (ChernData, ("c1", "c2", "d", "k")),
        (SheafInvariants, ("cayleyan", "hyperplane")),
        (CandidateSet, ("exact_roots", "residual")),
        (InvolutionReport, ("samples", "max_double_apply_error", "min_fixed_point_distance",
                            "tolerance")),
    ],
    ids=IDS,
)
def test_fields_in_order(cls, fields):
    assert cls._fields == fields
    assert cls._field_defaults == ({"witness": None} if cls is SmoothnessVerdict else {})


def test_witness_defaults_to_none():
    verdict = SmoothnessVerdict("singular")
    assert verdict.witness is None
    assert verdict == SmoothnessVerdict(status="singular", witness=None)


@pytest.mark.parametrize("index", range(5), ids=IDS)
def test_fields_cannot_be_assigned(index):
    record, _ = records()[index]
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize("index", range(5), ids=IDS)
def test_repr_as_the_dataclass_printed_it(index):
    record, text = records()[index]
    assert repr(record) == text


def test_is_smooth():
    assert is_smooth_cubic(parse_form(DENSE)).is_smooth
    assert not is_smooth_cubic(parse_form(NODAL)).is_smooth
    assert not SmoothnessVerdict("singular").is_smooth


def test_equal_to_a_plain_tuple_and_unpackable():
    # New with NamedTuple: a frozen dataclass equalled only its own class.
    assert chern_data(3, 1) == (2, 4, 3, 1)
    c1, c2, d, k = chern_data(3, 1)
    assert (c1, c2, d, k) == (2, 4, 3, 1)
    status, witness = is_smooth_cubic(parse_form(NODAL))
    assert (status, witness) == ("singular", "partials generate only 14 of 15 quartics")
    roots, residual = reconstruct_candidates(Fraction(5, 3))
    assert roots == (Fraction(2),)
    assert InvolutionReport(60, 1e-12, 0.5, 1e-8) == (60, 1e-12, 0.5, 1e-8)
