"""Classical plane-cubic constructions: the Hesse pencil, Hessian curves,
Gram matrices of conics, smoothness testing, and the j-invariant along the
Hesse pencil.

Everything here is exact, the smoothness verdict included: every cubic,
Hesse-pencil members too, is decided by the rank of the multiplication map
from triples of conics onto quartics.

Every multiplication matrix of the library is the vectors z^m * g of one
builder, :func:`_multiples`, taken as rows: M_k is z^m * d_i(f) for the
monomials z^m of degree k + 1 (:func:`_syzygy_rows`).

M_1, the smoothness matrix, is eliminated here and only here
(:func:`_quartic_rank`), on its rows scaled to integers.  Its rank is taken
first modulo the fixed prime 2^61 - 1: rank 15 there is a certificate,
since a 15x15 minor that is nonzero mod p is nonzero.  Any lower rank mod p,
which every singular cubic and rare smooth ones give, falls back to the
exact elimination of the same integer rows.  Nothing is drawn at random.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DegreeMismatchError, SingularCurveError, ZeroInputError
from .forms import (
    Scalar,
    TernaryForm,
    coefficient_vector,
    monomial_basis,
    partial_derivative,
)
from .linalg import ExactMatrix, _bareiss, _integer_rows, _rank_mod, det_form_matrix

SMOOTH = "smooth"
SINGULAR = "singular"

_CUBE_MONOS = ((3, 0, 0), (0, 3, 0), (0, 0, 3))
_PRODUCT_MONO = (1, 1, 1)


class SmoothnessVerdict(NamedTuple):
    """Outcome of the smoothness test: Smooth or Singular, with a witness
    saying how many of the quartics the partials generate."""

    status: str
    witness: str | None = None

    @property
    def is_smooth(self) -> bool:
        return self.status == SMOOTH


def hesse_cubic(t: Scalar) -> TernaryForm:
    """The pencil member z0^3 + z1^3 + z2^3 - 3t*z0*z1*z2."""
    t = Fraction(t)
    terms = {mono: Fraction(1) for mono in _CUBE_MONOS}
    if t != 0:
        terms[_PRODUCT_MONO] = -3 * t
    return TernaryForm(3, terms)


def hesse_pencil_split(f: TernaryForm) -> tuple[Fraction, Fraction] | None:
    """Decompose f as lam*(sum of cubes) + mu*(product of variables).

    Returns None when f is not in the pencil: any monomial outside the four
    pencil monomials, or unequal coefficients on the three pure cubes, or a
    zero form.  Works in either variable space.
    """
    if f.is_zero() or f.degree != 3:
        return None
    allowed = set(_CUBE_MONOS) | {_PRODUCT_MONO}
    if any(mono not in allowed for mono in f.terms):
        return None
    cubes = [f.coefficient(m) for m in _CUBE_MONOS]
    if cubes[0] != cubes[1] or cubes[1] != cubes[2]:
        return None
    return cubes[0], f.coefficient(_PRODUCT_MONO)


def hesse_parameter(f: TernaryForm) -> Fraction | None:
    """The parameter t with f proportional to the Hesse cubic at t, or None
    when f is not a pencil member with nonzero cube coefficient."""
    split = hesse_pencil_split(f)
    if split is None or split[0] == 0:
        return None
    lam, mu = split
    return -mu / (3 * lam)


def hessian_curve(f: TernaryForm) -> TernaryForm:
    """Determinant of the 3x3 matrix of second partials; a cubic form
    (possibly zero for degenerate inputs), taken with no normalization."""
    if f.degree != 3:
        raise DegreeMismatchError(f"Hessian needs a cubic, got degree {f.degree}")
    second = [
        [partial_derivative(partial_derivative(f, i), j) for j in range(3)]
        for i in range(3)
    ]
    return det_form_matrix(second)


def gram_matrix(conic: TernaryForm) -> ExactMatrix:
    """Symmetric 3x3 Gram matrix G of a conic, with Q(z) = z^T G z."""
    if conic.degree != 2:
        raise DegreeMismatchError(f"Gram matrix needs a conic, got degree {conic.degree}")
    g = [[Fraction(0)] * 3 for _ in range(3)]
    for mono, coeff in conic.terms.items():
        i, j = [k for k, e in enumerate(mono) for _ in range(e)]  # z_i * z_j
        g[i][j] = g[j][i] = coeff if i == j else coeff / 2
    return ExactMatrix(g)


def _multiples(forms: Sequence[TernaryForm], d: int) -> list[tuple[Fraction, ...]]:
    """Coefficient vectors of z^m * g for each g in forms and each degree d
    monomial z^m, g outer and z^m graded-lex inner; every zero entry is the
    shared Fraction ``forms.ZERO``."""
    vectors = []
    for g in forms:
        for mono in monomial_basis(d):
            vectors.append(coefficient_vector(TernaryForm(d, {mono: 1}, g.space) * g))
    return vectors


def _syzygy_rows(f: TernaryForm, k: int) -> list[tuple[Fraction, ...]]:
    """M_k, the map (g0, g1, g2) -> sum g_i * d_i(f) from triples of degree
    (k+1) forms to degree (k+3) forms, as its rows z^m * d_i(f); its kernel
    has dimension len(rows) - rank."""
    return _multiples([partial_derivative(f, i) for i in range(3)], k + 1)


# The quartics, the target of M_1 (:func:`_syzygy_rows` at k = 1).
_QUARTICS = len(monomial_basis(4))

# The prime of the full-rank certificate for M_1: a constant, so every
# verdict is reproducible, and below 2^64, so reduced entries stay small.
_PRIME = 2**61 - 1


def _quartic_rank(f: TernaryForm) -> int:
    """How many of the _QUARTICS quartics the partials of the cubic f
    give: the rank of the map from triples of conics to quartics.  The
    partials give all of them exactly when f is smooth; the zero form
    gives none.

    The rank of M_1's integer rows mod _PRIME is at most their rank over Q,
    so rank _QUARTICS mod p is the answer; below that, the exact
    elimination of the same rows decides."""
    rows, _ = _integer_rows(_syzygy_rows(f, 1))
    if _rank_mod(rows, _QUARTICS, _PRIME) == _QUARTICS:
        return _QUARTICS
    return len(_bareiss(rows, _QUARTICS)[1])


def is_smooth_cubic(f: TernaryForm) -> SmoothnessVerdict:
    """Decide smoothness of a plane cubic exactly.

    A cubic is smooth exactly when its partials form a regular sequence,
    that is (Macaulay) when they generate every quartic: the multiplication
    map from triples of conics onto the 15 quartics has full rank.  A common
    zero of the partials, i.e. a singular point, keeps that rank below 15.
    The rank is certified modulo a fixed prime when it is 15 there, and
    otherwise eliminated exactly (:func:`_quartic_rank`).
    """
    if f.is_zero():
        raise ZeroInputError("smoothness test needs a nonzero cubic")
    if f.degree != 3:
        raise DegreeMismatchError(f"smoothness test needs a cubic, got degree {f.degree}")

    rank = _quartic_rank(f)
    if rank == _QUARTICS:
        return SmoothnessVerdict(SMOOTH, f"partials generate all {_QUARTICS} quartics")
    return SmoothnessVerdict(
        SINGULAR, f"partials generate only {rank} of {_QUARTICS} quartics"
    )


def _smooth_member(t: Scalar) -> Fraction:
    """t as a Fraction, refused when the pencil member at t is singular."""
    t = Fraction(t)
    if t**3 == 1:
        raise SingularCurveError(f"pencil member at t = {t} is singular (t^3 = 1)")
    return t


def j_invariant_hesse(t: Scalar) -> Fraction:
    """j-invariant of the smooth pencil member at parameter t:
    (1/64) * t^3 * (t^3+8)^3 / (t^3-1)^3."""
    t3 = _smooth_member(t) ** 3
    return Fraction(1, 64) * t3 * (t3 + 8) ** 3 / (t3 - 1) ** 3
