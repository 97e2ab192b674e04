"""Sheaf-theoretic invariants of a smooth plane cubic, computed as exact
linear algebra on coefficient vectors.

A line, given by a nonzero linear form alpha, jumps exactly when the six
conics z0*alpha, z1*alpha, z2*alpha, d0(f), d1(f), d2(f) are linearly
dependent; letting alpha vary symbolically turns that 6x6 determinant into
a cubic in the dual plane, the Cayleyan curve, whose coefficients are
signed 3x3 minors of the 6x3 matrix of the partials.  The degree-3 part of
the Jacobi ideal of f is a hyperplane in the 10-dimensional space of
cubics, and its normal vector is the second reconstruction invariant.

Every matrix here is eliminated as built, its rows the vectors z^m * g of
``cubics._multiples``: M_k (rows z^m * d_i(f)), and the jumping matrix.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .cubics import _QUARTICS, _multiples, _quartic_rank, _syzygy_rows, is_smooth_cubic
from .errors import DegreeMismatchError, SingularCurveError, SpaceMismatchError, ZeroInputError
from .forms import (
    DUAL,
    PRIMAL,
    ZERO,
    TernaryForm,
    coefficient_vector,
    form_from_coefficients,
    monomial_basis,
)
# Unused here; the benchmark's selftest reads det_form_matrix through this module.
from .linalg import ExactMatrix, det_form_matrix  # noqa: F401

# Index of the monomial z0*z1*z2 within the degree-3 graded-lex basis; the
# canonical hyperplane normal is scaled to 1 there.
PRODUCT_INDEX = monomial_basis(3).index((1, 1, 1))

HyperplaneNormal = tuple[Fraction, ...]

# The triples of conics, the rows of M_1.
_CONIC_TRIPLES = 3 * len(monomial_basis(2))


class ChernData(NamedTuple):
    """First and second Chern numbers of the twisted logarithmic sheaf for a
    curve of degree d and twist k:

        c1 = 3 - d + 2k
        c2 = d^2 - 3d + 3 + k^2 + (3 - d)k
    """

    c1: int
    c2: int
    d: int
    k: int


def _require_int(name: str, value: object) -> None:
    """Refuse a degree or twist that is not an int, bool included, where
    arithmetic would carry 1.5 or True through to a wrong answer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DegreeMismatchError(f"{name} must be an integer, got {value!r}")


def chern_data(d: int, k: int) -> ChernData:
    _require_int("curve degree", d)
    _require_int("twist k", k)
    if d < 1:
        raise DegreeMismatchError(f"curve degree must be >= 1, got {d}")
    return ChernData(
        c1=3 - d + 2 * k,
        c2=d * d - 3 * d + 3 + k * k + (3 - d) * k,
        d=d,
        k=k,
    )


def _check_cubic_and_alpha(f: TernaryForm, alpha: TernaryForm) -> None:
    if f.degree != 3:
        raise DegreeMismatchError(f"need a cubic, got degree {f.degree}")
    if alpha.is_zero():
        raise ZeroInputError("the line form alpha must be nonzero")
    if alpha.degree != 1:
        raise DegreeMismatchError(f"alpha must be linear, got degree {alpha.degree}")
    if alpha.space != f.space:
        raise SpaceMismatchError(f"alpha is a {alpha.space} form, the cubic a {f.space} one")


def _require_smooth(f: TernaryForm) -> None:
    verdict = is_smooth_cubic(f)
    if not verdict.is_smooth:
        raise SingularCurveError(f"the cubic is singular: {verdict.witness}")


def jumping_matrix(f: TernaryForm, alpha: TernaryForm) -> ExactMatrix:
    """The 6x6 matrix whose rows are the degree-2 coefficient vectors of
    z0*alpha, z1*alpha, z2*alpha, d0(f), d1(f), d2(f), in that order."""
    _check_cubic_and_alpha(f, alpha)
    return ExactMatrix(_multiples([alpha], 1) + _syzygy_rows(f, -1))


def _jumping_rank(f: TernaryForm, alpha: TernaryForm) -> int:
    """Rank of :func:`jumping_matrix` for a smooth cubic f: below 6 exactly
    on a jumping line.  Raises SingularCurveError on a singular cubic."""
    matrix = jumping_matrix(f, alpha)
    _require_smooth(f)
    return matrix.rank()


def _splitting_of_rank(rank: int) -> tuple[int, int]:
    """Splitting type read off the jumping-matrix rank: (-1, 1) on a jumping
    line, (0, 0) otherwise."""
    return (-1, 1) if rank < 6 else (0, 0)


def jumping_line_test(f: TernaryForm, alpha: TernaryForm) -> bool:
    """True exactly when the line alpha = 0 is a jumping line of the
    logarithmic sheaf of the smooth cubic f.  Raises SingularCurveError on a
    singular cubic."""
    return _jumping_rank(f, alpha) < 6


def splitting_type(f: TernaryForm, alpha: TernaryForm) -> tuple[int, int]:
    """Restriction type of the normalized sheaf of the smooth cubic f to the
    line: (-1, 1) on a jumping line, (0, 0) otherwise.  Raises
    SingularCurveError on a singular cubic."""
    return _splitting_of_rank(_jumping_rank(f, alpha))


def cayleyan_cubic(f: TernaryForm) -> TernaryForm:
    """The jumping-line locus of f as an exact cubic in the coordinates of
    the line, so in the plane opposite to f's (dual for a primal f): the
    determinant of the symbolic jumping matrix, whose rows are
    z0*a, z1*a, z2*a, d0 f, d1 f, d2 f (as in :func:`jumping_matrix`) with
    the line a = a0 z0 + a1 z1 + a2 z2 left symbolic, read off the 3x3
    minors of the partials' coefficients.  Evaluating it at a rational line
    gives that line's jumping-matrix determinant, sign included.  Raises
    SingularCurveError on a singular cubic.
    """
    _require_smooth(f)
    return _cayleyan_cubic(f)


# The symbolic jumping determinant det[A(a) | P], the transpose of the
# jumping matrix, expanded once along its columns z_i * a; P is the 6x3
# matrix whose column i holds the coefficients of d_i(f).
# Row m gives the coefficient of the m-th dual cubic monomial (graded-lex,
# a0^3 first); an entry (c, i, j, k) is c times the minor on P's rows i, j, k.
_CAYLEYAN_MINORS = (
    ((1, 3, 4, 5),),
    ((-1, 1, 4, 5), (1, 2, 3, 5)), ((1, 1, 3, 5), (-1, 2, 3, 4)),
    ((1, 0, 4, 5), (1, 1, 2, 5)), ((-2, 0, 3, 5), (-1, 1, 2, 4)), ((1, 0, 3, 4), (1, 1, 2, 3)),
    ((-1, 0, 2, 5),), ((1, 0, 1, 5), (1, 0, 2, 4)),
    ((-1, 0, 1, 4), (-1, 0, 2, 3)), ((1, 0, 1, 3),),
)


def _det3(r: Sequence[Fraction], s: Sequence[Fraction], t: Sequence[Fraction]) -> Fraction:
    """Determinant of the 3x3 matrix with rows r, s, t, by cofactors."""
    return (r[0] * (s[1] * t[2] - s[2] * t[1]) - r[1] * (s[0] * t[2] - s[2] * t[0])
            + r[2] * (s[0] * t[1] - s[1] * t[0]))


def _cayleyan_cubic(f: TernaryForm) -> TernaryForm:
    """The work of :func:`cayleyan_cubic` for a cubic already known to be
    smooth, without the smoothness gate."""
    p = list(zip(*_syzygy_rows(f, -1)))
    coeffs = [sum(c * _det3(p[i], p[j], p[k]) for c, i, j, k in r) for r in _CAYLEYAN_MINORS]
    return form_from_coefficients(coeffs, 3, PRIMAL if f.space == DUAL else DUAL)


def canonical_normal(vector: Sequence[Fraction]) -> HyperplaneNormal:
    """Scale a hyperplane normal so its z0*z1*z2 entry is 1; when that entry
    vanishes, scale the first nonzero entry (graded-lex order) to 1.  Every
    zero entry of the result is the shared Fraction ``forms.ZERO``."""
    v = tuple([Fraction(x) for x in vector])
    pivot = v[PRODUCT_INDEX]
    if pivot == 0:
        pivot = next((x for x in v if x != 0), None)
        if pivot is None:
            raise ZeroInputError("hyperplane normal must be nonzero")
    return tuple([x / pivot if x else ZERO for x in v])


def jacobi_degree3(f: TernaryForm) -> HyperplaneNormal:
    """Normal vector of the degree-3 part of the Jacobi ideal of a smooth
    cubic, as a canonical 10-vector over the graded-lex cubic basis.

    The multiplication map from triples of linear forms into cubics is
    injective for smooth f, so the nine cubics z_i * d_j(f) span a
    hyperplane; the normal spans the kernel of the 9x10 matrix whose rows
    are their coefficient vectors.  Raises SingularCurveError on a singular
    cubic.
    """
    _require_smooth(f)
    return _jacobi_degree3(f)


def _jacobi_degree3(f: TernaryForm) -> HyperplaneNormal:
    """The work of :func:`jacobi_degree3` for a cubic already known to be
    smooth, without the smoothness gate."""
    kernel = ExactMatrix(_syzygy_rows(f, 0)).kernel_basis()
    return canonical_normal(kernel[0])


def _is_jacobi_normal(f: TernaryForm, normal: Sequence[Fraction]) -> bool:
    """True when the nonzero 10-vector normal pairs to zero with each of the
    nine cubics z_i * d_j(f), that is when J_3(f) lies in the hyperplane
    with that normal; False for the zero vector or a vector of another
    length.

    For smooth f the partials have no linear syzygy, so the nine cubics
    span the 9-dimensional hyperplane J_3(f), and this holds exactly when
    normal is a nonzero multiple of :func:`jacobi_degree3` of f.  No kernel
    is solved and smoothness is not checked; the caller vouches for it.
    """
    rows = _syzygy_rows(f, 0)
    if len(normal) != len(rows[0]) or not any(normal):
        return False
    return all(sum(n * c for n, c in zip(normal, row) if c) == 0 for row in rows)


def is_jumping_cubic(f: TernaryForm, g: TernaryForm) -> bool:
    """True exactly when g lies in the degree-3 hyperplane cut out by the
    Jacobi ideal of f (the locus where the restricted sheaf has a section)."""
    if g.is_zero():
        raise ZeroInputError("test cubic g must be nonzero")
    if g.degree != 3:
        raise DegreeMismatchError(f"g must be a cubic, got degree {g.degree}")
    if g.space != f.space:
        raise SpaceMismatchError(f"g is a {g.space} form, the cubic a {f.space} one")
    return sum(n * c for n, c in zip(jacobi_degree3(f), coefficient_vector(g))) == 0


def d0_graded_dim(f: TernaryForm, k: int) -> int:
    """Dimension of the space of degree-k polynomial derivations
    annihilating f: the kernel of M_k, the map (g_i) -> sum g_i d_i(f) on
    triples of degree (k+1) forms, whose rows z^m * d_i(f) come from
    :func:`_syzygy_rows`; its dimension is the number of rows minus the
    rank.

    For k >= 1 the rank of M_1, from the 18 triples of conics onto the 15
    quartics, is taken first.  If it is 15, as on every smooth cubic, then
    M_k is onto the forms of degree k + 3 and is not built.  Proof:
    multiplying triples of conics by forms of degree k - 1 shows that
    image(M_k) contains S_{k-1} * image(M_1) = S_{k-1} * S_4 = S_{k+3}.
    So the kernel has dimension 3*C(k+3, 2) - C(k+5, 2) = k^2 + 3k - 1,
    which is chi(E(k)) for the Chern numbers of ``chern_data(3, k)``
    (at k = 1, 18 - 15 = 3).  Below 15, k = 1 reads 18 minus that rank,
    and every other k, k = 0 included, eliminates M_k.
    """
    if f.degree != 3:
        raise DegreeMismatchError(f"need a cubic, got degree {f.degree}")
    _require_int("twist k", k)
    if k < 0:
        raise DegreeMismatchError(f"twist k must be >= 0, got {k}")
    if k >= 1:
        rank = _quartic_rank(f)
        if rank == _QUARTICS:
            return k * k + 3 * k - 1
        if k == 1:
            return _CONIC_TRIPLES - rank
    rows = _syzygy_rows(f, k)
    return len(rows) - ExactMatrix(rows).rank()


def is_stable(f: TernaryForm) -> bool:
    """True exactly when the normalized logarithmic sheaf has no global
    section, i.e. no nonzero triple of linear forms pairs to zero against
    the partials of f.

    For smooth cubics this is equivalent to stability; for singular inputs
    the boolean only reports triviality of that kernel, which the caller
    must interpret (stability of the sheaf along singular curves is not
    decided here).
    """
    return d0_graded_dim(f, 0) == 0
