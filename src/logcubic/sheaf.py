"""Sheaf-theoretic invariants of a smooth plane cubic, computed as exact
linear algebra on coefficient vectors.

A line, given by a nonzero linear form alpha, jumps exactly when the six
conics z0*alpha, z1*alpha, z2*alpha, d0(f), d1(f), d2(f) are linearly
dependent; letting alpha vary symbolically turns that 6x6 determinant into
a cubic in the dual plane, the Cayleyan curve.  The degree-3 part of the
Jacobi ideal of f is a hyperplane in the 10-dimensional space of cubics,
and its normal vector is the second reconstruction invariant.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .cubics import _syzygy_columns, _syzygy_matrix, is_smooth_cubic
from .errors import DegreeMismatchError, SingularCurveError, ZeroInputError
from .forms import (
    DUAL,
    ZERO,
    TernaryForm,
    coefficient_vector,
    constant_form,
    monomial_basis,
    partial_derivative,
    variable,
)
from .linalg import ExactMatrix, det_form_matrix

# Index of the monomial z0*z1*z2 within the degree-3 graded-lex basis; the
# canonical hyperplane normal is scaled to 1 there.
PRODUCT_INDEX = monomial_basis(3).index((1, 1, 1))

HyperplaneNormal = tuple[Fraction, ...]


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


def chern_data(d: int, k: int) -> ChernData:
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


def _require_smooth(f: TernaryForm) -> None:
    verdict = is_smooth_cubic(f)
    if not verdict.is_smooth:
        raise SingularCurveError(f"the cubic is singular: {verdict.witness}")


def jumping_matrix(f: TernaryForm, alpha: TernaryForm) -> ExactMatrix:
    """The 6x6 matrix whose columns are the degree-2 coefficient vectors of
    z0*alpha, z1*alpha, z2*alpha, d0(f), d1(f), d2(f), in that order."""
    _check_cubic_and_alpha(f, alpha)
    columns = [coefficient_vector(variable(i, f.space) * alpha) for i in range(3)]
    columns += [coefficient_vector(partial_derivative(f, i)) for i in range(3)]
    return ExactMatrix.from_columns(columns)


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
    """The jumping-line locus of f as an exact cubic in dual coordinates:
    the determinant of the symbolic jumping matrix, whose columns are
    z0*a, z1*a, z2*a, d0 f, d1 f, d2 f (as in :func:`jumping_matrix`) with
    the line a = a0 z0 + a1 z1 + a2 z2 left symbolic.  Evaluating it at a
    rational line gives that line's jumping-matrix determinant, sign
    included.  Raises SingularCurveError on a singular cubic.
    """
    _require_smooth(f)
    return _cayleyan_cubic(f)


def _cayleyan_cubic(f: TernaryForm) -> TernaryForm:
    """The work of :func:`cayleyan_cubic` for a cubic already known to be
    smooth, without the smoothness gate."""
    # Symbolic columns: entry (row m, col i) is the dual linear form giving
    # the coefficient of basis monomial m in z_i * (a0 z0 + a1 z1 + a2 z2);
    # the product z_i z_j contributes a_j to the row of that monomial.
    basis2 = monomial_basis(2)
    rows = [[TernaryForm(1, {}, DUAL) for _ in range(3)] for _ in range(6)]
    for i in range(3):
        for j in range(3):
            mono = [0, 0, 0]
            mono[i] += 1
            mono[j] += 1
            m = basis2.index(tuple(mono))
            rows[m][i] = rows[m][i] + variable(j, DUAL)

    partials = [coefficient_vector(partial_derivative(f, i)) for i in range(3)]
    for r, row in enumerate(rows):
        row.extend(constant_form(partials[i][r], DUAL) for i in range(3))
    return det_form_matrix(rows)


def canonical_normal(vector: Sequence[Fraction]) -> HyperplaneNormal:
    """Scale a hyperplane normal so its z0*z1*z2 entry is 1; when that entry
    vanishes, scale the first nonzero entry (graded-lex order) to 1.  Every
    zero entry of the result is the shared Fraction ``forms.ZERO``."""
    v = tuple(Fraction(x) for x in vector)
    pivot = v[PRODUCT_INDEX]
    if pivot == 0:
        pivot = next((x for x in v if x != 0), None)
        if pivot is None:
            raise ZeroInputError("hyperplane normal must be nonzero")
    return tuple(x / pivot if x else ZERO for x in v)


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
    kernel = ExactMatrix(_syzygy_columns(f, 0)).kernel_basis()
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
    columns = _syzygy_columns(f, 0)
    if len(normal) != len(columns[0]) or not any(normal):
        return False
    return all(
        sum(n * c for n, c in zip(normal, column) if c) == 0 for column in columns
    )


def is_jumping_cubic(f: TernaryForm, g: TernaryForm) -> bool:
    """True exactly when g lies in the degree-3 hyperplane cut out by the
    Jacobi ideal of f (the locus where the restricted sheaf has a section)."""
    if g.is_zero():
        raise ZeroInputError("test cubic g must be nonzero")
    if g.degree != 3:
        raise DegreeMismatchError(f"g must be a cubic, got degree {g.degree}")
    normal = jacobi_degree3(f)
    pairing = sum(
        (n * c for n, c in zip(normal, coefficient_vector(g))), Fraction(0)
    )
    return pairing == 0


def d0_graded_dim(f: TernaryForm, k: int) -> int:
    """Dimension of the space of degree-k polynomial derivations
    annihilating f: the kernel of (g_i) -> sum g_i d_i(f) on triples of
    degree (k+1) forms."""
    if f.degree != 3:
        raise DegreeMismatchError(f"need a cubic, got degree {f.degree}")
    if k < 0:
        raise DegreeMismatchError(f"twist k must be >= 0, got {k}")
    matrix = _syzygy_matrix(f, k)
    return matrix.cols - matrix.rank()


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
