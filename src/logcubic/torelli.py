"""Reconstruction of a Hesse-pencil cubic from its two computable sheaf
invariants, and the family demonstrating where reconstruction must fail.

The forward map sends a smooth pencil member to its jumping-line cubic (in
dual coordinates) and the normal vector of the degree-3 Jacobi hyperplane.
Reading the dual cubic in normalized Hesse form yields a parameter s; the
source parameter is then one of at most three roots of x^3 - 3sx + 2 = 0,
and the hyperplane normal picks out the right one: a candidate is kept when
the normal pairs to zero with the nine cubics z_i * d_j of its pencil
member, so no kernel is solved per candidate.  When the dual cubic is
singular (s^3 = 1, equivalently j = 0, or the degenerate product-of-lines
case) the candidates cannot be separated and reconstruction refuses.

The rational candidates are found in time polynomial in the bit size of s:
with s = p/q in lowest terms, y = q*x turns them into the integer roots of
the monic cubic y^3 - 3pq*y + 2q^3, and exact integer bisection on each
monotone run of that cubic, inside its Cauchy bound, finds them.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .cubics import hesse_cubic, hesse_pencil_split
from .errors import (
    CayleyanSingularError,
    InconsistentInvariantsError,
    NotHessePencilError,
    SingularCurveError,
    ZeroInputError,
)
from .forms import (
    DUAL,
    Scalar,
    TernaryForm,
    monomial_basis,
    monomial_form,
    projectively_equal,
    variable,
    vectors_projectively_equal,
)
from .sheaf import (
    HyperplaneNormal,
    _is_jacobi_normal,
    cayleyan_cubic,
    jacobi_degree3,
)


class SheafInvariants(NamedTuple):
    """The two reconstruction invariants of a cubic: its jumping-line cubic
    in dual coordinates and the canonical Jacobi-hyperplane normal."""

    cayleyan: TernaryForm
    hyperplane: HyperplaneNormal


class CandidateSet(NamedTuple):
    """Solutions of x^3 - 3sx + 2 = 0: the rational roots exactly, plus the
    residual cofactor (with no rational roots) in descending coefficients."""

    exact_roots: tuple[Fraction, ...]
    residual: tuple[Fraction, ...]


def cayleyan_hesse_param(t: Scalar) -> Fraction:
    """Hesse parameter s = (t^3 + 2) / (3t) of the jumping-line cubic of the
    pencil member at t."""
    t = Fraction(t)
    if t**3 == 1:
        raise SingularCurveError(f"pencil member at t = {t} is singular")
    if t == 0:
        raise CayleyanSingularError(
            "at t = 0 the jumping-line cubic degenerates to a0*a1*a2 = 0; "
            "no finite Hesse parameter exists"
        )
    return (t**3 + 2) / (3 * t)


def forward_invariants(t: Scalar) -> SheafInvariants:
    """Both sheaf invariants of the smooth pencil member at t."""
    t = Fraction(t)
    if t**3 == 1:
        raise SingularCurveError(f"pencil member at t = {t} is singular")
    f = hesse_cubic(t)
    return SheafInvariants(cayleyan=cayleyan_cubic(f), hyperplane=jacobi_degree3(f))


def reconstruct_candidates(s: Scalar) -> CandidateSet:
    """All parameters x whose jumping-line cubic has Hesse parameter s,
    i.e. the roots of x^3 - 3sx + 2 = 0; rational roots exactly, the rest
    packaged as the residual factor.

    With s = p/q in lowest terms, a rational root a/b of q*x^3 - 3p*x + 2q
    has b | q, so y = q*x maps the rational roots one-to-one onto the
    integer roots of the monic cubic h(y) = y^3 - 3pq*y + 2q^3.  Those lie
    within the Cauchy bound |y| <= 1 + max(|3pq|, 2q^3).  When p > 0, h
    turns at y = +-sqrt(pq), so with c = isqrt(pq) it is strictly monotone
    on the integer runs [-bound, -c-1], [-c, c] and [c+1, bound]; when
    p <= 0 it increases everywhere and there is one run.  Exact integer
    bisection finds the at most one root of each run in O(log(|p| + q))
    steps.  The runs go left to right, so the roots come out sorted.  A
    root r with r^2 = s is double (h' vanishes there) and the residual is
    deflated by it twice.
    """
    s = Fraction(s)
    p, q = s.numerator, s.denominator

    def h(y: int) -> int:
        return y**3 - 3 * p * q * y + 2 * q**3

    bound = 1 + max(abs(3 * p * q), 2 * q**3)
    if p > 0:
        c = isqrt(p * q)
        runs = [(-bound, -c - 1, 1), (-c, c, -1), (c + 1, bound, 1)]
    else:
        runs = [(-bound, bound, 1)]
    roots: list[Fraction] = []
    for lo, hi, sign in runs:
        # Least y in [lo, hi] with sign * h(y) >= 0; sign * h increases there.
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * h(mid) >= 0:
                hi = mid
            else:
                lo = mid + 1
        if h(lo) == 0:
            roots.append(Fraction(lo, q))

    residual = [Fraction(1), Fraction(0), -3 * s, Fraction(2)]
    for r in roots:
        for _ in range(2 if r * r == s else 1):
            deflated = [residual[0]]
            for coeff in residual[1:-1]:
                deflated.append(coeff + r * deflated[-1])
            residual = deflated
    return CandidateSet(exact_roots=tuple(roots), residual=tuple(residual))


def _dual_hesse_parameter(cayleyan: TernaryForm) -> Fraction:
    """Read the normalized Hesse parameter s off a dual cubic, requiring it
    to be a pencil member (sum of cubes minus 3s times the product) with
    nonzero cube coefficient."""
    if cayleyan.space != DUAL:
        raise NotHessePencilError("the jumping-line cubic must live in dual coordinates")
    split = hesse_pencil_split(cayleyan)
    if split is None:
        raise NotHessePencilError(
            "jumping-line cubic is not a Hesse pencil member in these "
            "coordinates; adapt the basis first"
        )
    lam, mu = split
    if lam == 0:
        raise CayleyanSingularError(
            "jumping-line cubic is the product of the three coordinate "
            "lines; the source family shares identical invariants"
        )
    return -mu / (3 * lam)


def reconstruct(inv: SheafInvariants) -> Fraction:
    """Recover the unique pencil parameter whose invariants match.

    The dual cubic determines s (refusing when it is singular: that is the
    j = 0 failure locus), the candidate equation x^3 - 3sx + 2 = 0 yields at
    most three parameters, and the candidate whose Jacobi hyperplane has the
    given normal is kept; exactness makes the match unique whenever the
    dual cubic is smooth.
    """
    return _reconstruct(inv)[0]


def _reconstruct(inv: SheafInvariants) -> tuple[Fraction, Fraction, CandidateSet]:
    """The work of :func:`reconstruct`, returning the recovered parameter
    together with s and the candidate set it was chosen from.

    A candidate x is kept when the given normal N is nonzero and pairs to
    zero with the nine cubics z_i * d_j(g) of g = hesse_cubic(x), which is
    J_3(g) lying in the hyperplane N.  Every candidate is smooth: x^3 = 1
    would force s = 1/x, as x^3 - 3sx + 2 = 0, so s^3 = 1, which is refused
    first.  The partials of a smooth cubic have no linear syzygy, so the
    nine cubics span its 9-dimensional hyperplane, and a nonzero N pairs to
    zero with all nine exactly when N is projectively equal to
    ``jacobi_degree3(g)``, which is not computed.
    """
    s = _dual_hesse_parameter(inv.cayleyan)
    if s**3 == 1:
        raise CayleyanSingularError(
            f"jumping-line cubic with parameter s = {s} is singular (s^3 = 1); "
            "reconstruction cannot separate the candidates"
        )
    candidates = reconstruct_candidates(s)
    matches = [
        x
        for x in candidates.exact_roots
        if _is_jacobi_normal(hesse_cubic(x), inv.hyperplane)
    ]
    if not matches:
        raise InconsistentInvariantsError(
            "no candidate parameter reproduces the supplied hyperplane normal"
        )
    return matches[0], s, candidates


def cayleyan_singularity_identity() -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Both sides of the exact identity (t^3+2)^3 - (3t)^3 = (t^3-1)^2 * (t^3+8)
    as coefficient tuples in ascending powers of t.

    The left side is the numerator of s^3 - 1 for s = (t^3+2)/(3t), so its
    factorization shows the jumping-line cubic is singular exactly at the
    singular members (t^3 = 1) and the j = 0 locus (t^3 = -8, plus t = 0).
    Both sides are built as forms of degree 9 with t = z0, homogenized by
    z1, so the coefficient of t^k sits at the monomial z0^k * z1^(9-k).
    """
    t, u = variable(0), variable(1)
    lhs = (t**3 + 2 * u**3) ** 3 - 27 * t**3 * u**6
    rhs = (t**3 - u**3) ** 2 * (t**3 + 8 * u**3)
    return tuple(
        [tuple([side.coefficient((k, 9 - k, 0)) for k in range(10)]) for side in (lhs, rhs)]
    )


def counterexample_check(a: Scalar, b: Scalar, c: Scalar) -> bool:
    """True when the cubic a*z0^3 + b*z1^3 + c*z2^3 has the invariant pair
    shared by the whole family: jumping-line cubic a0*a1*a2 = 0 and the
    hyperplane normal supported on the z0*z1*z2 coefficient alone."""
    return _counterexample(a, b, c)[0]


def _counterexample(a: Scalar, b: Scalar, c: Scalar) -> tuple[bool, SheafInvariants]:
    """The verdict of counterexample_check and the invariants it compares,
    each computed once.  A zero coefficient is refused as zero input before
    the smoothness gates of the invariants could call the curve singular."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a == 0 or b == 0 or c == 0:
        raise ZeroInputError("family coefficients a, b, c must all be nonzero")
    f = TernaryForm(3, {(3, 0, 0): a, (0, 3, 0): b, (0, 0, 3): c})
    invariants = SheafInvariants(cayleyan=cayleyan_cubic(f), hyperplane=jacobi_degree3(f))
    expected = tuple(
        [Fraction(1 if mono == (1, 1, 1) else 0) for mono in monomial_basis(3)]
    )
    shared = projectively_equal(
        invariants.cayleyan, monomial_form((1, 1, 1), 1, DUAL)
    ) and vectors_projectively_equal(invariants.hyperplane, expected)
    return shared, invariants
