"""Numeric validation of the polar involution on the Hessian curve.

Each point q of the Hessian curve of a smooth cubic has a degenerate polar
conic whose singular point s(q) again lies on the Hessian curve; the map
q -> s(q) is an involution without fixed points.  This module samples the
Hessian curve by intersecting it with random integer lines (exact
restriction, floating-point root extraction), applies the involution via
the kernel direction of the numeric Gram matrix, and reports the worst
double-application error and the closest approach to a fixed point in the
chordal metric.

The exact steps round to floats in one place each.  The Hessian H is
scaled by the common denominator den of its coefficients, and the integer
gradient g of den*H is built once per curve.  By Euler's identity the
restriction of H to the line through the integer points p and d has the
coefficients p.g(p)/3, d.g(p), p.g(d) and d.g(d)/3 over den, where both
divisions by 3 are exact.  The Gram matrices of the three partials of f
come from :func:`logcubic.cubics.gram_matrix`.  Each float the numeric
steps see is the correctly rounded value of one exact rational.

The roots of all regular sampling lines (nonzero leading and constant
coefficient) come from one np.linalg.eigvals call on the stack of their
companion matrices, built as np.roots builds them; the batched call makes
the same LAPACK call on each matrix that np.roots makes.  A degenerate line
keeps np.roots, which strips its zero coefficients: in the stack a zero
leading coefficient would put infinities, and a zero constant coefficient
would move the root 0 from last place to first.

Every candidate point then takes one Newton step onto the Hessian curve
along the conjugate gradient of den*H (see :func:`_onto_hessian`).  A root
of the rounded restriction lies slightly off the curve, and where the polar
conic at s(q) is close to a double line, the small gap between its singular
values amplifies that error: on one dense cubic a normalized residual of
8e-12 in q became an error of 1.1e-8 in s(s(q)); one step took that
residual to 1e-17.  The residual filter then runs on all candidate points
at once, in plain numpy complex arithmetic.  Its rounding may differ from a
point-by-point evaluation's, which could flip a decision only for a
residual within rounding distance of RESIDUAL_BOUND; even before the step,
the largest residual among 539,720 candidate points of dense and pencil
cubics was 7.3e-11.

The involution is applied to the whole sample stack at once: one Gram stack
per curve, one (n, 3, 3) array of polar Gram matrices and one batched SVD
per application of s, with a rejected sample marked as a NaN row rather
than raised.  Every float is the one the point-by-point computation gave:
the batched SVD makes the same LAPACK call on each matrix, the Gram
matrices come from the same elementwise expression, row norms and inner
products are the same dot products taken through matmul (np.linalg.norm
of one vector is a dot of its real and of its imaginary part).

Points are double-precision complex 3-vectors normalized to unit norm; all
randomness is drawn from an explicit seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isfinite, lcm
from typing import TYPE_CHECKING, NamedTuple

from .cubics import gram_matrix, hessian_curve
from .errors import (
    DegreeMismatchError,
    InsufficientSamplesError,
    NumericRankError,
    SingularCurveError,
    ZeroInputError,
)
from .forms import Monomial, TernaryForm, partial_derivative

# numpy is imported inside the functions that use it, so that importing
# logcubic, and every command but `involution`, does not load it.
if TYPE_CHECKING:
    import numpy as np

# Residual bound certifying that a sampled point lies on the (normalized)
# Hessian curve, and the relative singular-value threshold for the numeric
# rank-2 test of the Gram matrix.
RESIDUAL_BOUND = 1e-10
RANK_TOLERANCE = 1e-6


class InvolutionReport(NamedTuple):
    """Numeric summary of one involution run."""

    samples: int
    max_double_apply_error: float
    min_fixed_point_distance: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            self.max_double_apply_error < self.tolerance
            and self.min_fixed_point_distance > self.tolerance
        )


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unconjugated dot products of matching rows of two (n, 3) arrays,
    through matmul: each equals np.dot of the two rows bit for bit, where an
    axis-wise sum or np.linalg.norm(..., axis=1) may round differently."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (n, 3) complex array, each equal bit
    for bit to np.linalg.norm of that row (which sums the dot products of
    the real and of the imaginary parts)."""
    import numpy as np

    return np.sqrt(_row_dots(x.real, x.real) + _row_dots(x.imag, x.imag))


def _chordal_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Chordal distances between matching rows of two (n, 3) complex
    arrays: the scale-free distance between projective points, sin of the
    Hermitian angle between the complex lines through p and q.

    Computed as the norm of p's component orthogonal to q, which stays
    accurate near zero (the textbook 1 - |<p,q>|^2 form floors out at the
    square root of machine epsilon)."""
    u = p / _row_norms(p)[:, None]
    v = q / _row_norms(q)[:, None]
    # conj(v) . u per row is np.vdot(v, u).
    return _row_norms(u - v * _row_dots(v.conj(), u)[:, None])


def _integer_gradient(form: TernaryForm) -> tuple[int, list[list[tuple[int, Monomial]]]]:
    """The common denominator den of the form's coefficients, and the
    gradient of den*form with each partial as (integer, exponents) terms."""
    den = lcm(*(c.denominator for c in form.terms.values()))
    scaled = form.scale(den)
    return den, [
        [(c.numerator, e) for e, c in partial_derivative(scaled, i).terms.items()]
        for i in range(3)
    ]


def _restrict_to_line(
    den: int, grad: list[list[tuple[int, Monomial]]],
    base: tuple[int, ...], direction: tuple[int, ...],
) -> list[Fraction]:
    """Exact coefficients c_k of H(mu*base + lam*direction) as a binary
    cubic sum c_k mu^(3-k) lam^k, returned ascending in k.

    den and grad are :func:`_integer_gradient` of H.  With g = grad(den*H),
    p = base and d = direction, Euler's identity gives den*c =
    [p.g(p)/3, d.g(p), p.g(d), d.g(d)/3]; both divisions by 3 are exact in
    integers."""

    def at(point):
        x0, x1, x2 = point
        return [sum(c * x0**e0 * x1**e1 * x2**e2 for c, (e0, e1, e2) in terms)
                for terms in grad]

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    gp, gd = at(base), at(direction)
    scaled = [dot(base, gp) // 3, dot(direction, gp), dot(base, gd), dot(direction, gd) // 3]
    return [Fraction(c, den) for c in scaled]


def _random_projective_point(rng: random.Random) -> tuple[int, ...]:
    while True:
        point = tuple([rng.randint(-9, 9) for _ in range(3)])
        if any(c != 0 for c in point):
            return point


def _column_powers(x: np.ndarray) -> list[list]:
    """For each column c of an (n, 3) array, the table [None, c, c*c, c*c*c]
    of its powers, built by multiplication."""
    table = []
    for column in x.T:
        square = column * column
        table.append([None, column, square, column * square])
    return table


def _evaluate(terms, powers: list[list]) -> np.ndarray:
    """Sum of c * x0^e0 * x1^e1 * x2^e2 over (c, (e0, e1, e2)) terms at each
    row of a point stack, whose column powers :func:`_column_powers` gave."""
    import numpy as np

    value = np.zeros(len(powers[0][1]), dtype=complex)
    for c, exponents in terms:
        term = c
        for column, e in zip(powers, exponents):
            if e:
                term = term * column[e]
        value += term
    return value


def _onto_hessian(grad: list[list[tuple[int, Monomial]]], x: np.ndarray) -> np.ndarray:
    """Each row of a unit (n, 3) complex stack after one Newton step toward
    the Hessian curve, renormalized.  grad is :func:`_integer_gradient` of H.

    With g = grad(den*H) at x, Euler's identity gives den*H(x) = x.g/3, and
    the step is x - (x.g/3) conj(g)/|g|^2.  The gradient is scaled by its
    largest coefficient first, which the step does not see.  A row where g
    vanishes stays as it is."""
    import numpy as np

    top = max(abs(c) for terms in grad for c, _ in terms)
    powers = _column_powers(x)
    g = np.column_stack([_evaluate([(c / top, e) for c, e in terms], powers) for terms in grad])
    gg = _row_dots(g.real, g.real) + _row_dots(g.imag, g.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = x - (_row_dots(x, g) / (3 * gg))[:, None] * g.conj()
        y /= _row_norms(y)[:, None]
    return np.where((gg == 0)[:, None], x, y)


def sample_hessian_points(
    f: TernaryForm, n: int, seed: int = 0
) -> list[np.ndarray]:
    """Up to 3n points on the Hessian curve of f, from n random integer
    lines.  Each returned point is unit-norm complex with normalized
    Hessian residual below RESIDUAL_BOUND.

    The Hessian's integer gradient is built once; the restriction to each
    line is exact (four dot products of its values at two points, one
    Fraction per coefficient) and is rounded to floats only when handed to
    the root finder.  The roots of every regular line (nonzero leading and
    constant coefficient) come from one eigvals call on the stack of their
    companion matrices; a degenerate line keeps np.roots, which strips its
    zero coefficients, and an exact zero leading coefficient also gives the
    direction point itself, which is kept without a residual test.  Every
    unit candidate point takes one Newton step onto the curve, and the
    residual is evaluated on all of them at once."""
    import numpy as np

    he = hessian_curve(f)
    if he.is_zero():
        raise SingularCurveError("Hessian form vanishes identically")
    den, grad = _integer_gradient(he)
    scale = float(max(abs(c) for c in he.terms.values()))
    rng = random.Random(seed)
    lines, polys, at_infinity = [], [], []
    for _ in range(n):
        base = _random_projective_point(rng)
        direction = _random_projective_point(rng)
        cross = (
            base[1] * direction[2] - base[2] * direction[1],
            base[2] * direction[0] - base[0] * direction[2],
            base[0] * direction[1] - base[1] * direction[0],
        )
        if all(c == 0 for c in cross):
            continue
        coeffs = _restrict_to_line(den, grad, base, direction)
        lines.append((base, direction))
        polys.append([float(c) for c in reversed(coeffs)])
        # Exact zero leading coefficient: the direction point itself is on
        # the curve (the root "at infinity" of the affine parameter).
        at_infinity.append(coeffs[-1] == 0)
    if not lines:
        return []
    polys = np.array(polys)
    ends = np.array(lines, dtype=complex)
    bases, dirs = ends[:, 0], ends[:, 1]
    lams = np.zeros((len(lines), 3), dtype=complex)
    found = np.zeros((len(lines), 3), dtype=bool)
    regular = (polys[:, 0] != 0) & (polys[:, 3] != 0)
    # np.roots's companion matrix, for all regular lines at once.
    companion = np.zeros((int(regular.sum()), 3, 3))
    companion[:, 1, 0] = companion[:, 2, 1] = 1
    companion[:, 0, :] = -polys[regular, 1:] / polys[regular, :1]
    lams[regular] = np.linalg.eigvals(companion)
    found[regular] = True
    for i in np.flatnonzero(~regular):
        roots = np.roots(polys[i]) if polys[i].any() else []
        lams[i, : len(roots)] = roots
        found[i, : len(roots)] = True
    # Per line, the direction point and then one candidate per root, in
    # the order of the roots.  dirs is real, so each part of lam*dir is one
    # rounded product, fused multiply or not.
    candidates = np.concatenate(
        [dirs[:, None], bases[:, None] + lams[:, :, None] * dirs[:, None]], axis=1)
    slots = np.column_stack([at_infinity, found])
    is_direction = np.zeros_like(slots)
    is_direction[:, 0] = True
    vecs, is_direction = candidates[slots], is_direction[slots]
    norms = _row_norms(vecs)
    nonzero = norms != 0
    vecs, is_direction = vecs[nonzero] / norms[nonzero, None], is_direction[nonzero]
    vecs = _onto_hessian(grad, vecs)
    terms = [(float(c), e) for e, c in he.terms.items()]
    on_curve = np.abs(_evaluate(terms, _column_powers(vecs))) / scale < RESIDUAL_BOUND
    return list(vecs[is_direction | on_curve])


def _gram_stack(f: TernaryForm) -> np.ndarray:
    """The (3, 3, 3) float array whose slice i is the Gram matrix of d_i f,
    from :func:`logcubic.cubics.gram_matrix`, each exact entry rounded to
    float once."""
    import numpy as np

    return np.array(
        [gram_matrix(partial_derivative(f, i)).entries for i in range(3)], dtype=float
    )


def involution_s(f: TernaryForm, q: np.ndarray) -> np.ndarray:
    """Singular point of the polar conic of f at a Hessian-curve point q, or
    at each row of an (n, 3) stack of points.

    The polar's Gram matrix sum q_i G_i must be numerically rank 2: its
    smallest singular value certifies q lies on the Hessian curve, and the
    middle one rules out the doubled-line degeneration.  The kernel
    direction is the right singular vector of the smallest singular value,
    normalized to unit norm.

    G_i is the Gram matrix of d_i f, from :func:`_gram_stack`, built once per
    call; all Gram matrices of a stack go through one batched SVD.  A single
    point that fails the rank-2 test raises NumericRankError; in a stack the
    row of such a point is NaN.
    """
    import numpy as np

    if f.degree != 3:
        raise DegreeMismatchError(f"involution needs a cubic, got degree {f.degree}")
    q = np.asarray(q, dtype=complex)
    qs = q.reshape(-1, 3)
    grams = _gram_stack(f)
    gram = sum(qs[:, i, None, None] * grams[i] for i in range(3))
    _, sigma, vh = np.linalg.svd(gram)
    with np.errstate(divide="ignore", invalid="ignore"):
        off_curve = (sigma[:, 0] == 0) | (sigma[:, 2] / sigma[:, 0] > RANK_TOLERANCE)
        rank_one = ~off_curve & (sigma[:, 1] / sigma[:, 0] <= RANK_TOLERANCE)
    if q.ndim == 1:
        if off_curve[0]:
            raise NumericRankError(
                "polar Gram matrix is not rank-deficient; point is off the Hessian curve"
            )
        if rank_one[0]:
            raise NumericRankError(
                "polar Gram matrix has numeric rank <= 1; singular point not unique"
            )
    kernel = np.conj(vh[:, 2])
    kernel = kernel / _row_norms(kernel)[:, None]
    kernel[off_curve | rank_one] = np.nan
    return kernel[0] if q.ndim == 1 else kernel


def check_involution(
    f: TernaryForm, n: int, tol: float, seed: int = 0
) -> InvolutionReport:
    """Sample the Hessian curve and verify the involution numerically.

    Points whose polar Gram matrix fails the rank-2 test (in either the
    first or the second application) are filtered out; fewer than n/2
    surviving samples raises rather than reporting a hollow pass.  So does
    n < 1, before any sampling; a tolerance that is not finite and positive
    raises ZeroInputError.

    Each application of s is one call on the whole stack: first on every
    sampled point, then on the images that passed.
    """
    import numpy as np

    if not (isfinite(tol) and tol > 0):
        raise ZeroInputError(f"tolerance must be finite and positive, got {tol}")
    if n < 1:
        raise InsufficientSamplesError(f"need at least 1 sampling line, got {n}")
    qs = np.array(sample_hessian_points(f, n, seed), dtype=complex).reshape(-1, 3)
    sqs = involution_s(f, qs)
    kept = ~np.isnan(sqs[:, 0])
    qs, sqs = qs[kept], sqs[kept]
    ssqs = involution_s(f, sqs)
    kept = ~np.isnan(ssqs[:, 0])
    qs, sqs, ssqs = qs[kept], sqs[kept], ssqs[kept]
    usable = len(qs)
    if usable < n / 2:
        raise InsufficientSamplesError(
            f"only {usable} of the required {n / 2:.0f} samples were usable"
        )
    return InvolutionReport(
        samples=usable,
        max_double_apply_error=float(_chordal_rows(ssqs, qs).max()),
        min_fixed_point_distance=float(_chordal_rows(sqs, qs).min()),
        tolerance=tol,
    )
