"""Numeric validation of the polar involution on the Hessian curve.

Each point q of the Hessian curve of a smooth cubic has a degenerate polar
conic whose singular point s(q) again lies on the Hessian curve; the map
q -> s(q) is an involution without fixed points.  This module samples the
Hessian curve by intersecting it with random integer lines (exact
restriction, floating-point root extraction), applies the involution via
the kernel direction of the numeric Gram matrix, and reports the worst
double-application error and the closest approach to a fixed point in the
chordal metric.

The exact steps round to floats in one place each.  The restriction of the
Hessian to a line is expanded in integers, after scaling the Hessian by
its common denominator, and divided back once per coefficient.  The Gram
matrices of the three partials are read off the ten cubic coefficients:
entry (i, j, k) is d_i d_j d_k f / 2, that is c*e0!*e1!*e2!/2 for the
coefficient c of the monomial z^e = z_i*z_j*z_k, rounded to float once.
Either way each float is the correctly rounded value of the same exact
rational as when the partials and restrictions were built from Fractions,
so the numeric steps see the same inputs bit for bit.

The involution is applied to the whole sample stack at once: one Gram stack
per curve, one (n, 3, 3) array of polar Gram matrices and one batched SVD
per application of s, with a rejected sample marked as a NaN row rather
than raised.  Every float is the one the point-by-point computation gave:
the batched SVD makes the same LAPACK call on each matrix, the Gram
matrices come from the same elementwise expression, row norms and inner
products are the same dot products taken through matmul (np.linalg.norm
of one vector is a dot of its real and of its imaginary part), and the
Hessian residual multiplies by complex(c), which is what Fraction * complex
converts a coefficient c to.

Points are double-precision complex 3-vectors normalized to unit norm; all
randomness is drawn from an explicit seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, isfinite, lcm, prod
from typing import TYPE_CHECKING

from .cubics import hessian_curve
from .errors import (
    InsufficientSamplesError,
    NumericRankError,
    SingularCurveError,
    ZeroInputError,
)
from .forms import Monomial, TernaryForm

# numpy is imported inside the functions that use it, so that importing
# logcubic, and every command but `involution`, does not load it.
if TYPE_CHECKING:
    import numpy as np

# Residual bound certifying that a sampled point lies on the (normalized)
# Hessian curve, and the relative singular-value threshold for the numeric
# rank-2 test of the Gram matrix.
RESIDUAL_BOUND = 1e-10
RANK_TOLERANCE = 1e-6


def _gram_slots() -> dict[Monomial, tuple[int, tuple[int, ...]]]:
    """For each cubic monomial z^e: the weight e0!*e1!*e2! and the flat
    indices 9i + 3j + k of the (3, 3, 3) Gram stack with z_i*z_j*z_k = z^e."""
    slots: dict[Monomial, list[int]] = {}
    for flat, ijk in enumerate(product(range(3), repeat=3)):
        mono = tuple(ijk.count(v) for v in range(3))
        slots.setdefault(mono, []).append(flat)
    return {
        mono: (prod(factorial(e) for e in mono), tuple(flats))
        for mono, flats in slots.items()
    }


_GRAM_SLOTS = _gram_slots()


@dataclass(frozen=True)
class InvolutionReport:
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
    arrays; see :func:`chordal_distance`."""
    u = p / _row_norms(p)[:, None]
    v = q / _row_norms(q)[:, None]
    # conj(v) . u per row is np.vdot(v, u).
    return _row_norms(u - v * _row_dots(v.conj(), u)[:, None])


def chordal_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Scale-free distance between projective points: sin of the Hermitian
    angle between the complex lines through p and q.

    Computed as the norm of p's component orthogonal to q, which stays
    accurate near zero (the textbook 1 - |<p,q>|^2 form floors out at the
    square root of machine epsilon).  This is the batch of one of the
    row-wise distances that :func:`check_involution` takes."""
    import numpy as np

    p = np.asarray(p, dtype=complex).reshape(1, -1)
    q = np.asarray(q, dtype=complex).reshape(1, -1)
    return float(_chordal_rows(p, q)[0])


def _restrict_to_line(
    form: TernaryForm, base: tuple[int, ...], direction: tuple[int, ...]
) -> list[Fraction]:
    """Exact coefficients c_k of form(mu*base + lam*direction) as a binary
    form sum c_k mu^(d-k) lam^k, returned ascending in k.

    The form is scaled by the common denominator of its coefficients, so the
    expansion runs in integers and each c_k is one Fraction at the end."""
    d = form.degree
    den = lcm(*(c.denominator for c in form.terms.values()))
    # powers[i][e]: coefficients of (mu*p_i + lam*q_i)^e, ascending in lam.
    powers = []
    for p_i, q_i in zip(base, direction):
        rows = [[1]]
        for _ in range(d):
            prev = rows[-1]
            rows.append([p_i * a + q_i * b for a, b in zip(prev + [0], [0] + prev)])
        powers.append(rows)
    out = [0] * (d + 1)
    for mono, coeff in form.terms.items():
        acc = [coeff.numerator * (den // coeff.denominator)]
        for rows, e in zip(powers, mono):
            if e == 0:
                continue
            expanded = [0] * (len(acc) + e)
            for a, x in enumerate(acc):
                for b, y in enumerate(rows[e]):
                    expanded[a + b] += x * y
            acc = expanded
        for k, c in enumerate(acc):
            out[k] += c
    return [Fraction(c, den) for c in out]


def _random_projective_point(rng: random.Random) -> tuple[int, ...]:
    while True:
        point = tuple(rng.randint(-9, 9) for _ in range(3))
        if any(c != 0 for c in point):
            return point


def sample_hessian_points(
    f: TernaryForm, n: int, seed: int = 0
) -> list[np.ndarray]:
    """Up to 3n points on the Hessian curve of f, from n random integer
    lines.  Each returned point is unit-norm complex with normalized
    Hessian residual below RESIDUAL_BOUND.

    The Hessian's restriction to each line is exact (an integer expansion,
    one Fraction per coefficient) and is rounded to floats only when handed
    to the root finder; the residual is evaluated on the complex point."""
    import numpy as np

    he = hessian_curve(f)
    if he.is_zero():
        raise SingularCurveError("Hessian form vanishes identically")
    scale = float(max(abs(c) for c in he.terms.values()))
    # Fraction * complex computes complex(c) * x, so these terms give the
    # floats of he.evaluate on a complex point without building Fractions.
    terms = [(complex(c), e) for e, c in he.terms.items()]
    points: list[np.ndarray] = []
    rng = random.Random(seed)
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
        coeffs = _restrict_to_line(he, base, direction)
        base_vec = np.array([float(c) for c in base], dtype=complex)
        dir_vec = np.array([float(c) for c in direction], dtype=complex)
        # Exact zero leading coefficient: the direction point itself is on
        # the curve (the root "at infinity" of the affine parameter).
        if coeffs[-1] == 0:
            points.append(dir_vec / np.linalg.norm(dir_vec))
        poly_desc = [float(c) for c in reversed(coeffs)]
        roots = np.roots(poly_desc) if any(poly_desc) else []
        for lam in roots:
            vec = base_vec + lam * dir_vec
            norm = np.linalg.norm(vec)
            if norm == 0:
                continue
            vec = vec / norm
            x0, x1, x2 = (complex(x) for x in vec)
            # Accumulated term by term in he.evaluate's order (sum() may
            # compensate, and so round differently).
            value = 0j
            for c, (e0, e1, e2) in terms:
                value += c * x0**e0 * x1**e1 * x2**e2
            if abs(value) / scale < RESIDUAL_BOUND:
                points.append(vec)
    return points


def _gram_stack(f: TernaryForm) -> np.ndarray:
    """The (3, 3, 3) float array whose slice i is the Gram matrix G_i of
    d_i f, with entries d_i d_j d_k f / 2 read off the ten coefficients of
    the cubic f.  Each entry is one correctly rounded integer division, so
    it equals the float of the exact partial's Gram entry."""
    import numpy as np

    flat = [0.0] * 27
    for mono, coeff in f.terms.items():
        weight, slots = _GRAM_SLOTS[mono]
        # int / int rounds correctly, exactly as float(Fraction) does.
        value = coeff.numerator * weight / (2 * coeff.denominator)
        for slot in slots:
            flat[slot] = value
    return np.array(flat).reshape(3, 3, 3)


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
        raise ZeroInputError("involution needs a cubic form")
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
