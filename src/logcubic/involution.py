"""Numeric validation of the polar involution on the Hessian curve.

Each point q of the Hessian curve of a smooth cubic has a degenerate polar
conic whose singular point s(q) again lies on the Hessian curve; the map
q -> s(q) is an involution without fixed points.  This module samples the
Hessian curve by intersecting it with random rational lines (exact
restriction, floating-point root extraction), applies the involution via
the kernel direction of the numeric Gram matrix, and reports the worst
double-application error and the closest approach to a fixed point in the
chordal metric.

Points are double-precision complex 3-vectors normalized to unit norm; all
randomness is drawn from an explicit seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING

from .cubics import gram_matrix, hessian_curve
from .errors import (
    InsufficientSamplesError,
    NumericRankError,
    SingularCurveError,
    ZeroInputError,
)
from .forms import TernaryForm, partial_derivative

# numpy is imported inside the functions that use it, so that importing
# logcubic, and every command but `involution`, does not load it.
if TYPE_CHECKING:
    import numpy as np

# Residual bound certifying that a sampled point lies on the (normalized)
# Hessian curve, and the relative singular-value threshold for the numeric
# rank-2 test of the Gram matrix.
RESIDUAL_BOUND = 1e-10
RANK_TOLERANCE = 1e-6


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


def chordal_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Scale-free distance between projective points: sin of the Hermitian
    angle between the complex lines through p and q.

    Computed as the norm of p's component orthogonal to q, which stays
    accurate near zero (the textbook 1 - |<p,q>|^2 form floors out at the
    square root of machine epsilon)."""
    import numpy as np

    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    u = p / np.linalg.norm(p)
    v = q / np.linalg.norm(q)
    return float(np.linalg.norm(u - v * np.vdot(v, u)))


def _restrict_to_line(
    form: TernaryForm, base: tuple[Fraction, ...], direction: tuple[Fraction, ...]
) -> list[Fraction]:
    """Exact coefficients c_k of form(mu*base + lam*direction) as a binary
    form sum c_k mu^(d-k) lam^k, returned ascending in k."""
    d = form.degree
    out = [Fraction(0)] * (d + 1)
    for mono, coeff in form.terms.items():
        # Convolve the binomial expansions of (mu*p_i + lam*q_i)^e_i.
        acc = [coeff]
        for p_i, q_i, e in zip(base, direction, mono):
            if e == 0:
                continue
            binom = [comb(e, k) * p_i ** (e - k) * q_i**k for k in range(e + 1)]
            acc = [
                sum(
                    acc[a] * binom[k - a]
                    for a in range(max(0, k - e), min(len(acc) - 1, k) + 1)
                )
                for k in range(len(acc) + e)
            ]
        for k, c in enumerate(acc):
            out[k] += c
    return out


def _random_projective_point(rng: random.Random) -> tuple[Fraction, ...]:
    while True:
        point = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
        if any(c != 0 for c in point):
            return point


def sample_hessian_points(
    f: TernaryForm, n: int, seed: int = 0
) -> list[np.ndarray]:
    """Up to 3n points on the Hessian curve of f, from n random rational
    lines.  Each returned point is unit-norm complex with normalized
    Hessian residual below RESIDUAL_BOUND."""
    import numpy as np

    he = hessian_curve(f)
    if he.is_zero():
        raise SingularCurveError("Hessian form vanishes identically")
    scale = float(max(abs(c) for c in he.terms.values()))
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
            residual = abs(complex(he.evaluate(tuple(complex(x) for x in vec)))) / scale
            if residual < RESIDUAL_BOUND:
                points.append(vec)
    return points


def involution_s(f: TernaryForm, q: np.ndarray) -> np.ndarray:
    """Singular point of the polar conic of f at a Hessian-curve point q.

    The polar's Gram matrix must be numerically rank 2: its smallest
    singular value certifies q lies on the Hessian curve, and the middle
    one rules out the doubled-line degeneration.  The kernel direction is
    the right singular vector of the smallest singular value.
    """
    import numpy as np

    if f.degree != 3:
        raise ZeroInputError("involution needs a cubic form")
    q = np.asarray(q, dtype=complex)
    grams = [
        np.array(
            [[float(x) for x in row] for row in gram_matrix(partial_derivative(f, i)).entries]
        )
        for i in range(3)
    ]
    gram = sum(q[i] * grams[i] for i in range(3))
    _, sigma, vh = np.linalg.svd(gram)
    if sigma[0] == 0 or sigma[2] / sigma[0] > RANK_TOLERANCE:
        raise NumericRankError(
            "polar Gram matrix is not rank-deficient; point is off the Hessian curve"
        )
    if sigma[1] / sigma[0] <= RANK_TOLERANCE:
        raise NumericRankError(
            "polar Gram matrix has numeric rank <= 1; singular point not unique"
        )
    kernel = np.conj(vh[2])
    return kernel / np.linalg.norm(kernel)


def check_involution(
    f: TernaryForm, n: int, tol: float, seed: int = 0
) -> InvolutionReport:
    """Sample the Hessian curve and verify the involution numerically.

    Points whose polar Gram matrix fails the rank-2 test (in either the
    first or the second application) are filtered out; fewer than n/2
    surviving samples raises rather than reporting a hollow pass.
    """
    if tol <= 0:
        raise ZeroInputError("tolerance must be positive")
    candidates = sample_hessian_points(f, n, seed)
    max_err = 0.0
    min_fix = float("inf")
    usable = 0
    for q in candidates:
        try:
            sq = involution_s(f, q)
            ssq = involution_s(f, sq)
        except NumericRankError:
            continue
        usable += 1
        max_err = max(max_err, chordal_distance(ssq, q))
        min_fix = min(min_fix, chordal_distance(sq, q))
    if usable < n / 2:
        raise InsufficientSamplesError(
            f"only {usable} of the required {n / 2:.0f} samples were usable"
        )
    return InvolutionReport(
        samples=usable,
        max_double_apply_error=max_err,
        min_fixed_point_distance=min_fix,
        tolerance=tol,
    )
