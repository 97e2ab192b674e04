import random
from fractions import Fraction

import numpy as np
import pytest

from logcubic.forms import PRIMAL, TernaryForm, monomial_basis
from logcubic.involution import _chordal_rows


def rand_fraction(rng: random.Random, lo: int = -9, hi: int = 9, max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_nonzero_fraction(rng: random.Random, **kw) -> Fraction:
    while True:
        x = rand_fraction(rng, **kw)
        if x != 0:
            return x


def rand_form(rng: random.Random, degree: int, space: str = PRIMAL, density: float = 0.6) -> TernaryForm:
    terms = {
        mono: rand_fraction(rng)
        for mono in monomial_basis(degree)
        if rng.random() < density
    }
    return TernaryForm(degree, terms, space)


def rand_hesse_t(rng: random.Random, exclude_cubes: tuple[int, ...] = (1,)) -> Fraction:
    """Random rational t avoiding t^3 in exclude_cubes (and optionally 0)."""
    while True:
        t = rand_fraction(rng, -12, 12, 8)
        if t**3 not in exclude_cubes:
            return t


def random_unimodular(rng: random.Random, bound: int = 9, shears: int = 6) -> list[list[int]]:
    """Random integer matrix with determinant +-1 and entries in [-bound, bound],
    built by composing row shears and sign flips from the identity."""
    m = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    for i in range(3):
        if rng.random() < 0.5:
            m[i] = [-x for x in m[i]]
    for _ in range(shears):
        i, j = rng.sample(range(3), 2)
        k = rng.choice([-2, -1, 1, 2])
        candidate = [m[i][c] + k * m[j][c] for c in range(3)]
        if all(abs(x) <= bound for x in candidate):
            m[i] = candidate
    return m


def evaluate(form: TernaryForm, point) -> object:
    """The form at a triple of scalars: exact for Fraction and int inputs;
    float or complex inputs give a float or complex value."""
    x0, x1, x2 = point
    return sum((c * x0**e0 * x1**e1 * x2**e2 for (e0, e1, e2), c in form.terms.items()),
               Fraction(0))


def chordal_distance(p, q) -> float:
    """Chordal distance between two projective points, through the row-wise
    kernel that check_involution applies to whole sample stacks."""
    p = np.asarray(p, dtype=complex).reshape(1, -1)
    q = np.asarray(q, dtype=complex).reshape(1, -1)
    return float(_chordal_rows(p, q)[0])


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260808)
