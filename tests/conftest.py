import random
from fractions import Fraction
from itertools import product

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


def sympy_multiples(polys, d: int, degree: int) -> list[tuple[Fraction, ...]]:
    """Independent oracle for the library's multiplication vectors: for each
    sympy Poly g of total degree ``degree`` (zero allowed) and each monomial
    z^m of degree d, the coefficients of z^m * g as sympy expands them,
    g outer and z^m inner, both read in graded-lex order (exponent triples
    of one degree sorted descending)."""
    import sympy

    def grlex(n):
        return sorted((e for e in product(range(n + 1), repeat=3) if sum(e) == n), reverse=True)

    z = sympy.symbols("z0:3")
    vectors = []
    for g in polys:
        for m in grlex(d):
            h = g * sympy.Poly(sympy.Mul(*[zi**e for zi, e in zip(z, m)]), *z, domain="QQ")
            coeffs = [h.coeff_monomial(e) for e in grlex(d + degree)]
            vectors.append(tuple([Fraction(int(c.p), int(c.q)) for c in coeffs]))
    return vectors


def sympy_poly(form: TernaryForm):
    """The form as a sympy Poly over QQ in z0, z1, z2."""
    import sympy

    z = sympy.symbols("z0:3")
    expr = sympy.Integer(0)
    for mono, c in form.terms.items():
        monomial = sympy.Mul(*[zi**e for zi, e in zip(z, mono)])
        expr += sympy.Rational(c.numerator, c.denominator) * monomial
    return sympy.Poly(expr, *z, domain="QQ")


def sympy_syzygy_rows(f: TernaryForm, k: int) -> list[tuple[Fraction, ...]]:
    """The rows z^m * d_i(f) of M_k, with the partials taken and the
    products expanded by sympy (see :func:`sympy_multiples`)."""
    poly = sympy_poly(f)
    partials = [poly.diff(zi) for zi in poly.gens]
    return sympy_multiples(partials, k + 1, f.degree - 1)


def chordal_distance(p, q) -> float:
    """Chordal distance between two projective points, through the row-wise
    kernel that check_involution applies to whole sample stacks."""
    p = np.asarray(p, dtype=complex).reshape(1, -1)
    q = np.asarray(q, dtype=complex).reshape(1, -1)
    return float(_chordal_rows(p, q)[0])


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260808)


# Monomial bases that any input of these tests may ask for stay far below
# this degree; a basis of degree d holds (d + 1)(d + 2)/2 exponent triples.
BASIS_DEGREE_LIMIT = 64


@pytest.fixture
def bounded_basis(monkeypatch):
    """Fail at once, instead of filling memory, when forms builds a monomial
    basis past BASIS_DEGREE_LIMIT."""
    import logcubic.forms

    original = logcubic.forms.monomial_basis

    def guarded(degree):
        assert degree <= BASIS_DEGREE_LIMIT, f"monomial basis of degree {degree} built"
        return original(degree)

    monkeypatch.setattr(logcubic.forms, "monomial_basis", guarded)
