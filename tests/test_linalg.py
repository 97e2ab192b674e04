import gc
import platform
import random
import sys
from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import gcd, prod

import pytest
import sympy
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from logcubic.cubics import hesse_cubic, hessian_curve
from logcubic.errors import MatrixShapeError, ResultantInputError
from logcubic.forms import coefficient_vector, constant_form, parse_form, variable, zero_form
from logcubic.linalg import ExactMatrix, _bareiss, _integer_rows, _rank_mod, det_form_matrix, sylvester_resultant
from logcubic.sheaf import cayleyan_cubic

from conftest import rand_form, rand_fraction


# -- independent oracles -------------------------------------------------------


def naive_rank(entries) -> int:
    """Plain Gaussian elimination with Fractions; the fallback oracle for the
    fraction-free implementation."""
    m = [[Fraction(x) for x in row] for row in entries]
    rows = len(m)
    cols = len(m[0])
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = m[rank][col]
        m[rank] = [x / inv for x in m[rank]]
        for r in range(rows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def minor_expansion_det(entries) -> Fraction:
    """Cofactor-recursion determinant; oracle for Bareiss."""
    n = len(entries)
    if n == 1:
        return Fraction(entries[0][0])
    total = Fraction(0)
    for j in range(n):
        if entries[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        term = Fraction(entries[0][j]) * minor_expansion_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def permutation_det_forms(rows):
    """Brute-force determinant of a form matrix over all permutations;
    oracle for the memoized expansion."""
    n = len(rows)
    space = rows[0][0].space
    total = zero_form(0, space)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = constant_form(sign, space)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def rand_matrix(rng, rows, cols, max_den=4):
    return [[rand_fraction(rng, -6, 6, max_den) for _ in range(cols)] for _ in range(rows)]


def rank_deficient_matrix(rng):
    """5x5 matrix of rank at most 3: a random 3x5 block, then a combination
    of its first two rows and a copy of its third."""
    base = rand_matrix(rng, 3, 5)
    c1, c2 = rand_fraction(rng), rand_fraction(rng)
    return base + [
        [c1 * a + c2 * b for a, b in zip(base[0], base[1])],
        list(base[2]),
    ]


def free_columns(entries) -> list[int]:
    """Columns that are combinations of the columns before them, found by
    ranks of column prefixes."""
    prefix_ranks = [0] + [
        naive_rank([row[: c + 1] for row in entries]) for c in range(len(entries[0]))
    ]
    return [c for c in range(len(entries[0])) if prefix_ranks[c + 1] == prefix_ranks[c]]


# -- ExactMatrix ---------------------------------------------------------------


class TestExactMatrix:
    def test_identity(self):
        m = ExactMatrix([[int(i == j) for j in range(6)] for i in range(6)])
        assert m.rank() == 6
        assert m.determinant() == 1
        assert m.kernel_basis() == []

    def test_simple_kernel(self):
        m = ExactMatrix([[1, 0, 0], [0, 1, 0]])
        assert m.rank() == 2
        assert m.kernel_basis() == [(0, 0, 1)]

    def test_determinant_requires_square(self):
        with pytest.raises(MatrixShapeError):
            ExactMatrix([[1, 0, 0], [0, 1, 0]]).determinant()

    def test_rank_matches_naive_random(self, rng):
        for _ in range(30):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            entries = rand_matrix(rng, rows, cols)
            assert ExactMatrix(entries).rank() == naive_rank(entries)

    def test_rank_matches_naive_rank_deficient(self, rng):
        # Engineered deficiencies: duplicated and linearly combined rows.
        for _ in range(20):
            entries = rank_deficient_matrix(rng)
            m = ExactMatrix(entries)
            assert m.rank() == naive_rank(entries)
            assert m.rank() <= 3

    def test_determinant_matches_minor_expansion(self, rng):
        for _ in range(25):
            n = rng.randint(1, 5)
            entries = rand_matrix(rng, n, n)
            assert ExactMatrix(entries).determinant() == minor_expansion_det(entries)

    def test_kernel_vectors_annihilate_exactly(self, rng):
        inputs = []
        for _ in range(20):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 8)
            inputs.append(rand_matrix(rng, rows, cols))
        for _ in range(10):
            entries = rank_deficient_matrix(rng)
            # The transpose with columns reordered has a free column in the
            # middle as well as at the end.
            moved = [[row[i] for i in (0, 1, 3, 2, 4)] for row in zip(*entries)]
            inputs += [entries, moved]
        for entries in inputs:
            m = ExactMatrix(entries)
            basis = m.kernel_basis()
            free = free_columns(entries)
            assert len(basis) == len(free) == m.cols - m.rank()
            for own, v in zip(free, basis):
                assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in entries)
                # One vector per free column: 1 there, 0 on the other free
                # columns, which pins the basis uniquely.
                assert [v[c] for c in free] == [int(c == own) for c in free]


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="per-size tuple free lists are a CPython detail")
def test_hot_constructors_leave_no_tuple_free_lists():
    """Tuples built from generators skip CPython's per-size free list when
    made but join it when freed, so 3000 of them would leave about 2000
    freed tuples of each size allocated.  A full collection empties the
    lists first; the collector stays off while the tuples are made."""
    quartic = parse_form("z0^4 - 2/3*z0*z1^2*z2 + 5*z2^4")
    row = [rand_fraction(random.Random(7)) for _ in range(18)]
    coefficient_vector(quartic)
    ExactMatrix([row])
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for _ in range(3000):
            coefficient_vector(quartic)
            ExactMatrix([row])
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 300


# -- elimination against sympy ------------------------------------------------

# Small entries, and entries of large height: numerators and denominators up
# to 2^64, so the denominators in a row are unrelated and its multiplier is
# about as tall as their product.
small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
tall_rationals = st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**64))
nonzero_rationals = (small_rationals | tall_rationals).filter(bool)


@st.composite
def sparse_matrices(draw):
    """A sparse rational matrix of planted rank at most `rank`, square and
    of full rank often enough that the determinant is tested: staircase rows
    that start at a drawn column, so that rows below a pivot skip several
    elimination steps before one updates them, then combinations of two of
    them, then zero rows; one column may be zeroed throughout.  The rows
    come shuffled."""
    rows = draw(st.integers(1, 8))
    cols = draw(st.just(rows) | st.integers(1, 8))
    rank = draw(st.just(min(rows, cols)) | st.integers(0, min(rows, cols)))
    base = []
    for _ in range(rank):
        lead = draw(st.integers(0, cols - 1))
        row = [Fraction(0)] * cols
        row[lead] = draw(nonzero_rationals)
        for c in draw(st.sets(st.integers(lead, cols - 1), max_size=3)):
            row[c] = draw(nonzero_rationals)
        base.append(row)
    entries = list(base)
    while len(entries) < rows:
        if base and draw(st.booleans()):
            a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
            x, y = draw(nonzero_rationals), draw(nonzero_rationals)
            entries.append([x * u + y * v for u, v in zip(a, b)])
        else:
            entries.append([Fraction(0)] * cols)
    zero_col = draw(st.none() | st.integers(0, cols - 1))
    if zero_col is not None:
        for row in entries:
            row[zero_col] = Fraction(0)
    return draw(st.permutations(entries))


def sympy_matrix(entries):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in entries])


# No explain phase: its line tracer made shrinking a failure take minutes.
@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          phases=[Phase.explicit, Phase.generate, Phase.shrink],
          suppress_health_check=[HealthCheck.too_slow])
@given(entries=sparse_matrices())
def test_elimination_matches_sympy(entries):
    m, oracle = ExactMatrix(entries), sympy_matrix(entries)
    rank = oracle.rank()
    assert m.rank() == rank
    if m.rows == m.cols:
        assert m.determinant() == Fraction(str(oracle.det()))
    basis = m.kernel_basis()
    nullspace = oracle.nullspace()
    assert len(basis) == len(nullspace) == m.cols - rank
    if basis:
        ours = sympy_matrix(basis)
        assert (oracle * ours.T).is_zero_matrix
        # Same span: the sympy basis adds nothing to ours.
        assert ours.col_join(sympy.Matrix.hstack(*nullspace).T).rank() == len(basis)


def test_integer_rows_scale_each_row_by_its_least_common_denominator(rng):
    """Row r of the integer copy is row r times the lcm of its denominators,
    and the scaling is the product of those lcms.  The rows include shared
    and nested denominators, where the lcm is below their product, and
    entries of height up to 2^64 and 2^1024."""
    matrices = [[[Fraction(1, 6), Fraction(-3, 4), Fraction(5, 2)],
                 [Fraction(7, 9), Fraction(2, 9), Fraction(0)]]]
    for bits in (4, 64, 1024):
        for _ in range(10):
            cols = rng.randint(1, 6)
            shared = rng.randint(1, 2**bits)

            def entry():
                den = rng.choice((1, shared, 2 * shared, rng.randint(1, 2**bits)))
                return Fraction(rng.randint(-(2**bits), 2**bits), den)

            matrices.append([[entry() for _ in range(cols)] for _ in range(rng.randint(1, 6))])
    for entries in matrices:
        rows, scaling = _integer_rows(entries)
        multipliers = [reduce(lambda a, b: a * b // gcd(a, b), [x.denominator for x in row])
                       for row in entries]
        assert scaling == prod(multipliers)
        for int_row, row, mult in zip(rows, entries, multipliers):
            assert all(type(x) is int for x in int_row)
            assert [Fraction(x, mult) for x in int_row] == row


def test_rank_mod_prime_matches_sympy():
    """_rank_mod gives the rank over GF(p), for a small prime
    and for 2^61 - 1, on seeded integer matrices: full rank, rank-deficient
    over Q, and rank-deficient only mod p (a row plus p times another)."""
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(1201)
    for p in (7, 2**61 - 1):
        field = GF(p)
        for trial in range(60):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            bits = rng.choice((3, 64, 200))
            m = [[rng.randint(-(2**bits), 2**bits) for _ in range(cols)] for _ in range(rows)]
            if trial % 3 == 1 and rows > 2:
                a, b = rng.randint(-5, 5), rng.randint(-5, 5)
                m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
            elif trial % 3 == 2 and rows > 1:
                m[-1] = [x + p * rng.randint(-9, 9) for x in m[0]]
            copy = [list(row) for row in m]
            oracle = DomainMatrix([[field(x) for x in row] for row in m], (rows, cols), field)
            assert _rank_mod(m, cols, p) == oracle.rank(), (p, m)
            assert m == copy  # the modular elimination works on its own copy
            assert _rank_mod(m, cols, p) <= len(_bareiss(copy, cols)[1])


# -- form-matrix determinants --------------------------------------------------


class TestFormDeterminant:
    def test_matches_permutation_expansion(self, rng):
        for _ in range(12):
            n = rng.randint(1, 4)
            rows = [[rand_form(rng, 1, density=0.5) for _ in range(n)] for _ in range(n)]
            assert det_form_matrix(rows) == permutation_det_forms(rows)

    def test_zero_determinant_at_degree_zero(self, rng):
        rows = [[rand_form(rng, 1, density=0.7) for _ in range(3)] for _ in range(2)]
        for matrix in ([[zero_form(2)]], rows + [rows[0]], [[variable(0)] * 2] * 2):
            det = det_form_matrix(matrix)
            assert det.is_zero() and det.degree == 0

    def test_rational_entries_agree_with_exact_matrix(self, rng):
        for _ in range(10):
            n = rng.randint(1, 4)
            entries = rand_matrix(rng, n, n)
            rows = [[constant_form(x) for x in row] for row in entries]
            det = det_form_matrix(rows)
            expected = ExactMatrix(entries).determinant()
            assert det.coefficient((0, 0, 0)) == expected

    def test_shape_validation(self):
        with pytest.raises(MatrixShapeError):
            det_form_matrix([[constant_form(1)], [constant_form(2)]])

    def test_leaves_no_reference_cycles(self):
        # With the collector off, anything a call leaves for it would show
        # in the count of unreachable objects collect() finds afterwards.
        for f in (hesse_cubic(2), parse_form("2*z0^3 - z0^2*z1 + 3*z0*z1*z2 + z1^3 - 5*z2^3")):
            gc.collect()
            gc.disable()
            try:
                hessian_curve(f)
                cayleyan_cubic(f)
                assert gc.collect() == 0
            finally:
                gc.enable()


# -- Sylvester resultants --------------------------------------------------------


class TestSylvesterResultant:
    def test_shared_root_vanishes(self):
        # x^2 - 1 and x - 1 share the root x = 1 (homogenized in z0, z1).
        p = parse_form("z0^2 - z1^2")
        q = parse_form("z0 - z1")
        assert sylvester_resultant(p, q, 0).is_zero()

    def test_classic_closed_form(self):
        # Res_x(x^2, x + c) = c^2 with c = z1.
        p = parse_form("z0^2")
        q = parse_form("z0 + z1")
        assert sylvester_resultant(p, q, 0) == parse_form("z1^2")

    def test_formal_degree_convention(self):
        # Both conics keep formal degree 2 in z0, so the matrix is 4x4.
        r = sylvester_resultant(parse_form("3*z0^2"), parse_form("3*z1^2"), 0)
        assert r == parse_form("81*z1^4")

    def test_both_zero_rejected(self):
        with pytest.raises(ResultantInputError):
            sylvester_resultant(zero_form(2), zero_form(2), 0)

    def test_common_factor_iff_zero(self, rng):
        # Products sharing a factor have vanishing resultant; coprime-by-
        # construction pairs do not.
        shared = parse_form("z0 - 2*z1")
        p = shared * parse_form("z0 + z1")
        q = shared * parse_form("z0 - z1 + z2")
        assert sylvester_resultant(p, q, 0).is_zero()
        coprime_p = parse_form("z0 - z1") * parse_form("z0 + z1")
        coprime_q = parse_form("z0 - 2*z1") * parse_form("z0 + 3*z1")
        assert not sylvester_resultant(coprime_p, coprime_q, 0).is_zero()

    def test_multiplicative_in_first_argument(self, rng):
        # Res(p1*p2, q) == Res(p1, q) * Res(p2, q) when all leading
        # z0-coefficients are nonzero (true degrees equal formal degrees).
        p1 = parse_form("z0 + z1")
        p2 = parse_form("z0 - z2")
        q = parse_form("z0^2 + z1*z2")
        lhs = sylvester_resultant(p1 * p2, q, 0)
        rhs = sylvester_resultant(p1, q, 0) * sylvester_resultant(p2, q, 0)
        assert lhs == rhs
