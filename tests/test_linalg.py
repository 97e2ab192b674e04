import gc
from fractions import Fraction
from itertools import permutations

import pytest

from logcubic.cubics import hesse_cubic, hessian_curve
from logcubic.errors import MatrixShapeError, ResultantInputError
from logcubic.forms import constant_form, parse_form, zero_form
from logcubic.linalg import ExactMatrix, det_form_matrix, sylvester_resultant
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
        m = ExactMatrix.identity(6)
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
                assert m.multiply_vector(v) == (Fraction(0),) * m.rows
                # One vector per free column: 1 there, 0 on the other free
                # columns, which pins the basis uniquely.
                assert [v[c] for c in free] == [int(c == own) for c in free]

    def test_from_columns_transpose(self, rng):
        cols = [[rand_fraction(rng) for _ in range(4)] for _ in range(3)]
        m = ExactMatrix.from_columns(cols)
        assert m.rows == 4 and m.cols == 3
        assert m.transpose().entries == tuple(tuple(c) for c in cols)


# -- form-matrix determinants --------------------------------------------------


class TestFormDeterminant:
    def test_matches_permutation_expansion(self, rng):
        for _ in range(10):
            n = rng.randint(1, 3)
            rows = [[rand_form(rng, 1, density=0.7) for _ in range(n)] for _ in range(n)]
            assert det_form_matrix(rows) == permutation_det_forms(rows)

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
