import random
import re
from fractions import Fraction

import pytest
import sympy

from logcubic.cubics import _syzygy_rows, hesse_cubic, is_smooth_cubic
from logcubic.errors import (
    DegreeMismatchError,
    SingularCurveError,
    SpaceMismatchError,
    ZeroInputError,
)
from logcubic.forms import (
    DUAL,
    PRIMAL,
    ZERO,
    TernaryForm,
    coefficient_vector,
    form_from_coefficients,
    linear_form,
    monomial_basis,
    monomial_form,
    parse_form,
    partial_derivative,
    projectively_equal,
    substitute_linear,
    variable,
    vectors_projectively_equal,
)
from logcubic.linalg import ExactMatrix
from logcubic.sheaf import (
    _CAYLEYAN_MINORS,
    PRODUCT_INDEX,
    _det3,
    _is_jacobi_normal,
    canonical_normal,
    cayleyan_cubic,
    chern_data,
    d0_graded_dim,
    is_jumping_cubic,
    is_stable,
    jacobi_degree3,
    jumping_line_test,
    jumping_matrix,
    splitting_type,
)

from conftest import (
    evaluate,
    rand_fraction,
    rand_hesse_t,
    rand_nonzero_fraction,
    random_unimodular,
    sympy_multiples,
    sympy_poly,
    sympy_syzygy_rows,
)
from test_linalg import naive_rank


def _in_space(form: TernaryForm, space: str) -> TernaryForm:
    """The form with the same coefficients in the given variable space."""
    return form_from_coefficients(coefficient_vector(form), form.degree, space)


def cayleyan_closed_form(t: Fraction) -> TernaryForm:
    """Independent construction of the jumping-line cubic of the pencil
    member at t: t*(a0^3+a1^3+a2^3) - (t^3+2)*a0*a1*a2."""
    cubes = parse_form("a0^3 + a1^3 + a2^3", DUAL)
    product = parse_form("a0*a1*a2", DUAL)
    return cubes.scale(t) - product.scale(t**3 + 2)


NODAL = "z1^2*z2 - z0^3 - z0^2*z2"
CUSPIDAL = "z1^2*z2 - z0^3"


def rand_alpha(rng) -> TernaryForm:
    while True:
        alpha = linear_form([rand_fraction(rng) for _ in range(3)])
        if not alpha.is_zero():
            return alpha


class TestJumpingMatrix:
    def test_fermat_alpha_z0(self):
        m = jumping_matrix(hesse_cubic(0), variable(0))
        assert (m.rows, m.cols) == (6, 6)
        # Row 3 is d0(f) = 3*z0^2, exactly 3 times row 0 (z0*alpha).
        assert m.entries[3] == tuple([3 * x for x in m.entries[0]])
        assert m.rank() == 5

    def test_rows_match_sympy(self, rng):
        # Rows z0*alpha, z1*alpha, z2*alpha, then d0 f, d1 f, d2 f, each
        # expanded by sympy.
        f = TernaryForm(3, {m: rand_fraction(rng) for m in monomial_basis(3)})
        alpha = rand_alpha(rng)
        expected = sympy_multiples([sympy_poly(alpha)], 1, 1) + sympy_syzygy_rows(f, -1)
        assert jumping_matrix(f, alpha).entries == tuple(expected)

    def test_hesse_two_alpha_difference(self):
        m = jumping_matrix(hesse_cubic(2), parse_form("z0 - z1"))
        assert m.rank() == 5

    def test_zero_alpha_rejected(self):
        with pytest.raises(ZeroInputError):
            jumping_matrix(hesse_cubic(0), parse_form("0"))

    def test_alpha_must_be_linear(self):
        with pytest.raises(DegreeMismatchError):
            jumping_matrix(hesse_cubic(0), parse_form("z0^2"))

    def test_dual_alpha_refused(self):
        f, alpha = hesse_cubic(2), variable(0, DUAL)
        for question in (jumping_matrix, jumping_line_test, splitting_type):
            with pytest.raises(SpaceMismatchError):
                question(f, alpha)


class TestJumpingLine:
    def test_fermat_examples(self):
        fermat = hesse_cubic(0)
        assert jumping_line_test(fermat, variable(0)) is True
        assert jumping_line_test(fermat, parse_form("z0+z1+z2")) is False

    def test_hesse_two_example(self):
        # (1, -1, 0) lies on 2*(sum of cubes) - 10*(product) = 0.
        assert jumping_line_test(hesse_cubic(2), parse_form("z0 - z1")) is True

    def test_matches_cayleyan_vanishing(self, rng):
        # The jumping criterion and the closed-form dual cubic agree exactly.
        for _ in range(6):
            t = rand_hesse_t(rng)
            f = hesse_cubic(t)
            closed = cayleyan_closed_form(t)
            for _ in range(12):
                alpha = rand_alpha(rng)
                value = evaluate(closed, coefficient_vector(alpha))
                assert jumping_line_test(f, alpha) == (value == 0)


class TestSingularCubicsRefused:
    """The jumping-line questions are about the sheaf of a smooth cubic; the
    raw jumping matrix is built for any cubic."""

    @pytest.mark.parametrize(
        "f, alpha",
        [(hesse_cubic(1), "z0 - z1"), (parse_form(NODAL), "z2"), (parse_form(CUSPIDAL), "z0")],
        ids=["hesse-t-1", "nodal", "cuspidal"],
    )
    def test_jumping_line_questions_raise(self, f, alpha):
        alpha = parse_form(alpha)
        with pytest.raises(SingularCurveError):
            jumping_line_test(f, alpha)
        with pytest.raises(SingularCurveError):
            splitting_type(f, alpha)
        matrix = jumping_matrix(f, alpha)
        assert (matrix.rows, matrix.cols) == (6, 6)

    def test_input_checks_come_first(self):
        with pytest.raises(ZeroInputError):
            jumping_line_test(parse_form(NODAL), parse_form("0"))


class TestSplittingType:
    def test_jumping_and_generic(self):
        fermat = hesse_cubic(0)
        assert splitting_type(fermat, variable(0)) == (-1, 1)
        assert splitting_type(fermat, parse_form("z0+z1+z2")) == (0, 0)

    def test_section_count_is_two(self, rng):
        # h0 of O(a) + O(b) on a line is max(0, a+1) + max(0, b+1) = 2 for
        # both observed types, and a + b = 0 always.
        f = hesse_cubic(Fraction(1, 2))
        for _ in range(20):
            a, b = splitting_type(f, rand_alpha(rng))
            assert a + b == 0
            assert (a, b) in ((0, 0), (-1, 1))
            assert max(0, a + 1) + max(0, b + 1) == 2


class TestCayleyan:
    def test_fermat_is_coordinate_product(self):
        cay = cayleyan_cubic(hesse_cubic(0))
        assert cay == monomial_form((1, 1, 1), -54, DUAL)

    def test_dual_input_gives_primal_form(self):
        # The Cayleyan's variables are the coefficients of the line, which
        # live in the plane opposite to the cubic's: the same cubic written
        # in a0, a1, a2 has the primal form with the same coefficients.
        cubics = [hesse_cubic(2), parse_form("2*z0^3 - z0^2*z1 + 3*z0*z1*z2 + z1^3 - 5*z2^3")]
        for f in cubics:
            cay = cayleyan_cubic(f)
            assert cay.space == DUAL
            assert cayleyan_cubic(_in_space(f, DUAL)) == _in_space(cay, PRIMAL)

    def test_matches_closed_form_random(self, rng):
        for _ in range(12):
            t = rand_hesse_t(rng)
            cay = cayleyan_cubic(hesse_cubic(t))
            assert cay.space == DUAL and cay.degree == 3
            assert projectively_equal(cay, cayleyan_closed_form(t))

    def test_cube_family_independent_of_coefficients(self, rng):
        target = monomial_form((1, 1, 1), 1, DUAL)
        for _ in range(8):
            a, b, c = (rand_fraction(rng) or 1 for _ in range(3))
            f = TernaryForm(3, {(3, 0, 0): a or 1, (0, 3, 0): b or 1, (0, 0, 3): c or 1})
            assert projectively_equal(cayleyan_cubic(f), target)

    def test_value_equals_jumping_determinant(self, rng):
        # Evaluating the symbolic determinant at rational alpha agrees with
        # the Bareiss determinant of the rational jumping matrix: same
        # number, same sign, at every sample point, on pencil members and
        # on seeded smooth cubics off the pencil, with dense integer and
        # with p/q coefficients.
        cubics = [hesse_cubic(t) for t in (Fraction(0), Fraction(2), Fraction(-3, 4))]
        for draw in (lambda: rng.randint(-9, 9), lambda: rand_fraction(rng)):
            found = 0
            while found < 3:
                f = TernaryForm(3, {mono: draw() for mono in monomial_basis(3)})
                if is_smooth_cubic(f).is_smooth:
                    cubics.append(f)
                    found += 1
        for f in cubics:
            cay = cayleyan_cubic(f)
            for _ in range(10):
                alpha = rand_alpha(rng)
                coords = coefficient_vector(alpha)
                det = jumping_matrix(f, alpha).determinant()
                assert evaluate(cay, coords) == det

    def test_minor_table_is_the_symbolic_determinant(self):
        # With the 6x3 matrix P of the partials' coefficients left as 18
        # symbols, sympy's expansion of det[A(a) | P] equals the polynomial
        # the minor table gives, so the table holds for every cubic.  Column
        # i of A(a) holds the coefficients of z_i * (a0 z0 + a1 z1 + a2 z2).
        a = sympy.symbols("a0:3")
        z = sympy.symbols("z0:3")
        P = sympy.Matrix(6, 3, sympy.symbols("p0:18"))
        line = sum(ai * zi for ai, zi in zip(a, z))
        A = sympy.Matrix(
            [
                [sympy.Poly(zi * line, *z).coeff_monomial(mono) for zi in z]
                for mono in monomial_basis(2)
            ]
        )
        det = A.row_join(P).det(method="berkowitz")
        rows = [tuple(P.row(r)) for r in range(6)]
        table = sum(
            sympy.Mul(*[ai**e for ai, e in zip(a, mono)])
            * sum(c * _det3(rows[i], rows[j], rows[k]) for c, i, j, k in entry)
            for mono, entry in zip(monomial_basis(3), _CAYLEYAN_MINORS)
        )
        assert sympy.expand(det - table) == 0

    def test_no_symbolic_determinant(self, monkeypatch):
        import logcubic.linalg
        import logcubic.sheaf

        def refuse(rows):
            raise AssertionError("det_form_matrix called")

        monkeypatch.setattr(logcubic.linalg, "det_form_matrix", refuse)
        monkeypatch.setattr(logcubic.sheaf, "det_form_matrix", refuse)
        assert projectively_equal(cayleyan_cubic(hesse_cubic(2)), cayleyan_closed_form(Fraction(2)))

    def test_vanishing_iff_rank_drop(self, rng):
        for _ in range(5):
            t = rand_hesse_t(rng)
            f = hesse_cubic(t)
            cay = cayleyan_cubic(f)
            for _ in range(10):
                alpha = rand_alpha(rng)
                vanishes = evaluate(cay, coefficient_vector(alpha)) == 0
                assert vanishes == (jumping_matrix(f, alpha).rank() < 6)

    def test_always_cubic_in_alpha(self, rng):
        for _ in range(5):
            terms = {
                mono: rand_fraction(rng)
                for mono in monomial_basis(3)
                if rng.random() < 0.5
            }
            f = TernaryForm(3, terms)
            try:
                cay = cayleyan_cubic(f)
            except SingularCurveError:
                continue
            assert cay.degree == 3
            assert all(sum(m) == 3 for m in cay.terms)

    def test_degenerate_input_raises(self):
        with pytest.raises(SingularCurveError):
            cayleyan_cubic(parse_form("z0^3"))

    @pytest.mark.parametrize("text", [NODAL, CUSPIDAL])
    def test_nodal_and_cuspidal_raise(self, text):
        with pytest.raises(SingularCurveError):
            cayleyan_cubic(parse_form(text))


class TestJacobiHyperplane:
    def test_hesse_two(self):
        normal = jacobi_degree3(hesse_cubic(2))
        expected = [Fraction(0)] * 10
        expected[PRODUCT_INDEX] = Fraction(1)
        for mono in ((3, 0, 0), (0, 3, 0), (0, 0, 3)):
            expected[monomial_basis(3).index(mono)] = Fraction(2)
        assert list(normal) == expected

    def test_fermat_supported_on_product(self):
        normal = jacobi_degree3(hesse_cubic(0))
        assert normal[PRODUCT_INDEX] == 1
        assert all(x == 0 for i, x in enumerate(normal) if i != PRODUCT_INDEX)

    def test_cube_family(self, rng):
        for _ in range(6):
            coeffs = [rand_fraction(rng) or 1 for _ in range(3)]
            f = TernaryForm(
                3,
                {(3, 0, 0): coeffs[0], (0, 3, 0): coeffs[1], (0, 0, 3): coeffs[2]},
            )
            normal = jacobi_degree3(f)
            assert normal[PRODUCT_INDEX] == 1
            assert all(x == 0 for i, x in enumerate(normal) if i != PRODUCT_INDEX)

    def test_pencil_normal_shape_random(self, rng):
        # Canonical normal of the pencil member at t: 1 on the product
        # monomial, t on each pure cube, zero elsewhere.
        cube_idx = [monomial_basis(3).index(m) for m in ((3, 0, 0), (0, 3, 0), (0, 0, 3))]
        for _ in range(12):
            t = rand_hesse_t(rng)
            normal = jacobi_degree3(hesse_cubic(t))
            assert normal[PRODUCT_INDEX] == 1
            for i in cube_idx:
                assert normal[i] == t
            for i, x in enumerate(normal):
                if i != PRODUCT_INDEX and i not in cube_idx:
                    assert x == 0

    def test_singular_input_raises(self):
        with pytest.raises(SingularCurveError):
            jacobi_degree3(hesse_cubic(1))
        with pytest.raises(SingularCurveError):
            jacobi_degree3(parse_form("z0^3"))

    @pytest.mark.parametrize("text", [NODAL, CUSPIDAL])
    def test_nodal_and_cuspidal_raise(self, text):
        # The nodal cubic's multiplication map into cubics has full rank 9,
        # so only the smoothness gate stops it from returning a normal.
        with pytest.raises(SingularCurveError):
            jacobi_degree3(parse_form(text))
        with pytest.raises(SingularCurveError):
            is_jumping_cubic(parse_form(text), parse_form("z0^3"))


def pairing_cubics(rng) -> list[TernaryForm]:
    """Seeded smooth cubics of three kinds, four each: dense with nonzero
    integer coefficients, dense with coefficients p/q, and pencil members."""
    draws = (lambda: rng.choice([-1, 1]) * rng.randint(1, 9), lambda: rand_nonzero_fraction(rng))
    cubics = []
    for draw in draws:
        found = 0
        while found < 4:
            f = TernaryForm(3, {mono: draw() for mono in monomial_basis(3)})
            if is_smooth_cubic(f).is_smooth:
                cubics.append(f)
                found += 1
    return cubics + [hesse_cubic(t) for t in (0, 2, Fraction(-5, 3), rand_hesse_t(rng))]


class TestJacobiNormalPairing:
    """The pairing check that reconstruction keeps a candidate by, against
    the route it replaced: solve the kernel, then compare projectively."""

    @staticmethod
    def oracle(f: TernaryForm, normal) -> bool:
        return vectors_projectively_equal(jacobi_degree3(f), normal)

    def test_true_and_scaled_normals(self, rng):
        for f in pairing_cubics(rng):
            normal = jacobi_degree3(f)
            for scale in (1, -3, Fraction(2, 7)):
                candidate = tuple(scale * x for x in normal)
                assert _is_jacobi_normal(f, candidate) is True
                assert self.oracle(f, candidate) is True

    def test_perturbed_normals(self, rng):
        for f in pairing_cubics(rng):
            normal = jacobi_degree3(f)
            for i in range(10):
                bumped = tuple(x + 1 if j == i else x for j, x in enumerate(normal))
                assert _is_jacobi_normal(f, bumped) is self.oracle(f, bumped)

    def test_zero_and_short_normals_refused(self, rng):
        for f in pairing_cubics(rng):
            zero = (Fraction(0),) * 10
            assert _is_jacobi_normal(f, zero) is False
            assert self.oracle(f, zero) is False
            short = jacobi_degree3(f)[:9]
            assert _is_jacobi_normal(f, short) is False
            assert self.oracle(f, short) is False

    def test_kernel_of_eight_columns(self, rng):
        # A vector that pairs to zero with eight of the nine cubics but is
        # not the normal must fail on the ninth, whichever one that is.
        for f in pairing_cubics(rng)[::3]:
            rows = _syzygy_rows(f, 0)
            normal = jacobi_degree3(f)
            for dropped in range(9):
                kept = rows[:dropped] + rows[dropped + 1:]
                kernel = ExactMatrix(kept).kernel_basis()
                assert len(kernel) == 2
                vector = next(v for v in kernel if not vectors_projectively_equal(v, normal))
                assert _is_jacobi_normal(f, vector) is False
                assert self.oracle(f, vector) is False


class TestSharedZero:
    def test_zero_entries_are_the_shared_fraction(self, rng):
        for f in pairing_cubics(rng):
            normal = jacobi_degree3(f)
            vectors = [coefficient_vector(f), normal, canonical_normal(normal)]
            vectors += _syzygy_rows(f, 0)
            for vector in vectors:
                assert all(isinstance(x, Fraction) for x in vector)
                assert all(x is ZERO for x in vector if x == 0)
        assert hesse_cubic(2).coefficient((2, 1, 0)) is ZERO
        assert canonical_normal([0, 0, 3, 0, 0, 0, 0, 0, 0, 6])[0] is ZERO


class TestJumpingCubic:
    def test_fermat_examples(self):
        fermat = hesse_cubic(0)
        assert is_jumping_cubic(fermat, parse_form("z0^3")) is True
        assert is_jumping_cubic(fermat, parse_form("z0*z1*z2")) is False

    def test_pairing_arithmetic_at_two(self):
        # Coefficients a012 = -6 and 1 on each pure cube: -6 + 2*3 = 0.
        f = hesse_cubic(2)
        g = parse_form("z0^3 + z1^3 + z2^3 - 6*z0*z1*z2")
        assert is_jumping_cubic(f, g) is True

    def test_ideal_membership_by_construction(self, rng):
        # z_i * d_j(f) lies in the hyperplane for every i, j.
        for t in (Fraction(0), Fraction(2), Fraction(-5, 3)):
            f = hesse_cubic(t)
            for i in range(3):
                for j in range(3):
                    g = variable(i) * partial_derivative(f, j)
                    assert is_jumping_cubic(f, g) is True

    def test_zero_g_rejected(self):
        with pytest.raises(ZeroInputError):
            is_jumping_cubic(hesse_cubic(0), parse_form("0"))

    def test_g_from_the_other_space_refused(self):
        # g must be a cubic in f's own variables; a dual cubic has no
        # pairing with the Jacobi normal of a primal one, and vice versa.
        primal, dual = hesse_cubic(2), _in_space(hesse_cubic(2), DUAL)
        with pytest.raises(SpaceMismatchError):
            is_jumping_cubic(primal, TernaryForm(3, {(3, 0, 0): 1}, DUAL))
        with pytest.raises(SpaceMismatchError):
            is_jumping_cubic(dual, parse_form("z0^3"))
        assert is_jumping_cubic(dual, TernaryForm(3, {(3, 0, 0): 1}, DUAL)) is False


class TestStability:
    def test_smooth_members_stable(self, rng):
        assert is_stable(hesse_cubic(0)) is True
        assert is_stable(hesse_cubic(2)) is True
        for _ in range(8):
            assert is_stable(hesse_cubic(rand_hesse_t(rng))) is True

    def test_singular_member_reports_kernel_dim(self):
        # Out-of-hypothesis input: the boolean only reflects the kernel, so
        # the graded dimension is reported alongside for interpretation.
        f = hesse_cubic(1)
        dim = d0_graded_dim(f, 0)
        assert is_stable(f) == (dim == 0)

    def test_graded_dims(self):
        for t in (Fraction(0), Fraction(2)):
            f = hesse_cubic(t)
            assert d0_graded_dim(f, 0) == 0
            assert d0_graded_dim(f, 1) == 3

    def test_graded_dim_against_naive_rank(self, rng):
        # Oracle: plain Gaussian elimination on the 18 vectors z^m * d_i f
        # of length 15, each expanded by sympy.  k = 1 takes the closed form
        # on smooth cubics and 18 - rank(M_1) on singular ones.
        cubics = [hesse_cubic(t) for t in (Fraction(2), rand_hesse_t(rng), Fraction(1))]
        cubics += [TernaryForm(3, {m: rand_fraction(rng) for m in monomial_basis(3)})
                   for _ in range(2)]
        for text in (NODAL, CUSPIDAL, "z0*z1*z2", "z2*(z0^2 + z1^2 - z2^2)", "z0^3"):
            f = parse_form(text)
            cubics += [f, substitute_linear(f, random_unimodular(rng))]
        smooth = 0
        for f in cubics:
            rows = sympy_syzygy_rows(f, 1)
            assert (len(rows), len(rows[0])) == (18, 15)
            assert d0_graded_dim(f, 1) == 18 - naive_rank(rows), str(f)
            smooth += is_smooth_cubic(f).is_smooth
        assert smooth == 4


class TestClosedFormDims:
    """d0_graded_dim against rows - rank of the multiplication matrix M_k
    itself, for smooth, singular, non-reduced and zero cubics: the closed
    form k^2 + 3k - 1 must agree wherever it is taken.  The rows come from
    the library's builder, which test_cubics.py checks against sympy."""

    KS = range(0, 7)

    def cubics(self):
        rng = random.Random(74)
        forms = [TernaryForm(3, {m: rng.randint(-9, 9) for m in monomial_basis(3)})
                 for _ in range(2)]
        forms += [TernaryForm(3, {m: rand_nonzero_fraction(rng) for m in monomial_basis(3)})
                  for _ in range(2)]
        forms += [hesse_cubic(t) for t in (0, 2, -2, rand_hesse_t(rng))]
        for text in (NODAL, CUSPIDAL, "z0*z1*z2"):
            singular = parse_form(text)
            forms += [singular, substitute_linear(singular, random_unimodular(rng))]
        forms += [parse_form("z0^2*z1"), parse_form("z0^3"), TernaryForm(3, {})]
        return forms

    def test_matches_elimination(self):
        for f in self.cubics():
            expected = []
            for k in self.KS:
                rows = _syzygy_rows(f, k)
                expected.append(len(rows) - ExactMatrix(rows).rank())
            assert [d0_graded_dim(f, k) for k in self.KS] == expected, str(f)

    def test_smooth_cubic_builds_only_m1(self, monkeypatch):
        import logcubic.cubics
        import logcubic.sheaf

        built = []
        original = logcubic.cubics._multiples

        def counting(forms, d):
            built.append(d)
            return original(forms, d)

        monkeypatch.setattr(logcubic.cubics, "_multiples", counting)
        monkeypatch.setattr(logcubic.sheaf, "_multiples", counting)
        f = self.cubics()[0]
        assert d0_graded_dim(f, 4) == 27
        # One build, of M_1: the monomials z^m of degree 2.
        assert built == [2]


class TestIntegerTwists:
    """Degrees and twists must be ints; 1.5, 2.0 and True are refused, as
    form_from_record refuses them as degrees."""

    def test_chern_data_refuses_fractional_twist(self):
        with pytest.raises(DegreeMismatchError):
            chern_data(3, 1.5)

    def test_chern_data_refuses_float_degree(self):
        with pytest.raises(DegreeMismatchError):
            chern_data(3.0, 1)

    def test_chern_data_refuses_bool(self):
        with pytest.raises(DegreeMismatchError):
            chern_data(3, True)
        with pytest.raises(DegreeMismatchError):
            chern_data(True, 0)

    def test_graded_dim_refuses_bool_twist(self):
        with pytest.raises(DegreeMismatchError):
            d0_graded_dim(hesse_cubic(2), True)

    def test_graded_dim_refuses_float_twist(self):
        with pytest.raises(DegreeMismatchError):
            d0_graded_dim(hesse_cubic(2), 2.0)


class TestChernData:
    def test_reference_values(self):
        assert (chern_data(3, 0).c1, chern_data(3, 0).c2) == (0, 3)
        assert (chern_data(3, -1).c1, chern_data(3, -1).c2) == (-2, 4)
        assert (chern_data(2, 0).c1, chern_data(2, 0).c2) == (1, 1)

    def test_twist_recurrence(self):
        for d in range(1, 9):
            for k in range(-3, 4):
                assert chern_data(d, k + 1).c1 - chern_data(d, k).c1 == 2

    def test_normalized_first_chern(self):
        # At the normalizing twist floor((d-3)/2), c1 is 0 for odd d and -1
        # for even d.
        for d in range(2, 9):
            k = (d - 3) // 2
            c1 = chern_data(d, k).c1
            assert c1 in (0, -1)
            assert c1 == (0 if d % 2 == 1 else -1)

    def test_degree_validation(self):
        with pytest.raises(DegreeMismatchError):
            chern_data(0, 0)


def riemann_roch_chi(k: int) -> int:
    """chi(E(k)) = 2 + (c1^2 - 2*c2)/2 + 3*c1/2 on P^2 for the rank-2 sheaf
    with the Chern numbers of chern_data(3, k); it is k^2 + 3k - 1."""
    data = chern_data(3, k)
    chi = 2 + Fraction(data.c1**2 - 2 * data.c2, 2) + Fraction(3 * data.c1, 2)
    assert chi.denominator == 1
    return int(chi)


# Reduced singular cubics and their global Tjurina numbers tau.
TJURINA = [
    ("node", NODAL, 1),
    ("cusp", CUSPIDAL, 2),
    ("triangle", "z0*z1*z2", 3),
    ("tacnode", "z1*(z1*z2 - z0^2)", 3),
    ("concurrent-lines", "z0*z1*(z0+z1)", 4),
]


class TestRiemannRoch:
    """d0_graded_dim against Riemann-Roch on P^2, an oracle independent of
    the multiplication matrix: on a smooth cubic the degree-k derivations
    that annihilate f number chi(E(k)) for k >= 1.  On a reduced singular
    cubic the excess over chi is the global Tjurina number tau in every
    degree k >= 1.  Non-reduced cubics are left out: on z0^2*z1 the excess
    grows with k."""

    KS = range(1, 6)

    def smooth_cubics(self):
        rng = random.Random(71)
        cubics = [TernaryForm(3, {m: rng.randint(-9, 9) for m in monomial_basis(3)}),
                  TernaryForm(3, {m: rand_fraction(rng) for m in monomial_basis(3)}),
                  hesse_cubic(rand_hesse_t(rng))]
        assert all(is_smooth_cubic(f).is_smooth for f in cubics)
        return cubics

    def test_chi_is_koszul_count(self):
        for k in range(0, 8):
            assert riemann_roch_chi(k) == k * k + 3 * k - 1

    def test_smooth_cubics_match_chi(self):
        for f in self.smooth_cubics():
            assert [d0_graded_dim(f, k) for k in self.KS] == [riemann_roch_chi(k) for k in self.KS]

    def test_smooth_cubics_match_chi_after_unimodular_maps(self):
        rng = random.Random(72)
        for f in self.smooth_cubics():
            moved = substitute_linear(f, random_unimodular(rng))
            assert [d0_graded_dim(moved, k) for k in self.KS] == [riemann_roch_chi(k) for k in self.KS]

    @pytest.mark.parametrize("text, tau", [(text, tau) for _, text, tau in TJURINA],
                             ids=[name for name, _, _ in TJURINA])
    def test_excess_is_tjurina_number(self, text, tau):
        f = parse_form(text)
        moved = substitute_linear(f, random_unimodular(random.Random(73)))
        counted = 0
        for form in (f, moved):
            assert [d0_graded_dim(form, k) - riemann_roch_chi(k) for k in self.KS] == [tau] * 5
            # Off the Hesse pencil the smoothness witness counts the
            # quartics the partials generate, r of 15; the missing 15 - r
            # are tau.
            witness = is_smooth_cubic(form).witness
            match = re.fullmatch(r"partials generate only (\d+) of 15 quartics", witness)
            if match:
                assert 15 - int(match.group(1)) == tau
                counted += 1
        assert counted >= 1
