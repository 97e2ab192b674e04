from fractions import Fraction

import pytest

from logcubic.cubics import (
    SINGULAR,
    SMOOTH,
    canonical_point,
    conic_singular_point,
    first_polar,
    gram_matrix,
    hesse_cubic,
    hesse_parameter,
    hesse_pencil_split,
    hessian_curve,
    is_smooth_cubic,
    j_invariant_hesse,
)
from logcubic.errors import (
    ConicRankError,
    InvalidPointError,
    SingularCurveError,
    ZeroInputError,
)
from logcubic.forms import parse_form, substitute_linear

from conftest import evaluate, rand_fraction, rand_hesse_t, random_unimodular

PENCIL_MONOS = {(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)}

SINGULAR_CUBICS = [
    parse_form("z0^3"),
    parse_form("z0^2*z1"),
    parse_form("z0^2*z1 + z0*z1^2"),  # three concurrent lines
    parse_form("z0^3 + z1^3"),  # singular at [0:0:1]
    parse_form("z1^2*z2 - z0^3"),  # cusp at [0:0:1]
]


class TestHesseCubic:
    def test_fermat_at_zero(self):
        assert hesse_cubic(0) == parse_form("z0^3 + z1^3 + z2^3")

    def test_singular_member(self):
        f = hesse_cubic(1)
        assert not is_smooth_cubic(f).is_smooth

    def test_t_two(self):
        assert hesse_cubic(2) == parse_form("z0^3+z1^3+z2^3-6*z0*z1*z2")

    def test_parameter_roundtrip(self, rng):
        for _ in range(10):
            t = rand_fraction(rng)
            assert hesse_parameter(hesse_cubic(t)) == t
        assert hesse_parameter(parse_form("z0^3 + z1^3")) is None
        assert hesse_parameter(parse_form("z0*z1*z2")) is None

    def test_pencil_split(self):
        assert hesse_pencil_split(parse_form("z0*z1*z2")) == (0, 1)
        assert hesse_pencil_split(parse_form("z0^3 + z1^2*z2")) is None


class TestFirstPolar:
    def test_fermat_at_e0(self):
        assert first_polar(hesse_cubic(0), (1, 0, 0)) == parse_form("3*z0^2")

    def test_hesse_two_at_e2(self):
        assert first_polar(hesse_cubic(2), (0, 0, 1)) == parse_form("3*z2^2 - 6*z0*z1")

    def test_zero_point_rejected(self):
        with pytest.raises(InvalidPointError):
            first_polar(hesse_cubic(0), (0, 0, 0))

    def test_linear_in_the_point(self, rng):
        f = hesse_cubic(Fraction(1, 3))
        for _ in range(10):
            q1 = [rand_fraction(rng) for _ in range(3)]
            q2 = [rand_fraction(rng) for _ in range(3)]
            q_sum = [a + b for a, b in zip(q1, q2)]
            if all(c == 0 for c in q1) or all(c == 0 for c in q2) or all(
                c == 0 for c in q_sum
            ):
                continue
            assert first_polar(f, q_sum) == first_polar(f, q1) + first_polar(f, q2)


class TestHessianCurve:
    def test_fermat(self):
        assert hessian_curve(hesse_cubic(0)) == parse_form("216*z0*z1*z2")

    def test_degenerate_cube(self):
        assert hessian_curve(parse_form("z0^3")).is_zero()

    def test_pencil_stays_in_pencil(self, rng):
        # The Hessian of a pencil member is again a pencil member: support
        # within the four pencil monomials and equal pure-cube coefficients.
        for _ in range(15):
            t = rand_hesse_t(rng)
            he = hessian_curve(hesse_cubic(t))
            assert not he.is_zero()
            assert set(he.terms) <= PENCIL_MONOS
            cubes = {he.coefficient(m) for m in ((3, 0, 0), (0, 3, 0), (0, 0, 3))}
            assert len(cubes) == 1


class TestConicSingularPoint:
    def test_crossing_lines(self):
        assert conic_singular_point(parse_form("z0*z1")) == (0, 0, 1)

    def test_sum_of_squares(self):
        assert conic_singular_point(parse_form("z0^2 + z1^2")) == (0, 0, 1)

    def test_smooth_conic_rejected(self):
        with pytest.raises(ConicRankError):
            conic_singular_point(parse_form("z0^2 + z1^2 + z2^2"))

    def test_double_line_rejected(self):
        with pytest.raises(ConicRankError):
            conic_singular_point(parse_form("z0^2"))

    def test_kernel_property_random(self, rng):
        # Built rank-2 conics: product of two independent random lines.
        from logcubic.forms import linear_form

        for _ in range(15):
            a = linear_form([rand_fraction(rng) for _ in range(3)])
            b = linear_form([rand_fraction(rng) for _ in range(3)])
            if a.is_zero() or b.is_zero():
                continue
            conic = a * b
            gram = gram_matrix(conic)
            if gram.rank() != 2:
                continue
            point = conic_singular_point(conic)
            assert gram.multiply_vector(point) == (Fraction(0),) * 3
            assert evaluate(conic, point) == 0

    def test_canonical_point_normalization(self):
        assert canonical_point((2, 4, 0)) == (Fraction(1, 2), 1, 0)
        with pytest.raises(InvalidPointError):
            canonical_point((0, 0, 0))


class TestSmoothness:
    def test_hesse_members_exact(self):
        assert is_smooth_cubic(hesse_cubic(2)).status == SMOOTH
        assert is_smooth_cubic(hesse_cubic(1)).status == SINGULAR
        assert is_smooth_cubic(parse_form("z0*z1*z2")).status == SINGULAR

    def test_nodal_cubic(self):
        # z1^2*z2 - z0^2*(z0+z2) has all three partials vanishing at [0:0:1].
        nodal = parse_form("z1^2*z2 - z0^3 - z0^2*z2")
        from logcubic.forms import partial_derivative

        for i in range(3):
            assert evaluate(partial_derivative(nodal, i), (0, 0, 1)) == 0
        assert is_smooth_cubic(nodal).status == SINGULAR

    def test_generic_smooth_certified(self):
        f = parse_form("z0^3 + z1^3 + z2^3 + z0^2*z1 - 5*z1*z2^2")
        assert is_smooth_cubic(f).status == SMOOTH

    def test_never_smooth_with_rational_singularity(self):
        # Cones over singular points: f = l1 * l2 * l3 with concurrent lines,
        # and cuspidal/nodal constructions are all decided singular.
        for f in SINGULAR_CUBICS:
            assert is_smooth_cubic(f).status == SINGULAR, str(f)

    def test_verdict_invariant_under_unimodular_maps(self, rng):
        # Metamorphic oracle: a GL3(Z) change of coordinates preserves
        # smoothness.  The moved Hesse members leave the pencil, so their
        # verdict comes from the rank criterion rather than t^3 != 1.
        smooth_cubics = [hesse_cubic(rand_hesse_t(rng)) for _ in range(4)]
        for _ in range(20):
            matrix = random_unimodular(rng)
            for f in SINGULAR_CUBICS:
                moved = substitute_linear(f, matrix)
                assert is_smooth_cubic(moved).status == SINGULAR, (str(f), matrix)
            for f in smooth_cubics:
                moved = substitute_linear(f, matrix)
                assert hesse_pencil_split(moved) is None, (str(f), matrix)
                assert is_smooth_cubic(moved).status == SMOOTH, (str(f), matrix)

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            is_smooth_cubic(parse_form("0") * parse_form("0"))


class TestUnimodular:
    def test_determinant_and_bounds(self, rng):
        from logcubic.linalg import ExactMatrix

        for _ in range(30):
            m = random_unimodular(rng)
            assert abs(ExactMatrix(m).determinant()) == 1
            assert all(abs(x) <= 9 for row in m for x in row)


class TestJInvariant:
    def test_zero_locus(self):
        assert j_invariant_hesse(0) == 0
        assert j_invariant_hesse(-2) == 0

    def test_value_at_two(self):
        assert j_invariant_hesse(2) == Fraction(512, 343)

    def test_singular_member_rejected(self):
        with pytest.raises(SingularCurveError):
            j_invariant_hesse(1)

    def test_depends_only_on_t_cubed(self, rng):
        # j is a function of t^3: members with equal t^3 share j.  Over the
        # rationals the scaling orbit is pinned by computing through t^3
        # directly.
        for _ in range(10):
            t = rand_hesse_t(rng)
            t3 = t**3
            expected = Fraction(1, 64) * t3 * (t3 + 8) ** 3 / (t3 - 1) ** 3
            assert j_invariant_hesse(t) == expected
