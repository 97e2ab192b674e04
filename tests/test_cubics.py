import random
from fractions import Fraction

import pytest

from logcubic.cubics import (
    SINGULAR,
    SMOOTH,
    _syzygy_rows,
    hesse_cubic,
    hesse_parameter,
    hesse_pencil_split,
    hessian_curve,
    is_smooth_cubic,
    j_invariant_hesse,
)
from logcubic.errors import SingularCurveError, ZeroInputError
from logcubic.forms import ZERO, TernaryForm, monomial_basis, parse_form, substitute_linear

from conftest import (
    evaluate,
    rand_fraction,
    rand_hesse_t,
    rand_nonzero_fraction,
    random_unimodular,
    sympy_syzygy_rows,
)

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


class TestSmoothness:
    def test_hesse_members_exact(self, rng):
        # Independent oracle: a pencil member is smooth exactly when
        # t^3 != 1 (Artebani-Dolgachev), which the rank test does not read.
        # Every singular member is a triangle of lines, three nodes, so its
        # partials fall three short of the quartics.
        ts = [Fraction(t) for t in (2, 1, 0, -1, -2)]
        for digits in range(1, 5):
            height = 10**digits - 1
            ts += [Fraction(rng.randint(-height, height), rng.randint(1, height))
                   for _ in range(3)]
        triangles = [parse_form("z0*z1*z2"), parse_form("-7/3*z0*z1*z2")]
        for t in ts:
            c = rand_nonzero_fraction(rng, lo=-99, hi=99, max_den=99)
            for f in (hesse_cubic(t), hesse_cubic(t).scale(c)):
                if t**3 == 1:
                    triangles.append(f)
                else:
                    verdict = is_smooth_cubic(f)
                    assert verdict == (SMOOTH, "partials generate all 15 quartics"), (t, c)
        assert len(triangles) >= 4
        for f in triangles:
            assert is_smooth_cubic(f) == (SINGULAR, "partials generate only 12 of 15 quartics")

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
        # smoothness.  The moved Hesse members leave the pencil, so the rank
        # criterion meets them as dense cubics and must still say smooth.
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


class TestMultiples:
    def test_syzygy_rows_match_sympy(self):
        # The builder of every multiplication matrix, vector for vector
        # against sympy's expansion of z^m * d_i(f), for M_{-1} to M_3.
        rng = random.Random(27)
        cubics = [
            TernaryForm(3, {m: rng.randint(-9, 9) for m in monomial_basis(3)}),
            TernaryForm(3, {m: rand_nonzero_fraction(rng) for m in monomial_basis(3)}),
            hesse_cubic(0),
            hesse_cubic(2),
            parse_form("z1^2*z2 - z0^3 - z0^2*z2"),
            TernaryForm(3, {}),
        ]
        for f in cubics:
            for k in range(-1, 4):
                rows = _syzygy_rows(f, k)
                assert rows == sympy_syzygy_rows(f, k), (str(f), k)
                assert all(x is ZERO for row in rows for x in row if x == 0)


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
