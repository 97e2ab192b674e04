import random
from fractions import Fraction

import pytest

from logcubic.cubics import (
    _PRIME,
    SINGULAR,
    SMOOTH,
    _quartic_rank,
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
from logcubic.linalg import ExactMatrix, _bareiss, _integer_rows, _rank_mod
from logcubic.sheaf import _jacobi_degree3

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


def tall_cubic(rng, bits: int, fractional: bool, singular: bool = False) -> TernaryForm:
    """A dense cubic whose coefficients are b-bit integers, or p/q with b-bit
    p and q; singular ones leave out z2^3, z0*z2^2 and z1*z2^2, so that
    [0:0:1] is a singular point."""
    terms = {}
    for mono in monomial_basis(3):
        if singular and mono in {(0, 0, 3), (1, 0, 2), (0, 1, 2)}:
            continue
        numerator = rng.choice((-1, 1)) * rng.getrandbits(bits)
        terms[mono] = Fraction(numerator, rng.getrandbits(bits) | 1 if fractional else 1)
    return TernaryForm(3, terms)


def modular_rank(f: TernaryForm) -> int:
    """Rank of M_1's integer rows modulo the certificate's prime."""
    rows, _ = _integer_rows(_syzygy_rows(f, 1))
    return _rank_mod(rows, 15, _PRIME)


class TestModularCertificate:
    """_quartic_rank reads rank 15 off M_1's integer rows modulo a fixed
    prime, and eliminates the same rows exactly when the rank mod p is
    lower.  Oracle: the exact rank of ExactMatrix on M_1's rows."""

    def test_matches_exact_rank_at_height(self):
        rng = random.Random(1301)
        cubics = []
        for bits, count in ((8, 3), (64, 2), (1024, 1)):
            for fractional in (False, True):
                cubics += [tall_cubic(rng, bits, fractional) for _ in range(count)]
                cubics.append(tall_cubic(rng, bits, fractional, singular=True))
        ranks = [_quartic_rank(f) for f in cubics]
        assert ranks == [ExactMatrix(_syzygy_rows(f, 1)).rank() for f in cubics]
        # Both branches ran: the dense cubics are smooth, the others not.
        assert 15 in ranks and 14 in ranks

    def test_fallback_decides_a_cubic_the_prime_divides(self):
        # Modulo p this is the nodal cubic, so the certificate fails; over Q
        # the discriminant is nonzero and the exact rank is 15.
        f = parse_form(f"z1^2*z2 - z0^3 - z0^2*z2 + {_PRIME}*z2^3")
        assert modular_rank(f) == 14
        assert ExactMatrix(_syzygy_rows(f, 1)).rank() == 15
        assert _quartic_rank(f) == 15
        assert is_smooth_cubic(f) == (SMOOTH, "partials generate all 15 quartics")

    @pytest.mark.parametrize("text, rank", [
        ("z1^2*z2 - z0^3 - z0^2*z2", 14),  # node
        ("z1^2*z2 - z0^3", 13),  # cusp
        ("z0*z1*z2", 12),  # triangle
        ("z2*(z0^2 + z1^2 - z2^2)", 13),  # conic and a secant line
        ("z0*(z0*z2 - z1^2)", 12),  # conic and a tangent line
        ("z0^3", 6),  # triple line
        ("(z0 + 2*z1 - z2)^3", 6),
    ], ids=["nodal", "cuspidal", "triangle", "conic-secant", "conic-tangent",
            "triple-line", "moved-triple-line"])
    def test_singular_witnesses(self, text, rank):
        f = parse_form(text)
        rng = random.Random(1302)
        witness = f"partials generate only {rank} of 15 quartics"
        for form in [f] + [substitute_linear(f, random_unimodular(rng)) for _ in range(3)]:
            assert modular_rank(form) <= rank
            assert is_smooth_cubic(form) == (SINGULAR, witness), str(form)

    def test_tall_smooth_cubic_skips_exact_elimination(self, monkeypatch):
        import logcubic.cubics

        calls = []
        for name in ("_rank_mod", "_bareiss"):
            original = getattr(logcubic.cubics, name)
            monkeypatch.setattr(logcubic.cubics, name, lambda *args, name=name, f=original:
                                calls.append(name) or f(*args))
        f = tall_cubic(random.Random(1303), 4096, fractional=True)
        assert is_smooth_cubic(f).is_smooth
        assert calls == ["_rank_mod"]
        # A singular cubic takes the exact elimination after the modular one.
        calls.clear()
        assert not is_smooth_cubic(parse_form("z1^2*z2 - z0^3")).is_smooth
        assert calls == ["_rank_mod", "_bareiss"]


class TestHeightLaws:
    """The sizes behind the cost at height grow at most linearly in the
    input's bits b, read as bit lengths rather than wall-clock times: the
    largest integer of M_1's exact echelon on singular cubics (whose
    verdict takes that elimination), and the largest numerator or
    denominator of the Jacobi normal on smooth ones.

    Measured on seeds 1-3 at b = 8, 64 and 512: echelon 14 bits per input
    bit for integer and 64 for p/q coefficients, normal 9 and 44.  The
    bounds leave about a quarter of margin in the slope, plus 64 bits."""

    SLOPES = {  # (echelon, normal) bits per input bit
        False: (18, 12),
        True: (80, 56),
    }

    @pytest.mark.parametrize("fractional", [False, True], ids=["integer", "p/q"])
    def test_linear_in_input_bits(self, fractional):
        echelon_slope, normal_slope = self.SLOPES[fractional]
        rng = random.Random(1304)
        for bits in (8, 64, 512):
            singular = tall_cubic(rng, bits, fractional, singular=True)
            rows, _ = _integer_rows(_syzygy_rows(singular, 1))
            echelon, pivots, _ = _bareiss(rows, 15)
            assert len(pivots) < 15
            largest = max(abs(x).bit_length() for row in echelon for x in row)
            assert largest <= echelon_slope * bits + 64, (bits, largest)

            smooth = tall_cubic(rng, bits, fractional)
            normal = _jacobi_degree3(smooth)
            largest = max(max(x.numerator.bit_length(), x.denominator.bit_length())
                          for x in normal)
            assert largest <= normal_slope * bits + 64, (bits, largest)


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
