import random
import time
from fractions import Fraction

import pytest
import sympy

from logcubic.errors import (
    DegreeMismatchError,
    InhomogeneousError,
    ParseError,
    SpaceMismatchError,
)
from logcubic.forms import (
    DUAL,
    MAX_PARSED_DEPTH,
    coefficient_vector,
    form_from_coefficients,
    linear_form,
    monomial_basis,
    parse_form,
    parse_rational,
    partial_derivative,
    projectively_equal,
    substitute_linear,
    variable,
    zero_form,
)

from conftest import evaluate, rand_form, rand_fraction
from test_involution import sympy_form


class TestBasisOrder:
    def test_lengths(self):
        assert len(monomial_basis(2)) == 6
        assert len(monomial_basis(3)) == 10
        for d in range(6):
            assert len(monomial_basis(d)) == (d + 1) * (d + 2) // 2

    def test_degree_two_order(self):
        # z0^2, z0*z1, z0*z2, z1^2, z1*z2, z2^2
        assert monomial_basis(2) == (
            (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
        )

    def test_deterministic(self):
        assert monomial_basis(3) == monomial_basis(3)
        assert monomial_basis(3)[4] == (1, 1, 1)

    def test_graded_lex_is_descending(self):
        for d in (2, 3, 4):
            basis = monomial_basis(d)
            assert list(basis) == sorted(basis, reverse=True)


class TestParse:
    def test_hesse_member(self):
        f = parse_form("z0^3 + z1^3 + z2^3 - 3*2*z0*z1*z2")
        assert f.degree == 3
        assert len(f.terms) == 4
        assert f.coefficient((1, 1, 1)) == -6
        assert f.coefficient((3, 0, 0)) == 1

    def test_zero(self):
        f = parse_form("0")
        assert f.is_zero()
        assert f.terms == {}

    def test_binomial_square(self):
        f = parse_form("(z0+z1)^2")
        assert f == parse_form("z0^2 + 2*z0*z1 + z1^2")

    def test_huge_exponent_by_squaring(self):
        # About 30 products for an exponent of 10^9, not 10^9 of them.
        f = parse_form("z0^1000000000")
        assert f.degree == 10**9
        assert f.terms == {(10**9, 0, 0): 1}

    @pytest.mark.parametrize(
        "text",
        ["(z0+2*z1)^3000", "(z0+z1+z2)^64", "2^1000000000000*z0^3", "((z0+z1+z2)^8)^8",
         "(z0+z1+z2)^15*(z0+z1+z2)^15"],
    )
    def test_oversized_expansion_refused_at_once(self, text):
        # Refused from the sizes of the factors, before the product is formed.
        start = time.perf_counter()
        with pytest.raises(ParseError, match="expansion too large"):
            parse_form(text)
        assert time.perf_counter() - start < 0.1

    def test_expansion_limits_spare_ordinary_forms(self):
        assert parse_form("2^10*z0^3").terms == {(3, 0, 0): 1024}
        assert len(parse_form("(z0+z1+z2)^30").terms) == 496
        assert len(parse_form("(2/3*z0 - 5/7*z1)^60").terms) == 61
        # A power of a monomial with coefficient +-1 costs nothing.
        assert parse_form("(-z0*z1)^999999").terms == {(999999, 999999, 0): -1}

    def test_rational_coefficients(self):
        f = parse_form("7/3*z0^2 - 1/2*z1*z2")
        assert f.coefficient((2, 0, 0)) == Fraction(7, 3)
        assert f.coefficient((0, 1, 1)) == Fraction(-1, 2)

    def test_dual_space(self):
        g = parse_form("a0*a1*a2", DUAL)
        assert g.space == DUAL
        assert g.coefficient((1, 1, 1)) == 1
        with pytest.raises(ParseError):
            parse_form("z0", DUAL)

    def test_inhomogeneous_rejected(self):
        with pytest.raises(InhomogeneousError):
            parse_form("z0^2 + z1")
        with pytest.raises(InhomogeneousError):
            parse_form("(z0+1)*(z0-1)")

    def test_malformed_rejected(self):
        # The last two hold numerals longer than the 4300 digits int() reads.
        for bad in ("z0 +", "(z0", "z3", "z0^", "^2", "", "z0 z1", "2**3",
                    "7" * 5000 + "*z0^3 + z1^3 + z2^3", "z0^3 + 1/" + "9" * 5000 + "*z1^3"):
            with pytest.raises(ParseError):
                parse_form(bad)

    def test_nesting_bounded(self):
        # One level of parentheses is one level of recursion in the parser;
        # past MAX_PARSED_DEPTH the text is refused before it is parsed.
        inner = "z0^3 + z1^3 + z2^3"
        at_bound = "(" * MAX_PARSED_DEPTH + inner + ")" * MAX_PARSED_DEPTH
        assert parse_form(at_bound) == parse_form(inner)
        for levels in (MAX_PARSED_DEPTH + 1, 2000):
            with pytest.raises(ParseError, match="nested deeper"):
                parse_form("(" * levels + inner + ")" * levels)

    def test_signs_read_before_every_term(self):
        assert parse_form("--z0 + -z1 - +z2") == parse_form("z0 - z1 - z2")
        assert parse_form("-(z0 - z1)^2") == parse_form("-z0^2 + 2*z0*z1 - z1^2")

    def test_non_ascii_digits_rejected(self):
        # str.isdigit() accepts '²' and '٣', which int() refuses or reads
        # as 3; only ASCII 0-9 make a number.
        for bad in ("z0^² + z1^3 + z2^3", "٣*z0", "z0^2*z1 + ½*z2^3"):
            with pytest.raises(ParseError):
                parse_form(bad)

    def test_number_token(self):
        # p/q is one token, with whitespace free around the slash; only a
        # plain integer is an exponent, and a zero or missing denominator
        # is refused wherever the token stands.
        assert parse_form("2 / 3*z0") == parse_form("2/3*z0")
        assert parse_form("z0^007") == parse_form("z0^7")
        for bad, message in [("z0^2/1", "exponent"), ("z0^1/2", "exponent"),
                             ("1/0*z0", "denominator"), ("1/*z0", "denominator"),
                             ("z0 + 3/", "denominator"), ("z0/2", "trailing input")]:
            with pytest.raises(ParseError, match=message):
                parse_form(bad)

    def test_whitespace_read_in_linear_time(self):
        # A token pattern led by optional whitespace fails again at every
        # start of a trailing run: 20 s for these 20,000 spaces.
        start = time.perf_counter()
        for text in ("z0^3" + " " * 20_000, "1" + " " * 20_000 + "/ 2*z0^3 " + "\t" * 20_000):
            assert parse_form(text).degree == 3
        assert time.perf_counter() - start < 1.0

    def test_cancellation_to_zero(self):
        assert parse_form("z0^2 - z0^2").is_zero()

    def test_str_roundtrip_random(self, rng):
        for _ in range(40):
            f = rand_form(rng, rng.randint(0, 4))
            assert parse_form(str(f)) == f

    def test_str_of_high_degree_builds_no_basis(self, bounded_basis):
        # Text follows the terms, not the basis of the degree, which holds
        # about 2 * 10^18 exponent triples here.
        f = parse_form("(-z0*z1)^1000000000")
        assert str(f) == "z0^1000000000*z1^1000000000"
        assert str(parse_form("z0^70 - 2/3*z1^70")) == "z0^70 - 2/3*z1^70"


class TestParseRational:
    """parse_rational reads exactly the polynomial grammar's number token,
    after an optional sign: the one reader of exact numbers from text."""

    @pytest.mark.parametrize("text, value", [
        ("7", Fraction(7)), ("-5/3", Fraction(-5, 3)), ("+3", Fraction(3)),
        (" 2 ", Fraction(2)), ("2 / 3", Fraction(2, 3)), ("- 2", Fraction(-2)),
        ("007/014", Fraction(1, 2)), ("6/4", Fraction(3, 2)), ("-0", Fraction(0)),
    ])
    def test_accepted(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", [
        "1e1000", "1e3", "0.5", ".5", "1.", "1_000", "٣", "²", "½", "nan", "inf", "",
        " ", "-", "1/", "/2", "1/0", "3/000", "--2", "+-2", "2/-3", "1/2/3", "0x10", "z0",
        "9" * 5000, "1/" + "9" * 5000,
    ])
    def test_refused(self, text):
        with pytest.raises(ParseError):
            parse_rational(text)

    def test_messages(self):
        with pytest.raises(ParseError, match="denominator must be a nonzero integer"):
            parse_rational("1/0")
        with pytest.raises(ParseError, match="numeral of 5000 digits is too long"):
            parse_rational("-" + "9" * 5000)
        with pytest.raises(ParseError, match="not a rational number: '1e1000'"):
            parse_rational("1e1000")

    def test_agrees_with_form_text(self, rng):
        for _ in range(50):
            value = rand_fraction(rng, -999, 999, 999)
            assert parse_rational(str(value)) == value
            assert parse_form(str(value)).coefficient((0, 0, 0)) == value


class TestArithmetic:
    def test_ring_axioms_random(self, rng):
        # (f+g)*h == f*h + g*h exactly; multiplication adds degrees.
        for _ in range(25):
            d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
            f = rand_form(rng, d1)
            g = rand_form(rng, d1)
            h = rand_form(rng, d2)
            assert (f + g) * h == f * h + g * h
            if not (f.is_zero() or h.is_zero()):
                assert (f * h).degree == d1 + d2

    def test_mul_commutes_and_associates(self, rng):
        for _ in range(15):
            f = rand_form(rng, 1)
            g = rand_form(rng, 2)
            h = rand_form(rng, 1)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)

    def test_degree_mismatch_add(self):
        with pytest.raises(DegreeMismatchError):
            parse_form("z0") + parse_form("z0^2")

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            parse_form("z0") + parse_form("a0", DUAL)

    def test_zero_form_is_additive_identity(self, rng):
        f = rand_form(rng, 3)
        assert f + zero_form(3) == f
        assert f + zero_form(0) == f  # declared degree of a zero form is inert

    def test_scalar_multiple(self):
        f = parse_form("z0^2 - z1*z2")
        assert 2 * f == parse_form("2*z0^2 - 2*z1*z2")
        assert f.scale(Fraction(1, 3)) == parse_form("1/3*z0^2 - 1/3*z1*z2")

    def test_immutable(self):
        f = parse_form("z0")
        with pytest.raises(AttributeError):
            f.degree = 2


class TestKernelsAgainstSympy:
    """The TernaryForm operators and the parser share one set of dict
    kernels, so they are checked against sympy's expansion, not against
    each other."""

    Z = sympy.symbols("z0 z1 z2")

    def forms(self, rng, degree):
        # Zero forms included: density 0 gives the empty map.
        return [rand_form(rng, degree, density=density) for density in (0.0, 0.3, 0.7, 1.0)]

    def assert_expands_to(self, form, expr, degree=None):
        poly = sympy.Poly(sympy.expand(expr), *self.Z)
        assert form.terms == {m: Fraction(int(c.p), int(c.q)) for m, c in poly.as_dict().items()}
        assert degree is None or form.degree == degree

    def test_operators(self):
        rng = random.Random(81)
        for _ in range(4):
            d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
            for f in self.forms(rng, d1):
                pf = sympy_form(f, self.Z)
                c = rand_fraction(rng)
                self.assert_expands_to(-f, -pf, d1)
                self.assert_expands_to(f.scale(c), sympy.Rational(c.numerator, c.denominator) * pf, d1)
                for n in range(5):
                    self.assert_expands_to(f**n, pf**n, d1 * n)
                for g in self.forms(rng, d1):
                    pg = sympy_form(g, self.Z)
                    self.assert_expands_to(f + g, pf + pg, d1)
                    self.assert_expands_to(f - g, pf - pg, d1)
                for g in self.forms(rng, d2):
                    self.assert_expands_to(f * g, pf * sympy_form(g, self.Z), d1 + d2)

    def test_parser(self):
        # A parsed zero has degree 0, so only the terms are compared.
        rng = random.Random(82)
        for _ in range(10):
            f, g = rand_form(rng, rng.randint(0, 2)), rand_form(rng, 1)
            n = rng.randint(0, 4)
            expr = sympy_form(f, self.Z) * sympy_form(g, self.Z) ** n
            self.assert_expands_to(parse_form(f"({f}) * ({g})^{n}"), expr)


class TestCalculus:
    def test_power_rule(self):
        assert partial_derivative(parse_form("z0^3+z1^3+z2^3"), 0) == parse_form("3*z0^2")

    def test_hesse_partial(self):
        # d/dz0 of the pencil member at parameter t: 3*z0^2 - 3t*z1*z2.
        t = Fraction(5, 7)
        f = parse_form("z0^3 + z1^3 + z2^3") + parse_form("z0*z1*z2").scale(-3 * t)
        assert partial_derivative(f, 0) == parse_form("3*z0^2") + parse_form(
            "z1*z2"
        ).scale(-3 * t)

    def test_absent_variable(self):
        assert partial_derivative(parse_form("z0^3"), 2).is_zero()

    def test_mixed_partials_commute(self, rng):
        for _ in range(20):
            f = rand_form(rng, rng.randint(0, 4))
            for i in range(3):
                for j in range(3):
                    assert partial_derivative(partial_derivative(f, i), j) == (
                        partial_derivative(partial_derivative(f, j), i)
                    )

    def test_euler_identity(self, rng):
        # z0*d0(f) + z1*d1(f) + z2*d2(f) == deg(f) * f for homogeneous f.
        for _ in range(20):
            d = rng.randint(1, 4)
            f = rand_form(rng, d)
            euler = zero_form(d)
            for i in range(3):
                euler = euler + variable(i) * partial_derivative(f, i)
            assert euler == f.scale(d)


class TestCoefficientVectors:
    def test_single_monomial(self):
        assert coefficient_vector(parse_form("z0^2")) == (1, 0, 0, 0, 0, 0)

    def test_hesse_partial_at_two(self):
        f = partial_derivative(parse_form("z0^3+z1^3+z2^3-3*2*z0*z1*z2"), 0)
        assert coefficient_vector(f) == (3, 0, 0, 0, -6, 0)

    def test_zero_form(self):
        assert coefficient_vector(zero_form(2)) == (0,) * 6

    def test_coefficient_count_checked_before_the_basis(self, bounded_basis):
        # A degree of a million would ask for a basis of 5 * 10^11 triples.
        with pytest.raises(DegreeMismatchError, match="expected 500001500001 coefficients"):
            form_from_coefficients([1] * 10, 10**6)
        with pytest.raises(DegreeMismatchError, match="degree must be >= 0"):
            form_from_coefficients([], -1)

    def test_roundtrip_random(self, rng):
        for _ in range(25):
            d = rng.randint(0, 4)
            f = rand_form(rng, d)
            assert form_from_coefficients(coefficient_vector(f), d) == f
            vec = tuple(rand_fraction(rng) for _ in monomial_basis(d))
            assert coefficient_vector(form_from_coefficients(vec, d)) == vec


class TestSubstitution:
    def test_identity_matrix(self, rng):
        f = rand_form(rng, 3)
        eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert substitute_linear(f, eye) == f

    def test_swap_variables(self):
        f = parse_form("z0^2*z1")
        swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        assert substitute_linear(f, swap) == parse_form("z1^2*z0")

    def test_evaluation_commutes(self, rng):
        # f(M x) == (f o M)(x) exactly at random rational points.
        for _ in range(10):
            f = rand_form(rng, 3)
            m = [[rand_fraction(rng) for _ in range(3)] for _ in range(3)]
            x = [rand_fraction(rng) for _ in range(3)]
            mx = [sum(m[i][j] * x[j] for j in range(3)) for i in range(3)]
            assert evaluate(substitute_linear(f, m), x) == evaluate(f, mx)


class TestProjectiveEquality:
    def test_scalar_multiples(self, rng):
        f = rand_form(rng, 3)
        if f.is_zero():
            f = parse_form("z0^3")
        assert projectively_equal(f, f.scale(Fraction(-7, 3)))
        assert not projectively_equal(f, f + parse_form("z0^3").scale(
            1 + abs(f.coefficient((3, 0, 0))) * 2
        ))

    def test_zero_forms(self):
        assert projectively_equal(zero_form(3), zero_form(3))
        assert not projectively_equal(zero_form(3), parse_form("z0^3"))

    def test_linear_form_constructor(self):
        assert linear_form((1, -1, 0)) == parse_form("z0 - z1")
