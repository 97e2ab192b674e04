import time
from fractions import Fraction

import pytest
import sympy

from logcubic.cubics import hesse_cubic, j_invariant_hesse
from logcubic.errors import (
    CayleyanSingularError,
    InconsistentInvariantsError,
    NotHessePencilError,
    SingularCurveError,
    ZeroInputError,
)
from logcubic.forms import DUAL, parse_form
from logcubic.sheaf import PRODUCT_INDEX, jacobi_degree3
from logcubic.torelli import (
    SheafInvariants,
    cayleyan_hesse_param,
    cayleyan_singularity_identity,
    counterexample_check,
    forward_invariants,
    reconstruct,
    reconstruct_candidates,
)

from conftest import rand_hesse_t, rand_nonzero_fraction


def rand_torelli_t(rng) -> Fraction:
    """Random rational t in the reconstructible range: t != 0 and
    t^3 not in {1, -8} (so the jumping-line cubic is smooth)."""
    while True:
        t = rand_hesse_t(rng, exclude_cubes=(1, -8))
        if t != 0:
            return t


def sympy_candidates(s: Fraction) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Rational roots of x^3 - 3sx + 2 and the monic product of its other
    factors (descending coefficients), from sympy's factorization over Q."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(x**3 - 3 * sympy.Rational(s.numerator, s.denominator) * x + 2, x)
    roots = set()
    residual = sympy.Poly(1, x, domain="QQ")
    for factor, mult in poly.factor_list()[1]:
        if factor.degree() == 1:
            roots.add(Fraction(str(-factor.monic().nth(0))))
        else:
            residual *= factor.monic() ** mult
    return tuple(sorted(roots)), tuple(Fraction(str(c)) for c in residual.all_coeffs())


class TestCayleyanParameter:
    def test_values(self):
        assert cayleyan_hesse_param(2) == Fraction(5, 3)
        assert cayleyan_hesse_param(-2) == 1

    def test_degenerate_at_zero(self):
        with pytest.raises(CayleyanSingularError):
            cayleyan_hesse_param(0)

    def test_singular_member(self):
        with pytest.raises(SingularCurveError):
            cayleyan_hesse_param(1)


class TestForwardInvariants:
    def test_at_two(self):
        inv = forward_invariants(2)
        target = parse_form("2*(a0^3+a1^3+a2^3) - 10*a0*a1*a2", DUAL)
        from logcubic.forms import projectively_equal

        assert projectively_equal(inv.cayleyan, target)
        assert inv.hyperplane[PRODUCT_INDEX] == 1
        assert inv.hyperplane[0] == 2  # the z0^3 slot

    def test_at_zero_family(self):
        inv = forward_invariants(0)
        assert set(inv.cayleyan.terms) == {(1, 1, 1)}
        assert all(
            x == 0 for i, x in enumerate(inv.hyperplane) if i != PRODUCT_INDEX
        )

    def test_singular_member_rejected(self):
        with pytest.raises(SingularCurveError):
            forward_invariants(1)


class TestCandidates:
    def test_s_five_thirds(self):
        cs = reconstruct_candidates(Fraction(5, 3))
        assert cs.exact_roots == (Fraction(2),)
        assert cs.residual == (1, 2, -1)  # x^2 + 2x - 1

    def test_s_one_full_factorization(self):
        cs = reconstruct_candidates(1)
        assert cs.exact_roots == (Fraction(-2), Fraction(1))
        assert cs.residual == (Fraction(1),)

    def test_s_zero_no_rational_roots(self):
        cs = reconstruct_candidates(0)
        assert cs.exact_roots == ()
        assert cs.residual == (1, 0, 0, 2)  # x^3 + 2

    def test_roots_satisfy_cubic_and_share_s(self, rng):
        # Every exact root x has x^3 - 3sx + 2 = 0 and maps back to s under
        # the parameter map (the three-to-one covering).
        for _ in range(20):
            s = rand_nonzero_fraction(rng)
            cs = reconstruct_candidates(s)
            assert 0 <= len(cs.exact_roots) <= 3
            for x in cs.exact_roots:
                assert x**3 - 3 * s * x + 2 == 0
                if x != 0 and x**3 != 1:
                    assert cayleyan_hesse_param(x) == s

    def test_residual_has_no_rational_roots(self, rng):
        x = sympy.Symbol("x")
        for _ in range(20):
            s = rand_nonzero_fraction(rng)
            cs = reconstruct_candidates(s)
            if len(cs.residual) > 1:
                coeffs = [sympy.Rational(c.numerator, c.denominator) for c in cs.residual]
                factors = sympy.Poly(coeffs, x).factor_list()[1]
                assert all(factor.degree() > 1 for factor, _ in factors)

    def test_matches_sympy(self, rng):
        def digits(k: int) -> int:
            return rng.randint(10 ** (k - 1), 10**k - 1)

        values = [Fraction(0), Fraction(1), Fraction(5, 3)]
        while len(values) < 43:
            t = Fraction(
                rng.choice([-1, 1]) * digits(rng.randint(1, 3)), digits(rng.randint(1, 3))
            )
            if t != 0 and t**3 != 1:
                values.append(cayleyan_hesse_param(t))
        values += [-rand_nonzero_fraction(rng, lo=1, hi=999, max_den=999) for _ in range(20)]
        for s in values:
            cs = reconstruct_candidates(s)
            assert (cs.exact_roots, cs.residual) == sympy_candidates(s), s


class TestReconstruct:
    def test_round_trip_examples(self):
        assert reconstruct(forward_invariants(2)) == 2
        assert reconstruct(forward_invariants(Fraction(1, 2))) == Fraction(1, 2)

    def test_round_trip_random(self, rng):
        for _ in range(10):
            t = rand_torelli_t(rng)
            assert reconstruct(forward_invariants(t)) == t

    @pytest.mark.parametrize("t", [Fraction(1234567, 7654), Fraction(123456789, 98765)])
    def test_round_trip_large_height_within_budget(self, t):
        start = time.perf_counter()
        assert reconstruct(forward_invariants(t)) == t
        assert time.perf_counter() - start < 1.0

    def test_normal_reads_back_the_parameter(self, rng):
        # The canonical normal of the pencil member at t is
        # (t,0,0,0,1,0,t,0,0,t), an independent read-out of t.
        samples = [Fraction(2), Fraction(1, 2), Fraction(-5, 3)]
        samples += [rand_torelli_t(rng) for _ in range(10)]
        for t in samples:
            inv = forward_invariants(t)
            assert inv.hyperplane == (t, 0, 0, 0, 1, 0, t, 0, 0, t)
            assert inv.hyperplane[0] / inv.hyperplane[PRODUCT_INDEX] == reconstruct(inv) == t

    def test_refuses_product_family(self):
        with pytest.raises(CayleyanSingularError):
            reconstruct(forward_invariants(0))

    def test_refuses_singular_dual_cubic(self):
        # t = -2 gives s = 1, a singular dual pencil member (j = 0 locus).
        with pytest.raises(CayleyanSingularError):
            reconstruct(forward_invariants(-2))

    def test_refuses_non_pencil_cayleyan(self):
        inv = forward_invariants(2)
        crooked = SheafInvariants(
            cayleyan=parse_form("a0^3 + a0*a1*a2", DUAL),
            hyperplane=inv.hyperplane,
        )
        with pytest.raises(NotHessePencilError):
            reconstruct(crooked)

    def test_refuses_primal_cayleyan(self):
        inv = forward_invariants(2)
        with pytest.raises(NotHessePencilError):
            reconstruct(
                SheafInvariants(
                    cayleyan=parse_form("z0^3+z1^3+z2^3-6*z0*z1*z2"),
                    hyperplane=inv.hyperplane,
                )
            )

    def test_refuses_mismatched_hyperplane(self):
        # Cayleyan of t = 2 with the hyperplane of an unrelated parameter:
        # no candidate matches.
        cay = forward_invariants(2).cayleyan
        wrong = jacobi_degree3(hesse_cubic(Fraction(1, 3)))
        with pytest.raises(InconsistentInvariantsError):
            reconstruct(SheafInvariants(cayleyan=cay, hyperplane=wrong))


class TestTorelliFailure:
    def test_counterexample_family(self, rng):
        assert counterexample_check(1, 1, 1) is True
        assert counterexample_check(2, 3, -5) is True
        assert counterexample_check(Fraction(7, 3), 1, 1) is True
        for _ in range(6):
            a = rand_nonzero_fraction(rng)
            b = rand_nonzero_fraction(rng)
            c = rand_nonzero_fraction(rng)
            assert counterexample_check(a, b, c) is True

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ZeroInputError):
            counterexample_check(1, 0, 1)

    def test_j_zero_iff_singular_cayleyan(self, rng):
        # On the pencil: j(t) = 0 exactly when t = 0 or the parameter
        # s = (t^3+2)/(3t) satisfies s^3 = 1.
        samples = [Fraction(-2), Fraction(2), Fraction(1, 2), Fraction(-3)]
        samples += [rand_hesse_t(rng) for _ in range(12)]
        for t in samples:
            j = j_invariant_hesse(t)
            if t == 0:
                singular_dual = True
            else:
                singular_dual = cayleyan_hesse_param(t) ** 3 == 1
            assert (j == 0) == (t == 0 or singular_dual)


class TestSingularityIdentity:
    def test_exact_identity(self):
        lhs, rhs = cayleyan_singularity_identity()
        assert lhs == rhs

    def test_expected_expansion(self):
        # t^9 + 6 t^6 - 15 t^3 + 8, ascending.
        lhs, _ = cayleyan_singularity_identity()
        assert lhs == (8, 0, 0, -15, 0, 0, 6, 0, 0, 1)
