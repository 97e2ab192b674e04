import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from logcubic.cubics import gram_matrix, hesse_cubic, hessian_curve
from logcubic.errors import (
    InsufficientSamplesError,
    NumericRankError,
    SingularCurveError,
    ZeroInputError,
)
from logcubic.forms import TernaryForm, monomial_basis, parse_form, partial_derivative
from logcubic.involution import (
    InvolutionReport,
    _gram_stack,
    _random_projective_point,
    _restrict_to_line,
    _row_norms,
    check_involution,
    chordal_distance,
    involution_s,
    sample_hessian_points,
)

from conftest import rand_fraction, rand_hesse_t


def seeded_cubics(seed: int, count: int = 10) -> list[TernaryForm]:
    """Dense integer cubics (coefficients in [-9, 9]), dense cubics with
    small p/q coefficients, and Hesse-pencil members, in equal numbers."""
    rng = random.Random(seed)
    cubics = []
    for _ in range(count):
        cubics.append(TernaryForm(3, {m: rng.randint(-9, 9) for m in monomial_basis(3)}))
        cubics.append(TernaryForm(3, {m: rand_fraction(rng) for m in monomial_basis(3)}))
        cubics.append(hesse_cubic(rand_hesse_t(rng)))
    return cubics


class TestChordalDistance:
    def test_identical_up_to_scale_and_phase(self):
        p = np.array([1 + 2j, -3, 0.5j])
        assert chordal_distance(p, p * (2 - 1j)) < 1e-15

    def test_orthogonal_points(self):
        assert chordal_distance(np.array([1, 0, 0]), np.array([0, 1, 0])) == pytest.approx(1.0)

    def test_small_angles_resolved(self):
        # Perturbations around 1e-12 must not drown in the eps floor of the
        # naive 1 - |<p,q>|^2 formula.
        p = np.array([1.0, 0.0, 0.0])
        q = np.array([1.0, 1e-12, 0.0])
        assert chordal_distance(p, q) == pytest.approx(1e-12, rel=1e-3)


class TestSampling:
    def test_residuals_below_bound(self):
        f = hesse_cubic(2)
        he = hessian_curve(f)
        scale = float(max(abs(c) for c in he.terms.values()))
        points = sample_hessian_points(f, 10, seed=1)
        assert len(points) == 30
        for q in points:
            residual = abs(complex(he.evaluate(tuple(complex(x) for x in q)))) / scale
            assert residual < 1e-10

    def test_fermat_lines_have_zero_coordinate(self):
        # The Hessian of the Fermat cubic is z0*z1*z2 = 0, so every sampled
        # point sits on a coordinate line.
        points = sample_hessian_points(hesse_cubic(0), 5, seed=2)
        assert points
        for q in points:
            assert min(abs(x) for x in q) < 1e-8

    def test_degenerate_hessian_rejected(self):
        with pytest.raises(SingularCurveError):
            sample_hessian_points(parse_form("z0^3"), 5, seed=0)

    def test_seed_determinism(self):
        a = sample_hessian_points(hesse_cubic(2), 8, seed=9)
        b = sample_hessian_points(hesse_cubic(2), 8, seed=9)
        assert len(a) == len(b)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestExactPreSteps:
    """The exact steps before the numerics, against the constructions they
    replace: Gram matrices of the exact partials, and sympy's expansion."""

    def test_gram_stack_matches_partials(self):
        for f in seeded_cubics(31):
            oracle = np.array(
                [[[float(x) for x in row] for row in gram_matrix(partial_derivative(f, i)).entries]
                 for i in range(3)]
            )
            assert np.array_equal(_gram_stack(f), oracle)

    def test_restriction_matches_sympy(self):
        z = sympy.symbols("z0 z1 z2")
        mu, lam = sympy.symbols("mu lam")
        rng = random.Random(32)
        for f in seeded_cubics(33, count=4):
            he = hessian_curve(f)
            poly = sum(sympy.Rational(c.numerator, c.denominator) * z[0] ** e0 * z[1] ** e1
                       * z[2] ** e2 for (e0, e1, e2), c in he.terms.items())
            for _ in range(5):
                base = _random_projective_point(rng)
                direction = _random_projective_point(rng)
                line = sympy.Poly(
                    poly.xreplace({z[i]: mu * base[i] + lam * direction[i] for i in range(3)}),
                    mu, lam)
                expected = [line.coeff_monomial(mu ** (3 - k) * lam**k) for k in range(4)]
                got = _restrict_to_line(he, base, direction)
                assert all(type(c) is Fraction for c in got)
                assert got == [Fraction(int(c.p), int(c.q)) for c in expected]


class TestInvolutionStep:
    def test_hand_example(self):
        # Fermat cubic at [0:1:-1]: polar conic 3 z1^2 - 3 z2^2 with Gram
        # diag(0, 3, -3); singular point [1:0:0].
        q = np.array([0, 1, -1], dtype=complex)
        s = involution_s(hesse_cubic(0), q / np.linalg.norm(q))
        assert chordal_distance(s, np.array([1, 0, 0])) < 1e-12

    def test_rank_one_rejected(self):
        # [1:0:0] on the Fermat Hessian: polar 3 z0^2 has Gram rank 1.
        with pytest.raises(NumericRankError, match="rank <= 1"):
            involution_s(hesse_cubic(0), np.array([1, 0, 0], dtype=complex))

    def test_off_curve_rejected(self):
        # A generic point off the Hessian curve has a full-rank polar Gram.
        q = np.array([1, 1, 1], dtype=complex) / np.sqrt(3)
        with pytest.raises(NumericRankError, match="off the Hessian curve"):
            involution_s(hesse_cubic(2), q)

    def test_double_application_returns(self):
        f = hesse_cubic(2)
        for q in sample_hessian_points(f, 10, seed=3):
            sq = involution_s(f, q)
            ssq = involution_s(f, sq)
            assert chordal_distance(ssq, q) < 1e-10
            assert chordal_distance(sq, q) > 1e-2


def reference_chordal_distance(p, q):
    """The point-by-point chordal distance, through np.linalg.norm."""
    u = p / np.linalg.norm(p)
    v = q / np.linalg.norm(q)
    return float(np.linalg.norm(u - v * np.vdot(v, u)))


def reference_check(f, n, seed):
    """check_involution as a loop over samples: (samples, max double-apply
    error, min fixed-point distance), or None when too few samples pass."""
    max_err, min_fix, usable = 0.0, float("inf"), 0
    for q in sample_hessian_points(f, n, seed):
        try:
            sq = involution_s(f, q)
            ssq = involution_s(f, sq)
        except NumericRankError:
            continue
        usable += 1
        max_err = max(max_err, reference_chordal_distance(ssq, q))
        min_fix = min(min_fix, reference_chordal_distance(sq, q))
    return (usable, max_err, min_fix) if usable >= n / 2 else None


class TestBatchedApplication:
    """Applying s to a stack gives, row for row, the floats of applying it
    to one point at a time."""

    FERMAT_RANK_ONE = np.array([1, 0, 0], dtype=complex)
    OFF_CURVE = np.array([1, 1, 1], dtype=complex) / np.sqrt(3)

    def test_rows_equal_single_points(self):
        for f in seeded_cubics(41, count=4) + [hesse_cubic(0)]:
            points = sample_hessian_points(f, 6, seed=5)
            stack = np.array(points + [self.FERMAT_RANK_ONE, self.OFF_CURVE])
            batch = involution_s(f, stack)
            assert batch.shape == stack.shape
            rejected = 0
            for q, row in zip(stack, batch):
                try:
                    single = involution_s(f, q)
                except NumericRankError:
                    rejected += 1
                    assert np.isnan(row).all()
                    continue
                assert np.array_equal(row, single)
            assert rejected >= 1
        # The rank-1 point of the Fermat cubic is among the NaN rows.
        assert np.isnan(involution_s(hesse_cubic(0), self.FERMAT_RANK_ONE[None])).all()

    def test_empty_stack(self):
        assert involution_s(hesse_cubic(2), np.zeros((0, 3), dtype=complex)).shape == (0, 3)

    def test_report_equals_point_by_point_loop(self):
        for f in seeded_cubics(42, count=3) + [hesse_cubic(0)]:
            for seed in (0, 1):
                expected = reference_check(f, 40, seed)
                if expected is None:
                    with pytest.raises(InsufficientSamplesError):
                        check_involution(f, 40, 1e-8, seed)
                    continue
                report = check_involution(f, 40, 1e-8, seed)
                got = (report.samples, report.max_double_apply_error,
                       report.min_fixed_point_distance)
                assert [type(x) for x in got] == [int, float, float]
                assert got == expected

    def test_row_norms_equal_vector_norms(self):
        rng = np.random.default_rng(43)
        scale = 10.0 ** rng.uniform(-3, 3, size=(3000, 1))
        x = (rng.standard_normal((3000, 3)) + 1j * rng.standard_normal((3000, 3))) * scale
        expected = np.array([np.linalg.norm(row) for row in x])
        assert np.array_equal(_row_norms(x), expected)

    def test_chordal_distance_equals_reference(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            q = p + 10.0 ** rng.uniform(-14, 0) * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            q = q * 10.0 ** rng.uniform(-3, 3)
            assert chordal_distance(p, q) == reference_chordal_distance(p, q)


class TestCheckInvolution:
    @pytest.mark.parametrize("t", [Fraction(2), Fraction(1, 2), Fraction(-3)])
    def test_passes_on_smooth_hessians(self, t):
        report = check_involution(hesse_cubic(t), 100, 1e-8, seed=7)
        assert report.samples >= 50
        assert report.passed
        assert report.max_double_apply_error < 1e-8
        assert report.min_fixed_point_distance > 1e-8

    def test_fermat_filters_everything(self):
        # The Fermat Hessian is three lines; the involution image is always
        # a coordinate point with a rank-1 polar, so every sample is
        # filtered at the second application and the run reports the
        # shortfall instead of passing hollowly.
        with pytest.raises(InsufficientSamplesError):
            check_involution(hesse_cubic(0), 100, 1e-8, seed=3)

    def test_zero_tolerance_rejected(self):
        # Also every tolerance that is not finite and positive: nan compares
        # false with everything, so a plain tol <= 0 test lets it through.
        for tol in (0.0, -1e-8, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ZeroInputError):
                check_involution(hesse_cubic(2), 10, tol, seed=0)

    @pytest.mark.parametrize("n", [0, -5])
    def test_sample_count_below_one_rejected(self, n, monkeypatch):
        # Refused before any sampling: zero lines would otherwise report a
        # pass over zero samples with an infinite fixed-point distance.
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled the Hessian curve")

        monkeypatch.setattr("logcubic.involution.sample_hessian_points", no_sampling)
        with pytest.raises(InsufficientSamplesError):
            check_involution(hesse_cubic(2), n, 1e-8, seed=0)

    def test_report_determinism(self):
        a = check_involution(hesse_cubic(2), 30, 1e-8, seed=11)
        b = check_involution(hesse_cubic(2), 30, 1e-8, seed=11)
        assert a == b

    def test_pass_semantics(self):
        report = InvolutionReport(
            samples=60,
            max_double_apply_error=1e-12,
            min_fixed_point_distance=0.5,
            tolerance=1e-8,
        )
        assert report.passed
        failing = InvolutionReport(60, 1e-6, 0.5, 1e-8)
        assert not failing.passed
        fixed_point = InvolutionReport(60, 1e-12, 1e-12, 1e-8)
        assert not fixed_point.passed
