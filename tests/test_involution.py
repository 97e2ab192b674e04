import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import sympy

from logcubic.cubics import gram_matrix, hesse_cubic, hessian_curve
from logcubic.errors import (
    DegreeMismatchError,
    InsufficientSamplesError,
    NumericRankError,
    SingularCurveError,
    ZeroInputError,
)
from logcubic.forms import TernaryForm, monomial_basis, parse_form, partial_derivative
from logcubic.involution import (
    RESIDUAL_BOUND,
    InvolutionReport,
    _gram_stack,
    _integer_gradient,
    _onto_hessian,
    _random_projective_point,
    _restrict_to_line,
    _row_norms,
    check_involution,
    involution_s,
    sample_hessian_points,
)

from conftest import chordal_distance, evaluate, rand_fraction, rand_hesse_t


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
            residual = abs(complex(evaluate(he, tuple(complex(x) for x in q)))) / scale
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

    def test_newton_step_onto_curve(self):
        # Points moved about 1e-7 off the Hessian come back to it at unit
        # norm, their residual cut by the square of the offset; the corner
        # points of the Fermat Hessian 216*z0*z1*z2, where the gradient
        # vanishes, stay as they are.
        f = seeded_cubics(61, count=1)[0]
        he = hessian_curve(f)
        scale = float(max(abs(c) for c in he.terms.values()))
        _, grad = _integer_gradient(he)

        def residual(x):
            return abs(complex(evaluate(he, tuple(complex(v) for v in x)))) / scale

        rng = np.random.default_rng(61)
        points = np.array(sample_hessian_points(f, 10, seed=1))
        off = points + 1e-7 * (rng.standard_normal(points.shape) + 1j * rng.standard_normal(points.shape))
        off /= _row_norms(off)[:, None]
        stepped = _onto_hessian(grad, off)
        assert np.allclose(_row_norms(stepped), 1, rtol=0, atol=1e-15)
        for before, after in zip(off, stepped):
            assert residual(before) > 1e-9
            assert residual(after) < 1e-5 * residual(before)
        corners = np.eye(3, dtype=complex)
        _, fermat_grad = _integer_gradient(hessian_curve(hesse_cubic(0)))
        assert np.array_equal(_onto_hessian(fermat_grad, corners), corners)

    def test_seed_determinism(self):
        a = sample_hessian_points(hesse_cubic(2), 8, seed=9)
        b = sample_hessian_points(hesse_cubic(2), 8, seed=9)
        assert len(a) == len(b)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def sympy_form(form: TernaryForm, z) -> sympy.Expr:
    return sum(sympy.Rational(c.numerator, c.denominator) * z[0] ** e0 * z[1] ** e1
               * z[2] ** e2 for (e0, e1, e2), c in form.terms.items())


class TestExactPreSteps:
    """The exact steps before the numerics, against sympy's derivatives and
    expansions."""

    def test_gram_stack_matches_partials(self):
        # Entry (i, j, k) of the stack is d_i d_j d_k f / 2.
        z = sympy.symbols("z0 z1 z2")
        for f in seeded_cubics(31):
            poly = sympy_form(f, z)
            oracle = np.empty((3, 3, 3))
            for i, j, k in product(range(3), repeat=3):
                entry = sympy.diff(poly, z[i], z[j], z[k]) / 2
                oracle[i, j, k] = float(Fraction(int(entry.p), int(entry.q)))
            assert np.array_equal(_gram_stack(f), oracle)

    def check_restrictions(self, he, lines):
        """_restrict_to_line of he on each (base, direction) pair equals the
        coefficients of sympy's expansion, as Fractions."""
        z = sympy.symbols("z0 z1 z2")
        mu, lam = sympy.symbols("mu lam")
        poly = sympy_form(he, z)
        den, grad = _integer_gradient(he)
        for base, direction in lines:
            line = sympy.Poly(
                poly.xreplace({z[i]: mu * base[i] + lam * direction[i] for i in range(3)}),
                mu, lam)
            expected = [line.coeff_monomial(mu ** (3 - k) * lam**k) for k in range(4)]
            got = _restrict_to_line(den, grad, base, direction)
            assert all(type(c) is Fraction for c in got)
            assert got == [Fraction(int(c.p), int(c.q)) for c in expected]

    def test_restriction_matches_sympy(self):
        # Also p/q cubics whose Hessians have denominators above 10^12.
        big = random.Random(35)
        large = [TernaryForm(3, {m: Fraction(big.randint(-10**6, 10**6), big.randint(1, 10**6))
                                 for m in monomial_basis(3)}) for _ in range(4)]
        rng = random.Random(32)
        assert all(max(c.denominator for c in hessian_curve(f).terms.values()) > 10**12
                   for f in large)
        for f in seeded_cubics(33, count=4) + large:
            lines = [(_random_projective_point(rng), _random_projective_point(rng))
                     for _ in range(5)]
            self.check_restrictions(hessian_curve(f), lines)

    def test_restriction_direction_on_curve(self):
        # Directions on the Hessian make the leading coefficient exactly 0:
        # coordinate points on the Fermat Hessian 216*z0*z1*z2, and the flex
        # points [1:-1:0] and permutations, which every pencil Hessian holds.
        rng = random.Random(34)
        fermat = hessian_curve(hesse_cubic(0))
        cases = [(fermat, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0)]),
                 (hessian_curve(hesse_cubic(2)), [(1, -1, 0), (0, 1, -1), (-1, 0, 1)]),
                 (hessian_curve(hesse_cubic(Fraction(-11, 8))), [(1, -1, 0), (0, 1, -1)])]
        for he, directions in cases:
            lines = [(_random_projective_point(rng), d) for d in directions]
            if he == fermat:
                lines.append(((0, 1, -1), (1, 0, 0)))  # base on the curve too
            self.check_restrictions(he, lines)
            den, grad = _integer_gradient(he)
            for base, direction in lines:
                assert evaluate(he, direction) == 0
                assert _restrict_to_line(den, grad, base, direction)[-1] == 0


class TestInvolutionStep:
    def test_hand_example(self):
        # Fermat cubic at [0:1:-1]: polar conic 3 z1^2 - 3 z2^2 with Gram
        # diag(0, 3, -3); singular point [1:0:0].
        q = np.array([0, 1, -1], dtype=complex)
        s = involution_s(hesse_cubic(0), q / np.linalg.norm(q))
        assert chordal_distance(s, np.array([1, 0, 0])) < 1e-12

    def test_non_cubic_refused_by_degree(self):
        with pytest.raises(DegreeMismatchError):
            involution_s(parse_form("z0^2 + z1^2"), np.array([1, 0, 0], dtype=complex))

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


def reference_sample_points(f, n, seed):
    """sample_hessian_points as a loop over lines: np.roots on each line,
    the library's Newton step on the stack of all candidate points in the
    order the batched path takes them, then the residual of each root's
    point in Python complex arithmetic."""
    he = hessian_curve(f)
    if he.is_zero():
        raise SingularCurveError("Hessian form vanishes identically")
    den, grad = _integer_gradient(he)
    scale = float(max(abs(c) for c in he.terms.values()))
    terms = [(complex(c), e) for e, c in he.terms.items()]
    candidates, is_direction = [], []
    rng = random.Random(seed)
    for _ in range(n):
        base = _random_projective_point(rng)
        direction = _random_projective_point(rng)
        if not np.cross(base, direction).any():
            continue
        coeffs = _restrict_to_line(den, grad, base, direction)
        base_vec = np.array([float(c) for c in base], dtype=complex)
        dir_vec = np.array([float(c) for c in direction], dtype=complex)
        if coeffs[-1] == 0:
            candidates.append(dir_vec / np.linalg.norm(dir_vec))
            is_direction.append(True)
        poly_desc = [float(c) for c in reversed(coeffs)]
        roots = np.roots(poly_desc) if any(poly_desc) else []
        for lam in roots:
            vec = base_vec + lam * dir_vec
            norm = np.linalg.norm(vec)
            if norm == 0:
                continue
            candidates.append(vec / norm)
            is_direction.append(False)
    if not candidates:
        return []
    points = []
    for vec, kept in zip(_onto_hessian(grad, np.array(candidates)), is_direction):
        x0, x1, x2 = (complex(x) for x in vec)
        value = 0j
        for c, (e0, e1, e2) in terms:
            value += c * x0**e0 * x1**e1 * x2**e2
        if kept or abs(value) / scale < RESIDUAL_BOUND:
            points.append(vec)
    return points


def line_classes(f, n, seed):
    """The class of each of the n lines sample_hessian_points draws for f:
    parallel endpoints, an identically zero restriction, a zero leading
    coefficient, a zero constant coefficient, both, or regular."""
    he = hessian_curve(f)
    den, grad = _integer_gradient(he)
    rng = random.Random(seed)
    classes = []
    for _ in range(n):
        base = _random_projective_point(rng)
        direction = _random_projective_point(rng)
        if not np.cross(base, direction).any():
            classes.append("parallel")
            continue
        coeffs = _restrict_to_line(den, grad, base, direction)
        if not any(coeffs):
            classes.append("zero")
        elif coeffs[0] == 0 and coeffs[-1] == 0:
            classes.append("both")
        elif coeffs[-1] == 0:
            classes.append("leading")
        elif coeffs[0] == 0:
            classes.append("constant")
        else:
            classes.append("regular")
    return classes


def assert_same_points(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.shape == (3,) and a.dtype == complex
        assert a.tobytes() == b.tobytes()


class TestBatchedSampling:
    """Finding the roots of all regular lines in one batched eigvals call
    gives the points of the per-line np.roots loop, bit for bit and in the
    same order."""

    def test_equals_per_line_loop(self):
        for f in seeded_cubics(51, count=4) + [hesse_cubic(0)]:
            for seed in (0, 1, 2):
                assert_same_points(sample_hessian_points(f, 40, seed),
                                   reference_sample_points(f, 40, seed))

    # Each pair reaches at least one class of degenerate line; Fermat's
    # Hessian 216*z0*z1*z2 vanishes on every line inside a coordinate line.
    DEGENERATE = [(Fraction(0), 31), (Fraction(0), 32), (Fraction(2), 9),
                  (Fraction(-11, 8), 36)]

    def test_degenerate_lines(self):
        reached = set()
        for t, seed in self.DEGENERATE:
            f = hesse_cubic(t)
            reached.update(line_classes(f, 40, seed))
            assert_same_points(sample_hessian_points(f, 40, seed),
                               reference_sample_points(f, 40, seed))
        assert reached == {"regular", "parallel", "zero", "both", "leading", "constant"}

    def test_roots_only_on_degenerate_lines(self, monkeypatch):
        # np.roots sees exactly the lines with a zero end coefficient that
        # are not identically zero; everything else goes through a single
        # eigvals call per sampling run.
        roots_calls, eigvals_calls = [], []
        roots, eigvals = np.roots, np.linalg.eigvals

        def counting_roots(p):
            roots_calls.append(list(p))
            return roots(p)

        def counting_eigvals(a):
            eigvals_calls.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np, "roots", counting_roots)
        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        cases = [(f, 0) for f in seeded_cubics(52, count=3)]
        cases += [(hesse_cubic(t), seed) for t, seed in self.DEGENERATE]
        degenerate = 0
        for f, seed in cases:
            roots_calls.clear()
            eigvals_calls.clear()
            sample_hessian_points(f, 40, seed)
            classes = line_classes(f, 40, seed)
            degenerate += len(roots_calls)
            assert len(roots_calls) == sum(c in ("leading", "constant", "both") for c in classes)
            assert all(p[0] == 0 or p[-1] == 0 for p in roots_calls)
            assert eigvals_calls == [(classes.count("regular"), 3, 3)]
        assert degenerate > 0


class TestCheckInvolution:
    @pytest.mark.parametrize("t", [Fraction(2), Fraction(1, 2), Fraction(-3)])
    def test_passes_on_smooth_hessians(self, t):
        report = check_involution(hesse_cubic(t), 100, 1e-8, seed=7)
        assert report.samples >= 50
        assert report.passed
        assert report.max_double_apply_error < 1e-8
        assert report.min_fixed_point_distance > 1e-8

    # Dense cubics with a sample whose polar conic at s(q) is close to a
    # double line (sigma1/sigma0 about 3e-4).  That gap amplifies q's
    # off-curve error: a residual inside RESIDUAL_BOUND gave an error above
    # 1e-8 in s(s(q)) without the Newton step onto the curve.
    NEAR_DOUBLE_LINE = [
        ("3*z0^3 - 4*z0^2*z1 + 6*z0^2*z2 + 2*z0*z1^2 - 9*z0*z1*z2 - 9*z0*z2^2"
         " + 4*z1^3 + 6*z1^2*z2 + 3*z1*z2^2 - 6*z2^3", 146510239),
        ("-9*z0^3 + 2*z0^2*z1 - z0^2*z2 - 7*z0*z1^2 - z0*z1*z2 + 8*z0*z2^2"
         " + 8*z1^3 - 4*z1^2*z2 + 4*z1*z2^2 - 6*z2^3", 1368527343),
    ]

    @pytest.mark.parametrize("text, seed", NEAR_DOUBLE_LINE,
                             ids=["dense-146510239", "dense-1368527343"])
    def test_near_double_line_polars_pass(self, text, seed):
        report = check_involution(parse_form(text), 100, 1e-8, seed)
        assert report.passed
        assert report.max_double_apply_error < 1e-10

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
