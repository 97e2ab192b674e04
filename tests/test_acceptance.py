"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Exact criteria use zero tolerance (Fraction equality or cross-multiplied
projective equality); the numeric involution criterion runs at 1e-8.  Every
criterion also carries its runtime budget.  Run with `pytest -s` to see the
per-criterion lines on success.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from logcubic.cubics import hesse_cubic, j_invariant_hesse
from logcubic.errors import CayleyanSingularError
from logcubic.forms import (
    DUAL,
    TernaryForm,
    coefficient_vector,
    linear_form,
    monomial_basis,
    parse_form,
    projectively_equal,
)
from logcubic.involution import check_involution
from logcubic.sheaf import (
    PRODUCT_INDEX,
    cayleyan_cubic,
    chern_data,
    d0_graded_dim,
    is_stable,
    jacobi_degree3,
    jumping_line_test,
    splitting_type,
)
from logcubic.torelli import (
    SheafInvariants,
    cayleyan_hesse_param,
    cayleyan_singularity_identity,
    counterexample_check,
    forward_invariants,
    reconstruct,
    reconstruct_candidates,
)

from conftest import evaluate, sympy_syzygy_rows
from test_linalg import naive_rank

SEED = 1729


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:02d} {name}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(
            f"[FAIL] criterion {number:02d} {name}: "
            f"runtime {elapsed:.2f}s exceeds budget {budget_seconds}s"
        )
        raise AssertionError(f"criterion {number} exceeded runtime budget")
    print(f"[PASS] criterion {number:02d} {name} ({elapsed:.2f}s, budget {budget_seconds}s)")


def rand_t(rng, exclude_cubes=(1,), exclude_zero=False) -> Fraction:
    while True:
        t = Fraction(rng.randint(-12, 12), rng.randint(1, 8))
        if t**3 in exclude_cubes:
            continue
        if exclude_zero and t == 0:
            continue
        return t


def rand_alpha(rng) -> TernaryForm:
    while True:
        alpha = linear_form([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)])
        if not alpha.is_zero():
            return alpha


def closed_form_cayleyan(t: Fraction) -> TernaryForm:
    cubes = parse_form("a0^3 + a1^3 + a2^3", DUAL)
    product = parse_form("a0*a1*a2", DUAL)
    return cubes.scale(t) - product.scale(t**3 + 2)


# Criterion 2 records every tested line here; criterion 11 audits them.
_splitting_log: list[tuple[int, int]] = []


def test_criterion_01_cayleyan_identity():
    rng = random.Random(SEED)
    with criterion(1, "cayleyan matches the closed dual-pencil form", 1.0):
        for _ in range(20):
            t = rand_t(rng)
            assert projectively_equal(
                cayleyan_cubic(hesse_cubic(t)), closed_form_cayleyan(t)
            )


def test_criterion_02_jumping_line_equivalence():
    rng = random.Random(SEED + 1)
    _splitting_log.clear()
    with criterion(2, "jumping lines are exactly the Cayleyan zeros", 5.0):
        for _ in range(10):
            t = rand_t(rng)
            f = hesse_cubic(t)
            closed = closed_form_cayleyan(t)
            for _ in range(50):
                alpha = rand_alpha(rng)
                jumps = jumping_line_test(f, alpha)
                vanishes = evaluate(closed, coefficient_vector(alpha)) == 0
                assert jumps == vanishes
                _splitting_log.append(splitting_type(f, alpha))


def test_criterion_03_jacobi_hyperplane_normal():
    rng = random.Random(SEED + 2)
    cube_slots = [monomial_basis(3).index(m) for m in ((3, 0, 0), (0, 3, 0), (0, 0, 3))]
    with criterion(3, "canonical Jacobi normal is (1 on product, t on cubes)", 1.0):
        for _ in range(20):
            t = rand_t(rng)
            normal = jacobi_degree3(hesse_cubic(t))
            assert normal[PRODUCT_INDEX] == 1
            assert all(normal[i] == t for i in cube_slots)
            assert all(
                x == 0
                for i, x in enumerate(normal)
                if i != PRODUCT_INDEX and i not in cube_slots
            )


def test_criterion_04_torelli_round_trip():
    rng = random.Random(SEED + 3)
    with criterion(4, "round trip recovers t exactly", 10.0):
        for _ in range(50):
            t = rand_t(rng, exclude_cubes=(1, -8), exclude_zero=True)
            invariants = forward_invariants(t)
            assert reconstruct(invariants) == t
            s = cayleyan_hesse_param(t)
            candidates = reconstruct_candidates(s)
            assert 1 <= len(candidates.exact_roots) <= 3
            for x in candidates.exact_roots:
                assert cayleyan_hesse_param(x) == s


def test_criterion_05_torelli_failure_family():
    rng = random.Random(SEED + 4)
    with criterion(5, "shared-invariant family detected and refused", 2.0):
        for _ in range(10):
            triple = []
            while len(triple) < 3:
                x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                if x != 0:
                    triple.append(x)
            a, b, c = triple
            assert counterexample_check(a, b, c) is True
            f = TernaryForm(3, {(3, 0, 0): a, (0, 3, 0): b, (0, 0, 3): c})
            invariants = SheafInvariants(
                cayleyan=cayleyan_cubic(f), hyperplane=jacobi_degree3(f)
            )
            with pytest.raises(CayleyanSingularError):
                reconstruct(invariants)


def test_criterion_06_j_invariant_criterion():
    rng = random.Random(SEED + 5)
    with criterion(6, "j = 0 exactly on the singular-Cayleyan locus", 1.0):
        assert j_invariant_hesse(0) == 0
        assert j_invariant_hesse(-2) == 0
        for _ in range(20):
            t = rand_t(rng, exclude_cubes=(1,), exclude_zero=True)
            j = j_invariant_hesse(t)
            s = cayleyan_hesse_param(t)
            assert (j != 0) == (s**3 != 1)


def test_criterion_07_polynomial_identity():
    with criterion(7, "(t^3+2)^3 - (3t)^3 == (t^3-1)^2*(t^3+8) exactly", 0.1):
        lhs, rhs = cayleyan_singularity_identity()
        assert lhs == rhs


def test_criterion_08_stability_and_graded_dims():
    rng = random.Random(SEED + 6)
    with criterion(8, "smooth members stable; derivation dims 0 and 3", 2.0):
        for _ in range(20):
            t = rand_t(rng)
            f = hesse_cubic(t)
            assert is_stable(f) is True
            assert d0_graded_dim(f, 0) == 0
            assert d0_graded_dim(f, 1) == 3
        # Independent oracle: naive dense rank of the 18 vectors z^m * d_i f,
        # each of length 15, with the products expanded by sympy.
        rows = sympy_syzygy_rows(hesse_cubic(rand_t(rng)), 1)
        assert (len(rows), len(rows[0])) == (18, 15)
        assert 18 - naive_rank(rows) == 3


def test_criterion_09_chern_data():
    with criterion(9, "Chern numbers and normalization", 0.1):
        data = chern_data(3, 0)
        assert (data.c1, data.c2) == (0, 3)
        for d in range(2, 9):
            assert chern_data(d, (d - 3) // 2).c1 in (0, -1)


def test_criterion_10_involution():
    with criterion(10, "polar involution: s(s(q)) = q, no fixed points", 5.0):
        for t in (Fraction(2), Fraction(1, 2), Fraction(-3)):
            report = check_involution(hesse_cubic(t), 100, 1e-8, seed=SEED)
            assert report.samples >= 50
            assert report.max_double_apply_error < 1e-8
            assert report.min_fixed_point_distance > 1e-8
            assert report.passed


def test_criterion_11_splitting_dichotomy():
    with criterion(11, "splitting types are (0,0) or (-1,1) with a+b=0", 0.5):
        assert _splitting_log, "criterion 2 must run first to populate the log"
        for a, b in _splitting_log:
            assert (a, b) in ((0, 0), (-1, 1))
            assert a + b == 0
