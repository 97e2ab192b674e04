"""Covariance laws under a change of coordinates g = f o A, for A in GL3(Q).

A is drawn with det(A) outside {0, 1, -1}, so the det(A) factors and the
Fraction paths are exercised, not only unimodular integer maps.  Examples
are derandomized and capped, so the suite's run time stays fixed.
"""

from fractions import Fraction

from hypothesis import HealthCheck, Phase, assume, given, settings
from hypothesis import strategies as st

from logcubic.cubics import hesse_cubic, hessian_curve, is_smooth_cubic
from logcubic.forms import (
    coefficient_vector,
    form_from_coefficients,
    parse_form,
    partial_derivative,
    projectively_equal,
    substitute_linear,
    variable,
)
from logcubic.sheaf import cayleyan_cubic, d0_graded_dim, is_stable, jacobi_degree3

# No explain phase: its line tracer made a failing law take about 50 s to
# report, as it does for the elimination oracle in test_linalg.py.
LAWS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=15,
    phases=[Phase.explicit, Phase.generate, Phase.shrink],
    suppress_health_check=[HealthCheck.too_slow],
)

pencil_cubics = st.fractions(min_value=-4, max_value=4, max_denominator=4).map(hesse_cubic)
dense_cubics = st.lists(st.integers(-4, 4), min_size=10, max_size=10).map(
    lambda coeffs: form_from_coefficients(coeffs, 3)
).filter(lambda f: not f.is_zero())
singular_cubics = st.sampled_from(
    [parse_form("z1^2*z2 - z0^3 - z0^2*z2"), parse_form("z1^2*z2 - z0^3"), parse_form("z0*z1*z2")]
)
cubics = st.one_of(pencil_cubics, dense_cubics, singular_cubics)

matrices = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=9, max_size=9
).map(lambda e: [e[0:3], e[3:6], e[6:9]])


def det3(a) -> Fraction:
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def inverse_transpose(a):
    """A^{-T}: the cofactor matrix of A over det(A)."""
    det = det3(a)
    return [
        [
            (a[(i + 1) % 3][(j + 1) % 3] * a[(i + 2) % 3][(j + 2) % 3]
             - a[(i + 1) % 3][(j + 2) % 3] * a[(i + 2) % 3][(j + 1) % 3]) / det
            for j in range(3)
        ]
        for i in range(3)
    ]


def transform(f, a):
    """g = f o A with det(A) outside {0, 1, -1}, and det(A)."""
    det = det3(a)
    assume(det not in (0, 1, -1))
    return substitute_linear(f, a), det


@LAWS
@given(f=cubics, a=matrices)
def test_hessian_is_covariant(f, a):
    # The Hessian matrix of f o A is A^T (H_f o A) A.
    g, det = transform(f, a)
    assert hessian_curve(g) == substitute_linear(hessian_curve(f), a).scale(det**2)


@LAWS
@given(f=cubics, a=matrices)
def test_smoothness_and_syzygies_are_invariant(f, a):
    g, _ = transform(f, a)
    assert is_smooth_cubic(g).status == is_smooth_cubic(f).status
    assert is_stable(g) == is_stable(f)
    assert [d0_graded_dim(g, k) for k in range(4)] == [d0_graded_dim(f, k) for k in range(4)]


@LAWS
@given(f=cubics, a=matrices)
def test_jacobi_normal_annihilates_the_jacobian_ideal(f, a):
    g, _ = transform(f, a)
    assume(is_smooth_cubic(g).is_smooth)
    normal = jacobi_degree3(g)
    for i in range(3):
        for j in range(3):
            cubic = variable(i) * partial_derivative(g, j)
            assert sum(n * c for n, c in zip(normal, coefficient_vector(cubic))) == 0


@LAWS
@given(f=st.one_of(pencil_cubics, dense_cubics), a=matrices)
def test_cayleyan_is_contravariant(f, a):
    # The line a.z = 0 of g's plane is the line (A^{-T} a).w = 0 of f's, so
    # g's jumping lines are f's moved by A^T.
    g, _ = transform(f, a)
    assume(is_smooth_cubic(f).is_smooth)
    assert projectively_equal(
        cayleyan_cubic(g), substitute_linear(cayleyan_cubic(f), inverse_transpose(a))
    )
