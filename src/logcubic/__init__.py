"""Exact invariants of plane cubic curves.

The exact layer works entirely over arbitrary-precision rationals: sparse
homogeneous forms in three variables, fraction-free linear algebra,
resultants, the classical Hessian and Cayleyan constructions, jumping
lines of the logarithmic tangent sheaf, the degree-3 Jacobi hyperplane,
and reconstruction of a Hesse-pencil cubic from those two invariants.
A small numeric layer validates the polar involution on Hessian curves
with seeded double-precision sampling.
"""

from .cubics import (
    SmoothnessVerdict,
    hesse_cubic,
    hesse_parameter,
    hessian_curve,
    is_smooth_cubic,
    j_invariant_hesse,
)
from .errors import DomainError
from .forms import (
    DUAL,
    PRIMAL,
    TernaryForm,
    coefficient_vector,
    form_from_coefficients,
    monomial_basis,
    parse_form,
    partial_derivative,
    projectively_equal,
)
from .involution import InvolutionReport, check_involution, involution_s, sample_hessian_points
from .linalg import ExactMatrix, det_form_matrix, sylvester_resultant
from .sheaf import (
    ChernData,
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
from .torelli import (
    CandidateSet,
    SheafInvariants,
    cayleyan_hesse_param,
    cayleyan_singularity_identity,
    counterexample_check,
    forward_invariants,
    reconstruct,
    reconstruct_candidates,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateSet",
    "ChernData",
    "DomainError",
    "DUAL",
    "ExactMatrix",
    "InvolutionReport",
    "PRIMAL",
    "SheafInvariants",
    "SmoothnessVerdict",
    "TernaryForm",
    "cayleyan_cubic",
    "cayleyan_hesse_param",
    "cayleyan_singularity_identity",
    "check_involution",
    "chern_data",
    "coefficient_vector",
    "counterexample_check",
    "d0_graded_dim",
    "det_form_matrix",
    "form_from_coefficients",
    "forward_invariants",
    "hesse_cubic",
    "hesse_parameter",
    "hessian_curve",
    "involution_s",
    "is_jumping_cubic",
    "is_smooth_cubic",
    "is_stable",
    "j_invariant_hesse",
    "jacobi_degree3",
    "jumping_line_test",
    "jumping_matrix",
    "monomial_basis",
    "parse_form",
    "partial_derivative",
    "projectively_equal",
    "reconstruct",
    "reconstruct_candidates",
    "sample_hessian_points",
    "splitting_type",
    "sylvester_resultant",
]
