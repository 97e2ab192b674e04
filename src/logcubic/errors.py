"""Domain errors with stable machine-readable categories.

Every error raised by the library carries a ``category`` string, which the
CLI echoes verbatim so failures are machine-matchable rather than
stack-trace-only.
"""

from __future__ import annotations


class DomainError(Exception):
    """Base class for all errors originating in this library."""

    category = "domain-error"


class ParseError(DomainError):
    """Malformed polynomial text."""

    category = "parse-error"


class InhomogeneousError(DomainError):
    """Polynomial text mixes monomials of different total degrees."""

    category = "inhomogeneous"


class DegreeMismatchError(DomainError):
    """A form has the wrong degree for the requested operation."""

    category = "degree-mismatch"


class SpaceMismatchError(DomainError):
    """Primal and dual forms were mixed in one operation."""

    category = "space-mismatch"


class MatrixShapeError(DomainError):
    """Matrix dimensions are invalid for the requested operation."""

    category = "matrix-shape"


class ResultantInputError(DomainError):
    """Both resultant arguments are identically zero."""

    category = "resultant-input"


class ZeroInputError(DomainError):
    """An argument that must be nonzero was zero."""

    category = "zero-input"


class SingularCurveError(DomainError):
    """The operation requires a smooth curve but the input is singular
    (or so degenerate that the computation collapses)."""

    category = "singular-curve"


class CayleyanSingularError(DomainError):
    """The jumping-line curve is singular, so reconstruction cannot
    disambiguate the source cubic."""

    category = "cayleyan-singular"


class NotHessePencilError(DomainError):
    """The input form is not a member of the Hesse pencil in the chosen
    coordinates; the caller must adapt the basis first."""

    category = "not-hesse-pencil"


class InconsistentInvariantsError(DomainError):
    """No candidate cubic matches the supplied pair of invariants."""

    category = "inconsistent-invariants"


class NumericRankError(DomainError):
    """A numeric Gram matrix failed the rank-2 test (point off the Hessian
    curve, or polar conic degenerated further)."""

    category = "numeric-rank"


class NumericRangeError(DomainError):
    """An exact value is past the range of the floats the numeric layer uses."""

    category = "numeric-range"


class InsufficientSamplesError(DomainError):
    """Too few usable samples survived filtering to report a verdict."""

    category = "insufficient-samples"


class InvolutionCheckError(DomainError):
    """The numeric involution check failed at its tolerance: s(s(q)) strayed
    from q, or s(q) came within the tolerance of q."""

    category = "involution-check-failed"


class OutputTooLargeError(DomainError):
    """An exact result has an integer longer than Python will convert to
    text (``sys.get_int_max_str_digits()``, 4300 digits by default), so it
    cannot be printed; the limit is left in force."""

    category = "output-too-large"
