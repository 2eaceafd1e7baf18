"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit-specific failures."""


class InvalidArgumentError(ToolkitError, ValueError):
    """A caller-supplied argument violates a precondition."""


class IntervalDivisionError(ToolkitError, ZeroDivisionError):
    """Interval division by an interval containing zero."""


class NotEquiangularError(ToolkitError):
    """A Gram matrix is not equiangular to the requested tolerance."""


class InvalidSignatureError(ToolkitError):
    """A matrix fails the signature-matrix contract.

    Carries eigenvalue residuals when the failure is spectral.
    """

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class InconsistentWitnessError(ToolkitError):
    """An automorphism witness does not cohere with the given Gram."""


class UnsupportedInputError(ToolkitError):
    """Input is structurally outside what an operation handles."""


class ConstructionError(ToolkitError):
    """A constructed object failed its own validity checks."""


class CertificationError(ToolkitError):
    """Certification could not be completed.

    `reason` is "rank" or "infeasible"; `detail` carries min |R_ii| of
    certify.pseudoinverse's QR (rank, >= sigma_min) or the best lhs/rhs gap
    seen (infeasible), else None.
    """

    def __init__(self, reason, message, detail=None):
        super().__init__(message)
        self.reason = reason
        self.detail = detail


class NumericFailureError(ToolkitError):
    """A numerical routine failed to produce a usable result."""
