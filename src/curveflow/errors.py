"""Exception hierarchy.

Validation errors (bad arguments, incompatible data) derive from
ValidationError; numerical failures (blow-up, non-convergence) derive from
NumericalError.  The CLI maps these to exit codes 2 and 3.
"""


class CurveFlowError(Exception):
    pass


class ValidationError(CurveFlowError):
    pass


class NumericalError(CurveFlowError):
    pass


class DegenerateResolutionError(ValidationError):
    """Too few samples to resolve the curve."""


class DegenerateInputError(ValidationError):
    """Geometrically degenerate construction parameters."""


class ArgumentError(ValidationError):
    """Missing or inconsistent operation arguments."""


class RangeError(ValidationError):
    """Index outside the implemented range."""


class MonodromyCompatibilityError(ValidationError):
    """Vector is not an eigenvector of the monodromy rotation."""


class ResamplingError(NumericalError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BlowUpError(NumericalError):
    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class StabilityError(ValidationError):
    """Time step violates the stability guard for the requested flow."""


class SingularSectorError(NumericalError):
    """Sector-area integrand singular (antipodal tangent)."""


class FrameDeterminantError(NumericalError):
    """A frame of the associated family is not finite or has lost det = 1."""
    def __init__(self, message, lam=None, deviation=None):
        super().__init__(message)
        self.lam = lam
        self.deviation = deviation


class BranchPointError(NumericalError):
    """Monodromy is parabolic; eigenlines collide."""


class IllConditionedFitError(NumericalError):
    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition
