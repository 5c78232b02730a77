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
    """A numerical failure, with keyword context (step, lam, ...) kept as
    attributes and as the dict `context`, which diagnostics.json records."""

    def __init__(self, message, **context):
        super().__init__(message)
        self.context = context
        vars(self).update(context)


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
    """Arclength resampling did not converge (context: residual)."""


class BlowUpError(NumericalError):
    """A flow left its bound or stopped being finite (context: step)."""


class StabilityError(ValidationError):
    """Time step violates the stability guard for the requested flow."""


class FrameDeterminantError(NumericalError):
    """A frame of the associated family is not finite or has lost det = 1."""


class BranchPointError(NumericalError):
    """Monodromy is parabolic; eigenlines collide."""


class IllConditionedFitError(NumericalError):
    """Round-off swamps a fit's fields (context: condition)."""
