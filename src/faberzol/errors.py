"""Exception types shared across the package."""


class FaberzolError(Exception):
    """Base class for errors raised by this package."""


class InvalidRegionError(FaberzolError):
    """Region data is malformed (degenerate shape, self-intersection, bad kind)."""


class QuadratureError(FaberzolError):
    """A contour quadrature result is not trustworthy (insufficient resolution)."""


class NotDisjointError(FaberzolError):
    """The two sets of a pair overlap or touch."""


class MapNotResolvedError(FaberzolError):
    """The annulus map solver did not reach the requested residual.

    residual is the best validated residual of the solved ladder steps, or
    a certified lower bound when no step was solved.  ladder holds one
    conformal.LadderStep per degree tried.
    """

    def __init__(self, message, residual=None, ladder=()):
        super().__init__(message)
        self.residual = residual
        self.ladder = ladder


class EvaluationDomainError(FaberzolError):
    """Evaluation was requested outside the domain of the function."""


class UncertifiedError(FaberzolError):
    """A certified computation (zero count, shift extraction) failed its check."""
