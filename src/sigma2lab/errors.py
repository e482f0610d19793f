"""Exception taxonomy shared across the package."""


class Sigma2LabError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(Sigma2LabError):
    """Unsupported geometry, malformed config, or invalid problem data."""


class ConeViolationError(Sigma2LabError):
    """A spectrum (or a grid node) left the Gamma_2 cone, or a cone
    hypothesis of an inequality fails."""


class HypothesisError(Sigma2LabError):
    """A stated hypothesis of an identity/inequality check does not hold
    (e.g. the linearization metric is not positive)."""


class NormalizationError(Sigma2LabError):
    """The normalization shift could not be evaluated in floating range."""


class RangeUnderflowError(Sigma2LabError):
    """An exponential weight or integral left the float64 range: it
    underflowed to zero, or overflowed."""


class LinearSolveError(Sigma2LabError):
    """The preconditioned iterative linear solve stagnated."""


class ConeBreakdownError(Sigma2LabError):
    """No admissible damped Newton step keeps every node inside the cone
    with the required margin."""


class ConvergenceError(Sigma2LabError):
    """Newton did not reach the residual tolerance.

    Carries the best iterate and the residual history so callers can
    inspect them.
    """

    def __init__(self, message, best=None, history=None):
        super().__init__(message)
        self.best = best
        self.history = list(history) if history is not None else []


class ContinuationStallError(Sigma2LabError):
    """The continuation step size fell below its floor before reaching
    t = 1.  Carries the partial report and the furthest accepted field."""

    def __init__(self, message, report, last_field):
        super().__init__(message)
        self.report = report
        self.last_field = last_field
