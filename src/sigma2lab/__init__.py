"""Numerical laboratory for a sigma_2-type complex Hessian equation with
gradient right-hand side on flat Kahler tori: symmetric-function algebra,
residual assembly in two equivalent forms, a continuity-method Newton solver
under an integral normalization, monitors for the a priori estimates, and
evaluators for the minimum-point degeneracy analysis."""

from .errors import (
    ConeBreakdownError,
    ConeViolationError,
    ConfigurationError,
    ContinuationStallError,
    ConvergenceError,
    HypothesisError,
    LinearSolveError,
    NormalizationError,
    RangeUnderflowError,
    Sigma2LabError,
)

__version__ = "0.1.0"
