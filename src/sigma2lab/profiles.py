"""Built-in data profiles: low-mode trigonometric f, mu, and manufactured data.

f is forced nonnegative by squaring a trigonometric polynomial and mu is
mean-subtracted at construction, matching the standing hypotheses f >= 0 and
integral(mu) = 0.  The manufactured profile picks a smooth low-mode u*,
reverse-engineers mu so that u* solves the t = 1 problem exactly, and sets
the normalization level A to the one u* actually attains, so the normalized
solver targets u* itself.  Each profile is an array of the grid's shape.
A scale too large for float64 leaves non-finite values, which ProblemData
rejects, so the scaling runs without floating-point warnings.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .forms import ProblemData, _shifted_exp, evaluate, manufactured_mu
from .torus import TorusGeometry


def normalization_level(u: np.ndarray, gamma: float) -> float:
    """The level A = (integral e^{-gamma u})^{1/gamma} attained by u,
    evaluated in shifted log space."""
    e, lo = _shifted_exp(u, gamma)
    log_mean = float(np.log(np.mean(e)))
    return float(np.exp(-lo + log_mean / gamma))


def _tau(geom: TorusGeometry, axis: int, periods: int = 1) -> np.ndarray:
    """cos/sin argument 2 pi * periods * coordinate along one axis."""
    return 2.0 * np.pi * periods * geom.coordinate(axis)


def f_profile(geom: TorusGeometry, f_scale: float) -> np.ndarray:
    """Nonnegative low-mode f with max exactly f_scale (zero field if scale 0)."""
    if f_scale == 0.0:
        return np.zeros(geom.shape)
    base = np.cos(_tau(geom, 0)) + np.sin(_tau(geom, 1)) * np.cos(_tau(geom, 2))
    sq = (base * np.ones(geom.shape)) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        return f_scale * sq / float(np.max(sq))


def mu_profile(geom: TorusGeometry, mu_scale: float) -> np.ndarray:
    """Mean-free low-mode mu with max-norm exactly mu_scale."""
    if mu_scale == 0.0:
        return np.zeros(geom.shape)
    base = np.sin(_tau(geom, 2)) + np.cos(_tau(geom, 3)) * np.cos(_tau(geom, 0))
    vals = base * np.ones(geom.shape)
    vals = vals - np.mean(vals)
    with np.errstate(over="ignore", invalid="ignore"):
        return mu_scale * vals / float(np.max(np.abs(vals)))


def perturbation_profile(geom: TorusGeometry, amplitude: float) -> np.ndarray:
    """Smooth low-mode perturbation with max-norm exactly amplitude."""
    base = np.cos(_tau(geom, 0)) + np.sin(_tau(geom, 1)) * np.cos(_tau(geom, 3))
    vals = base * np.ones(geom.shape)
    vals = vals - np.mean(vals)
    top = float(np.max(np.abs(vals)))
    return amplitude * vals / top


def trivial_problem(geom: TorusGeometry, alpha: float, A: float) -> ProblemData:
    """f = mu = 0: the continuation path is the constant -log A throughout."""
    zero = np.zeros(geom.shape)
    return ProblemData(geom, alpha, zero, zero, A, t=1.0)


def perturbative_problem(geom: TorusGeometry, alpha: float, A: float,
                         f_scale: float, mu_scale: float) -> ProblemData:
    return ProblemData(geom, alpha, f_profile(geom, f_scale),
                       mu_profile(geom, mu_scale), A, t=1.0)


def manufactured_problem(geom: TorusGeometry, alpha: float, base_A: float,
                         amplitude: float, f_scale: float):
    """Problem with a known exact solution; returns (data, u_star).

    u_star = -log(base_A) + perturbation; mu is manufactured so u_star solves
    the t = 1 equation, and A is set to u_star's own normalization level,
    which must lie in (0, 1).  mu is read from a seed problem with mu = 0 and
    A = base_A, neither of which the evaluation reads.
    """
    zero = np.zeros(geom.shape)
    seed = ProblemData(geom, alpha, f_profile(geom, f_scale), zero, base_A, t=1.0)
    with np.errstate(all="ignore"):   # a non-finite level is rejected below
        u_star = -np.log(base_A) + perturbation_profile(geom, amplitude)
        a_star = normalization_level(u_star, seed.gamma)
    if not 0.0 < a_star < 1.0:
        raise ConfigurationError(
            f"profile = manufactured: amplitude = {amplitude:g} on base A = "
            f"{base_A:g} gives u* the normalization level A = {a_star:.6g}, "
            "which must lie in (0, 1); reduce |amplitude|"
        )
    mu = manufactured_mu(evaluate(u_star, seed, 0.0))
    mu -= np.mean(mu)   # again: the first subtraction leaves a rounding-size mean
    data = ProblemData(geom, alpha, seed.f, mu, a_star, t=1.0, f_derivs=seed.f_derivs())
    return data, u_star
