"""Built-in data profiles: low-mode trigonometric f, mu, and manufactured data.

f is forced nonnegative by squaring a trigonometric polynomial and mu is
mean-subtracted at construction, matching the standing hypotheses f >= 0 and
integral(mu) = 0.  The manufactured profile picks a smooth low-mode u*,
reverse-engineers mu so that u* solves the t = 1 problem exactly, and sets
the normalization level A to the one u* actually attains, so the normalized
solver targets u* itself.
"""

from __future__ import annotations

import numpy as np

from .forms import NormalizationConstants, ProblemData, _shifted_exp, manufactured_mu
from .torus import ScalarField, TorusGeometry, constant_field, zero_mean


def normalization_level(u: ScalarField, gamma: float) -> float:
    """The level A = (integral e^{-gamma u})^{1/gamma} attained by u,
    evaluated in shifted log space."""
    e, lo = _shifted_exp(u.values, gamma)
    log_mean = float(np.log(np.mean(e)))
    return float(np.exp(-lo + log_mean / gamma))


def _tau(geom: TorusGeometry, axis: int, periods: int = 1) -> np.ndarray:
    """cos/sin argument 2 pi * periods * coordinate / period along one axis."""
    return 2.0 * np.pi * periods * geom.coordinate(axis) / geom.period


def f_profile(geom: TorusGeometry, f_scale: float) -> ScalarField:
    """Nonnegative low-mode f with max exactly f_scale (zero field if scale 0)."""
    if f_scale == 0.0:
        return constant_field(geom, 0.0)
    base = np.cos(_tau(geom, 0)) + np.sin(_tau(geom, 1)) * np.cos(_tau(geom, 2))
    sq = (base * np.ones(geom.shape)) ** 2
    return ScalarField(geom, f_scale * sq / float(np.max(sq)))


def mu_profile(geom: TorusGeometry, mu_scale: float) -> ScalarField:
    """Mean-free low-mode mu with max-norm exactly mu_scale."""
    if mu_scale == 0.0:
        return constant_field(geom, 0.0)
    base = np.sin(_tau(geom, 2)) + np.cos(_tau(geom, 3)) * np.cos(_tau(geom, 0))
    vals = base * np.ones(geom.shape)
    vals = vals - np.mean(vals)
    return ScalarField(geom, mu_scale * vals / float(np.max(np.abs(vals))))


def perturbation_profile(geom: TorusGeometry, amplitude: float) -> ScalarField:
    """Smooth low-mode perturbation with max-norm exactly amplitude."""
    base = np.cos(_tau(geom, 0)) + np.sin(_tau(geom, 1)) * np.cos(_tau(geom, 3))
    vals = base * np.ones(geom.shape)
    vals = vals - np.mean(vals)
    top = float(np.max(np.abs(vals)))
    return ScalarField(geom, amplitude * vals / top)


def trivial_problem(geom: TorusGeometry, alpha: float, A: float) -> ProblemData:
    """f = mu = 0: the continuation path is the constant -log A throughout."""
    zero = constant_field(geom, 0.0)
    return ProblemData(geom, alpha, zero, zero, A, t=1.0)


def perturbative_problem(geom: TorusGeometry, alpha: float, A: float,
                         f_scale: float, mu_scale: float) -> ProblemData:
    return ProblemData(geom, alpha, f_profile(geom, f_scale),
                       mu_profile(geom, mu_scale), A, t=1.0)


def manufactured_problem(geom: TorusGeometry, alpha: float, base_A: float,
                         amplitude: float, f_scale: float):
    """Problem with a known exact solution; returns (data, u_star).

    u_star = -log(base_A) + perturbation; mu is manufactured so u_star solves
    the t = 1 equation, and A is set to u_star's own normalization level.
    """
    pert = perturbation_profile(geom, amplitude)
    u_star = ScalarField(geom, -np.log(base_A) + pert.values)
    gamma = NormalizationConstants.for_dimension(geom.n).gamma
    a_star = normalization_level(u_star, gamma)
    f = f_profile(geom, f_scale)
    zero = constant_field(geom, 0.0)
    seed = ProblemData(geom, alpha, f, zero, a_star, t=1.0)
    mu = zero_mean(manufactured_mu(u_star, seed))
    data = ProblemData(geom, alpha, f, mu, a_star, t=1.0, f_derivs=seed.f_derivs())
    return data, u_star
