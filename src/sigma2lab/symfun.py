"""Elementary symmetric functions on small eigenvalue tuples.

Everything here is exact pointwise algebra on tuples of n real eigenvalues
(n is small, typically 2..5): the elementary symmetric functions sigma_k,
their deleted variants sigma_k(lam|j), Gamma_2 cone membership, and the two
pointwise inequalities used throughout the C^2 analysis of the equation
(the Guan-Ren-Wang concavity inequality and the leading-eigenvalue product
bound lam'_1 * sigma_1(lam'|1) >= (2/n) * sigma_2(lam')).

sigma_k is evaluated with the stable one-entry-at-a-time recurrence

    e_k(x_1..x_m) = e_k(x_1..x_{m-1}) + x_m * e_{k-1}(x_1..x_{m-1})

which avoids the cancellation-prone Newton identities for the small n used
here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConeViolationError


@dataclass(frozen=True)
class Spectrum:
    """An ordered tuple of n real eigenvalues relative to the background metric."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("a spectrum needs at least two eigenvalues")
        if not np.all(np.isfinite(vals)):
            raise ValueError("spectrum entries must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size

    def __iter__(self):
        return iter(self.values)


@dataclass(frozen=True)
class ConeVerdict:
    """Gamma_2 membership together with the two symmetric functions."""

    in_gamma2: bool
    sigma1: float
    sigma2: float


def as_spectrum(lam) -> Spectrum:
    """Coerce an array-like of eigenvalues into a Spectrum."""
    if isinstance(lam, Spectrum):
        return lam
    return Spectrum(np.asarray(lam, dtype=float))


def scale_of(*arrays) -> float:
    """Dimension-robust tolerance scale: 1 + max |input|^2."""
    top = 0.0
    for a in arrays:
        a = np.asarray(a)
        if a.size:
            top = max(top, float(np.max(np.abs(a))))
    return 1.0 + top * top


def elementary(values: np.ndarray) -> np.ndarray:
    """The elementary symmetric functions e_0..e_m over the last axis: values
    of shape (..., m) give shape (..., m + 1), with e_k in entry k."""
    values = np.asarray(values, dtype=float)
    m = values.shape[-1]
    e = np.zeros(values.shape[:-1] + (m + 1,))
    e[..., 0] = 1.0
    for t in range(m):
        x = values[..., t]
        # update in place from the top so e[k-1] is still the old value
        for k in range(t + 1, 0, -1):
            e[..., k] += x * e[..., k - 1]
    return e


def sigma(k: int, lam) -> float:
    """k-th elementary symmetric function of the eigenvalues.

    Returns 1 for k = 0 and 0 for k > n.
    """
    if k < 0:
        raise ValueError(f"sigma order must be nonnegative, got k={k}")
    lam = as_spectrum(lam)
    if k > lam.n:
        return 0.0
    return float(elementary(lam.values)[k])


def sigma_excl(k: int, lam, j: int) -> float:
    """sigma_k of the (n-1)-tuple with eigenvalue j deleted (j is 1-based)."""
    if k < 0:
        raise ValueError(f"sigma order must be nonnegative, got k={k}")
    lam = as_spectrum(lam)
    if not 1 <= j <= lam.n:
        raise ValueError(f"delete index j={j} out of range 1..{lam.n}")
    rest = np.delete(lam.values, j - 1)
    if k > rest.size:
        return 0.0
    return float(elementary(rest)[k])


def cone_member(lam) -> ConeVerdict:
    """Gamma_2 verdict: sigma_1 > 0 and sigma_2 > 0."""
    lam = as_spectrum(lam)
    e = elementary(lam.values)
    s1, s2 = float(e[1]), float(e[2])
    return ConeVerdict(in_gamma2=(s1 > 0.0 and s2 > 0.0), sigma1=s1, sigma2=s2)


def sigma2_gradient(lam) -> Spectrum:
    """Gradient of sigma_2: component p is sigma_1 of the tuple with entry p deleted."""
    lam = as_spectrum(lam)
    s1 = float(np.sum(lam.values))
    return Spectrum(s1 - lam.values)


def grw_gap(lam, a) -> float:
    """Slack in the Guan-Ren-Wang inequality for diagonal tensor data.

    For lam in Gamma_2 and complex diagonal entries a_i, the inequality reads

        - sum_{i != j} a_i conj(a_j)  >=  - |sum_i sigma_1(lam|i) a_i|^2 / sigma_2(lam)

    and this function returns LHS - RHS, which is >= 0 up to rounding.  The
    general-tensor statement is not implemented; only the diagonal form is
    exercised by the estimates here.
    """
    lam = as_spectrum(lam)
    a = np.asarray(a, dtype=complex)
    if a.shape != (lam.n,):
        raise ValueError(f"tensor diagonal must have length {lam.n}")
    verdict = cone_member(lam)
    if not verdict.in_gamma2:
        raise ConeViolationError(
            f"spectrum {lam.values.tolist()} is not in Gamma_2 "
            f"(sigma1={verdict.sigma1:.3g}, sigma2={verdict.sigma2:.3g})"
        )
    total = np.sum(a)
    lhs = -float(np.abs(total) ** 2 - np.sum(np.abs(a) ** 2))
    weights = verdict.sigma1 - lam.values  # sigma_1(lam|i)
    rhs = -float(np.abs(np.dot(weights, a)) ** 2) / verdict.sigma2
    return lhs - rhs


def leading_product_gap(lam_prime) -> float:
    """Slack in lam'_1 * sigma_1(lam'|1) - (2/n) * sigma_2(lam') for sorted Gamma_2 spectra.

    Requires the spectrum sorted descending (entry 1 is the largest
    eigenvalue); the bound degenerates to equality for n = 2.
    """
    lam = as_spectrum(lam_prime)
    vals = lam.values
    if np.any(np.diff(vals) > 0.0):
        raise ValueError("spectrum must be sorted descending (largest first)")
    verdict = cone_member(lam)
    if not verdict.in_gamma2:
        raise ConeViolationError(
            f"spectrum {vals.tolist()} is not in Gamma_2 "
            f"(sigma1={verdict.sigma1:.3g}, sigma2={verdict.sigma2:.3g})"
        )
    s1_excl = verdict.sigma1 - vals[0]
    return float(vals[0] * s1_excl - (2.0 / lam.n) * verdict.sigma2)


def sample_gamma2(rng: np.random.Generator, n: int, count: int,
                  box=(-1.0, 3.0), sort_descending: bool = False) -> np.ndarray:
    """Rejection-sample `count` Gamma_2 spectra from a box.

    Sampling the box and rejecting keeps hypothesis checks honest: the
    accepted tuples genuinely cover the cone near its boundary instead of
    being manufactured from positive data.  Returns an array (count, n).
    """
    lo, hi = box
    out = np.empty((count, n))
    have = 0
    while have < count:
        batch = rng.uniform(lo, hi, size=(max(count - have, 64) * 2, n))
        e = elementary(batch)
        good = batch[(e[:, 1] > 0.0) & (e[:, 2] > 0.0)]
        take = min(good.shape[0], count - have)
        out[have:have + take] = good[:take]
        have += take
    if sort_descending:
        out = -np.sort(-out, axis=1)
    return out
