"""Elementary symmetric functions on small eigenvalue tuples.

Everything here is exact pointwise algebra on tuples of n real eigenvalues
(n is small, typically 2..5), held over the last axis of an array: one call
acts on one tuple of shape (n,) or on a batch of shape (..., n).  It gives
the elementary symmetric functions sigma_k, the package's one Gamma_2 test
on sigma_1 and sigma_2 (gamma2_mask, which forms' cone tests also use), and
the slack in the two pointwise inequalities used throughout the C^2
analysis of the equation (the Guan-Ren-Wang concavity inequality and the
leading-eigenvalue product bound lam'_1 * sigma_1(lam'|1) >= (2/n) *
sigma_2(lam')).  The `verify` suites grw-gap and leading-product run these
two functions on random Gamma_2 samples.

sigma_k is evaluated with the stable one-entry-at-a-time recurrence

    e_k(x_1..x_m) = e_k(x_1..x_{m-1}) + x_m * e_{k-1}(x_1..x_{m-1})

which avoids the cancellation-prone Newton identities for the small n used
here.  The deleted functions sigma_k(lam|j) are sigma_k of the tuple with
entry j removed.
"""

from __future__ import annotations

import numpy as np

from .errors import ConeViolationError

GAMMA2_BOX = (-1.0, 3.0)   # the range of each entry that sample_gamma2 draws


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


def gamma2_mask(s1: np.ndarray, s2: np.ndarray, n: int, margin: float = 0.0) -> np.ndarray:
    """Per-node Gamma_2 membership of eigenvalues with sigma_1 = s1 and
    sigma_2 = s2, with an eigenvalue margin: the test is applied to the
    spectrum shifted down by `margin`, i.e. sigma_k(lambda - margin * 1) > 0
    for k = 1, 2."""
    if margin != 0.0:
        c = margin
        s2 = s2 - c * (n - 1) * s1 + c * c * (n * (n - 1) / 2.0)
        s1 = s1 - n * c
    return (s1 > 0.0) & (s2 > 0.0)


def _gamma2_spectra(lam: np.ndarray) -> np.ndarray:
    """elementary(lam) for tuples that must all lie in Gamma_2 (gamma2_mask);
    raises ConeViolationError naming the first that does not."""
    if lam.ndim == 0 or lam.shape[-1] < 2:
        raise ValueError("a spectrum needs at least two eigenvalues")
    e = elementary(lam)
    outside = np.argwhere(~gamma2_mask(e[..., 1], e[..., 2], lam.shape[-1]))
    if len(outside):
        i = tuple(outside[0])
        where = f" (tuple {i[0] if len(i) == 1 else i})" if i else ""
        raise ConeViolationError(
            f"spectrum {lam[i].tolist()}{where} is not in Gamma_2 "
            f"(sigma1={e[i][1]:.3g}, sigma2={e[i][2]:.3g})"
        )
    return e


def grw_gap(lam, a) -> np.ndarray:
    """Slack in the Guan-Ren-Wang inequality for diagonal tensor data, one
    value per tuple of lam (shape (..., n)) and a (the same shape).

    For lam in Gamma_2 and complex diagonal entries a_i, the inequality reads

        - sum_{i != j} a_i conj(a_j)  >=  - |sum_i sigma_1(lam|i) a_i|^2 / sigma_2(lam)

    and this function returns LHS - RHS, which is >= 0 up to rounding.  The
    general-tensor statement is not implemented; only the diagonal form is
    exercised by the estimates here.
    """
    lam = np.asarray(lam, dtype=float)
    a = np.asarray(a, dtype=complex)
    if a.shape != lam.shape:
        raise ValueError(f"tensor diagonals of shape {a.shape} do not match "
                         f"spectra of shape {lam.shape}")
    e = _gamma2_spectra(lam)
    lhs = -(np.abs(a.sum(axis=-1)) ** 2 - np.sum(np.abs(a) ** 2, axis=-1))
    weighted = np.sum((e[..., 1:2] - lam) * a, axis=-1)  # sigma_1(lam|i) a_i
    rhs = -np.abs(weighted) ** 2 / e[..., 2]
    return lhs - rhs


def leading_product_gap(lam_prime) -> np.ndarray:
    """Slack in lam'_1 * sigma_1(lam'|1) - (2/n) * sigma_2(lam'), one value
    per tuple of lam_prime (shape (..., n)).

    Each tuple must lie in Gamma_2 and be sorted descending (entry 1 is the
    largest eigenvalue); the bound degenerates to equality for n = 2.
    """
    lam = np.asarray(lam_prime, dtype=float)
    unsorted = np.argwhere(np.any(np.diff(lam, axis=-1) > 0.0, axis=-1))
    if len(unsorted):
        i = tuple(unsorted[0])
        raise ValueError(f"spectrum {lam[i].tolist()} must be sorted "
                         "descending (largest first)")
    e = _gamma2_spectra(lam)
    n = lam.shape[-1]
    return lam[..., 0] * (e[..., 1] - lam[..., 0]) - (2.0 / n) * e[..., 2]


def sample_gamma2(rng: np.random.Generator, n: int, count: int,
                  sort_descending: bool = False) -> np.ndarray:
    """Rejection-sample `count` Gamma_2 spectra from the box GAMMA2_BOX^n.

    Sampling the box and rejecting keeps hypothesis checks honest: the
    accepted tuples genuinely cover the cone near its boundary instead of
    being manufactured from positive data.  Returns an array (count, n).
    """
    lo, hi = GAMMA2_BOX
    out = np.empty((count, n))
    have = 0
    while have < count:
        batch = rng.uniform(lo, hi, size=(max(count - have, 64) * 2, n))
        e = elementary(batch)
        good = batch[gamma2_mask(e[:, 1], e[:, 2], n)]
        take = min(good.shape[0], count - have)
        out[have:have + take] = good[:take]
        have += take
    if sort_descending:
        out = -np.sort(-out, axis=1)
    return out
