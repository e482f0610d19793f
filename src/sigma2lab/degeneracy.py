"""Minimum-point machinery for the degeneracy analysis.

At the minimum point p of the maximum-principle test function
G = 1 - 4 alpha e^{-u} |Du|^2 + 4 alpha e^{-eps u} - 4 alpha e^{-eps inf u},
all quantities entering the resulting inequality can be expressed through
three normalized pieces of data:

    m      the normalized eigenvalues e^{-u} lambda'  (in the closed Gamma_2 cone),
    w      the gradient direction weights |u_j|^2 / |Du|^2  (w_j >= 0, sum 1),
    theta  = 2 alpha eps e^{-eps u(p)}  >= 0,

with kappa_p := sigma_2(m) derived from m, never supplied independently.
m and w are plain float arrays of length n, and the probe rejects
non-finite data.  minimum_rhs takes the deleted functions sigma_k(m|j) from
one symfun.elementary call over the n tuples m without entry j.
minimum_rhs evaluates the right-hand side of the inequality exactly as
displayed (the error-group remainder terms are proof bookkeeping and are not
modeled).  For n = 2 the inequality collapses to a two-eigenvalue expression
(n2_reduced_rhs) and, after an AM-GM step, to the scalar two-sided bound
n2_bound_sides whose sign frontier pins kappa_p near 1 for small theta.  For
n = 3 the path m = (1, s, s), w = (1, 0, 0), theta = 0 reduces the right-hand
side to (s^2 - 1)^2 / 9 >= 0, so the inequality never obstructs kappa_p =
2s + s^2 from sliding to zero: that is the n = 3 obstruction path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConeViolationError, HypothesisError
from .symfun import elementary, scale_of

_CONE_TOL = 1e-12
_WEIGHT_TOL = 1e-12


def _eigenvalues(m, n: int) -> np.ndarray:
    """m as a finite float array of n >= 2 eigenvalues."""
    m = np.asarray(m, dtype=float)
    if n < 2 or m.shape != (n,):
        raise ValueError(f"spectrum has shape {m.shape}, expected ({n},) with n >= 2")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"spectrum entries must be finite, got {m.tolist()}")
    return m


@dataclass(frozen=True)
class DegeneracyProbe:
    """Normalized minimum-point data (m, w, theta) for dimension n.

    m may touch the boundary of the Gamma_2 cone (the studied paths do, at
    their degenerate endpoints), so membership is checked for the closed
    cone: sigma_1 >= 0 and sigma_2 >= 0 up to rounding.  m and w are finite
    float arrays of length n, and theta is finite.
    """

    n: int
    m: np.ndarray
    w: np.ndarray
    theta: float

    def __post_init__(self):
        m = _eigenvalues(self.m, self.n)
        object.__setattr__(self, "m", m)
        w = np.asarray(self.w, dtype=float)
        if w.shape != (self.n,):
            raise ValueError(f"weights must have length {self.n}")
        if not (np.all(w >= -_WEIGHT_TOL) and abs(float(np.sum(w)) - 1.0) <= _WEIGHT_TOL):
            raise ValueError(f"weights must be finite, nonnegative and sum to 1, got {w.tolist()}")
        object.__setattr__(self, "w", np.clip(w, 0.0, None))
        if not 0.0 <= self.theta < math.inf:
            raise ValueError(f"theta must be finite and nonnegative, got {self.theta}")
        tol = _CONE_TOL * scale_of(m)
        e = elementary(m)
        if e[1] < -tol or e[2] < -tol:
            raise ConeViolationError(
                f"normalized spectrum {m.tolist()} is outside the closed "
                f"Gamma_2 cone (sigma1={e[1]:.3g}, sigma2={e[2]:.3g})"
            )

    @property
    def kappa_p(self) -> float:
        return float(elementary(self.m)[2])


def minimum_rhs(p: DegeneracyProbe) -> float:
    """Right-hand side of the minimum-point inequality for arbitrary n.

    Every displayed quantity is expressed through the probe:
    e^{-u} tr h = sigma_1(m), the F-weighted gradient ratio is
    sum_j w_j sigma_1(m|j), and the weighted deleted symmetric functions are
    sum_j w_j sigma_k(m|j) for k = 2, 3.
    """
    n = p.n
    m = p.m
    w = p.w
    theta = p.theta
    kappa_c = n * (n - 1) / 2.0
    e = elementary(m)
    kappa_p = float(e[2])
    s1 = float(e[1])
    s3 = float(e[3]) if n >= 3 else 0.0

    # deleted symmetric functions: row j is m without entry j, padded with
    # two zeros so that sigma_2 and sigma_3 exist for every n >= 2
    s1_del = s1 - m
    deleted = np.zeros((n, n + 1))
    deleted[:, :n - 1] = np.tile(m, (n, 1))[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    e_del = elementary(deleted)
    s2_del, s3_del = e_del[:, 2], e_del[:, 3]

    term_tr = (0.5 - 1.0 / n - 1.5 * kappa_p / kappa_c + theta) * ((n - 1) / n) * s1
    term_grad = (((n + 1) / n) * (kappa_p / (n - 1) - 1.0) + 2.0 * theta) \
        * (1.0 / n) * float(np.dot(w, s1_del))
    term_const = (6.0 / n ** 2 - 2.0 * theta / n) * kappa_p - (n - 1) * theta
    term_s3w = -(1.0 / n ** 2) * float(np.dot(w, s3_del))
    term_s3 = (4.0 / n ** 2) * s3
    term_s2w = -(1.0 / n) * ((n + 2.0) / n - kappa_p / kappa_c - 2.0 * theta) \
        * float(np.dot(w, s2_del))
    return term_tr + term_grad + term_const + term_s3w + term_s3 + term_s2w


def n2_reduced_rhs(theta: float, m) -> float:
    """Two-eigenvalue form of the inequality right-hand side for n = 2:

        -(3/4 - 3 theta/2) m1 - (3 kappa_p/4 - theta/2) m2
        + (3/2 - theta) kappa_p - theta,

    with kappa_p = m1 m2 taken from the spectrum.  The entry order encodes
    the gradient direction (m1 is the eigenvalue complementary to it); a
    general gradient weight is the matching convex combination of the two
    orders.
    """
    m = _eigenvalues(m, 2)
    m1, m2 = float(m[0]), float(m[1])
    kappa_p = m1 * m2
    return (
        -(0.75 - 1.5 * theta) * m1
        - (0.75 * kappa_p - 0.5 * theta) * m2
        + (1.5 - theta) * kappa_p
        - theta
    )


def n2_bound_sides(kappa_p: float, theta: float) -> tuple:
    """Both sides of the scalar n = 2 bound

        sqrt(3/4 - 3 theta/2) sqrt(3 kappa_p/4 - theta/2) sqrt(kappa_p)
            <= 3 kappa_p/4 - (theta/2)(kappa_p + 1).

    Requires 3/4 - 3 theta/2 > 0 and 3 kappa_p/4 - theta/2 > 0; the caller
    inspects the sign of RHS - LHS.  At (kappa_p, theta) = (1, 0) the two
    sides are exactly equal.
    """
    a1 = 0.75 - 1.5 * theta
    a2 = 0.75 * kappa_p - 0.5 * theta
    if not (a1 > 0.0 and a2 > 0.0):
        raise HypothesisError(
            f"bound hypotheses violated: 3/4 - 3theta/2 = {a1:.3g}, "
            f"3kappa_p/4 - theta/2 = {a2:.3g}"
        )
    if kappa_p < 0.0:
        raise HypothesisError("kappa_p must be nonnegative")
    lhs = math.sqrt(a1 * a2 * kappa_p)
    rhs = 0.75 * kappa_p - 0.5 * theta * (kappa_p + 1.0)
    return lhs, rhs


def n3_path(s: float) -> tuple:
    """The n = 3 obstruction path m = (1, s, s), w = (1, 0, 0), theta = 0.

    Returns (kappa_p, rhs) with kappa_p = 2s + s^2; the right-hand side
    equals (s^4 - 2 s^2 + 1)/9 = (s^2 - 1)^2 / 9 >= 0 along the whole path,
    which is exactly why the inequality cannot prevent kappa_p from sliding
    from kappa_c = 3 at s = 1 down to 0 at s = 0.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"the path parameter must lie in [0, 1], got {s}")
    probe = DegeneracyProbe(n=3, m=np.array([1.0, s, s]),
                            w=np.array([1.0, 0.0, 0.0]), theta=0.0)
    return probe.kappa_p, minimum_rhs(probe)


# ---------------------------------------------------------------------------
# sweeps (CSV-ready rows)


def n3_sweep(samples: int = 101) -> np.ndarray:
    """Rows (s, kappa_p, rhs) along the n = 3 path."""
    if samples < 2:
        raise ValueError("need at least two samples")
    out = np.empty((samples, 3))
    for i, s in enumerate(np.linspace(0.0, 1.0, samples)):
        kp, rhs = n3_path(float(s))
        out[i] = (s, kp, rhs)
    return out


def n2_sweep(kappa_values, theta_values) -> np.ndarray:
    """Rows (theta, kappa_p, lhs, rhs, sign(rhs - lhs)) over a grid.

    For small theta the sign column flips near kappa_p = 1: scenarios with
    kappa_p below roughly 1 - O(theta) violate the bound, which is the
    mechanism forcing kappa away from zero in dimension two.
    """
    rows = []
    for theta in theta_values:
        for kp in kappa_values:
            lhs, rhs = n2_bound_sides(float(kp), float(theta))
            rows.append((theta, kp, lhs, rhs, float(np.sign(rhs - lhs))))
    return np.array(rows)
