"""Hermitian forms, residuals, and the linearization of the equation.

The unknown is a real scalar u on the flat torus.  With a = e^u + f e^{-u}
the two Hermitian forms of interest are

    g'_{kbar j}    = a delta_{kj} + 2 n alpha u_{kbar j}
    gtilde_{kbar j} = (n-1) a delta_{kj} + 2 n alpha ((Lap u) delta_{kj} - u_{kbar j})

and gtilde coincides with sigma_1(g') I - g', the derivative of sigma_2 at
g'.  Ellipticity is the Gamma_2 condition on the eigenvalues of g', which
implies gtilde > 0.

The equation is prescribed in two equivalent forms.  The divergence form is

    (n-1) Lap(e^u - f e^{-u}) + 2 n alpha sigma_2(i ddbar u) + mu = 0,

and the Hessian form prescribes sigma_2(g') equal to a fully expanded
right-hand side in (u, Du) and the data; the two residuals satisfy the exact
pointwise identity residual_sigma2 = 2 n alpha * residual_fy1.  To keep that
identity exact in floating point, the Laplacian of the composite
e^u - f e^{-u} is expanded by the chain rule so both residuals are assembled
from the same discrete derivative fields of u and f.

The continuation parameter t scales the data: every accessor below uses
f_eff = t f and mu_eff = t mu, so callers never scale manually.

The solver evaluates each iterate once with evaluate(), into an Iterate that
holds its bundle, weights, g', residual and cone test; the assembly functions
accept a precomputed bundle and weights.  Neither the bundle nor e^{+-u}
depends on t, so evaluate() takes them from an earlier evaluation of the same
field, and f's bundle is shared by every ProblemData.with_t copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .torus import (
    Derivs,
    HermitianField,
    ScalarField,
    TorusGeometry,
    integrate,
    spectral_derivatives,
)


@dataclass(frozen=True)
class NormalizationConstants:
    """Exponents of the normalization constraint (integral e^{-gamma u})^{1/gamma} = A."""

    beta: float
    gamma: float

    @classmethod
    def for_dimension(cls, n: int) -> "NormalizationConstants":
        beta = n / (n - 1.0)
        return cls(beta=beta, gamma=4.0 / (beta - 1.0))


def _shifted_exp(vals: np.ndarray, gamma: float) -> tuple[np.ndarray, float]:
    """(e^{-gamma (u - min u)}, min u): the normalization integrand scaled by
    e^{gamma min u}, so every exponent is nonpositive and cannot overflow.
    log integral e^{-gamma u} = -gamma min u + log mean of the first entry."""
    lo = float(np.min(vals))
    return np.exp(-gamma * (vals - lo)), lo


class ProblemData:
    """Coefficients of the equation on a fixed geometry.

    alpha > 0, f >= 0 smooth, mu with exactly zero mean, normalization level
    A in (0,1), and the continuation parameter t in [0,1].  Derivatives of f
    are computed on first use, or passed in as f_derivs, and shared with every
    with_t copy (f is fixed along a continuation run).
    """

    def __init__(self, geometry: TorusGeometry, alpha: float, f: ScalarField,
                 mu: ScalarField, A: float, t: float = 1.0,
                 f_derivs: Derivs | None = None):
        if not (alpha > 0.0 and np.isfinite(alpha)):
            raise ConfigurationError(f"alpha must be positive, got {alpha}")
        if not (0.0 < A < 1.0):
            raise ConfigurationError(f"A must lie in (0, 1), got {A}")
        if not (0.0 <= t <= 1.0):
            raise ConfigurationError(f"t must lie in [0, 1], got {t}")
        if f.geometry is not geometry and f.geometry != geometry:
            raise ConfigurationError("f lives on a different geometry")
        if mu.geometry is not geometry and mu.geometry != geometry:
            raise ConfigurationError("mu lives on a different geometry")
        if float(np.min(f.values)) < 0.0:
            raise ConfigurationError("f must be nonnegative")
        mean_mu = integrate(mu)
        if abs(mean_mu) > 1e-12:
            raise ConfigurationError(
                f"mu must have zero integral (got {mean_mu:.3e}); "
                "subtract the mean explicitly, e.g. with torus.zero_mean"
            )
        self.geometry = geometry
        self.alpha = float(alpha)
        self.f = f
        self.mu = mu
        self.A = float(A)
        self.t = float(t)
        self._f_derivs = f_derivs

    @property
    def n(self) -> int:
        return self.geometry.n

    @property
    def kappa_c(self) -> float:
        return self.n * (self.n - 1) / 2.0

    @property
    def norm_constants(self) -> NormalizationConstants:
        return NormalizationConstants.for_dimension(self.n)

    def with_t(self, t: float) -> "ProblemData":
        return ProblemData(self.geometry, self.alpha, self.f, self.mu, self.A, t,
                           self.f_derivs())

    # -- t-scaled accessors ------------------------------------------------

    def f_eff(self) -> np.ndarray:
        return self.t * self.f.values

    def mu_eff(self) -> np.ndarray:
        return self.t * self.mu.values

    def f_derivs(self) -> Derivs:
        if self._f_derivs is None:
            self._f_derivs = spectral_derivatives(self.f)
        return self._f_derivs

    def grad_f_eff(self) -> np.ndarray:
        return self.t * self.f_derivs().grad

    def lap_f_eff(self) -> np.ndarray:
        return self.t * self.f_derivs().lap


# ---------------------------------------------------------------------------
# symmetric functions of Hermitian matrix fields


def sigma1_field(h: HermitianField) -> np.ndarray:
    n = h.geometry.n
    return np.sum(h.matrices[np.arange(n), np.arange(n)].real, axis=0)


def sigma2_field(h: HermitianField) -> np.ndarray:
    """sigma_2 of the eigenvalues via the trace identity ((tr h)^2 - tr h^2)/2.

    For a Hermitian matrix tr h^2 = sum_{jk} |h_{jk}|^2, so no per-node
    eigenvalue computation is needed.
    """
    tr = sigma1_field(h)
    m = h.matrices
    frob = np.sum(m.real * m.real + m.imag * m.imag, axis=(0, 1))
    return 0.5 * (tr * tr - frob)


def hermitian_eigenvalues(h: HermitianField) -> np.ndarray:
    """Per-node eigenvalues, ascending along axis 0.

    Closed-form quadratic for n = 2 and the trigonometric form of the cubic
    for n = 3, both vectorized over the grid; matrices are Hermitian by
    construction so the eigenvalues are real.
    """
    n = h.geometry.n
    m = h.matrices
    if n == 2:
        a = m[0, 0].real
        c = m[1, 1].real
        half_diff = 0.5 * (a - c)
        rad = np.sqrt(half_diff ** 2 + np.abs(m[0, 1]) ** 2)
        mid = 0.5 * (a + c)
        return np.stack([mid - rad, mid + rad])
    # n == 3: eigenvalues of B = (M - q I)/p via the cubic's trigonometric roots
    q = (m[0, 0].real + m[1, 1].real + m[2, 2].real) / 3.0
    shifted = m.copy()
    for j in range(3):
        shifted[j, j] = shifted[j, j] - q
    p2 = np.sum(np.abs(shifted) ** 2, axis=(0, 1)) / 6.0
    p = np.sqrt(p2)
    safe_p = np.where(p > 0.0, p, 1.0)
    b = shifted / safe_p
    det_b = (
        b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
        - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
        + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
    ).real
    r = np.clip(det_b / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    eig0 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    eig2 = q + 2.0 * p * np.cos(phi)
    eig1 = 3.0 * q - eig0 - eig2
    return np.stack([eig0, eig1, eig2])


def gamma2_mask(gp: HermitianField, margin: float = 0.0) -> np.ndarray:
    """Per-node Gamma_2 membership of the eigenvalues of gp, with an
    eigenvalue margin: the test is applied to the spectrum shifted down by
    `margin`, i.e. sigma_k(lambda - margin * 1) > 0 for k = 1, 2."""
    n = gp.geometry.n
    s1 = sigma1_field(gp)
    s2 = sigma2_field(gp)
    if margin != 0.0:
        c = margin
        s2 = s2 - c * (n - 1) * s1 + c * c * (n * (n - 1) / 2.0)
        s1 = s1 - n * c
    return (s1 > 0.0) & (s2 > 0.0)


# ---------------------------------------------------------------------------
# form assembly


class Weights(NamedTuple):
    """e^u, e^{-u}, f_eff, a = e^u + f_eff e^{-u} and b = e^u - f_eff e^{-u}."""

    eu: np.ndarray
    emu: np.ndarray
    fe: np.ndarray
    a: np.ndarray
    b: np.ndarray


def _exp_weights(u: ScalarField, d: ProblemData, like: Weights | None = None) -> Weights:
    """Weights of u under d; `like`, u's weights under other data, supplies e^{+-u}."""
    eu, emu = like[:2] if like is not None else (np.exp(u.values), np.exp(-u.values))
    fe = d.f_eff()
    return Weights(eu, emu, fe, eu + fe * emu, eu - fe * emu)


def gprime(u: ScalarField, d: ProblemData, derivs: Derivs | None = None,
           weights: Weights | None = None) -> HermitianField:
    """g' = (e^u + f_eff e^{-u}) I + 2 n alpha * complex Hessian of u."""
    geom = u.geometry
    dv = derivs if derivs is not None else spectral_derivatives(u)
    w = weights if weights is not None else _exp_weights(u, d)
    coef = 2.0 * d.n * d.alpha
    m = coef * dv.hess
    for j in range(geom.n):
        m[j, j] = m[j, j] + w.a
    return HermitianField(geom, m)


def gtilde(u: ScalarField, d: ProblemData, derivs: Derivs | None = None,
           weights: Weights | None = None) -> HermitianField:
    """Linearization metric (n-1) a I + 2 n alpha ((Lap u) I - Hessian).

    These are also the coefficients F^{j kbar} of the linearized operator:
    raising both indices by the flat background metric is trivial.
    """
    geom = u.geometry
    dv = derivs if derivs is not None else spectral_derivatives(u)
    w = weights if weights is not None else _exp_weights(u, d)
    coef = 2.0 * d.n * d.alpha
    m = (-coef) * dv.hess
    diag = (geom.n - 1) * w.a + coef * dv.lap
    for j in range(geom.n):
        m[j, j] = m[j, j] + diag
    return HermitianField(geom, m)


def sigma2_hessian(dv: Derivs) -> np.ndarray:
    """sigma_2 of the complex Hessian via ((Lap u)^2 - |Hess|^2)/2."""
    h = dv.hess
    frob = np.sum(h.real * h.real + h.imag * h.imag, axis=(0, 1))
    return 0.5 * (dv.lap * dv.lap - frob)


def _pairing(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """2 Re sum_j p_j conj(q_j) for stacked complex gradients."""
    return 2.0 * np.sum(p * np.conj(q), axis=0).real


def residual_fy1(u: ScalarField, d: ProblemData, derivs: Derivs | None = None) -> ScalarField:
    """Divergence-form residual (n-1) Lap(e^u - f e^{-u}) + 2 n alpha sigma_2(i ddbar u) + mu.

    The Laplacian of the composite is expanded by the chain rule,

        Lap(e^u)       = e^u (Lap u + |Du|^2)
        Lap(f e^{-u})  = e^{-u} (Lap f - 2 Re<Df, Du> + f |Du|^2 - f Lap u),

    so the residual is pointwise algebra in the spectral derivatives of u
    and f; this makes the proportionality to residual_sigma2 exact.
    """
    dv = derivs if derivs is not None else spectral_derivatives(u)
    eu, emu, fe, _, _ = _exp_weights(u, d)
    gsq = dv.grad_sq
    lap_eu = eu * (dv.lap + gsq)
    lap_femu = emu * (d.lap_f_eff() - _pairing(d.grad_f_eff(), dv.grad)
                      + fe * gsq - fe * dv.lap)
    n = d.n
    vals = (n - 1) * (lap_eu - lap_femu) + 2.0 * n * d.alpha * sigma2_hessian(dv) + d.mu_eff()
    return ScalarField(u.geometry, vals)


def rhs_sigma2(u: ScalarField, d: ProblemData, derivs: Derivs | None = None,
               weights: Weights | None = None) -> ScalarField:
    """Right-hand side of the Hessian form of the equation, fully expanded.

    With kappa_c = n(n-1)/2 and the t-scaled data:

        kappa_c e^{2u} (1 - 4 alpha e^{-u} |Du|^2)
        + 4 alpha kappa_c f e^{-u} |Du|^2 + 2 kappa_c f + kappa_c e^{-2u} f^2
        - 2 n alpha mu
        + 4 alpha kappa_c e^{-u} (Lap f - 2 Re<Df, Du>).
    """
    dv = derivs if derivs is not None else spectral_derivatives(u)
    eu, emu, fe, _, _ = weights if weights is not None else _exp_weights(u, d)
    gsq = dv.grad_sq
    kc = d.kappa_c
    al = d.alpha
    vals = (
        kc * eu * eu * (1.0 - 4.0 * al * emu * gsq)
        + 4.0 * al * kc * fe * emu * gsq
        + 2.0 * kc * fe
        + kc * emu * emu * fe * fe
        - 2.0 * d.n * al * d.mu_eff()
        + 4.0 * al * kc * emu * (d.lap_f_eff() - _pairing(d.grad_f_eff(), dv.grad))
    )
    return ScalarField(u.geometry, vals)


def residual_sigma2(u: ScalarField, d: ProblemData, derivs: Derivs | None = None,
                    weights: Weights | None = None,
                    gp: HermitianField | None = None) -> ScalarField:
    """sigma_2(g') minus the expanded right-hand side.

    Satisfies residual_sigma2 = 2 n alpha * residual_fy1 as exact pointwise
    algebra of the shared discrete derivative fields.
    """
    dv = derivs if derivs is not None else spectral_derivatives(u)
    w = weights if weights is not None else _exp_weights(u, d)
    gp = gp if gp is not None else gprime(u, d, dv, w)
    rhs = rhs_sigma2(u, d, dv, w)
    return ScalarField(u.geometry, sigma2_field(gp) - rhs.values)


def kappa_field(u: ScalarField, d: ProblemData, derivs: Derivs | None = None) -> np.ndarray:
    """Pointwise e^{-2u} sigma_2(g'); its minimum is the degeneracy monitor kappa."""
    dv = derivs if derivs is not None else spectral_derivatives(u)
    return np.exp(-2.0 * u.values) * sigma2_field(gprime(u, d, dv))


def kappa_rhs_field(u: ScalarField, d: ProblemData, derivs: Derivs | None = None) -> np.ndarray:
    """The e^{-2u}-scaled right-hand side (the kappa form of the equation).

    At a solution this equals kappa_field; the pointwise expression is

        kappa_c - 4 alpha kappa_c { e^{-u}|Du|^2 - f e^{-3u}|Du|^2
                                    + e^{-3u} 2 Re<Df, Du> }
        + kappa_c e^{-2u} { 2 f + f^2 e^{-2u} + 4 alpha e^{-u} Lap f }
        - 2 n alpha e^{-2u} mu,

    with all data t-scaled.
    """
    dv = derivs if derivs is not None else spectral_derivatives(u)
    eu, emu, fe, _, _ = _exp_weights(u, d)
    gsq = dv.grad_sq
    kc = d.kappa_c
    al = d.alpha
    em3 = emu ** 3
    return (
        kc
        - 4.0 * al * kc * (emu * gsq - fe * em3 * gsq
                           + em3 * _pairing(d.grad_f_eff(), dv.grad))
        + kc * emu * emu * (2.0 * fe + fe * fe * emu * emu + 4.0 * al * emu * d.lap_f_eff())
        - 2.0 * d.n * al * emu * emu * d.mu_eff()
    )


# ---------------------------------------------------------------------------
# evaluated iterate


@dataclass(frozen=True)
class Iterate:
    """A field evaluated once against one problem: what the Newton step, the
    backtracking test, acceptance and the monitors read.  in_cone says whether
    every node lies in Gamma_2 at the margin it was evaluated with."""

    u: ScalarField
    data: ProblemData
    derivs: Derivs
    weights: Weights
    gp: HermitianField
    residual: np.ndarray
    rnorm: float
    in_cone: bool


def evaluate(u: ScalarField, d: ProblemData, margin: float,
             derivs: Derivs | None = None, like: Weights | None = None) -> Iterate:
    """Evaluate u against d.  `derivs` and `like` come from an evaluation of u
    against other data (another t): the bundle and e^{+-u} carry over, and
    only a, g' and the residual are assembled again."""
    dv = derivs if derivs is not None else spectral_derivatives(u)
    w = _exp_weights(u, d, like)
    gp = gprime(u, d, dv, w)
    in_cone = bool(np.all(gamma2_mask(gp, margin)))
    r = residual_sigma2(u, d, dv, w, gp).values
    return Iterate(u, d, dv, w, gp, r, float(np.max(np.abs(r))), in_cone)


# ---------------------------------------------------------------------------
# linearization


@dataclass(frozen=True)
class LinearCoefficients:
    """Frozen-at-u coefficients of the Fréchet derivative of residual_sigma2.

    The derivative acting on a real direction v is

        L v = 2 n alpha Tr(gtilde Hess v) + c0 v - 2 Re sum_j (D_j v) w_j,

    with gtilde the matrix coefficient field, c0 the zeroth-order
    coefficient, and w the complex gradient-coupling field.
    """

    geometry: TorusGeometry
    n: int
    alpha: float
    gtilde: np.ndarray   # (n, n) + grid, Hermitian
    c0: np.ndarray       # grid, real
    w: np.ndarray        # (n,) + grid, complex

    def apply_to(self, dv_v: Derivs, v_values: np.ndarray) -> np.ndarray:
        n = self.n
        # Tr(gtilde Hess v) using Hermitian symmetry of both factors
        acc = np.zeros(self.geometry.shape)
        for j in range(n):
            acc += self.gtilde[j, j].real * dv_v.hess[j, j].real
            for k in range(j + 1, n):
                acc += 2.0 * (self.gtilde[k, j] * dv_v.hess[j, k]).real
        out = 2.0 * n * self.alpha * acc + self.c0 * v_values
        out -= 2.0 * np.sum(dv_v.grad * self.w, axis=0).real
        return out


def linearization_coefficients(u: ScalarField, d: ProblemData,
                               derivs: Derivs | None = None,
                               weights: Weights | None = None) -> LinearCoefficients:
    """Assemble the analytic coefficients of the Fréchet derivative at u.

    Analytic assembly (rather than automatic differentiation) keeps the
    operator in a Fourier-preconditionable second-order form; the test suite
    certifies it against central finite differences of the residual.
    """
    dv = derivs if derivs is not None else spectral_derivatives(u)
    w = weights if weights is not None else _exp_weights(u, d)
    eu, emu, fe, a, b = w
    gsq = dv.grad_sq
    kc = d.kappa_c
    al = d.alpha
    n = d.n
    gt = gtilde(u, d, dv, w)

    sigma1_gp = n * a + 2.0 * n * al * dv.lap
    grad_fe = d.grad_f_eff()
    lap_fe = d.lap_f_eff()
    # u-derivative of the expanded right-hand side
    c0_rhs = (
        2.0 * kc * eu * eu
        - 4.0 * al * kc * eu * gsq
        - 4.0 * al * kc * fe * emu * gsq
        - 2.0 * kc * emu * emu * fe * fe
        - 4.0 * al * kc * emu * (lap_fe - _pairing(grad_fe, dv.grad))
    )
    c0 = b * (n - 1) * sigma1_gp - c0_rhs
    # Du-derivative: rhs gradient terms collected as 2 Re sum_j (D_j v) w_j
    c1 = 4.0 * al * kc * (fe * emu - eu)
    w = c1 * np.conj(dv.grad) - (4.0 * al * kc * emu) * np.conj(grad_fe)
    return LinearCoefficients(geometry=u.geometry, n=n, alpha=al,
                              gtilde=gt.matrices, c0=c0, w=w)


def linearize(u: ScalarField, d: ProblemData, v: ScalarField,
              coeffs: LinearCoefficients | None = None) -> ScalarField:
    """Directional derivative of residual_sigma2 at u in the direction v."""
    lc = coeffs if coeffs is not None else linearization_coefficients(u, d)
    dv_v = spectral_derivatives(v)
    return ScalarField(u.geometry, lc.apply_to(dv_v, v.values))


# ---------------------------------------------------------------------------
# manufactured data


def manufactured_mu(u_star: ScalarField, seed: ProblemData,
                    derivs: Derivs | None = None) -> ScalarField:
    """Source term making u_star an exact solution of the t = 1 problem.

    `seed` is that problem with mu = 0 and t = 1, so residual_fy1 on it is
    (n-1) Lap(e^{u*} - f e^{-u*}) + 2 n alpha sigma_2(i ddbar u*), and mu is
    its negative, mean-subtracted exactly (the raw mean is already
    divergence-small); the subtraction perturbs the manufactured residual by
    the same ~1e-14.
    """
    vals = -residual_fy1(u_star, seed, derivs).values
    return ScalarField(u_star.geometry, vals - np.mean(vals))
