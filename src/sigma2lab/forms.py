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
f_eff = t f and mu_eff = t mu, so callers never scale manually.  u, f and
mu are plain arrays of the grid's shape; ProblemData checks f and mu once
per run, and nothing on the solve path validates an array again.

Every Hermitian form is a plain array of packed real rows, (n^2,) + nodes:
the n diagonal rows, then Re and Im of each strict-upper entry in
torus.upper_pairs order (torus.unpack_hermitian expands them to full
matrices).  Each operation on a form is one function of its rows and n, and
all of it is real algebra on those rows: sigma1_field sums the diagonal
rows, sigma2_field is sum_{j<k} (h_jj h_kk - |h_jk|^2), gamma2_mask tests
the two sigmas, and hermitian_eigenvalues has closed forms.  A gradient
pairing 2 Re sum_j p_j conj(q_j) of complex gradients is
(1/2) sum_a p_a q_a over the 2n real partials.

evaluate() is the one place a field's bundle and weights are built.  It
returns an Iterate in two parts.  The part a Newton step keeps is the field,
its residual and its readings: the residual's max-norm, the cone test and
two monitor readings.  The body is the bundle and the weights e^{+-u} and a.
gprime, gtilde, residual_fy1, linearization_coefficients and the monitors
each take that Iterate, so the solver, the monitors and the verify suites
read a field the same way.  g' itself is not assembled on the solve path:
sigma_1 and sigma_2 of g' have closed forms in a and the bundle
(gprime_sigmas), which is all the cone test, the residual and the monitors
read of it.  Neither the bundle nor e^{+-u} depends on t, so evaluate()
takes them over from an earlier evaluation of the same field, and f's first
partials and Laplacian, all the equation reads of f, are computed once and
shared by every ProblemData.with_t copy.

A body has one owner.  linearization_coefficients consumes it: the operator
of the Newton step has one coefficient row per bundle row, each read from
that row alone, so the rows are written over the bundle in place and the
iterate keeps no body afterwards.  The operator streams the direction's rows
(LinearCoefficients.apply_to), and the monitors read the eigenvalues of
gtilde one slab of the grid at a time (gtilde_eig_range).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .torus import (
    Derivs,
    TorusGeometry,
    _checked_field,
    contract_derivatives,
    spectral_derivatives,
    upper_pairs,
)


def _shifted_exp(vals: np.ndarray, gamma: float) -> tuple[np.ndarray, float]:
    """(e^{-gamma (u - min u)}, min u): the normalization integrand scaled by
    e^{gamma min u}, so every exponent is nonpositive and cannot overflow.
    log integral e^{-gamma u} = -gamma min u + log mean of the first entry."""
    lo = float(np.min(vals))
    return np.exp(-gamma * (vals - lo)), lo


class GradLap(NamedTuple):
    """What the equation reads of f's derivatives: its 2n real first partials
    (an own array, not a view of a whole bundle) and its Laplacian."""

    partials: np.ndarray
    lap: np.ndarray


def _row_dot(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_r p_r q_r at every node, over the leading axis of two row stacks."""
    return np.einsum("a...,a...->...", p, q)


def _check_t(t: float) -> None:
    if not (0.0 <= t <= 1.0):
        raise ConfigurationError(f"t must lie in [0, 1], got {t}")


def check_A(A: float, n: int) -> None:
    """Raise ConfigurationError unless A lies in (0, 1) and kappa_c / A^2,
    sigma_2(g') of the t = 0 solution -log A in dimension n, is finite in
    float64."""
    if not (0.0 < A < 1.0):
        raise ConfigurationError(f"A must lie in (0, 1), got {A}")
    if not math.isfinite(n * (n - 1) / 2.0 / A / A):
        raise ConfigurationError(
            f"A = {A:g} is too small: sigma_2(g') = kappa_c / A^2 of the "
            "t = 0 solution -log A overflows float64"
        )


class ProblemData:
    """Coefficients of the equation on a fixed geometry: the boundary at
    which a run's data is checked, once.

    alpha > 0, f >= 0 smooth, mu with exactly zero mean, normalization level
    A in (0,1) with kappa_c / A^2 (sigma_2(g') of the t = 0 solution) finite
    in float64, and the continuation parameter t in [0,1].  f and mu are
    finite arrays of the grid's shape.  f's first partials and Laplacian are
    computed on first use, or passed in as f_derivs, and shared with every
    with_t copy (f is fixed along a continuation run).
    """

    def __init__(self, geometry: TorusGeometry, alpha: float, f: np.ndarray,
                 mu: np.ndarray, A: float, t: float = 1.0,
                 f_derivs: GradLap | None = None):
        if not (alpha > 0.0 and np.isfinite(alpha)):
            raise ConfigurationError(f"alpha must be positive, got {alpha}")
        check_A(A, geometry.n)
        _check_t(t)
        f = _checked_field("f", f, geometry)
        mu = _checked_field("mu", mu, geometry)
        if float(np.min(f)) < 0.0:
            raise ConfigurationError("f must be nonnegative")
        mean_mu = float(np.mean(mu))
        if abs(mean_mu) > 1e-12:
            raise ConfigurationError(
                f"mu must have zero integral (got {mean_mu:.3e}); "
                "subtract the mean explicitly, e.g. mu - mu.mean()"
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
    def gamma(self) -> float:
        """The exponent of the normalization (integral e^{-gamma u})^{1/gamma} = A."""
        return 4.0 * (self.n - 1)

    def with_t(self, t: float) -> "ProblemData":
        """This data at another t.  Only t is checked: the rest was checked
        when self was built.  f's derivatives are shared with the copy."""
        _check_t(t)
        self.f_derivs()
        other = copy.copy(self)
        other.t = float(t)
        return other

    # -- t-scaled accessors ------------------------------------------------

    def f_eff(self) -> np.ndarray:
        return self.t * self.f

    def mu_eff(self) -> np.ndarray:
        return self.t * self.mu

    def f_derivs(self) -> GradLap:
        if self._f_derivs is None:
            dv = spectral_derivatives(self.f)
            self._f_derivs = GradLap(dv.partials.copy(), dv.lap)
        return self._f_derivs

    def lap_f_eff(self) -> np.ndarray:
        return self.t * self.f_derivs().lap

    def grad_f_dot(self, partials: np.ndarray) -> np.ndarray:
        """2 Re <D f_eff, D u> for u's real first partials, t folded into
        the scalar: (t/2) sum_a f_a u_a."""
        return (0.5 * self.t) * _row_dot(self.f_derivs().partials, partials)


# ---------------------------------------------------------------------------
# symmetric functions of Hermitian forms in packed rows


def sigma1_field(rows: np.ndarray, n: int) -> np.ndarray:
    """sigma_1 of the eigenvalues: the sum of the n diagonal rows."""
    return rows[:n].sum(axis=0)


def sigma2_field(rows: np.ndarray, n: int) -> np.ndarray:
    """sigma_2 of the eigenvalues as sum_{j<k} (h_jj h_kk - |h_jk|^2), the
    sum of the principal 2 x 2 minors, so no per-node eigenvalue computation
    is needed."""
    off = rows[n:]
    out = -_row_dot(off, off)
    for j, k in upper_pairs(n):
        out += rows[j] * rows[k]
    return out


def hermitian_eigenvalues(m: np.ndarray, n: int) -> np.ndarray:
    """Per-node eigenvalues of packed rows (n^2,) + any node shape, ascending
    along axis 0.

    Closed-form quadratic for n = 2 and the trigonometric form of the cubic
    for n = 3, both vectorized over the nodes and real in the packed rows;
    the forms are Hermitian by construction so the eigenvalues are real.
    """
    eig = np.empty((n,) + m.shape[1:])
    if n == 2:
        a, c, re, im = m
        rad = np.sqrt((0.5 * (a - c)) ** 2 + re * re + im * im)
        mid = 0.5 * (a + c)
        np.subtract(mid, rad, out=eig[0])
        np.add(mid, rad, out=eig[1])
        return eig
    # n == 3: eigenvalues of B = (M - q I)/p via the cubic's trigonometric
    # roots, det B = det(M - q I) / p^3
    q = (m[0] + m[1] + m[2]) / 3.0
    s0, s1, s2 = m[0] - q, m[1] - q, m[2] - q
    xr, xi, yr, yi, zr, zi = m[3:]   # h_12, h_13, h_23
    x2, y2, z2 = xr * xr + xi * xi, yr * yr + yi * yi, zr * zr + zi * zi
    p = np.sqrt((s0 * s0 + s1 * s1 + s2 * s2 + 2.0 * (x2 + y2 + z2)) / 6.0)
    safe_p = np.where(p > 0.0, p, 1.0)
    # det of [[s0, x, y], [x*, s1, z], [y*, z*, s2]]: the diagonal product,
    # 2 Re(x z conj(y)), and minus each diagonal entry times its opposite |.|^2
    det = (s0 * s1 * s2 + 2.0 * ((xr * zr - xi * zi) * yr + (xr * zi + xi * zr) * yi)
           - s0 * z2 - s1 * y2 - s2 * x2)
    r = np.clip(det / (2.0 * safe_p ** 3), -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    eig[0] = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    eig[2] = q + 2.0 * p * np.cos(phi)
    eig[1] = 3.0 * q - eig[0] - eig[2]
    return eig


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


# ---------------------------------------------------------------------------
# evaluated iterate


class Weights(NamedTuple):
    """e^u, e^{-u} and a = e^u + f_eff e^{-u}.  f_eff is formed where it is
    read, and b = e^u - f_eff e^{-u} is 2 e^u - a."""

    eu: np.ndarray
    emu: np.ndarray
    a: np.ndarray


class Body(NamedTuple):
    """What a Newton step consumes of an iterate: the field's bundle and its
    weights, n^2 + 2n + 4 grid arrays."""

    derivs: Derivs
    weights: Weights


@dataclass(frozen=True)
class Iterate:
    """A field evaluated once against one problem: what the Newton step, the
    backtracking test, acceptance, the monitors and every form below read.

    The part a Newton step keeps is the field and its residual, 2 grid
    arrays, and three readings of g': in_cone, whether every node lies in
    Gamma_2 at the margin it was evaluated with, and the monitors' kappa =
    min e^{-2u} sigma_2(g') and the fraction of nodes in Gamma_2.  The body
    is the bundle and the weights, read through .derivs and .weights until
    take_body detaches it; linearization_coefficients and an evaluation of
    the same field against other data each take it."""

    u: np.ndarray
    data: ProblemData
    residual: np.ndarray
    rnorm: float
    in_cone: bool
    kappa: float
    gamma2_fraction: float
    body: Body | None

    @property
    def derivs(self) -> Derivs:
        return self._live_body().derivs

    @property
    def weights(self) -> Weights:
        return self._live_body().weights

    def take_body(self) -> Body:
        """The body, detached from this iterate, which keeps only its field,
        residual and readings afterwards."""
        body = self._live_body()
        object.__setattr__(self, "body", None)
        return body

    def _live_body(self) -> Body:
        if self.body is None:
            raise RuntimeError("this iterate's bundle and weights were taken "
                               "by a Newton step or a later evaluation")
        return self.body


def gprime_sigmas(d: ProblemData, dv: Derivs, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma_1 and sigma_2 of g' = a I + c Hess u, c = 2 n alpha, in closed
    form from a and the bundle, without assembling g':

        sigma_1(g') = n a + c Lap u,
        sigma_2(g') = kappa_c a^2 + (n-1) c a Lap u + c^2 sigma_2(Hess u),

    since each principal 2 x 2 minor (a + c h_jj)(a + c h_kk) - c^2 |h_jk|^2
    contributes a^2, a c (h_jj + h_kk) and c^2 times the Hessian's minor."""
    n = d.n
    c = 2.0 * n * d.alpha
    s1 = c * dv.lap
    s1 += n * a
    s2 = sigma2_field(dv.hess_rows, n)
    s2 *= c * c
    s2 += (d.kappa_c * a + ((n - 1) * c) * dv.lap) * a
    return s1, s2


def rhs_sigma2(d: ProblemData, dv: Derivs, w: Weights) -> np.ndarray:
    """Right-hand side of the Hessian form of the equation, fully expanded.

    With kappa_c = n(n-1)/2 and the t-scaled data:

        kappa_c e^{2u} (1 - 4 alpha e^{-u} |Du|^2)
        + 4 alpha kappa_c f e^{-u} |Du|^2 + 2 kappa_c f + kappa_c e^{-2u} f^2
        - 2 n alpha mu
        + 4 alpha kappa_c e^{-u} (Lap f - 2 Re<Df, Du>).

    Each term is formed in one scratch array and added to the output in
    this order, factor by factor from the left, so the sum rounds exactly as
    the expression above evaluated left to right.
    """
    eu, emu, _ = w
    kc = d.kappa_c
    al = d.alpha
    gsq = dv.grad_sq
    # kappa_c e^{2u} (1 - 4 alpha e^{-u} |Du|^2)
    tmp = (4.0 * al) * emu
    tmp *= gsq
    np.subtract(1.0, tmp, out=tmp)
    out = kc * eu
    out *= eu
    out *= tmp
    # + 4 alpha kappa_c f e^{-u} |Du|^2
    fe = d.f_eff()
    np.multiply(4.0 * al * kc, fe, out=tmp)
    tmp *= emu
    tmp *= gsq
    out += tmp
    del gsq
    # + 2 kappa_c f
    np.multiply(2.0 * kc, fe, out=tmp)
    out += tmp
    # + kappa_c e^{-2u} f^2
    np.multiply(kc, emu, out=tmp)
    tmp *= emu
    tmp *= fe
    tmp *= fe
    out += tmp
    del fe
    # - 2 n alpha mu
    np.multiply(2.0 * d.n * al, d.mu_eff(), out=tmp)
    out -= tmp
    # + 4 alpha kappa_c e^{-u} (Lap f - 2 Re<Df, Du>)
    np.multiply(4.0 * al * kc, emu, out=tmp)
    df = d.grad_f_dot(dv.partials)
    np.subtract(d.lap_f_eff(), df, out=df)
    tmp *= df
    out += tmp
    return out


def residual_sigma2(d: ProblemData, dv: Derivs, w: Weights, s2: np.ndarray) -> np.ndarray:
    """sigma_2(g') minus the expanded right-hand side; s2 is sigma_2(g') from
    gprime_sigmas.

    Satisfies residual_sigma2 = 2 n alpha * residual_fy1 as exact pointwise
    algebra of the shared discrete derivative fields.
    """
    return s2 - rhs_sigma2(d, dv, w)


def evaluate(u: np.ndarray, d: ProblemData, margin: float,
             prev: Iterate | None = None) -> Iterate:
    """Evaluate u against d: the one place a field's bundle and weights are
    built.  `prev` is an evaluation of the same u against other data (another
    t): its body is taken, its bundle and e^{+-u} carry over, and only a,
    the sigmas of g' and the residual are assembled again.

    Nothing here tests the arrays for finiteness: an overflowed field has a
    NaN or infinite rnorm, which never passes the solver's rnorm < newton_tol."""
    if prev is None:
        dv = spectral_derivatives(u)
        eu, emu = np.exp(u), np.exp(-u)
    else:
        dv, (eu, emu, _) = prev.take_body()
    a = d.f_eff()
    a *= emu
    a += eu
    w = Weights(eu, emu, a)
    s1, s2 = gprime_sigmas(d, dv, a)
    in_cone = bool(np.all(gamma2_mask(s1, s2, d.n, margin)))
    frac = float(np.mean(gamma2_mask(s1, s2, d.n)))
    del s1   # not read again; freed before the residual's temporaries
    kappa = float(np.min(emu * emu * s2))
    r = residual_sigma2(d, dv, w, s2)
    return Iterate(u, d, r, float(np.max(np.abs(r))), in_cone, kappa, frac, Body(dv, w))


# ---------------------------------------------------------------------------
# forms of an evaluated iterate


def gprime(it: Iterate) -> np.ndarray:
    """g' = (e^u + f_eff e^{-u}) I + 2 n alpha * complex Hessian of u, in
    packed rows."""
    d = it.data
    rows = (2.0 * d.n * d.alpha) * it.derivs.hess_rows
    rows[:d.n] += it.weights.a
    return rows


def gtilde(it: Iterate, at=...) -> np.ndarray:
    """Linearization metric (n-1) a I + 2 n alpha ((Lap u) I - Hessian), in
    packed rows on the nodes `at` indexes of the grid (every node by
    default).

    These are also the coefficients F^{j kbar} of the linearized operator:
    raising both indices by the flat background metric is trivial.
    """
    d, dv = it.data, it.derivs
    coef = 2.0 * d.n * d.alpha
    rows = (-coef) * dv.hess_rows[:, at]
    rows[:d.n] += (d.n - 1) * it.weights.a[at] + coef * dv.lap[at]
    return rows


def gtilde_eig_range(it: Iterate) -> tuple[float, float]:
    """The least and the largest eigenvalue of gtilde over the grid, equal
    to those of hermitian_eigenvalues(gtilde(it), n).  gtilde and its
    eigenvalues are formed one slab of the first grid axis at a time, by the
    same nodewise algebra, so no whole-grid gtilde is built."""
    n = it.data.n
    lows, highs = [], []
    for i in range(len(it.u)):
        eig = hermitian_eigenvalues(gtilde(it, at=i), n)
        lows.append(np.min(eig))
        highs.append(np.max(eig))
    return float(np.min(lows)), float(np.max(highs))


def residual_fy1(it: Iterate) -> np.ndarray:
    """Divergence-form residual (n-1) Lap(e^u - f e^{-u}) + 2 n alpha sigma_2(i ddbar u) + mu.

    The Laplacian of the composite is expanded by the chain rule,

        Lap(e^u)       = e^u (Lap u + |Du|^2)
        Lap(f e^{-u})  = e^{-u} (Lap f - 2 Re<Df, Du> + f |Du|^2 - f Lap u),

    so the residual is pointwise algebra in the spectral derivatives of u
    and f; this makes the proportionality to residual_sigma2 exact.
    """
    d, dv = it.data, it.derivs
    eu, emu, _ = it.weights
    fe = d.f_eff()
    gsq = dv.grad_sq
    lap_eu = eu * (dv.lap + gsq)
    lap_femu = emu * (d.lap_f_eff() - d.grad_f_dot(dv.partials)
                      + fe * gsq - fe * dv.lap)
    n = d.n
    return (n - 1) * (lap_eu - lap_femu) + 2.0 * n * d.alpha * sigma2_field(dv.hess_rows, n) + d.mu_eff()


# ---------------------------------------------------------------------------
# linearization


@dataclass(frozen=True)
class LinearCoefficients:
    """Frozen-at-u coefficients of the Fréchet derivative of residual_sigma2.

    The derivative acting on a real direction v is

        L v = 2 n alpha Tr(gtilde Hess v) + c0 v - 2 Re sum_j (D_j v) w_j,

    with gtilde the matrix coefficient field, c0 the zeroth-order
    coefficient, and w_j = c1 conj(D_j u) - 4 alpha kappa_c e^{-u}
    conj(D_j f_eff) the gradient coupling.  Both the second- and first-order
    parts are stored as one real coefficient per row of v's derivative
    bundle, so that

        L v = sum_r k[r] * (row r of spectral_derivatives(v)) + c0 v:

    rows 0 .. 2n-1 couple the first partials (-Re w_j for x_j and -Im w_j
    for y_j), the n diagonal Hessian rows carry 2 n alpha gtilde_jj, and each
    strict-upper pair carries 4 n alpha Re and Im gtilde_jk, the factor 2
    counting the lower entry of the Hermitian trace.  apply_to takes v's rows
    one at a time (torus.contract_derivatives), so v's bundle is never built.
    """

    geometry: TorusGeometry
    k: np.ndarray        # (n^2 + 2n,) + grid, real, in the bundle's row order and buffer
    c0: np.ndarray       # grid, real

    def apply_to(self, v: np.ndarray) -> np.ndarray:
        """L v for a real grid array v: one rfftn of v, then one irfftn per
        row, each multiplied into the one accumulator as it arrives."""
        out = contract_derivatives(self.geometry, self.k, v)
        out += self.c0 * v
        return out


def linearization_coefficients(it: Iterate) -> LinearCoefficients:
    """Assemble the analytic coefficients of the Fréchet derivative at it.u.

    It consumes the iterate's body: c0 is formed first, then each bundle row
    is overwritten by its coefficient row, which reads only that row, b,
    e^{-u} and f's partial for the row.  So k is the bundle's own buffer and
    the iterate keeps no bundle or weights afterwards.

    Analytic assembly (rather than automatic differentiation) keeps the
    operator in a Fourier-preconditionable second-order form; the test suite
    certifies it against central finite differences of the residual.
    """
    d = it.data
    dv, (eu, emu, a) = it.take_body()
    b = 2.0 * eu     # e^u - f_eff e^{-u}, the u-derivative of a
    b -= a
    del eu           # each weight is freed once read, before the next temporaries
    kc = d.kappa_c
    al = d.alpha
    n = d.n
    coef = 2.0 * n * al

    # u-derivative of sigma_2(g') through a, (n-1) sigma_1(g') b, minus that
    # of the expanded right-hand side,
    #     2 kc a b - 4 alpha kc (a |Du|^2 + e^{-u} (Lap f_eff - 2 Re<Df_eff, Du>));
    # with sigma_1(g') = n a + coef Lap u and 2 kc = n(n-1) the a b terms cancel
    c0 = a * dv.grad_sq
    c0 += emu * (d.lap_f_eff() - d.grad_f_dot(dv.partials))
    c0 *= 4.0 * al * kc
    c0 += ((n - 1) * coef) * b * dv.lap

    # Du-derivative of the rhs, -2 Re sum_j (D_j v) w_j with
    # w_j = c1 conj(D_j u) - 4 alpha kc e^{-u} conj(D_j f_eff) and
    # c1 = -4 alpha kc b, is -(1/2) sum_a (c1 u_a - 4 alpha kc t e^{-u} f_a) v_a
    u_part = (2.0 * al * kc) * b
    del b
    f_part = (2.0 * al * kc * d.t) * emu
    del emu
    for ua, fa in zip(dv.partials, d.f_derivs().partials):
        ua *= u_part
        ua += f_part * fa
    del u_part, f_part
    # 2 n alpha Tr(gtilde Hess v) with gtilde = (n-1) a I + coef (Lap u I - Hess u)
    hk = dv.hess_rows
    hk *= -coef * coef
    hk[:n] += coef * ((n - 1) * a + coef * dv.lap)
    hk[n:] *= 2.0
    return LinearCoefficients(geometry=d.geometry, k=dv.rows, c0=c0)


# ---------------------------------------------------------------------------
# manufactured data


def manufactured_mu(it: Iterate) -> np.ndarray:
    """Source term making it.u an exact solution of the t = 1 problem.

    `it` is u_star evaluated against that problem with mu = 0 and t = 1, so
    residual_fy1 of it is (n-1) Lap(e^{u*} - f e^{-u*}) + 2 n alpha
    sigma_2(i ddbar u*), and mu is its negative, mean-subtracted exactly (the
    raw mean is already divergence-small); the subtraction perturbs the
    manufactured residual by the same ~1e-14.
    """
    vals = -residual_fy1(it)
    return vals - np.mean(vals)
