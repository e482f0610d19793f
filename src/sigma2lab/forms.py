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
rows, sigma2_field is sum_{j<k} (h_jj h_kk - |h_jk|^2), gamma2_mask
(symfun's, imported here) tests the two sigmas, and hermitian_eigenvalues
has closed forms.  A gradient pairing 2 Re sum_j p_j conj(q_j) of complex
gradients is (1/2) sum_a p_a q_a over the 2n real partials.

evaluate() is the one place a field's bundle is built and kept.  The
solver's check of a prolonged field (solve._solves_as_is) also reads a
bundle, one slab at a time from torus.derivative_slabs, and stores none: it
reads each slab with evaluate's reader (evaluate_slab) and combines the
readings as evaluate does (combine_readings).  evaluate returns an
Iterate in two parts.  The part a Newton step keeps is the field, its
residual and its readings: the residual's max-norm, the cone test and two
monitor readings.  The body is the bundle alone.  gprime, residual_fy1,
linearization_coefficients and the monitors each take that Iterate, so the
solver, the monitors and the verify suites read a field the same way.
g' itself is not assembled on the solve path: sigma_1 and sigma_2 of g'
have closed forms in a and the bundle (gprime_sigmas), which is all the
cone test, the residual and the monitors read of it.  The bundle does not
depend on t, so evaluate() is handed one, as its derivs, taken from an
earlier evaluation of the same field (Iterate.take_body).  f's
partial along the first axis and its Laplacian are computed once and
shared by every ProblemData.with_t copy; f's other partials are formed
where they are read.  Both residuals and the linearization read f's
derivatives through one term, Lap f_eff - 2 Re<Df_eff, Du>
(ProblemData.f_laplacian_term).
ProblemData.restricted is the same data injected on the half grid, where
the solver walks its continuation first.

A body has one owner.  linearization_coefficients consumes it: the operator
of the Newton step has one coefficient row per bundle row, each read from
that row alone, so the rows are written over the bundle in place and the
iterate keeps no body afterwards.  The operator streams the direction's rows
(LinearCoefficients.apply_to).

The pointwise work on an iterate runs one slab of the grid at a time, in
the one walk over torus.slabs (map_slabs) through which evaluate,
linearization_coefficients and every monitor read it; the bundle itself is
built slab by slab (torus.spectral_derivatives).  So every temporary is
one slab, and no grid array is held that a slab can form again: the
weights e^{+-u} and a (weights()), the bundle's Laplacian (Derivs.lap) and
f's partials off the first axis (ProblemData.f_partials) are formed on each
slab by the readers that read them.  Each node's arithmetic is the whole
grid's, and every reduction over slabs here is exact (max, min, all, a
count of nodes), so the results are the same bytes.  The accessors of
ProblemData, weights and residual_sigma2 take the nodes as at=..., every
node by default; a bundle on a slab is the view Derivs(dv.rows[:, at]).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .symfun import gamma2_mask
from .torus import (
    Derivs,
    TorusGeometry,
    _checked_field,
    contract_derivatives,
    slab_partials,
    slabs,
    spectral_derivatives,
    upper_pairs,
    x1_partial_and_laplacian,
)


def _shifted_exp(vals: np.ndarray, gamma: float) -> tuple[np.ndarray, float]:
    """(e^{-gamma (u - min u)}, min u): the normalization integrand scaled by
    e^{gamma min u}, so every exponent is nonpositive and cannot overflow.
    log integral e^{-gamma u} = -gamma min u + log mean of the first entry.
    Formed in the one array it returns."""
    lo = float(np.min(vals))
    e = np.subtract(vals, lo)
    e *= -gamma
    return np.exp(e, out=e), lo


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

    alpha > 0, f >= 0 smooth, mu with zero mean (to 1e-12 max(1, max|mu|),
    the rounding of its mean), normalization level A in (0,1) with
    kappa_c / A^2 (sigma_2(g') of the t = 0 solution) finite in float64,
    and the continuation parameter t in [0,1].  f and mu are
    finite arrays of the grid's shape.  Of f's derivatives it stores two
    grid arrays, f_derivs = (d f / d x_1, Lap f), formed when the data is
    built (torus.x1_partial_and_laplacian) unless passed in, and shared with
    every with_t copy (f is fixed along a continuation run); f's other
    partials are formed on the slab where they are read (f_partials), and
    f_laplacian_term is the term both residuals and c0 read of them.
    """

    def __init__(self, geometry: TorusGeometry, alpha: float, f: np.ndarray,
                 mu: np.ndarray, A: float, t: float = 1.0,
                 f_derivs: tuple[np.ndarray, np.ndarray] | None = None):
        if not (alpha > 0.0 and np.isfinite(alpha)):
            raise ConfigurationError(f"alpha must be positive, got {alpha}")
        check_A(A, geometry.n)
        _check_t(t)
        f = _checked_field("f", f, geometry)
        mu = _checked_field("mu", mu, geometry)
        if float(np.min(f)) < 0.0:
            raise ConfigurationError("f must be nonnegative")
        mean_mu = float(np.mean(mu))
        # the rounding of a mean-free mu's mean scales with max|mu|
        if abs(mean_mu) > 1e-12 * max(1.0, float(np.max(np.abs(mu)))):
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
        self.f_derivs = x1_partial_and_laplacian(f) if f_derivs is None else f_derivs

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
        other = copy.copy(self)
        other.t = float(t)
        return other

    def restricted(self) -> "ProblemData":
        """This data on the half grid, at the same t: f and mu injected,
        x[::2, ...], and mu's mean subtracted again.  Injection keeps f >= 0,
        and f's derivatives are taken again on the half grid."""
        geom = TorusGeometry(self.n, self.geometry.points_per_axis // 2)
        every_other = (slice(None, None, 2),) * (2 * self.n)
        mu = self.mu[every_other]
        return ProblemData(geom, self.alpha, np.ascontiguousarray(self.f[every_other]),
                           mu - mu.mean(), self.A, self.t)

    # -- t-scaled accessors, on the nodes `at` indexes (every node by default)

    def f_eff(self, at=...) -> np.ndarray:
        return self.t * self.f[at]

    def mu_eff(self, at=...) -> np.ndarray:
        return self.t * self.mu[at]

    def f_partials(self, at=...):
        """f's 2n first partials on the nodes `at` indexes, not t-scaled,
        one at a time in row order, each in one slab of scratch that the
        next overwrites (torus.slab_partials)."""
        return slab_partials(self.f, self.f_derivs[0], at)

    def lap_f_eff(self, at=...) -> np.ndarray:
        return self.t * self.f_derivs[1][at]

    def f_laplacian_term(self, partials: np.ndarray, at=...) -> np.ndarray:
        """Lap f_eff - 2 Re <D f_eff, D u> for u's real first partials on the
        nodes `at` indexes, in a new array.  The pairing is (t/2) sum_a f_a
        u_a, its sum started from 0 with the products added in row order, as
        an einsum over the rows does, one row of f at a time."""
        out = np.zeros(partials.shape[1:])
        for fa, ua in zip(self.f_partials(at), partials):
            fa *= ua
            out += fa
        out *= 0.5 * self.t
        return np.subtract(self.lap_f_eff(at), out, out=out)


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


# ---------------------------------------------------------------------------
# evaluated iterate


class Weights(NamedTuple):
    """e^u, e^{-u} and a = e^u + f_eff e^{-u} of a field on some nodes,
    formed by weights() where they are read; no iterate stores them.
    b = e^u - f_eff e^{-u} is 2 e^u - a."""

    eu: np.ndarray
    emu: np.ndarray
    a: np.ndarray


def weights(u: np.ndarray, d: ProblemData, at=...) -> Weights:
    """The weights of the field u against d on the nodes `at` indexes (a
    slab of the grid; every node by default): each node's e^{+-u} and a are
    the same bytes whichever nodes they are formed with."""
    eu, emu = np.exp(u[at]), np.exp(-u[at])
    a = d.f_eff(at)
    a *= emu
    a += eu
    return Weights(eu, emu, a)


@dataclass(frozen=True)
class Iterate:
    """A field evaluated once against one problem: what the Newton step, the
    backtracking test, acceptance, the monitors and every form below read.

    The part a Newton step keeps is the field and its residual, 2 grid
    arrays, and three readings of g': in_cone, whether every node lies in
    Gamma_2 at the margin it was evaluated with, and the monitors' kappa =
    min e^{-2u} sigma_2(g') and the fraction of nodes in Gamma_2.  The body
    is the bundle alone, n^2 + 2n grid arrays, read through .derivs until
    take_body detaches it; linearization_coefficients and an evaluation of
    the same field against other data each take it.  The weights are formed
    from the field where they are read (weights())."""

    u: np.ndarray
    data: ProblemData
    residual: np.ndarray
    rnorm: float
    in_cone: bool
    kappa: float
    gamma2_fraction: float
    body: Derivs | None

    @property
    def derivs(self) -> Derivs:
        if self.body is None:
            raise RuntimeError("this iterate's bundle was taken by a Newton "
                               "step or a later evaluation")
        return self.body

    def take_body(self) -> Derivs:
        """The bundle, detached from this iterate, which keeps only its
        field, residual and readings afterwards."""
        body = self.derivs
        object.__setattr__(self, "body", None)
        return body


def gprime_sigmas(d: ProblemData, dv: Derivs, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma_1 and sigma_2 of g' = a I + c Hess u, c = 2 n alpha, on the
    nodes the bundle dv and a hold (a slab of the grid, or all of it), in
    closed form from a and the bundle, without assembling g':

        sigma_1(g') = n a + c Lap u,
        sigma_2(g') = kappa_c a^2 + (n-1) c a Lap u + c^2 sigma_2(Hess u),

    since each principal 2 x 2 minor (a + c h_jj)(a + c h_kk) - c^2 |h_jk|^2
    contributes a^2, a c (h_jj + h_kk) and c^2 times the Hessian's minor."""
    n = d.n
    c = 2.0 * n * d.alpha
    lap = dv.lap
    s1 = c * lap
    s1 += n * a
    s2 = sigma2_field(dv.hess_rows, n)
    s2 *= c * c
    tmp = d.kappa_c * a   # (kappa_c a + (n-1) c Lap u) a, summed in place
    tmp += ((n - 1) * c) * lap
    tmp *= a
    s2 += tmp
    return s1, s2


def residual_sigma2(d: ProblemData, dv: Derivs, w: Weights, s2: np.ndarray,
                    at=..., out: np.ndarray | None = None) -> np.ndarray:
    """sigma_2(g') minus the right-hand side of the Hessian form of the
    equation, fully expanded, on the nodes `at` indexes of the grid (every
    node by default), which the bundle dv, the weights w and s2,
    sigma_2(g') from gprime_sigmas, hold.  The residual is written into
    out, a new array by default, which is returned.

    With kappa_c = n(n-1)/2 and the t-scaled data the right-hand side is

        kappa_c e^{2u} (1 - 4 alpha e^{-u} |Du|^2)
        + 4 alpha kappa_c f e^{-u} |Du|^2 + 2 kappa_c f + kappa_c e^{-2u} f^2
        - 2 n alpha mu
        + 4 alpha kappa_c e^{-u} (Lap f - 2 Re<Df, Du>).

    Each term is formed in one scratch array and added to out in
    this order, factor by factor from the left, so the sum rounds exactly as
    the expression above evaluated left to right; s2 minus the sum is then
    written over it.  Satisfies residual_sigma2 = 2 n alpha * residual_fy1
    as exact pointwise algebra of the shared discrete derivative fields.
    """
    eu, emu = w.eu, w.emu
    kc = d.kappa_c
    al = d.alpha
    gsq = dv.grad_sq
    # kappa_c e^{2u} (1 - 4 alpha e^{-u} |Du|^2)
    tmp = (4.0 * al) * emu
    tmp *= gsq
    np.subtract(1.0, tmp, out=tmp)
    out = np.multiply(kc, eu, out=out)
    out *= eu
    out *= tmp
    # + 4 alpha kappa_c f e^{-u} |Du|^2
    fe = d.f_eff(at)
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
    np.multiply(2.0 * d.n * al, d.mu_eff(at), out=tmp)
    out -= tmp
    del tmp   # freed while f's partials are formed
    # + 4 alpha kappa_c e^{-u} (Lap f - 2 Re<Df, Du>)
    df = d.f_laplacian_term(dv.partials, at)
    tmp = np.multiply(4.0 * al * kc, emu)
    tmp *= df
    out += tmp
    return np.subtract(s2, out, out=out)


def map_slabs(fn, dv: Derivs) -> list:
    """fn(g, at) on each slab `at` of dv's grid (torus.slabs), in order, and
    the list of its results: g is the slab's view of dv, a field's bundle or
    the rows written over it.  A reader that needs the slab's weights forms
    them in fn (weights(u, d, at)), so nothing of a slab outlives fn's call
    but what fn returns, and a reader that needs none forms none."""
    return [fn(Derivs(dv.rows[:, at]), at) for at in slabs(dv.rows.shape[1:])]


def evaluate_slab(d: ProblemData, g: Derivs, w: Weights, margin: float, at,
                  out: np.ndarray | None = None) -> tuple:
    """evaluate's reading of one slab `at` of a field, whose bundle g and
    weights w it is given: (in_cone, the count of nodes in Gamma_2, kappa,
    max|R|) on the slab, from the sigmas of g', both cone tests and the
    residual, which is written into out, a new slab by default."""
    s1, s2 = gprime_sigmas(d, g, w.a)
    in_cone = bool(np.all(gamma2_mask(s1, s2, d.n, margin)))
    inside = int(np.count_nonzero(gamma2_mask(s1, s2, d.n)))
    del s1   # not read again; freed before the residual's temporaries
    kappa = np.min(w.emu * w.emu * s2)
    r = residual_sigma2(d, g, w, s2, at=at, out=out)
    return in_cone, inside, kappa, np.max(np.abs(r))


def combine_readings(readings, size: int) -> tuple:
    """(rnorm, in_cone, kappa, gamma2_fraction) of a field of `size` nodes
    from its slabs' evaluate_slab readings, in order: the max of the slabs'
    max|R| and the min of their kappas (a NaN propagates), every slab's cone
    test, and the count of nodes inside over the node count."""
    in_cone, inside, kappas, rnorms = zip(*readings)
    return float(np.max(rnorms)), all(in_cone), float(np.min(kappas)), sum(inside) / size


def evaluate(u: np.ndarray, d: ProblemData, margin: float,
             derivs: Derivs | None = None) -> Iterate:
    """Evaluate u against d: an Iterate with its bundle.  `derivs` is u's
    bundle when the caller has it at no cost: the body an evaluation of the
    same u against other data (another t) gives up (Iterate.take_body), or a
    constant field's (torus.constant_derivatives).  It is taken, not copied.

    After the bundle the work runs slab by slab (map_slabs), each slab read
    by evaluate_slab: the sigmas of g', both cone tests, kappa and the
    residual, the one grid array formed besides the bundle.  The readings
    combine exactly (combine_readings).

    Nothing here tests the arrays for finiteness: an overflowed field has a
    NaN or infinite rnorm, which never passes the solver's rnorm < newton_tol."""
    dv = spectral_derivatives(u) if derivs is None else derivs
    r = np.empty(u.shape)
    readings = map_slabs(lambda g, at: evaluate_slab(d, g, weights(u, d, at), margin, at,
                                                     r[at]), dv)
    return Iterate(u, d, r, *combine_readings(readings, u.size), dv)


# ---------------------------------------------------------------------------
# forms of an evaluated iterate


def gprime(it: Iterate) -> np.ndarray:
    """g' = (e^u + f_eff e^{-u}) I + 2 n alpha * complex Hessian of u, in
    packed rows."""
    d = it.data
    rows = (2.0 * d.n * d.alpha) * it.derivs.hess_rows
    rows[:d.n] += weights(it.u, d).a
    return rows


def gtilde(d: ProblemData, dv: Derivs, a: np.ndarray) -> np.ndarray:
    """Linearization metric (n-1) a I + 2 n alpha ((Lap u) I - Hessian), in
    packed rows on the nodes the bundle dv and a hold, as in gprime_sigmas.

    These are also the coefficients F^{j kbar} of the linearized operator:
    raising both indices by the flat background metric is trivial.
    """
    coef = 2.0 * d.n * d.alpha
    rows = (-coef) * dv.hess_rows
    rows[:d.n] += (d.n - 1) * a + coef * dv.lap
    return rows


def residual_fy1(it: Iterate) -> np.ndarray:
    """Divergence-form residual (n-1) Lap(e^u - f e^{-u}) + 2 n alpha sigma_2(i ddbar u) + mu.

    The Laplacian of the composite is expanded by the chain rule,

        Lap(e^u)       = e^u (Lap u + |Du|^2)
        Lap(f e^{-u})  = e^{-u} (Lap f - 2 Re<Df, Du> + f |Du|^2 - f Lap u),

    so the residual is pointwise algebra in the spectral derivatives of u
    and f; this makes the proportionality to residual_sigma2 exact.
    """
    d, dv = it.data, it.derivs
    eu, emu, _ = weights(it.u, d)
    fe = d.f_eff()
    gsq, lap = dv.grad_sq, dv.lap
    lap_eu = eu * (lap + gsq)
    lap_femu = emu * (d.f_laplacian_term(dv.partials) + fe * gsq - fe * lap)
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
    counting the lower entry of the Hermitian trace.  apply_to adds v's
    derivative terms slab by slab, the terms its bundle would be built from
    (torus.contract_derivatives), so v's bundle is never built.
    """

    k: np.ndarray        # (n^2 + 2n,) + grid, real, in the bundle's row order and buffer
    c0: np.ndarray       # grid, real

    def apply_to(self, v: np.ndarray) -> np.ndarray:
        """L v for a real grid array v: v's two first partials in z_j, then
        each derivative term that reads them or v, scaled by its coefficient
        row and added to the one accumulator, which starts as c0 v, slab by
        slab; two grid arrays and three slabs at most.  No transform is
        taken."""
        return contract_derivatives(self.k, v, self.c0 * v)


def linearization_coefficients(it: Iterate) -> LinearCoefficients:
    """Assemble the analytic coefficients of the Fréchet derivative at it.u.

    It consumes the iterate's body, one slab of the grid at a time
    (map_slabs, _linearize_slab): c0 is formed first, then each bundle row
    is overwritten by its coefficient row, which reads only that row, the
    Laplacian, the weights and f's partial for the row.  So k is the
    bundle's own buffer, c0 is the one grid array formed, every temporary is
    one slab, and the iterate keeps no bundle afterwards.

    Analytic assembly (rather than automatic differentiation) keeps the
    operator in a Fourier-preconditionable second-order form; the test suite
    certifies it against central finite differences of the residual.
    """
    dv = it.take_body()
    c0 = np.empty(it.u.shape)
    map_slabs(lambda g, at: _linearize_slab(it.data, it.u, c0, g, at), dv)
    return LinearCoefficients(k=dv.rows, c0=c0)


def _linearize_slab(d: ProblemData, u: np.ndarray, c0: np.ndarray, g: Derivs, at) -> None:
    """linearization_coefficients at the field u on the nodes `at` indexes,
    which the bundle g holds: c0[at] is written, g's rows are overwritten
    by their coefficient rows, and the slab's weights, formed here, and
    every other temporary die with the call."""
    kc, al, n = d.kappa_c, d.alpha, d.n
    coef = 2.0 * n * al
    eu, emu, a = weights(u, d, at)

    # u-derivative of sigma_2(g') through a, (n-1) sigma_1(g') b, minus
    # that of the expanded right-hand side,
    #     2 kc a b - 4 alpha kc (a |Du|^2 + e^{-u} (Lap f_eff - 2 Re<Df_eff, Du>));
    # with sigma_1(g') = n a + coef Lap u and 2 kc = n(n-1) the a b terms cancel
    c = np.multiply(a, g.grad_sq, out=c0[at])
    df = d.f_laplacian_term(g.partials, at)
    df *= emu
    c += df
    del df
    c *= 4.0 * al * kc
    b = np.multiply(eu, 2.0, out=eu)   # e^u - f_eff e^{-u}, the u-derivative of a
    b -= a
    lap = g.lap   # summed here, after f's partials and before hk overwrites the diagonal rows
    c += ((n - 1) * coef) * b * lap

    # Du-derivative of the rhs, -2 Re sum_j (D_j v) w_j with
    # w_j = c1 conj(D_j u) - 4 alpha kc e^{-u} conj(D_j f_eff) and
    # c1 = -4 alpha kc b, is -(1/2) sum_a (c1 u_a - 4 alpha kc t e^{-u} f_a) v_a
    b *= 2.0 * al * kc           # the u part's factor
    emu *= 2.0 * al * kc * d.t   # the f part's factor
    for ua, fa in zip(g.partials, d.f_partials(at)):
        ua *= b
        fa *= emu
        ua += fa
    del fa   # freed before the Hessian rows' temporaries
    # 2 n alpha Tr(gtilde Hess v) with gtilde = (n-1) a I + coef (Lap u I - Hess u)
    hk = g.hess_rows
    hk *= -coef * coef
    hk[:n] += coef * ((n - 1) * a + coef * lap)
    hk[n:] *= 2.0


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
