"""Periodic grid and spectral complex calculus on the flat torus.

The domain is the flat complex torus of complex dimension n (n = 2 or 3),
realized as [0, period)^{2n} with coordinates ordered

    (x_1, y_1, x_2, y_2, ..., x_n, y_n),      z_j = x_j + i y_j,

and the background Kahler metric g = identity.  On this background every
curvature term of the general theory vanishes identically; that flat
specialization is what this module implements.

Derivatives are pseudospectral: a field is transformed once with the FFT,
multiplied by the symbol of the requested operator, and transformed back.
For the holomorphic derivative D_j = (d/dx_j - i d/dy_j) / 2 the symbol on
the Fourier mode exp(i(xi.x + eta.y)) is (i xi_j + eta_j) / 2, so derivatives
of band-limited fields are exact to rounding.  Nonlinearities are formed
pointwise in physical space without dealiasing; the fields of interest are
smooth and resolved, and the refinement studies in the test suite expose
aliasing when it matters.

Integration uses the volume-normalized measure: integrate() is the plain
nodal mean, which is trapezoidal-exact for periodic smooth integrands and
makes the total volume exactly 1.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .errors import ConfigurationError

_DUMP_MAGIC = b"S2LFIELD"


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class TorusGeometry:
    """Flat torus grid: complex dimension n, points_per_axis nodes per real axis."""

    n: int
    points_per_axis: int
    period: float = 1.0
    volume_factor: float = field(init=False)

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ConfigurationError(f"complex dimension must be 2 or 3, got {self.n}")
        if not _is_power_of_two(self.points_per_axis) or self.points_per_axis < 8:
            raise ConfigurationError(
                f"points_per_axis must be a power of two >= 8, got {self.points_per_axis}"
            )
        if not (self.period > 0.0 and np.isfinite(self.period)):
            raise ConfigurationError(f"period must be positive, got {self.period}")
        # the raw volume of [0, period)^{2n} with the flat Kahler volume form
        # is (2 period^2)^n; the factor below rescales the measure so that
        # integrate(1) == 1 exactly
        raw = (2.0 * self.period ** 2) ** self.n
        object.__setattr__(self, "volume_factor", 1.0 / raw)

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * (2 * self.n)

    @property
    def node_count(self) -> int:
        return self.points_per_axis ** (2 * self.n)

    @property
    def grid_axes(self) -> tuple:
        return tuple(range(2 * self.n))

    def coordinate(self, axis: int) -> np.ndarray:
        """Nodal coordinates along one real axis, broadcastable to the grid shape."""
        p = self.points_per_axis
        x = np.arange(p) * (self.period / p)
        shape = [1] * (2 * self.n)
        shape[axis] = p
        return x.reshape(shape)

    def _freq(self, axis: int) -> np.ndarray:
        p = self.points_per_axis
        k = 2.0 * np.pi * np.fft.fftfreq(p, d=self.period / p)
        shape = [1] * (2 * self.n)
        shape[axis] = p
        return k.reshape(shape)

    def holo_symbol(self, j: int) -> np.ndarray:
        """Broadcastable symbol of D_j (1-based complex index)."""
        xi = self._freq(2 * (j - 1))
        eta = self._freq(2 * (j - 1) + 1)
        return 0.5 * (1j * xi + eta)

    def antiholo_symbol(self, j: int) -> np.ndarray:
        """Broadcastable symbol of D_jbar (1-based complex index)."""
        xi = self._freq(2 * (j - 1))
        eta = self._freq(2 * (j - 1) + 1)
        return 0.5 * (1j * xi - eta)

    def laplace_symbol(self) -> np.ndarray:
        """Full-grid symbol of the complex Laplacian sum_j D_j D_jbar."""
        sym = np.zeros(self.shape)
        for axis in range(2 * self.n):
            sym = sym - 0.25 * self._freq(axis) ** 2
        return sym

    def mode_index(self, axis: int) -> np.ndarray:
        """Integer mode numbers along one axis, broadcastable to the grid."""
        p = self.points_per_axis
        idx = np.rint(np.fft.fftfreq(p) * p).astype(int)
        shape = [1] * (2 * self.n)
        shape[axis] = p
        return idx.reshape(shape)


def make_geometry(n: int, points_per_axis: int, period: float = 1.0) -> TorusGeometry:
    """Build a unit-volume flat torus geometry."""
    return TorusGeometry(n=n, points_per_axis=points_per_axis, period=period)


@dataclass(frozen=True)
class ScalarField:
    """Real scalar samples on the torus grid."""

    geometry: TorusGeometry
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.geometry.shape:
            raise ConfigurationError(
                f"field shape {vals.shape} does not match grid {self.geometry.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("field contains non-finite values")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class HermitianField:
    """Per-node n x n complex Hermitian matrix, stored as (n, n) + grid; the
    package builds these from the Hermitian Hessian, so only shape is checked."""

    geometry: TorusGeometry
    matrices: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=complex)
        n = self.geometry.n
        if m.shape != (n, n) + self.geometry.shape:
            raise ConfigurationError(
                f"matrix field shape {m.shape} does not match (n, n) + grid"
            )
        object.__setattr__(self, "matrices", m)


def constant_field(geom: TorusGeometry, c: float) -> ScalarField:
    return ScalarField(geom, np.full(geom.shape, float(c)))


# ---------------------------------------------------------------------------
# spectral derivatives
#
# scipy's pocketfft backend is used with all workers: each 1-D sub-transform
# is still evaluated in a fixed reduction order, so results are bitwise
# deterministic regardless of the thread count.


def _fft(values: np.ndarray) -> np.ndarray:
    return scipy.fft.fftn(values, workers=-1)


def _ifft(values: np.ndarray, grid_ndim: int) -> np.ndarray:
    axes = tuple(range(values.ndim - grid_ndim, values.ndim))
    return scipy.fft.ifftn(values, axes=axes, workers=-1)


@dataclass(frozen=True)
class Derivs:
    """Bundle of the spectral derivatives of one scalar field.

    grad[j]     = D_{j+1} u                (complex, (n,) + grid)
    hess[j, k]  = D_{j+1} D_{k+1 bar} u    (complex Hermitian, (n, n) + grid)
    lap         = trace of hess            (real, grid)
    """

    grad: np.ndarray
    hess: np.ndarray
    lap: np.ndarray

    @property
    def grad_sq(self) -> np.ndarray:
        g = self.grad
        return np.sum(g.real * g.real + g.imag * g.imag, axis=0)


def spectral_derivatives(u: ScalarField) -> Derivs:
    """Compute gradient, complex Hessian and Laplacian of u in one FFT pass."""
    geom = u.geometry
    n = geom.n
    uhat = _fft(u.values)
    holo = [geom.holo_symbol(j) for j in range(1, n + 1)]
    anti = [geom.antiholo_symbol(j) for j in range(1, n + 1)]

    # batch all inverse transforms: n gradient entries + n(n+1)/2 Hessian entries
    stack = [s * uhat for s in holo]
    pairs = [(j, k) for j in range(n) for k in range(j, n)]
    for j, k in pairs:
        stack.append(holo[j] * anti[k] * uhat)
    out = _ifft(np.stack(stack), 2 * n)

    grad = out[:n]
    hess = np.empty((n, n) + geom.shape, dtype=complex)
    for idx, (j, k) in enumerate(pairs):
        entry = out[n + idx]
        if j == k:
            hess[j, j] = entry.real  # diagonal of the complex Hessian is real
        else:
            hess[j, k] = entry
            hess[k, j] = np.conj(entry)
    lap = np.sum(hess[np.arange(n), np.arange(n)].real, axis=0)
    return Derivs(grad=grad, hess=hess, lap=lap)


def d_holo(u: ScalarField, j: int) -> np.ndarray:
    """Holomorphic derivative D_j u = (d/dx_j - i d/dy_j) u / 2 (1-based j)."""
    geom = u.geometry
    if not 1 <= j <= geom.n:
        raise ValueError(f"coordinate index j={j} out of range 1..{geom.n}")
    return _ifft(geom.holo_symbol(j) * _fft(u.values), 2 * geom.n)


def laplacian(u: ScalarField) -> ScalarField:
    """Complex Laplacian sum_j D_j D_jbar u (trace of the complex Hessian)."""
    geom = u.geometry
    out = _ifft(geom.laplace_symbol() * _fft(u.values), 2 * geom.n)
    return ScalarField(geom, out.real)


def integrate(w: ScalarField) -> float:
    """Integral over the unit-volume torus: the nodal mean."""
    return float(np.mean(w.values))


def zero_mean(u: ScalarField) -> ScalarField:
    """Subtract the exact nodal mean."""
    return ScalarField(u.geometry, u.values - np.mean(u.values))


def mixed_wedge_density(u: ScalarField, derivs: Derivs | None = None) -> ScalarField:
    """Scalar density of i du ^ dbar u ^ i ddbar u ^ omega^{n-2} against omega^n/n!.

    Computed coordinate-invariantly as

        (n-2)! * ( |Du|^2 Lap(u) - sum_{j,k} D_j u conj(D_k u) Hess[j,k] ),

    which at a node where the Hessian is diagonal reduces to
    (n-2)! * sum_i |u_i|^2 (Lap(u) - u_{i ibar}).
    """
    geom = u.geometry
    if geom.n < 2:
        raise ConfigurationError("the wedge density needs complex dimension >= 2")
    d = derivs if derivs is not None else spectral_derivatives(u)
    # contraction sum_{j,k} u_j conj(u_k) H[j,k]; real because H is Hermitian
    t = np.einsum("j...,jk...->k...", d.grad, d.hess)
    mixed = np.einsum("k...,k...->...", t, np.conj(d.grad)).real
    fac = float(math.factorial(geom.n - 2))
    density = fac * (d.grad_sq * d.lap - mixed)
    return ScalarField(geom, density)


# ---------------------------------------------------------------------------
# field dumps (save/restore interface used by the CLI)


def save_field(path, u: ScalarField) -> None:
    """Binary dump: magic, little-endian float64 header (n, points_per_axis,
    period), then row-major node values as little-endian float64."""
    header = struct.pack(
        "<3d", float(u.geometry.n), float(u.geometry.points_per_axis), u.geometry.period
    )
    with open(path, "wb") as fh:
        fh.write(_DUMP_MAGIC)
        fh.write(header)
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def load_field(path, geometry: TorusGeometry | None = None) -> ScalarField:
    """Load a field dump; if a geometry is given the header must match it."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_DUMP_MAGIC))
        if magic != _DUMP_MAGIC:
            raise ConfigurationError(f"{path}: not a field dump")
        header = fh.read(24)
        if len(header) != 24:
            raise ConfigurationError(f"{path}: truncated dump")
        n_f, p_f, period = struct.unpack("<3d", header)
        payload = fh.read()
    if not all(np.isfinite(x) and x == round(x) for x in (n_f, p_f)):
        raise ConfigurationError(
            f"{path}: dump header needs whole-number n and points per axis, "
            f"got n={n_f}, points={p_f}"
        )
    n, p = int(n_f), int(p_f)
    geom = TorusGeometry(n=n, points_per_axis=p, period=period)
    if geometry is not None and (geometry.n, geometry.points_per_axis, geometry.period) != (n, p, period):
        raise ConfigurationError(
            f"{path}: dump geometry (n={n}, points={p}, period={period}) "
            f"does not match the declared geometry"
        )
    values = np.frombuffer(payload, dtype="<f8")
    if values.size != geom.node_count:
        raise ConfigurationError(f"{path}: truncated dump")
    return ScalarField(geom, values.reshape(geom.shape).astype(float))


# ---------------------------------------------------------------------------
# deterministic random fields for the identity suites


def random_band_limited(geom: TorusGeometry, rng: np.random.Generator,
                        max_mode: int = 2, amplitude: float = 1.0) -> ScalarField:
    """Random real band-limited field with |mode| <= max_mode on every axis,
    rescaled to the requested max-norm amplitude."""
    w = rng.standard_normal(geom.shape)
    what = _fft(w)
    mask = np.ones(geom.shape, dtype=bool)
    for axis in range(2 * geom.n):
        mask &= np.abs(geom.mode_index(axis)) <= max_mode
    u = _ifft(what * mask, 2 * geom.n).real
    u -= u.mean()
    top = float(np.max(np.abs(u)))
    if top > 0.0:
        u *= amplitude / top
    return ScalarField(geom, u)
