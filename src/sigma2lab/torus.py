"""Periodic grid and spectral complex calculus on the flat torus.

The domain is the flat complex torus of complex dimension n (n = 2 or 3),
realized as the unit cube [0, 1)^{2n} with coordinates ordered

    (x_1, y_1, x_2, y_2, ..., x_n, y_n),      z_j = x_j + i y_j,

and the background Kahler metric g = identity.  On this background every
curvature term of the general theory vanishes identically; that flat
specialization is what this module implements.

Derivatives are pseudospectral: a field is transformed once with the
real-to-complex FFT (scipy.fft.rfftn, which keeps the half spectrum
0 <= k < p/2 + 1 along the last axis), multiplied by the real-operator
symbol of each requested derivative, and transformed back with irfftn, so
every derivative of a real field is a real array.  spectral_derivatives
returns one real array of n^2 + 2n rows, in this order:

    rows[a]                  d u / d(axis a)  for a = 0 .. 2n-1, that is
                             d/dx_1, d/dy_1, ..., d/dx_n, d/dy_n;
    rows[2n + j]             the diagonal Hessian entry u_{j jbar}
                             = (d^2/dx_j^2 + d^2/dy_j^2) u / 4;
    rows[3n + 2p], [+ 1]     Re and Im of the p-th strict-upper entry
                             u_{j kbar} = D_j D_kbar u, j < k, in the order
                             (1,2), (1,3), (2,3).

contract_derivatives forms sum_r k[r] * rows[r] for coefficient rows k by
the same transforms, one row at a time, without storing the rows.

The last n^2 rows are the packed layout in which every Hermitian form of
the package is held, as a plain real array (n^2,) + nodes: n real diagonal
entries, then the real and imaginary parts of each strict-upper entry in
upper_pairs order.  unpack_hermitian expands packed rows into full complex
matrices for callers that want them.  The holomorphic derivative is
D_j = (d/dx_j - i d/dy_j) / 2, so D_j u = (rows[2j] - i rows[2j+1]) / 2 and

    Re u_{j kbar} = (u_{x_j x_k} + u_{y_j y_k}) / 4,
    Im u_{j kbar} = (u_{x_j y_k} - u_{y_j x_k}) / 4.

Nyquist convention: on an even grid the mode k = p/2 has no partner of the
opposite sign, so an odd derivative of it is not a real field.  The symbol
of every first derivative is therefore set to zero on its axis's Nyquist
plane; the mixed second derivatives are products of two first derivatives
and vanish there too, while the diagonal entries d^2/dx^2 keep -k^2.  With
this convention derivatives of fields band-limited below the Nyquist mode
are exact to rounding.  Nonlinearities are formed pointwise in physical
space without dealiasing; the fields of interest are smooth and resolved,
and the refinement studies in the test suite expose aliasing when it
matters.

A field is a plain float64 array of TorusGeometry.shape, (p,) * 2n nodal
values.  The torus has volume 1, so a field's integral is its nodal mean,
trapezoidal-exact for periodic smooth integrands.  ScalarField is only the
record of a field dump, checked by load_field and written by save_field.

The bundle (Derivs) is the one way to differentiate a field: .partials and
.grad, .lap, and .hess_rows (or the full .hess) are read from its rows.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import ConfigurationError

_DUMP_MAGIC = b"S2LFIELD"


@dataclass(frozen=True)
class TorusGeometry:
    """Flat torus grid: complex dimension n, points_per_axis nodes per real axis."""

    n: int
    points_per_axis: int

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ConfigurationError(f"complex dimension must be 2 or 3, got {self.n}")
        p = self.points_per_axis
        if p < 8 or p & (p - 1):
            raise ConfigurationError(f"points_per_axis must be a power of two >= 8, got {p}")

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * (2 * self.n)

    @property
    def node_count(self) -> int:
        return self.points_per_axis ** (2 * self.n)

    def along(self, axis: int, x: np.ndarray) -> np.ndarray:
        """The 1-D array x laid along one real axis, broadcastable to the grid."""
        shape = [1] * (2 * self.n)
        shape[axis] = x.size
        return x.reshape(shape)

    def coordinate(self, axis: int) -> np.ndarray:
        """Nodal coordinates along one real axis, broadcastable to the grid shape."""
        p = self.points_per_axis
        return self.along(axis, np.arange(p) * (1.0 / p))

    @property
    def spectrum_shape(self) -> tuple:
        """Shape of the rfftn half spectrum: the last axis keeps p/2 + 1 modes."""
        p = self.points_per_axis
        return (p,) * (2 * self.n - 1) + (p // 2 + 1,)

    def mode_index(self, axis: int) -> np.ndarray:
        """Integer mode numbers along one axis, broadcastable to the grid."""
        p = self.points_per_axis
        return self.along(axis, np.rint(np.fft.fftfreq(p) * p).astype(int))


@dataclass(frozen=True)
class ScalarField:
    """A field dump's record: its geometry and its values, checked for the
    grid's shape and for finiteness because the bytes come from outside."""

    geometry: TorusGeometry
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _checked_field("field", self.values, self.geometry))


def _checked_field(name: str, values, geometry: TorusGeometry) -> np.ndarray:
    """values as a float64 array, which must be finite and of the grid's
    shape: the check of a dump's values and of a run's data (ProblemData)."""
    values = np.asarray(values, dtype=float)
    if values.shape != geometry.shape:
        raise ConfigurationError(f"{name} has shape {values.shape}, the grid {geometry.shape}")
    if not np.all(np.isfinite(values)):
        raise ConfigurationError(f"{name} contains non-finite values")
    return values


def upper_pairs(n: int) -> list:
    """Strict-upper index pairs (j, k), j < k (0-based), in packed row order."""
    return [(j, k) for j in range(n) for k in range(j + 1, n)]


def unpack_hermitian(rows: np.ndarray, n: int) -> np.ndarray:
    """Full complex (n, n) + nodes array of packed Hermitian rows (n^2,) +
    nodes."""
    m = np.empty((n, n) + rows.shape[1:], dtype=complex)
    for j in range(n):
        m[j, j] = rows[j]
    for p, (j, k) in enumerate(upper_pairs(n)):
        m[j, k] = rows[n + 2 * p] + 1j * rows[n + 2 * p + 1]
        m[k, j] = np.conj(m[j, k])
    return m


# ---------------------------------------------------------------------------
# spectral derivatives
#
# scipy's pocketfft backend is used with all workers: each 1-D sub-transform
# is still evaluated in a fixed reduction order, so results are bitwise
# deterministic regardless of the thread count.


def _rfft(values: np.ndarray) -> np.ndarray:
    return scipy.fft.rfftn(values, workers=-1)


def _irfft(spectrum: np.ndarray, geom: TorusGeometry) -> np.ndarray:
    return scipy.fft.irfftn(spectrum, s=geom.shape, workers=-1)


@functools.lru_cache(maxsize=8)
def derivative_symbols(geom: TorusGeometry) -> tuple:
    """Half-spectrum symbols of the n^2 + 2n rows of spectral_derivatives, in
    row order, each broadcastable to geom.spectrum_shape and read-only.

    First derivatives are i k_a (complex); the Hessian rows are real.  The
    first-derivative wavenumbers are zeroed on the Nyquist plane of their
    axis (see the module docstring)."""
    n = geom.n
    p = geom.points_per_axis
    k_even, k_odd = [], []
    for axis in range(2 * n):
        freq = np.fft.rfftfreq if axis == 2 * n - 1 else np.fft.fftfreq
        k = 2.0 * np.pi * freq(p, d=1.0 / p)
        k_even.append(geom.along(axis, k))
        k = k.copy()
        k[p // 2] = 0.0   # the Nyquist bin, in fftfreq and rfftfreq order alike
        k_odd.append(geom.along(axis, k))
    syms = [1j * k for k in k_odd]
    for j in range(n):
        syms.append(-0.25 * (k_even[2 * j] ** 2 + k_even[2 * j + 1] ** 2))
    for j, k in upper_pairs(n):
        xj, yj, xk, yk = k_odd[2 * j], k_odd[2 * j + 1], k_odd[2 * k], k_odd[2 * k + 1]
        syms.append(-0.25 * (xj * xk + yj * yk))
        syms.append(-0.25 * (xj * yk - yj * xk))
    for s in syms:
        s.setflags(write=False)
    return tuple(syms)


@dataclass(frozen=True)
class Derivs:
    """Bundle of the spectral derivatives of one scalar field.

    rows   (n^2 + 2n,) + grid, real, in the order of the module docstring
    lap    the complex Laplacian sum_j u_{j jbar}, the sum of the diagonal rows

    Views of the rows share their one buffer; the complex gradient and
    Hessian are built on request, for callers off the solve path."""

    rows: np.ndarray
    lap: np.ndarray

    @property
    def n(self) -> int:
        return self.lap.ndim // 2

    @property
    def partials(self) -> np.ndarray:
        """The 2n real first partials, (2n,) + grid."""
        return self.rows[:2 * self.n]

    @property
    def hess_rows(self) -> np.ndarray:
        """The complex Hessian in packed Hermitian rows, (n^2,) + grid."""
        return self.rows[2 * self.n:]

    @property
    def grad_sq(self) -> np.ndarray:
        """|Du|^2 = sum_j |D_j u|^2, a quarter of the sum of squared partials."""
        p = self.partials
        return 0.25 * np.einsum("a...,a...->...", p, p)

    @property
    def grad(self) -> np.ndarray:
        """Complex gradient D_j u, (n,) + grid."""
        p = self.partials
        return 0.5 * (p[0::2] - 1j * p[1::2])

    @property
    def hess(self) -> np.ndarray:
        """Full complex Hessian D_j D_kbar u, (n, n) + grid."""
        return unpack_hermitian(self.hess_rows, self.n)


def spectral_derivatives(u: np.ndarray) -> Derivs:
    """First partials, packed complex Hessian and Laplacian of the field u:
    one rfftn, then one irfftn per row straight into the bundle's single
    array.  Each row's spectrum is formed in one reused buffer."""
    n = u.ndim // 2
    geom = TorusGeometry(n, u.shape[0])
    uhat = _rfft(u)
    syms = derivative_symbols(geom)
    rows = np.empty((len(syms),) + geom.shape)
    buf = np.empty_like(uhat)
    for r, sym in enumerate(syms):
        rows[r] = _irfft(np.multiply(sym, uhat, out=buf), geom)
    return Derivs(rows=rows, lap=rows[2 * n:3 * n].sum(axis=0))


def contract_derivatives(geom: TorusGeometry, k: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_r k[r] * (row r of spectral_derivatives) for a real grid array,
    without building its bundle: one rfftn, then one irfftn per row from one
    reused spectrum buffer, each row scaled in place and added to the sum as
    it is transformed."""
    vhat = _rfft(values)
    out = np.zeros(geom.shape)
    buf = np.empty_like(vhat)
    for k_r, sym in zip(k, derivative_symbols(geom)):
        row = _irfft(np.multiply(sym, vhat, out=buf), geom)
        row *= k_r
        out += row
        del row   # freed before the next row is transformed
    return out


def mixed_wedge_density(dv: Derivs) -> np.ndarray:
    """Scalar density of i du ^ dbar u ^ i ddbar u ^ omega^{n-2} against
    omega^n/n!, from u's bundle.

    Computed coordinate-invariantly as

        (n-2)! * ( |Du|^2 Lap(u) - sum_{j,k} D_j u conj(D_k u) Hess[j,k] ),

    which at a node where the Hessian is diagonal reduces to
    (n-2)! * sum_i |u_i|^2 (Lap(u) - u_{i ibar}).
    """
    # contraction sum_{j,k} u_j conj(u_k) H[j,k]; real because H is Hermitian
    grad = dv.grad
    t = np.einsum("j...,jk...->k...", grad, dv.hess)
    mixed = np.einsum("k...,k...->...", t, np.conj(grad)).real
    fac = float(math.factorial(dv.n - 2))
    return fac * (dv.grad_sq * dv.lap - mixed)


# ---------------------------------------------------------------------------
# field dumps (save/restore interface used by the CLI)


def save_field(path, u: ScalarField) -> None:
    """Binary dump: magic, little-endian float64 header (n, points_per_axis,
    period = 1.0), then row-major node values as little-endian float64."""
    header = struct.pack(
        "<3d", float(u.geometry.n), float(u.geometry.points_per_axis), 1.0
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
    if period != 1.0:   # the header keeps a period slot; every torus has period 1
        raise ConfigurationError(f"{path}: dump period must be 1.0, got {period}")
    geom = TorusGeometry(n=int(n_f), points_per_axis=int(p_f))
    if geometry is not None and geometry != geom:
        raise ConfigurationError(
            f"{path}: dump geometry (n={geom.n}, points={geom.points_per_axis}) "
            f"does not match the declared geometry"
        )
    if len(payload) != 8 * geom.node_count:
        raise ConfigurationError(f"{path}: truncated dump")
    values = np.frombuffer(payload, dtype="<f8")
    return ScalarField(geom, values.reshape(geom.shape).astype(float))


# ---------------------------------------------------------------------------
# deterministic random fields for the identity suites


def random_band_limited(geom: TorusGeometry, rng: np.random.Generator,
                        max_mode: int = 2, amplitude: float = 1.0) -> np.ndarray:
    """Random real band-limited field with |mode| <= max_mode on every axis,
    rescaled to the requested max-norm amplitude."""
    w = rng.standard_normal(geom.shape)
    what = _rfft(w)
    mask = np.ones(geom.spectrum_shape, dtype=bool)
    half = geom.spectrum_shape[-1]
    for axis in range(2 * geom.n):
        # rfftn keeps modes 0 .. p/2 of the last axis
        mask &= np.abs(geom.mode_index(axis))[..., :half] <= max_mode
    u = _irfft(what * mask, geom)
    u -= u.mean()
    top = float(np.max(np.abs(u)))
    if top > 0.0:
        u *= amplitude / top
    return u
