"""Periodic grid and spectral complex calculus on the flat torus.

The domain is the flat complex torus of complex dimension n (n = 2 or 3),
realized as the unit cube [0, 1)^{2n} with coordinates ordered

    (x_1, y_1, x_2, y_2, ..., x_n, y_n),      z_j = x_j + i y_j,

and the background Kahler metric g = identity.  On this background every
curvature term of the general theory vanishes identically; that flat
specialization is what this module implements.

Derivatives are pseudospectral, taken one axis at a time: every row of the
bundle has a symbol in at most two axes, so it is at most two 1-D
derivatives, each a p x p Fourier differentiation matrix (Trefethen,
Spectral Methods in MATLAB, ch. 3) applied along its axis by one real
matmul.  derivative_matrices holds D1, the first derivative, and D2, the
second; they are circulant, and their eigenvalues are the 1-D factors of
derivative_symbols, the half-spectrum symbols the preconditioner freezes.
On the grids in use, p <= 64, the matmul costs less than a transform along
the axis (Boyd, Chebyshev and Fourier Spectral Methods, ch. 10), and every
derivative of a real field is a real array.
spectral_derivatives returns one real array of n^2 + 2n rows, in this
order:

    rows[a]                  d u / d(axis a)  for a = 0 .. 2n-1, that is
                             d/dx_1, d/dy_1, ..., d/dx_n, d/dy_n;
    rows[2n + j]             the diagonal Hessian entry u_{j jbar}
                             = (d^2/dx_j^2 + d^2/dy_j^2) u / 4;
    rows[3n + 2p], [+ 1]     Re and Im of the p-th strict-upper entry
                             u_{j kbar} = D_j D_kbar u, j < k, in the order
                             (1,2), (1,3), (2,3).

The diagonal rows are (D2 along x_j + D2 along y_j) / 4 and each mixed row
is D1 along x_k or y_k of a first partial in z_j: one stencil, formed slab
by slab (_slab_terms) but for the two matmuls along the first axis, d/dx_1
and u_{1 1bar}'s first term.  Those read every first-axis index, and a
block of the matrix's rows applied to the whole field gives the whole
matmul's bytes on the block (_along), so they are formed one block
(blocks), a run of slabs, at a time.  From it derivative_slabs writes the
bundle one slab at a time, either into the whole bundle's rows
(spectral_derivatives), holding u - u(0) in the slot of d/dy_n, the last
term of a slab that reads it, or into one reused slab buffer, so that a
caller can read a field's bundle without storing it; contract_derivatives
forms sum_r k[r] * rows[r] for coefficient rows k, block by block;
x1_partial_and_laplacian forms what the equation stores of its data f,
d/dx_1 and the Laplacian, the sum of the diagonal rows, which the bundle
does not store, from the diagonal terms alone.  Neither the bundle's walk
nor the operator apply holds a whole-grid first-axis term.
slab_partials gives f's other partials on a slab, one row at a time, by the
same matmuls.

The last n^2 rows are the packed layout in which every Hermitian form of
the package is held, as a plain real array (n^2,) + nodes: n real diagonal
entries, then the real and imaginary parts of each strict-upper entry in
upper_pairs order.  unpack_hermitian expands packed rows into the full
complex matrices that the verify suites and the tests check the packed
algebra against.  The holomorphic derivative is
D_j = (d/dx_j - i d/dy_j) / 2, so D_j u = (rows[2j] - i rows[2j+1]) / 2 and

    Re u_{j kbar} = (u_{x_j x_k} + u_{y_j y_k}) / 4,
    Im u_{j kbar} = (u_{x_j y_k} - u_{y_j x_k}) / 4.

Nyquist convention: on an even grid the mode k = p/2 has no partner of the
opposite sign, so an odd derivative of it is not a real field.  D1, every
first derivative, therefore maps its axis's Nyquist mode to zero; the mixed
second derivatives are products of two first derivatives and vanish there
too, while D2, the d^2/dx^2 of the diagonal entries, keeps -k^2 = -(pi p)^2.
With this convention derivatives of fields band-limited below the Nyquist
mode are exact to rounding.  Nonlinearities are formed pointwise in physical
space without dealiasing; the fields of interest are smooth and resolved,
and the refinement studies in the test suite expose aliasing when it
matters.

A field is a plain float64 array of TorusGeometry.shape, (p,) * 2n nodal
values.  The torus has volume 1, so a field's integral is its nodal mean,
trapezoidal-exact for periodic smooth integrands.  ScalarField is only the
record of a field dump, checked by load_field and written by save_field.

The bundle (Derivs) is the one way to differentiate a field: .partials,
.grad_sq, .lap and .hess_rows are read from its rows, the last three formed
on whatever nodes the rows are a view of, a stored bundle or one slab of
derivative_slabs.  slabs splits a grid into slabs of whole first-axis
indices, on which the package does its pointwise work so that every
temporary is one slab (_slab_terms, forms.map_slabs).

prolong carries a field from a grid to a finer one by zero-padding its half
spectrum; injection, x[::2, ...], is the way back (forms.ProblemData.restricted).
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

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


# Pointwise work on a grid array runs one slab of the first grid axis at a
# time, so that its temporaries are slab-sized: at most _SLAB_NODES nodes,
# whole first-axis indices, and at least one index per slab.
_SLAB_NODES = 2 ** 15


def slabs(shape: tuple):
    """Slices of the first axis of a grid of this shape, in order, that
    cover it: each holds as many whole first-axis indices as fit in
    _SLAB_NODES nodes, and at least one."""
    per_index = math.prod(shape[1:])
    width = max(1, _SLAB_NODES // per_index)
    for start in range(0, shape[0], width):
        yield slice(start, min(start + width, shape[0]))


def blocks(shape: tuple):
    """Slices of the first axis of a grid of this shape, in order, that
    cover it: runs of whole slabs (slabs), each of the fewest slabs that
    hold max(2, p/8) first-axis indices, the last cut at the axis's end
    (on a torus grid, p a power of two, the runs are equal).  The matmuls
    along the first axis are formed one block at a time (_along).  At least
    two indices, because a block of one row rounds differently from the
    whole matmul; at least p/8, because a block's matmul reads the whole
    grid array, and small blocks run slowly (one first-axis term on 64^4,
    2 cores: 80 ms whole, 95 ms in eight-row blocks, 230 ms in two-row
    blocks)."""
    slab = next(slabs(shape)).stop
    width = slab * -(-max(2, shape[0] // 8) // slab)
    for start in range(0, shape[0], width):
        yield slice(start, min(start + width, shape[0]))


# ---------------------------------------------------------------------------
# spectral derivatives
#
# Derivatives are matmuls with p x p matrices, and the solver's reductions
# are einsum sums in a fixed order, so outputs are bitwise reproducible
# whatever the BLAS thread count.  The FFTs that remain (the
# preconditioner's, random_band_limited's) are numpy's pocketfft, one
# thread, one axis at a time, each pass written into the one spectrum.


def _rfft(values: np.ndarray) -> np.ndarray:
    """The rfftn half spectrum of a real grid array: the last axis's real
    transform, then every other axis's complex one, all in one new array."""
    spectrum = np.empty(values.shape[:-1] + (values.shape[-1] // 2 + 1,), dtype=complex)
    return np.fft.rfftn(values, axes=tuple(range(values.ndim)), out=spectrum)


def _irfft(spectrum: np.ndarray) -> np.ndarray:
    """The real grid array of an rfftn half spectrum, which is consumed: the
    inverse passes of all but the last axis are written over it.  Every grid
    axis has as many points as the spectrum's first."""
    for axis in range(spectrum.ndim - 1):
        np.fft.ifft(spectrum, axis=axis, out=spectrum)
    return np.fft.irfft(spectrum, n=spectrum.shape[0], axis=-1)


def prolong(u: np.ndarray, p: int) -> np.ndarray:
    """The trigonometric interpolant of the grid array u, of q points per
    axis, sampled on the grid of p >= q points per axis: u's rfftn half
    spectrum zero-padded to p modes per axis, with the coarse Nyquist
    planes (mode q/2 of each axis) dropped, since their sign has no partner.
    Exact on fields band-limited below q/2, and injection of the result,
    x[::p // q, ...], gives back u less its Nyquist part.

    The spectrum is padded and inverted one axis at a time, so no pass
    transforms a line that is all zeros."""
    q = u.shape[0]
    h = q // 2
    kept = np.r_[0:h, h + 1:q]          # coarse modes 0 .. q/2-1, -q/2+1 .. -1
    placed = np.r_[0:h, p - h + 1:p]    # the same modes in the fine order
    spectrum = _rfft(u)[np.ix_(*[kept] * (u.ndim - 1), np.arange(h))]
    spectrum *= (p / q) ** u.ndim   # numpy's inverse divides by the node count
    for axis in range(u.ndim - 1):
        padded = np.zeros(spectrum.shape[:axis] + (p,) + spectrum.shape[axis + 1:],
                          dtype=complex)
        padded[(slice(None),) * axis + (placed,)] = spectrum
        spectrum = np.fft.ifft(padded, axis=axis, out=padded)
    # irfft pads the last axis's modes h .. p/2 with zeros itself
    return np.fft.irfft(spectrum, n=p, axis=-1)


def _wavenumbers(p: int) -> tuple:
    """(k, k_odd): the angular wavenumbers of one axis's p modes in fftfreq
    order, and a copy with the Nyquist mode zeroed for odd derivatives (see
    the module docstring)."""
    k = 2.0 * np.pi * np.fft.fftfreq(p, d=1.0 / p)
    k_odd = k.copy()
    k_odd[p // 2] = 0.0
    return k, k_odd


def derivative_symbols(geom: TorusGeometry) -> tuple:
    """Half-spectrum symbols of the n^2 + 2n rows of spectral_derivatives, in
    row order, each broadcastable to geom.spectrum_shape.

    First derivatives are i k_a (complex); the Hessian rows are real.  They
    are the eigenvalues of the matrices of derivative_matrices, which the
    bundle and the operator apply are computed with; the preconditioner
    freezes its operator in them.  Not cached: for n = 2 the mixed symbols
    are as large as the spectrum."""
    n = geom.n
    p = geom.points_per_axis
    k, k_odd = _wavenumbers(p)
    k_even, k_first = [], []
    for axis in range(2 * n):
        # rfftn keeps modes 0 .. p/2 of the last axis; the Nyquist entry is
        # -p/2 in fftfreq order, which only its square or its zero reaches
        modes = slice(p // 2 + 1) if axis == 2 * n - 1 else slice(None)
        k_even.append(geom.along(axis, k[modes]))
        k_first.append(geom.along(axis, k_odd[modes]))
    syms = [1j * k for k in k_first]
    for j in range(n):
        syms.append(-0.25 * (k_even[2 * j] ** 2 + k_even[2 * j + 1] ** 2))
    for j, k in upper_pairs(n):
        xj, yj, xk, yk = k_first[2 * j], k_first[2 * j + 1], k_first[2 * k], k_first[2 * k + 1]
        syms.append(-0.25 * (xj * xk + yj * yk))
        syms.append(-0.25 * (xj * yk - yj * xk))
    return tuple(syms)


@functools.lru_cache(maxsize=8)
def derivative_matrices(p: int) -> tuple:
    """(D1, D2): the p x p Fourier differentiation matrices of one axis of p
    nodes, read-only.  D1 is the first derivative, with the Nyquist mode
    zeroed; D2 is the second derivative, which keeps -k^2 there.  Both are
    circulant, built by transforming the identity with the wavenumbers of
    derivative_symbols, so their eigenvalues are its 1-D factors."""
    k, k_odd = _wavenumbers(p)
    eye_hat = np.fft.fft(np.eye(p), axis=0)
    mats = []
    for sym in (1j * k_odd, -k * k):
        m = np.ascontiguousarray(np.fft.ifft(sym[:, None] * eye_hat, axis=0).real)
        m.setflags(write=False)
        mats.append(m)
    return tuple(mats)


def _along(d: np.ndarray, u: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """The p x p matrix d applied along one axis of the contiguous array u,
    a grid array or a slab of one (torus.slabs), by one matmul written into
    out, a contiguous array of u's shape; returns out.

    Along the first axis d may also be a block of the matrix's rows,
    d[at] for a block `at` (blocks), applied to the whole grid array u:
    out then holds those first-axis indices, the same bytes as the whole
    matmul's.  A block of one row would go through gemv and round
    differently, by up to 5e-14 on 32^4."""
    p = d.shape[1]
    if axis == u.ndim - 1:
        np.matmul(u.reshape(-1, p), d.T, out=out.reshape(-1, p))
    else:
        lead = math.prod(u.shape[:axis])
        np.matmul(d, u.reshape(lead, p, -1), out=out.reshape(lead, len(d), -1))
    return out


def _buffer(count: int, spans, shape: tuple) -> np.ndarray:
    """count arrays of the grid shape's trailing axes and as many first-axis
    indices as the longest of the first-axis slices spans, uninitialized."""
    return np.empty((count, max(at.stop - at.start for at in spans)) + shape[1:])


@dataclass(frozen=True)
class Derivs:
    """Bundle of the spectral derivatives of one scalar field: its rows
    alone, (n^2 + 2n,) + nodes, real, in the order of the module docstring.

    Views of the rows share their one buffer, and Derivs(dv.rows[:, at]) is
    the bundle on the nodes `at` indexes, a view.  Every property is read
    from the rows on the nodes they hold, so on a slab it forms one slab."""

    rows: np.ndarray

    @property
    def n(self) -> int:
        return (self.rows.ndim - 1) // 2

    @property
    def partials(self) -> np.ndarray:
        """The 2n real first partials, (2n,) + nodes."""
        return self.rows[:2 * self.n]

    @property
    def hess_rows(self) -> np.ndarray:
        """The complex Hessian in packed Hermitian rows, (n^2,) + nodes."""
        return self.rows[2 * self.n:]

    @property
    def lap(self) -> np.ndarray:
        """The complex Laplacian sum_j u_{j jbar}, the sum of the n diagonal
        rows, a new array."""
        return np.sum(self.rows[2 * self.n:3 * self.n], axis=0)

    @property
    def grad_sq(self) -> np.ndarray:
        """|Du|^2 = sum_j |D_j u|^2, a quarter of the sum of squared partials."""
        p = self.partials
        return 0.25 * np.einsum("a...,a...->...", p, p)


def _slab_terms(v: np.ndarray, x1: np.ndarray, scratch: np.ndarray):
    """Every derivative term of the grid array whose slab is v but those of
    u_{1 1bar}, yielded as (row, term) one z_j at a time: u_{j jbar}'s two
    terms summed, the partials in x_j and y_j, then the four terms of each
    u_{j kbar}, k > j, from those partials, Re's two first.  x1 is the slab
    of the partial along the first axis, formed by block (blocks), since
    that matmul reads every first-axis index; a matmul along a later axis
    gives its bytes on a slab.  Each other term is in scratch.  A consumer
    may overwrite a Hessian row's term, not a partial's, and scratch[0]
    while a partial is yielded.

    u_{1 1bar} is the caller's: q2 = D2 / 4 along the first axis, formed
    by block, plus q2 along y_1, formed on the slab."""
    n = v.ndim // 2
    d1, d2 = derivative_matrices(v.shape[-1])
    q1, q2 = 0.25 * d1, 0.25 * d2   # exact: the quarter of each Hessian row
    row, py, later_px = scratch[:, :len(v)]
    for j in range(n):
        xj, yj = 2 * j, 2 * j + 1
        if j == 0:
            px = x1
        else:
            diag = _along(q2, v, xj, later_px)
            diag += _along(q2, v, yj, row)
            yield 2 * n + j, diag
            px = _along(d1, v, xj, later_px)
        yield xj, px
        yield yj, _along(d1, v, yj, py)
        for r, (i, m) in enumerate(upper_pairs(n)):
            if i == j:
                # Im u_{j mbar} = (u_{x_j y_m} - u_{y_j x_m}) / 4; -q1 negates exactly
                re, im = 3 * n + 2 * r, 3 * n + 2 * r + 1
                for dest, d, x, axis in ((re, q1, px, 2 * m), (re, q1, py, 2 * m + 1),
                                         (im, q1, px, 2 * m + 1), (im, -q1, py, 2 * m)):
                    yield dest, _along(d, x, axis, row)


def x1_partial_and_laplacian(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d u / d x_1, Lap u): what the equation stores of its data f, equal
    byte for byte to the bundle's first row and Laplacian.  Both
    differentiate w = u - u(0), as spectral_derivatives does: the two
    matmuls along the first axis, d/dx_1 and u_{1 1bar}'s first term, on
    the whole range of first-axis indices, written into the two results;
    then the Laplacian adds u_{1 1bar}'s second term and the other diagonal
    rows slab by slab in np.sum's order, each u_{j jbar}, j > 1, as
    _slab_terms sums it.  w, the two results and two slabs are all it
    holds."""
    w = np.subtract(u, u.flat[0])
    d1, d2 = derivative_matrices(u.shape[0])
    q2 = 0.25 * d2
    lap = _along(q2, w, 0, np.empty(u.shape))
    x1 = _along(d1, w, 0, np.empty(u.shape))
    scratch = _buffer(2, slabs(u.shape), u.shape)
    for at in slabs(u.shape):
        diag, other = scratch[:, :at.stop - at.start]
        lap[at] += _along(q2, w[at], 1, diag)
        for xj in range(2, u.ndim, 2):
            _along(q2, w[at], xj, diag)
            diag += _along(q2, w[at], xj + 1, other)
            lap[at] += diag
    return x1, lap


def slab_partials(u: np.ndarray, x1: np.ndarray, at=...):
    """The 2n first partials of the grid array u on the nodes `at` indexes,
    a slab of the first axis (torus.slabs; every node by default), yielded
    one at a time in row order and equal byte for byte to the bundle's
    rows.  Each is written into one slab of scratch, which the consumer may
    overwrite and the next row does.

    The partial along the first axis is copied from x1, that partial on the
    whole grid (x1_partial_and_laplacian): a matmul along the first axis
    reads every first-axis index of u - u(0), a grid array, and a slab of
    one index would take it by gemv, which rounds differently (_along).
    Every other partial is D1 along its axis applied to the slab of
    u - u(0): the same matmul, the same bytes."""
    out = x1[at].copy()
    yield out
    d1 = derivative_matrices(u.shape[0])[0]
    w = np.subtract(u[at], u.flat[0])
    for axis in range(1, u.ndim):
        yield _along(d1, w, axis, out)


def derivative_slabs(u: np.ndarray, rows: np.ndarray | None = None):
    """The bundle of the field u slab by slab (slabs): yields (at, g) for
    each slab `at`, in order, g = Derivs of the bytes of
    spectral_derivatives(u).rows[:, at].  g is a view of `rows`, a buffer of
    the bundle's shape that holds the whole bundle once the walk ends, or,
    when rows is None, of one slab buffer that the next slab overwrites.

    Every term is formed from w = u - u(0).  The two matmuls along the
    first axis, d/dx_1 and u_{1 1bar}'s first term, read every first-axis
    index of w, and are formed one block (blocks) at a time before that
    block's slabs; every other term is formed from the slab of w, and each
    mixed row is its first term plus its second.  So a constant field has
    rows of exact zeros.  With rows, w is held in the slot of d/dy_n, the
    last term of a slab that reads it (_slab_terms), so its first-axis
    terms are formed on the whole range of indices first, into their own
    rows: the rows and three slabs are all the walk holds.  Without, it
    holds w, a block of each first-axis term, a slab of the bundle and
    three slabs: 1.6 grid arrays on 32^4."""
    n = u.ndim // 2
    d1, d2 = derivative_matrices(u.shape[0])
    q2 = 0.25 * d2
    scratch = _buffer(3, slabs(u.shape), u.shape)
    if rows is None:
        w = np.subtract(u, u.flat[0])
        spans = list(blocks(u.shape))
        x1s, diags = _buffer(2, spans, u.shape)
        buf = _buffer(n * n + 2 * n, slabs(u.shape), u.shape)
    else:
        w = np.subtract(u, u.flat[0], out=rows[2 * n - 1])
        spans = [slice(0, u.shape[0])]
        x1s, diags = rows[0], rows[2 * n]
    for blk in spans:
        x1 = _along(d1[blk], w, 0, x1s[:blk.stop - blk.start])
        diag = _along(q2[blk], w, 0, diags[:blk.stop - blk.start])
        for at in slabs(x1.shape):   # the block's slabs, counted from its start
            on = slice(blk.start + at.start, blk.start + at.stop)
            g = buf[:, :at.stop - at.start] if rows is None else rows[:, on]
            np.add(diag[at], _along(q2, w[on], 1, scratch[0, :at.stop - at.start]),
                   out=g[2 * n])
            last = None
            for r, term in _slab_terms(w[on], x1[at], scratch):
                if r == last:
                    g[r] += term
                else:
                    g[r] = term
                last = r
            yield on, Derivs(g)


def spectral_derivatives(u: np.ndarray) -> Derivs:
    """First partials and packed complex Hessian of the field u, written
    straight into the bundle's single array by the walk of
    derivative_slabs: the rows and three slabs are all it holds."""
    n = u.ndim // 2
    rows = np.empty((n * n + 2 * n,) + u.shape)
    for _ in derivative_slabs(u, rows):
        pass
    return Derivs(rows)


def constant_derivatives(geom: TorusGeometry) -> Derivs:
    """The bundle of a constant field, every row 0, built without
    differentiating."""
    return Derivs(np.zeros((geom.n * geom.n + 2 * geom.n,) + geom.shape))


def contract_derivatives(k: np.ndarray, values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out + sum_r k[r] * (row r of spectral_derivatives(values)) for a real
    grid array, without building its bundle, from the bundle's terms, one
    block (blocks) at a time: k * u_{1 1bar} on the block, its first term
    by the matmul along the first axis and its second added slab by slab;
    then d/dx_1 on the block, in the same array; then each slab's terms
    (_slab_terms) in their order, each scaled by its coefficient row and
    added to out, which is returned.  Each node's terms are added in the
    same order on any block and slab, so out is the same bytes as the
    whole grid's; out, a block of first-axis terms and three slabs are all
    it holds."""
    n = values.ndim // 2
    d1, d2 = derivative_matrices(values.shape[0])
    q2 = 0.25 * d2
    scratch = _buffer(3, slabs(values.shape), values.shape)
    spans = list(blocks(values.shape))
    (block,) = _buffer(1, spans, values.shape)
    for blk in spans:
        v, kb, ob = values[blk], k[:, blk], out[blk]
        diag = _along(q2[blk], values, 0, block[:blk.stop - blk.start])
        for at in slabs(v.shape):   # the block's slabs, counted from its start
            diag[at] += _along(q2, v[at], 1, scratch[0, :at.stop - at.start])
        diag *= kb[2 * n]
        ob += diag
        x1 = _along(d1[blk], values, 0, diag)
        for at in slabs(v.shape):
            kk, acc = kb[:, at], ob[at]
            for r, term in _slab_terms(v[at], x1[at], scratch):
                if r < 2 * n:   # a partial, which later terms read
                    term = np.multiply(kk[r], term, out=scratch[0, :len(term)])
                else:
                    term *= kk[r]
                acc += term
    return out


def mixed_wedge_density(dv: Derivs) -> np.ndarray:
    """Scalar density of i du ^ dbar u ^ i ddbar u ^ omega^{n-2} against
    omega^n/n!, from u's bundle, on the nodes it holds:

        (n-2)! * ( |Du|^2 Lap(u) - sum_{j,k} D_j u conj(D_k u) u_{k jbar} ),

    which at a node where the Hessian is diagonal reduces to
    (n-2)! * sum_i |u_i|^2 (Lap(u) - u_{i ibar}).  It is real algebra on the
    packed rows, as forms.sigma2_field is: with x_j, y_j the partials, each
    pair j < k adds 2 Re(conj(D_j u) D_k u u_{j kbar}) to the contraction,
    ((x_j x_k + y_j y_k) Re u_{j kbar} + (x_j y_k - y_j x_k) Im u_{j kbar}) / 2.
    """
    n, h, x, y = dv.n, dv.hess_rows, dv.partials[0::2], dv.partials[1::2]
    out = dv.grad_sq * dv.lap
    for j in range(n):
        out -= 0.25 * (x[j] * x[j] + y[j] * y[j]) * h[j]
    for r, (j, k) in enumerate(upper_pairs(n)):
        re, im = h[n + 2 * r], h[n + 2 * r + 1]
        out -= 0.5 * ((x[j] * x[k] + y[j] * y[k]) * re + (x[j] * y[k] - y[j] * x[k]) * im)
    return math.factorial(n - 2) * out


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
        fh.write(np.ascontiguousarray(u.values, dtype="<f8"))


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
    u = _irfft(what * mask)
    u -= u.mean()
    top = float(np.max(np.abs(u)))
    if top > 0.0:
        u *= amplitude / top
    return u
