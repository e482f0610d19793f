"""Spectral calculus on the torus: exactness, quadrature, wedge density, dumps."""

import dataclasses
import math
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma2lab import torus
from sigma2lab.errors import ConfigurationError
from sigma2lab.forms import LinearCoefficients, sigma2_field
from sigma2lab.torus import (
    ScalarField,
    TorusGeometry,
    constant_derivatives,
    contract_derivatives,
    derivative_matrices,
    fourier_basis,
    inverse_laplacian,
    load_field,
    mixed_wedge_density,
    random_band_limited,
    save_field,
    spectral_derivatives,
    unpack_hermitian,
)


def mode_field(geom, axis, periods=1):
    x = geom.coordinate(axis) * np.ones(geom.shape)
    return x, 2.0 * np.pi * periods


class TestGeometry:
    def test_node_counts_and_unit_volume(self):
        g2 = TorusGeometry(2, 16)
        assert g2.node_count == 16 ** 4
        assert np.mean(np.full(g2.shape, 1.0)) == 1.0
        g3 = TorusGeometry(3, 8)
        assert g3.node_count == 8 ** 6
        assert np.mean(np.full(g3.shape, 1.0)) == 1.0

    def test_rejects_bad_grids(self):
        with pytest.raises(ConfigurationError):
            TorusGeometry(2, 10)  # not a power of two
        with pytest.raises(ConfigurationError):
            TorusGeometry(2, 4)   # too coarse
        with pytest.raises(ConfigurationError):
            TorusGeometry(4, 16)  # unsupported dimension

    def test_field_shape_validation(self, geom2):
        with pytest.raises(ConfigurationError):
            ScalarField(geom2, np.zeros((3, 3)))
        with pytest.raises(ConfigurationError):
            ScalarField(geom2, np.full(geom2.shape, np.inf))


def complex_grad(dv):
    """The complex gradient D_j u = (rows[2j] - i rows[2j+1]) / 2 of a
    bundle, (n,) + grid."""
    p = dv.partials
    return 0.5 * (p[0::2] - 1j * p[1::2])


def complex_hess(dv):
    """The full complex Hessian D_j D_kbar u of a bundle, (n, n) + grid."""
    return unpack_hermitian(dv.hess_rows, dv.n)


def whole_grid_bundle(u):
    """The bundle's rows of u built on the whole grid, one row at a time:
    w = u - u(0) in the last row's slot, one scratch array, every matmul
    on the whole grid array."""
    n = u.ndim // 2
    d1, d2 = torus.derivative_matrices(u.shape[0])
    q1, q2 = 0.25 * d1, 0.25 * d2
    rows = np.empty((n * n + 2 * n,) + u.shape)
    term = np.empty(u.shape)
    w = np.subtract(u, u.flat[0], out=rows[-1])
    for a in range(2 * n):
        torus._along(d1, w, a, rows[a])
    for j in range(n):
        diag = torus._along(q2, w, 2 * j, rows[2 * n + j])
        diag += torus._along(q2, w, 2 * j + 1, term)
    for r, (j, k) in enumerate(torus.upper_pairs(n)):
        px, py = rows[2 * j], rows[2 * j + 1]
        re, im = rows[3 * n + 2 * r], rows[3 * n + 2 * r + 1]
        torus._along(q1, px, 2 * k, re)
        re += torus._along(q1, py, 2 * k + 1, term)
        torus._along(q1, px, 2 * k + 1, im)
        im -= torus._along(q1, py, 2 * k, term)
    return rows


def grad(u):
    """The complex gradient D_j u, (n,) + grid, from u's bundle."""
    return complex_grad(spectral_derivatives(u))


def lap(u):
    """The complex Laplacian of u from its bundle."""
    return spectral_derivatives(u).lap


class TestDHolo:
    def test_cosine_mode(self, geom2):
        x, w = mode_field(geom2, 0)
        u = np.cos(w * x)
        got = grad(u)[0]
        want = -0.5 * w * np.sin(w * x)  # d/dx of cos, halved; no y dependence
        assert np.max(np.abs(got - want)) < 1e-11

    def test_constant_is_flat(self, geom2):
        assert np.max(np.abs(grad(np.full(geom2.shape, 3.7))[0])) == 0.0

    def test_wrong_axis_kills_derivative(self, geom2):
        x, w = mode_field(geom2, 2)  # depends on x_2 only
        u = np.sin(w * x)
        assert np.max(np.abs(grad(u)[0])) < 1e-12

    def test_y_derivative_imaginary_part(self, geom2):
        # D_1 = (d/dx_1 - i d/dy_1)/2: a pure y_1 mode lands in the imaginary part
        y, w = mode_field(geom2, 1)
        u = np.cos(w * y)
        got = grad(u)[0]
        want = 0.5j * w * np.sin(w * y)
        assert np.max(np.abs(got - want)) < 1e-11

    def test_derivatives_integrate_to_zero(self, geom2, rng):
        u = random_band_limited(geom2, rng, 3, 1.0)
        for uj in grad(u):
            assert abs(np.mean(uj)) < 1e-12


class TestComplexHessian:
    def test_constant(self, geom2):
        h = complex_hess(spectral_derivatives(np.full(geom2.shape, 1.0)))
        assert np.max(np.abs(h)) == 0.0

    def test_cosine_mode_entry(self, geom2):
        # D_1 D_1bar = (d^2/dx_1^2 + d^2/dy_1^2)/4 on real fields
        x, w = mode_field(geom2, 0)
        u = np.cos(w * x)
        h = complex_hess(spectral_derivatives(u))
        want = -0.25 * w * w * np.cos(w * x)
        assert np.max(np.abs(h[0, 0] - want)) < 1e-10
        assert np.max(np.abs(h[0, 1])) < 1e-12

    def test_sparsity_for_single_axis_field(self, geom2):
        y, w = mode_field(geom2, 3)  # function of y_2 only
        u = np.sin(w * y)
        h = complex_hess(spectral_derivatives(u))
        assert np.max(np.abs(h[1, 1])) > 1.0
        for j, k in ((0, 0), (0, 1), (1, 0)):
            assert np.max(np.abs(h[j, k])) < 1e-12

    def test_hermitian_at_every_node(self, geom2, rng):
        u = random_band_limited(geom2, rng, 3, 1.0)
        h = complex_hess(spectral_derivatives(u))
        skew = h - np.conj(np.swapaxes(h, 0, 1))
        assert np.max(np.abs(skew)) <= 1e-13 * (1.0 + np.max(np.abs(h)))


class TestSpectralDerivatives:
    @staticmethod
    def reference_rows(u):
        """The bundle's rows from full complex numpy FFTs and complex symbols."""
        n, p = u.ndim // 2, u.shape[0]
        uhat = np.fft.fftn(u)
        ks = []
        for axis in range(2 * n):
            shape = [1] * (2 * n)
            shape[axis] = p
            ks.append((2.0 * np.pi * np.fft.fftfreq(p, d=1.0 / p)).reshape(shape))
        rows = [np.fft.ifftn(1j * k * uhat) for k in ks]
        holo = [0.5 * (1j * ks[2 * j] + ks[2 * j + 1]) for j in range(n)]
        anti = [0.5 * (1j * ks[2 * j] - ks[2 * j + 1]) for j in range(n)]
        rows += [np.fft.ifftn(holo[j] * anti[j] * uhat) for j in range(n)]
        for j in range(n):
            for k in range(j + 1, n):
                entry = np.fft.ifftn(holo[j] * anti[k] * uhat)
                rows += [entry.real, entry.imag]
        return [np.real_if_close(r, tol=1e6) for r in rows]

    @pytest.mark.parametrize("which", ["geom2", "geom3", "geom2_32"])
    def test_against_full_complex_reference(self, which, request, rng):
        # band-limited below the Nyquist mode, where no convention is needed
        geom = request.getfixturevalue(which)
        u = random_band_limited(geom, rng, geom.points_per_axis // 2 - 1, 1.0)
        dv = spectral_derivatives(u)
        want = self.reference_rows(u)
        assert dv.rows.shape == (len(want),) + geom.shape
        for got, ref in zip(dv.rows, want):
            assert not np.iscomplexobj(ref)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        n = geom.n
        assert np.array_equal(dv.lap, dv.rows[2 * n:3 * n].sum(axis=0))

    @pytest.mark.parametrize("which", ["geom2", "geom3"])
    def test_contraction_is_the_weighted_sum_of_rows(self, which, request, rng):
        # the operator apply sums its terms in another order than the
        # bundle's rows, so it agrees to rounding, not bitwise
        geom = request.getfixturevalue(which)
        u = random_band_limited(geom, rng, 3, 1.0)
        rows = spectral_derivatives(u).rows
        k = rng.standard_normal(rows.shape)
        want = np.einsum("r...,r...->...", k, rows)
        scale = np.max(np.einsum("r...,r...->...", np.abs(k), np.abs(rows)))
        got = contract_derivatives(k, u, np.zeros(geom.shape))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("which", ["geom2", "geom3", "geom2_32"])
    def test_contraction_same_bytes_as_whole_grid_terms(self, which, request, rng):
        # block by block and slab by slab, each node's terms are added in
        # the order of the whole-grid algorithm, which holds two partials
        # and a row whole; on 32^4 a block is four slabs
        def whole_grid_contraction(k, values, out):
            n = values.ndim // 2
            d1, d2 = torus.derivative_matrices(values.shape[0])
            q1, q2 = 0.25 * d1, 0.25 * d2
            px, py, row = (np.empty(values.shape) for _ in range(3))
            pairs = list(enumerate(torus.upper_pairs(n)))
            for j in range(n):
                xj, yj = 2 * j, 2 * j + 1
                diag = torus._along(q2, values, xj, px)
                diag += torus._along(q2, values, yj, row)
                diag *= k[2 * n + j]
                out += diag
                out += np.multiply(k[xj], torus._along(d1, values, xj, px), out=row)
                out += np.multiply(k[yj], torus._along(d1, values, yj, py), out=row)
                for r, (i, m) in pairs:
                    if i == j:
                        re, im = k[3 * n + 2 * r], k[3 * n + 2 * r + 1]
                        for coef, d, x, axis in ((re, q1, px, 2 * m), (re, q1, py, 2 * m + 1),
                                                 (im, q1, px, 2 * m + 1), (im, -q1, py, 2 * m)):
                            torus._along(d, x, axis, row)
                            row *= coef
                            out += row
            return out

        geom = request.getfixturevalue(which)
        u = random_band_limited(geom, rng, 3, 1.0)
        k = rng.standard_normal((geom.n * geom.n + 2 * geom.n,) + geom.shape)
        start = rng.standard_normal(geom.shape)
        got = contract_derivatives(k, u, start.copy())
        assert got.tobytes() == whole_grid_contraction(k, u, start.copy()).tobytes()

    @pytest.mark.parametrize("which", ["geom2", "geom2_32", "geom3"])
    @pytest.mark.parametrize("field", ["band-limited", "constant"])
    def test_bundle_same_bytes_as_whole_grid_rows(self, which, field, request, rng):
        # slab by slab, each row is formed from the same terms, added in the
        # same order, as the whole-grid build (whole_grid_bundle); a
        # constant field has rows of exact zeros either way
        geom = request.getfixturevalue(which)
        if field == "constant":
            u = np.full(geom.shape, -np.log(0.1) + 0.37)
        else:
            u = random_band_limited(geom, rng, 3, 1.0)
        got, want = spectral_derivatives(u).rows, whole_grid_bundle(u)
        assert got.tobytes() == want.tobytes()
        assert got.any() == (field != "constant")
        # walked without rows, each slab's bundle is written into one reused
        # slab buffer, and is the same bytes
        walked = []
        for at, g in torus.derivative_slabs(u):
            assert g.rows.tobytes() == want[:, at].tobytes()
            walked.append(at)
        assert walked == list(torus.slabs(geom.shape))

    @pytest.mark.parametrize("which", ["geom2", "geom2_32", "geom3"])
    def test_ragged_chunks_same_bytes_as_whole_grid(self, which, request, rng, monkeypatch):
        # chunks of 1000 columns, which divide no trailing node count here
        # (4096 on 16^4, 32768 on 32^4 and 8^6), so the last chunk is
        # shorter: the unstored walk and f's stored derivatives are still
        # the whole grid's bytes, and so is the stored walk, whose one chunk
        # is its row of d/dy_n.  1000 and the
        # remainders are multiples of 8 columns, as the package's power-of-
        # two widths are; a chunk of 750 columns, or of 2, rounds
        # differently on 16^4 with OpenBLAS's Haswell kernel
        geom = request.getfixturevalue(which)
        p = geom.points_per_axis
        monkeypatch.setattr(torus, "_CHUNK_NODES", 1000 * p)
        assert (geom.node_count // p) % 1000 != 0
        u = random_band_limited(geom, rng, 3, 1.0)
        want = whole_grid_bundle(u)
        assert spectral_derivatives(u).rows.tobytes() == want.tobytes()
        for at, g in torus.derivative_slabs(u):
            assert g.rows.tobytes() == want[:, at].tobytes()
        x1, lap = torus.x1_partial_and_laplacian(u)
        assert x1.tobytes() == want[0].tobytes()
        assert lap.tobytes() == torus.Derivs(want).lap.tobytes()

    @staticmethod
    def walk_peak(geom, rng, traced_peak):
        """The traced peak of a walk over a field's bundle that stores
        none of it, in grid arrays."""
        u = random_band_limited(geom, rng, 3, 1.0)

        def walk():
            for _ in torus.derivative_slabs(u):
                pass

        return traced_peak(walk) / (geom.node_count * 8)

    @pytest.mark.parametrize("which, budget", [("geom2_32", 0.75), ("geom2", 7.0)])
    def test_slab_walk_memory(self, which, budget, request, rng, traced_peak):
        # a block of each first-axis term, a chunk of columns, a slab of the
        # bundle and three slabs of terms.  On 32^4 a block is 4 of 32
        # indices and the bundle 8 grid arrays: 0.62 (1.60 when the walk
        # held w = u - u(0) whole, 3.10 with the two first-axis terms formed
        # whole too).  On 16^4 a slab and a block are half the grid, and the
        # chunk, sized by nodes, not by the slab, a quarter: 6.89 (7.53 with
        # w held whole)
        geom = request.getfixturevalue(which)
        assert self.walk_peak(geom, rng, traced_peak) <= budget

    def test_slab_walk_memory_n3(self, geom3, rng, traced_peak):
        # the same on 8^6, where a block is 2 of 8 indices and a slab of the
        # bundle is 15/8 grid arrays: 2.85 (3.75 with w held whole, 4.25
        # with the whole first-axis terms too)
        assert self.walk_peak(geom3, rng, traced_peak) <= 3.0

    @pytest.mark.parametrize("which, slack", [("geom2_32", 0.25), ("geom3", 0.5)])
    def test_build_memory(self, which, slack, request, rng, traced_peak):
        # the n^2 + 2n rows and three slabs of terms: 8.10 grid arrays on
        # 32^4 and 15.38 on 8^6 (a whole-grid build with one scratch array
        # gave 9.00 and 16.00)
        geom = request.getfixturevalue(which)
        u = random_band_limited(geom, rng, 3, 1.0)
        budget = geom.n * geom.n + 2 * geom.n + slack
        assert traced_peak(spectral_derivatives, u) <= budget * geom.node_count * 8

    def test_no_transform_in_bundle_or_apply(self, geom3, rng, monkeypatch):
        # every derivative is a matmul along one axis; only prolong and
        # random_band_limited transform
        u = random_band_limited(geom3, rng, 2, 1.0)
        k = rng.standard_normal((15,) + geom3.shape)

        def no_transform(*args, **kwargs):
            raise AssertionError("transformed")

        for name in ("fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, no_transform)
        dv = spectral_derivatives(u)
        got = LinearCoefficients(k, u).apply_to(u)
        assert np.all(np.isfinite(dv.rows)) and np.all(np.isfinite(got))

    @pytest.mark.parametrize("which", ["geom2", "geom3"])
    def test_constant_bundle_is_the_transform_of_a_constant(self, which, request):
        # the bundle differentiates u - u(0), so a constant field has rows of
        # exact zeros (some of them may be -0.0), equal to the zero bundle
        geom = request.getfixturevalue(which)
        dv = spectral_derivatives(np.full(geom.shape, -np.log(0.1) + 0.37))
        zero = constant_derivatives(geom)
        assert np.array_equal(zero.rows, dv.rows) and np.array_equal(zero.lap, dv.lap)
        assert zero.rows.shape == dv.rows.shape and not zero.rows.any()

    @pytest.mark.parametrize("which", ["geom2", "geom3"])
    def test_bundle_holds_only_its_rows(self, which, request, rng):
        # every array the bundle reaches, through .base, is counted once:
        # the n^2 + 2n rows, nothing a view would pin; the Laplacian is
        # summed from the diagonal rows where it is read (a stored one made
        # n^2 + 2n + 1)
        geom = request.getfixturevalue(which)
        n = geom.n
        dv = spectral_derivatives(random_band_limited(geom, rng, 2, 1.0))
        roots = {}
        for f in dataclasses.fields(dv):
            arr = getattr(dv, f.name)
            while arr.base is not None:
                arr = arr.base
            roots[id(arr)] = arr.nbytes
        grid_bytes = geom.node_count * 8
        assert sum(roots.values()) <= (n * n + 2 * n) * grid_bytes


class TestDerivativeMatrices:
    @pytest.mark.parametrize("p", [8, 16, 32])
    def test_eigenvalues_are_the_symbols(self, p):
        # D1 and D2 are circulant, diagonalized by the Fourier modes with the
        # symbols of _wavenumbers as eigenvalues: i k with the Nyquist mode
        # zeroed, and -k^2 with it kept
        k, k_odd = torus._wavenumbers(p)
        d1, d2 = derivative_matrices(p)
        assert not d1.flags.writeable and not d2.flags.writeable
        modes = np.exp(2j * np.pi * np.outer(np.arange(p), np.fft.fftfreq(p, d=1.0 / p)) / p)
        for d, lam in ((d1, 1j * k_odd), (d2, -k * k)):
            top = np.max(np.abs(d))
            assert np.max(np.abs(np.roll(d, (1, 1), axis=(0, 1)) - d)) <= 1e-12 * top
            assert np.max(np.abs(d @ modes - modes * lam)) <= 1e-12 * np.max(np.abs(lam))
        nyquist = (-1.0) ** np.arange(p)
        assert np.max(np.abs(d1 @ nyquist)) <= 1e-12 * np.max(np.abs(d1))
        big = (np.pi * p) ** 2
        assert np.max(np.abs(d2 @ nyquist + big * nyquist)) <= 1e-12 * big

    @pytest.mark.parametrize("p", [8, 16, 32])
    def test_real_basis_diagonalizes_d2(self, p):
        # the rows of C are orthonormal, and C D2 C^T is diagonal with each
        # row's -k^2: 0 on the constant, -(2 pi m)^2 on the cosine and the
        # sine of mode m, -(pi p)^2 on the Nyquist row
        c, lam = fourier_basis(p)
        assert not c.flags.writeable and not lam.flags.writeable
        assert np.max(np.abs(c @ c.T - np.eye(p))) <= 1e-14
        modes = np.r_[0, np.repeat(np.arange(1, p // 2), 2), p // 2]
        assert np.array_equal(lam, -(2.0 * np.pi * modes) ** 2)
        big = (np.pi * p) ** 2
        assert np.max(np.abs(c @ derivative_matrices(p)[1] @ c.T - np.diag(lam))) <= 1e-12 * big


class TestInverseLaplacian:
    @pytest.mark.parametrize("which", ["geom2", "geom2_32", "geom3"])
    def test_inverts_the_bundle_laplacian(self, which, request, rng):
        # on a field with every mode, the Nyquist planes too, the mean-free
        # inverse of the bundle's Laplacian gives back z - mean z
        geom = request.getfixturevalue(which)
        z = rng.standard_normal(geom.shape)
        x = inverse_laplacian(spectral_derivatives(z).lap, np.ones(geom.shape, np.float32))
        assert np.max(np.abs(x - (z - z.mean()))) <= 1e-12 * np.max(np.abs(z))
        assert abs(x.mean()) <= 1e-14 * np.max(np.abs(z))

    @pytest.mark.parametrize("which", ["geom2", "geom3"])
    def test_weight_scales_the_right_hand_side(self, which, request, rng):
        # the weight is multiplied into y chunk by chunk: the same result
        # as the inverse of the weighted array formed whole
        geom = request.getfixturevalue(which)
        y = rng.standard_normal(geom.shape)
        weight = (1.0 + rng.random(geom.shape)).astype(np.float32)
        got = inverse_laplacian(y, weight)
        want = inverse_laplacian(y * weight, np.ones(geom.shape, np.float32))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("which", ["geom2", "geom3"])
    def test_matmuls_stay_single_threaded(self, which, request, rng, monkeypatch):
        # on 16^4 and 8^6 every matmul is of at most m n k = 2^18
        # multiply-adds, below the size at which OpenBLAS takes a second
        # thread: the chunks and slabs are of _CHUNK_NODES nodes
        geom = request.getfixturevalue(which)
        y = rng.standard_normal(geom.shape)
        real, sizes = np.matmul, []

        def spy(a, b, out):
            sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
            return real(a, b, out=out)

        monkeypatch.setattr(np, "matmul", spy)
        inverse_laplacian(y, np.ones(geom.shape, np.float32))
        assert len(sizes) > 4 * geom.n and max(sizes) <= 2 ** 18

    @pytest.mark.parametrize("which, budget", [("geom2", 1.5), ("geom3", 1.3)])
    def test_memory(self, which, budget, request, rng, traced_peak):
        # the result, one buffer (a slab, or a chunk), the eigenvalues'
        # share on one first-axis index and numpy's 64 KiB buffer for the
        # multiply by y's strided columns: 1.45 grid arrays on 16^4 and 1.28 on
        # 8^6 (1.58 and 1.32 with a chunk beside the slab; the transform it
        # replaces, with its weighted array, half spectrum and inverse,
        # held 2.46 and 2.25)
        geom = request.getfixturevalue(which)
        y = rng.standard_normal(geom.shape)
        weight = np.ones(geom.shape, dtype=np.float32)
        assert traced_peak(inverse_laplacian, y, weight) <= budget * geom.node_count * 8


def low_mode_polynomial(geom):
    """A real trigonometric polynomial with every mode |k| <= 7, below the
    Nyquist mode 8 of 16 points per axis, sampled on geom."""
    x = [2.0 * np.pi * geom.coordinate(a) for a in range(4)]
    return (1.5 + np.cos(7 * x[0]) * np.sin(3 * x[1]) + np.sin(5 * x[2] - 7 * x[3])
            + 0.3 * np.cos(x[0] + 2 * x[1] - 6 * x[2] + 7 * x[3])) * np.ones(geom.shape)


class TestProlong:
    def test_exact_on_band_limited_fields(self):
        coarse, fine = TorusGeometry(2, 16), TorusGeometry(2, 32)
        u = low_mode_polynomial(coarse)
        p_u = torus.prolong(u, 32)
        assert p_u.shape == fine.shape
        assert np.max(np.abs(p_u - low_mode_polynomial(fine))) <= 1e-13
        # injection undoes the prolongation
        assert np.max(np.abs(p_u[::2, ::2, ::2, ::2] - u)) <= 1e-13

    @pytest.mark.parametrize("axes", [(3,), (0,), (1, 3)])
    def test_coarse_nyquist_prolongs_to_zero(self, axes):
        # (-1)^j along an axis has no partner mode of the opposite sign: its
        # interpolant is not determined, and prolong drops it
        geom = TorusGeometry(2, 16)
        u = np.ones(geom.shape)
        for a in axes:
            u = u * np.cos(np.pi * 16 * geom.coordinate(a))
        assert np.max(np.abs(torus.prolong(u, 32))) <= 1e-13

    @pytest.mark.parametrize("n, q", [(2, 16), (3, 8)])
    def test_same_bytes_as_whole_spectrum_padding(self, n, q):
        # padding and inverting one axis at a time transforms each nonzero
        # line as the whole zero-padded spectrum's passes do
        def whole_spectrum_prolong(u, p):
            h = q // 2
            spectrum = np.zeros((p,) * (u.ndim - 1) + (p // 2 + 1,), dtype=complex)
            kept, placed = np.r_[0:h, h + 1:q], np.r_[0:h, p - h + 1:p]
            full = [placed] * (u.ndim - 1) + [np.arange(h)]
            spectrum[np.ix_(*full)] = np.fft.rfftn(u)[np.ix_(*[kept] * (u.ndim - 1),
                                                             np.arange(h))]
            spectrum *= (p / q) ** u.ndim
            for axis in range(u.ndim - 1):
                np.fft.ifft(spectrum, axis=axis, out=spectrum)
            return np.fft.irfft(spectrum, n=p, axis=-1)

        u = np.random.default_rng(5).standard_normal((q,) * (2 * n))
        assert torus.prolong(u, 2 * q).tobytes() == whole_spectrum_prolong(u, 2 * q).tobytes()


class TestSlabs:
    @pytest.mark.parametrize("n, p, count", [(2, 32, 32), (3, 8, 8), (3, 16, 16),
                                             (2, 16, 2), (2, 8, 1)])
    def test_whole_first_axis_indices(self, n, p, count):
        # at most 2^15 nodes a slab, and at least one first-axis index
        shape = TorusGeometry(n, p).shape
        got = list(torus.slabs(shape))
        assert len(got) == count
        assert [i for at in got for i in range(p)[at]] == list(range(p))
        width = got[0].stop - got[0].start
        assert width == min(p, max(1, 2 ** 15 // p ** (2 * n - 1)))

    @pytest.mark.parametrize("n, p", [(2, 16), (2, 32), (2, 64), (3, 8), (3, 16)])
    def test_blocks(self, n, p):
        # runs of whole slabs that cover the first axis in order, each of at
        # least max(2, p/8) indices: a one-row matmul rounds differently,
        # and many small blocks cost time
        shape = TorusGeometry(n, p).shape
        got = list(torus.blocks(shape))
        assert [i for at in got for i in range(p)[at]] == list(range(p))
        edges = {0} | {at.stop for at in torus.slabs(shape)}
        assert all(at.start in edges and at.stop in edges for at in got)
        assert min(at.stop - at.start for at in got) >= max(2, p // 8)

    @pytest.mark.parametrize("n, p", [(2, 16), (2, 32), (3, 8)])
    def test_matmuls_along_the_first_axis_by_block(self, n, p):
        # a block of D1's or D2's rows applied to the whole grid array gives
        # the whole matmul's bytes on the block (a single row, computed by
        # gemv, need not)
        u = np.random.default_rng(6).standard_normal((p,) * (2 * n))
        for d in torus.derivative_matrices(p):
            whole = torus._along(d, u, 0, np.empty(u.shape))
            for at in torus.blocks(u.shape):
                got = torus._along(d[at], u, 0, np.empty(u[at].shape))
                assert got.tobytes() == whole[at].tobytes(), at

    @pytest.mark.parametrize("n, p", [(2, 16), (2, 32), (3, 8)])
    def test_matmuls_along_later_axes(self, n, p):
        # D1 and D2 applied along any axis but the first to one slab at a
        # time give the whole grid's bytes; along the first axis a slab
        # lacks the other first-axis indices the matmul reads
        u = np.random.default_rng(6).standard_normal((p,) * (2 * n))
        for d in torus.derivative_matrices(p):
            for axis in range(1, 2 * n):
                whole = torus._along(d, u, axis, np.empty(u.shape))
                for at in torus.slabs(u.shape):
                    got = torus._along(d, u[at], axis, np.empty(u[at].shape))
                    assert got.tobytes() == whole[at].tobytes(), (axis, at)


class TestPartialsAndLaplacian:
    @pytest.mark.parametrize("which", ["geom2", "geom3", "geom2_32"])
    def test_bundle_bytes(self, which, request, rng):
        # what is stored of f, its first-axis partial and Laplacian, and its
        # partials on each slab, one at a time, are the bundle's bytes; so is
        # the bundle's Laplacian summed on a slab
        geom = request.getfixturevalue(which)
        u = random_band_limited(geom, rng, 3, 1.0)
        (x1, lap), want = torus.x1_partial_and_laplacian(u), spectral_derivatives(u)
        assert x1.tobytes() == want.partials[0].tobytes()
        assert lap.tobytes() == want.lap.tobytes()
        for at in torus.slabs(u.shape):
            rows = [row.copy() for row in torus.slab_partials(u, x1, at)]
            assert np.array(rows).tobytes() == want.partials[:, at].tobytes()
            assert torus.Derivs(want.rows[:, at]).lap.tobytes() == want.lap[at].tobytes()

    @pytest.mark.parametrize("which", ["geom2_32", "geom3"])
    def test_memory(self, which, request, rng, traced_peak):
        # the two results, a chunk of columns and three slabs: 2.10 grid
        # arrays on 32^4 and 2.38 on 8^6 (3.06 and 3.25 with u - u(0) held
        # whole, 5.00 and 6.00 with the n diagonal rows held whole too)
        geom = request.getfixturevalue(which)
        u = random_band_limited(geom, rng, 3, 1.0)
        budget = {"geom2_32": 2.25, "geom3": 2.5}[which]
        assert traced_peak(torus.x1_partial_and_laplacian, u) <= budget * geom.node_count * 8

    @pytest.mark.parametrize("which, want", [("geom2", 8), ("geom2_32", 98), ("geom3", 42)])
    def test_matmuls(self, which, want, request, rng, monkeypatch):
        # d/dx_1 and u_{1 1bar}'s first term on the whole grid, each one
        # matmul a chunk of columns, then per slab u_{1 1bar}'s second term
        # and the two terms of each other diagonal row: 2 + S (2n - 1) terms
        # for S slabs (walking every term of the bundle took 178 on 8^6)
        geom = request.getfixturevalue(which)
        u = random_band_limited(geom, rng, 3, 1.0)
        calls = []
        real = np.matmul

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        torus.x1_partial_and_laplacian(u)
        monkeypatch.undo()
        p = geom.points_per_axis
        chunks = -(-geom.node_count // p // max(2, torus._CHUNK_NODES // p))
        slab_count = len(list(torus.slabs(geom.shape)))
        assert want == 2 + slab_count * (2 * geom.n - 1)
        assert len(calls) == want - 2 + 2 * chunks


class TestLaplacian:
    def test_constant(self, geom2):
        assert np.max(np.abs(lap(np.full(geom2.shape, 2.0)))) == 0.0

    def test_single_mode_eigenvalue(self, geom2):
        x, w = mode_field(geom2, 0, periods=2)
        u = np.cos(w * x)
        got = lap(u)
        want = -0.25 * w * w * np.cos(w * x)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_mean_free(self, geom2, rng):
        u = random_band_limited(geom2, rng, 3, 1.0)
        assert abs(np.mean(lap(u))) < 1e-12


class TestGradSq:
    def test_constant(self, geom2):
        assert np.max(spectral_derivatives(np.full(geom2.shape, 1.0)).grad_sq) == 0.0

    def test_analytic_mode(self, geom2):
        x, w = mode_field(geom2, 0)
        u = np.sin(w * x)
        got = spectral_derivatives(u).grad_sq
        want = 0.25 * w * w * np.cos(w * x) ** 2
        assert np.max(np.abs(got - want)) < 1e-10

    def test_nonnegative(self, geom2, rng):
        u = random_band_limited(geom2, rng, 3, 1.0)
        assert np.min(spectral_derivatives(u).grad_sq) >= 0.0


class TestIntegrate:
    def test_constant(self, geom2):
        assert np.mean(np.full(geom2.shape, 2.5)) == 2.5

    def test_pure_mode_integrates_to_zero(self, geom2):
        x, w = mode_field(geom2, 0)
        assert abs(np.mean(np.cos(w * x))) < 1e-13

    def test_self_adjointness(self, geom2, rng):
        # discrete integration by parts: I[u lap v] = -I[sum_j D_j u conj(D_j v)]
        u = random_band_limited(geom2, rng, 2, 1.0)
        v = random_band_limited(geom2, rng, 2, 1.0)
        lhs = np.mean(u * lap(v))
        du, dv = grad(u), grad(v)
        pairing = np.sum(du * np.conj(dv), axis=0)
        assert abs(np.mean(pairing.imag)) < 1e-12
        rhs = -float(np.mean(pairing.real))
        assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))

    def test_u_lap_u_vs_grad_sq(self, geom2, rng):
        u = random_band_limited(geom2, rng, 2, 1.0)
        lhs = np.mean(u * lap(u))
        rhs = -float(np.mean(spectral_derivatives(u).grad_sq))
        assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))


def product_rule_residual(points, v_axis):
    """max |Lap(uv) - u Lap v - v Lap u - 2 Re<Du, Dv>| for u = e^{0.8 cos wx_1}
    and v = e^{0.6 sin w(axis v_axis)} on the n = 2 grid of `points` nodes,
    and max |Lap(uv)|, the size of the terms it is the difference of."""
    g = TorusGeometry(2, points)
    w = 2.0 * np.pi
    x = g.coordinate(0) * np.ones(g.shape)
    y = g.coordinate(v_axis) * np.ones(g.shape)
    u = np.exp(0.8 * np.cos(w * x))
    v = np.exp(0.6 * np.sin(w * y))
    uv = u * v
    du, dv = grad(u), grad(v)
    cross = 2.0 * np.sum(du * np.conj(dv), axis=0).real
    lap_uv = lap(uv)
    res = lap_uv - u * lap(v) - v * lap(u) - cross
    return float(np.max(np.abs(res))), float(np.max(np.abs(lap_uv)))


class TestProductRule:
    def test_residual_decays_spectrally(self):
        # Lap(uv) - u Lap v - v Lap u - 2 Re<Du, Dv> vanishes in the continuum;
        # with u and v on the same axis the discrete residual is pure aliasing
        # of their product and collapses under refinement
        errs = [product_rule_residual(points, 0)[0] for points in (8, 16, 32)]
        assert errs[1] < errs[0] * 1e-3
        assert errs[2] < 1e-10

    def test_separable_pair_is_exact(self):
        # u(x_1) and v(y_1) multiply without aliasing on every grid: each
        # term of the residual is a product of one-axis spectral derivatives
        # (odd derivatives vanish on the Nyquist plane), so it is rounding
        for points in (8, 16, 32):
            res, scale = product_rule_residual(points, 1)
            assert res <= 1e-13 * scale


class TestMixedWedgeDensity:
    def test_constant(self, geom2):
        dens = mixed_wedge_density(spectral_derivatives(np.full(geom2.shape, 1.0)))
        assert np.max(np.abs(dens)) == 0.0

    def test_diagonal_hessian_formula(self, geom2):
        # u = p(z_1) + q(z_2) has exactly diagonal complex Hessian; the density
        # must match (n-2)! sum_i |u_i|^2 (lap u - u_{i ibar}) assembled by hand
        x, w = mode_field(geom2, 0)
        y, _ = mode_field(geom2, 3)
        u = 0.7 * np.cos(w * x) + 0.4 * np.sin(w * y)
        dv = spectral_derivatives(u)
        h = complex_hess(dv)
        assert np.max(np.abs(h[0, 1])) < 1e-12
        direct = np.zeros(geom2.shape)
        for j, uj in enumerate(complex_grad(dv)):
            direct += np.abs(uj) ** 2 * (dv.lap - h[j, j].real)
        got = mixed_wedge_density(dv)
        assert np.max(np.abs(got - direct)) <= 1e-10 * (1.0 + np.max(np.abs(got)))

    def test_invariant_contraction_is_real(self, geom2, rng):
        u = random_band_limited(geom2, rng, 2, 0.8)
        dens = mixed_wedge_density(spectral_derivatives(u))
        assert np.all(np.isfinite(dens))

    @pytest.mark.parametrize("which", ["geom2", "geom3"])
    def test_matches_the_complex_reference(self, which, request, rng):
        # the packed-row algebra against the full complex matrices:
        # (n-2)! (|Du|^2 Lap u - sum_{j,k} u_j conj(u_k) u_{k jbar})
        geom = request.getfixturevalue(which)
        dv = spectral_derivatives(random_band_limited(geom, rng, 2, 1.0))
        g, h = complex_grad(dv), complex_hess(dv)
        contraction = np.einsum("j...,k...,kj...->...", g, np.conj(g), h)
        want = math.factorial(geom.n - 2) * (dv.grad_sq * dv.lap - contraction.real)
        got = mixed_wedge_density(dv)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("which, max_mode", [("geom2", 2), ("geom3", 1)])
    def test_integration_by_parts(self, which, max_mode, request, rng):
        # mean(density) = -2 (n-2)! mean(u sigma_2(Hess u)) on fields whose
        # cubic integrands do not alias; a Hessian with off-diagonal
        # imaginary parts tells the contraction from its conjugate, which
        # misses by 1e-3 to 4e-2 of the integrands' size
        geom = request.getfixturevalue(which)
        for _ in range(3):
            u = random_band_limited(geom, rng, max_mode, 1.0)
            dv = spectral_derivatives(u)
            dens = mixed_wedge_density(dv)
            ibp = -2.0 * math.factorial(geom.n - 2) * u * sigma2_field(dv.hess_rows, geom.n)
            scale = max(np.mean(np.abs(dens)), np.mean(np.abs(ibp)))
            assert abs(np.mean(dens) - np.mean(ibp)) <= 1e-13 * scale


def dump(path, geom, u):
    save_field(path, ScalarField(geom, u))


class TestFieldDumps:
    def test_round_trip(self, geom2, rng, tmp_path):
        u = random_band_limited(geom2, rng, 2, 1.3)
        path = tmp_path / "field.bin"
        dump(path, geom2, u)
        back = load_field(path, geom2)
        assert back.geometry == geom2
        assert np.array_equal(back.values, u)

    def test_geometry_mismatch(self, geom2, rng, tmp_path):
        u = random_band_limited(geom2, rng, 2, 1.0)
        path = tmp_path / "field.bin"
        dump(path, geom2, u)
        with pytest.raises(ConfigurationError):
            load_field(path, TorusGeometry(2, 32))

    def test_period_other_than_one(self, geom2, tmp_path):
        # the header keeps a period slot; every torus has period 1
        path = tmp_path / "field.bin"
        dump(path, geom2, np.zeros(geom2.shape))
        assert struct.unpack("<3d", path.read_bytes()[8:32]) == (2.0, 16.0, 1.0)
        for period in (2.0, 0.5, np.nan):
            path.write_bytes(b"S2LFIELD" + struct.pack("<3d", 2.0, 16.0, period)
                             + bytes(8 * geom2.node_count))
            with pytest.raises(ConfigurationError, match="period must be 1.0"):
                load_field(path)

    def test_truncated_dump(self, geom2, rng, tmp_path):
        u = random_band_limited(geom2, rng, 2, 1.0)
        path = tmp_path / "field.bin"
        dump(path, geom2, u)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ConfigurationError):
            load_field(path)

    def test_writes_the_array_itself(self, geom2_32, rng, tmp_path, traced_peak):
        # the payload goes from the field's buffer to the file: no copy of
        # it as bytes (a whole grid array, 8 MiB on 32^4)
        u = random_band_limited(geom2_32, rng, 2, 1.0)
        path = tmp_path / "field.bin"
        peak = traced_peak(save_field, path, ScalarField(geom2_32, u))
        assert peak <= 0.01 * geom2_32.node_count * 8
        assert path.read_bytes()[32:] == u.astype("<f8").tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAFIELDDUMP")
        with pytest.raises(ConfigurationError):
            load_field(path)


DUMP_GEOM = TorusGeometry(2, 8)
DUMP_HEADER = struct.pack("<3d", 2.0, 8.0, 1.0)
DUMP_PAYLOAD = np.linspace(-1.0, 1.0, DUMP_GEOM.node_count).astype("<f8").tobytes()


class TestFieldDumpFuzz:
    @settings(max_examples=300, deadline=None)
    @given(header=st.one_of(st.just(DUMP_HEADER), st.binary(max_size=24),
                            st.tuples(st.floats(), st.floats(), st.floats())
                            .map(lambda h: struct.pack("<3d", *h))),
           cut=st.integers(0, 24), tail=st.binary(max_size=24))
    def test_valid_field_or_typed_error(self, tmp_path_factory, header, cut, tail):
        # arbitrary bytes after the magic: a header, then a payload that is
        # the valid one with its last `cut` bytes replaced by `tail`
        payload = DUMP_PAYLOAD[:len(DUMP_PAYLOAD) - cut] + tail
        with tempfile.NamedTemporaryFile(suffix=".bin", delete=False,
                                         dir=tmp_path_factory.getbasetemp()) as fh:
            fh.write(b"S2LFIELD" + header + payload)
        try:
            u = load_field(fh.name)
        except ConfigurationError:
            return
        assert u.geometry.shape == DUMP_GEOM.shape
        assert np.array_equal(u.values.ravel(), np.frombuffer(payload, dtype="<f8"))


class TestRandomFields:
    def test_deterministic(self, geom2):
        a = random_band_limited(geom2, np.random.default_rng(5), 2, 1.0)
        b = random_band_limited(geom2, np.random.default_rng(5), 2, 1.0)
        assert np.array_equal(a, b)

    def test_band_limit_and_amplitude(self, geom2, rng):
        u = random_band_limited(geom2, rng, 2, 0.7)
        assert np.max(np.abs(u)) == pytest.approx(0.7, rel=1e-12)
        spec = np.fft.fftn(u)
        p = geom2.points_per_axis
        modes = np.abs(np.rint(np.fft.fftfreq(p) * p))
        for axis in range(4):
            sel = spec * geom2.along(axis, modes > 2)
            assert np.max(np.abs(sel)) < 1e-9 * np.max(np.abs(spec))

    def test_mean_free(self, geom2, rng):
        u = random_band_limited(geom2, rng, 2, 1.0)
        assert abs(np.mean(u)) < 1e-14
