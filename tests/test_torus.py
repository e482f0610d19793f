"""Spectral calculus on the torus: exactness, quadrature, wedge density, dumps."""

import dataclasses
import struct
import tempfile

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma2lab import torus
from sigma2lab.errors import ConfigurationError
from sigma2lab.torus import (
    ScalarField,
    TorusGeometry,
    contract_derivatives,
    derivative_symbols,
    load_field,
    mixed_wedge_density,
    random_band_limited,
    save_field,
    spectral_derivatives,
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


def grad(u):
    """The complex gradient D_j u, (n,) + grid, from u's bundle."""
    return spectral_derivatives(u).grad


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
        h = spectral_derivatives(np.full(geom2.shape, 1.0)).hess
        assert np.max(np.abs(h)) == 0.0

    def test_cosine_mode_entry(self, geom2):
        # D_1 D_1bar = (d^2/dx_1^2 + d^2/dy_1^2)/4 on real fields
        x, w = mode_field(geom2, 0)
        u = np.cos(w * x)
        h = spectral_derivatives(u).hess
        want = -0.25 * w * w * np.cos(w * x)
        assert np.max(np.abs(h[0, 0] - want)) < 1e-10
        assert np.max(np.abs(h[0, 1])) < 1e-12

    def test_sparsity_for_single_axis_field(self, geom2):
        y, w = mode_field(geom2, 3)  # function of y_2 only
        u = np.sin(w * y)
        h = spectral_derivatives(u).hess
        assert np.max(np.abs(h[1, 1])) > 1.0
        for j, k in ((0, 0), (0, 1), (1, 0)):
            assert np.max(np.abs(h[j, k])) < 1e-12

    def test_hermitian_at_every_node(self, geom2, rng):
        u = random_band_limited(geom2, rng, 3, 1.0)
        h = spectral_derivatives(u).hess
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

    @pytest.mark.parametrize("which", ["geom2", "geom3"])
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
    def test_buffered_rows_equal_per_row_loop(self, which, request, rng):
        # one reused spectrum buffer and in-place scaling change no bit
        # against a fresh sym * hat and k_r * row per row
        geom = request.getfixturevalue(which)
        u = random_band_limited(geom, rng, 3, 1.0)
        uhat = scipy.fft.rfftn(u, workers=-1)
        rows = [scipy.fft.irfftn(sym * uhat, s=geom.shape, workers=-1)
                for sym in derivative_symbols(geom)]
        assert np.array_equal(spectral_derivatives(u).rows, np.stack(rows))
        k = rng.standard_normal((len(rows),) + geom.shape)
        want = np.zeros(geom.shape)
        for k_r, row in zip(k, rows):
            want += k_r * row
        assert np.array_equal(contract_derivatives(geom, k, u), want)

    @pytest.mark.parametrize("which", ["geom2", "geom3"])
    def test_bundle_holds_only_its_rows(self, which, request, rng):
        # every array the bundle reaches, through .base, is counted once:
        # the n^2 + 2n rows and the Laplacian, nothing a view would pin
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
        assert sum(roots.values()) <= (n * n + 2 * n + 1) * grid_bytes


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
        du = spectral_derivatives(u).grad
        dv = spectral_derivatives(v).grad
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
    du = spectral_derivatives(u).grad
    dv = spectral_derivatives(v).grad
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
        h = dv.hess
        assert np.max(np.abs(h[0, 1])) < 1e-12
        direct = np.zeros(geom2.shape)
        for j, uj in enumerate(dv.grad):
            direct += np.abs(uj) ** 2 * (dv.lap - h[j, j].real)
        got = mixed_wedge_density(dv)
        assert np.max(np.abs(got - direct)) <= 1e-10 * (1.0 + np.max(np.abs(got)))

    def test_invariant_contraction_is_real(self, geom2, rng):
        u = random_band_limited(geom2, rng, 2, 0.8)
        dens = mixed_wedge_density(spectral_derivatives(u))
        assert np.all(np.isfinite(dens))


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
        for axis in range(4):
            idx = np.abs(geom2.mode_index(axis)) > 2
            sel = spec * idx
            assert np.max(np.abs(sel)) < 1e-9 * np.max(np.abs(spec))

    def test_mean_free(self, geom2, rng):
        u = random_band_limited(geom2, rng, 2, 1.0)
        assert abs(np.mean(u)) < 1e-14
