"""Hermitian form assembly, residual equivalence, and the linearization."""

import dataclasses

import numpy as np
import pytest

from sigma2lab import forms, profiles, torus
from sigma2lab.errors import ConfigurationError
from sigma2lab.forms import (
    ProblemData,
    evaluate,
    gamma2_mask,
    gprime,
    gprime_sigmas,
    gtilde,
    gtilde_eig_range,
    hermitian_eigenvalues,
    linearization_coefficients,
    manufactured_mu,
    residual_fy1,
    rhs_sigma2,
    sigma1_field,
    sigma2_field,
)
from sigma2lab.torus import (
    TorusGeometry,
    random_band_limited,
    spectral_derivatives,
    unpack_hermitian,
)


def trivial_setup(geom, A=0.05, alpha=1.0):
    zero = np.zeros(geom.shape)
    d = ProblemData(geom, alpha, zero, zero, A, t=0.0)
    u0 = np.full(geom.shape, -np.log(A))
    return u0, d


def derivative(u, d, v):
    """The directional derivative of the residual at u in the direction v."""
    return linearization_coefficients(evaluate(u, d, 0.0)).apply_to(v)


def residual(u, d):
    return evaluate(u, d, 0.0).residual


class TestNormalizationConstants:
    def test_dimension_table(self, problem2, problem3):
        # the exponent gamma = 4 (n - 1) of the normalization
        assert problem2.gamma == 4.0
        assert problem3.gamma == 8.0


class TestProblemData:
    def test_validation(self, geom2):
        zero = np.zeros(geom2.shape)
        with pytest.raises(ConfigurationError):
            ProblemData(geom2, -1.0, zero, zero, 0.1)
        with pytest.raises(ConfigurationError):
            ProblemData(geom2, 1.0, zero, zero, 1.5)
        with pytest.raises(ConfigurationError):
            ProblemData(geom2, 1.0, zero, zero, 0.1, t=2.0)
        with pytest.raises(ConfigurationError):
            ProblemData(geom2, 1.0, np.full(geom2.shape, -0.1), zero, 0.1)
        with pytest.raises(ConfigurationError):
            ProblemData(geom2, 1.0, zero, np.full(geom2.shape, 0.3), 0.1)
        # ProblemData is where the arrays are checked: the grid's shape and
        # finite values, for f and for mu
        with pytest.raises(ConfigurationError, match="f has shape"):
            ProblemData(geom2, 1.0, np.zeros((3, 3)), zero, 0.1)
        with pytest.raises(ConfigurationError, match="mu has shape"):
            ProblemData(geom2, 1.0, zero, np.zeros(TorusGeometry(2, 8).shape), 0.1)
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigurationError, match="f contains non-finite"):
                ProblemData(geom2, 1.0, np.full(geom2.shape, bad), zero, 0.1)
            mu = zero.copy()
            mu[0, 0, 0, 0] = bad
            with pytest.raises(ConfigurationError, match="mu contains non-finite"):
                ProblemData(geom2, 1.0, zero, mu, 0.1)

    def test_t_scaling_accessors(self, geom2):
        f = profiles.f_profile(geom2, 0.4)
        mu = profiles.mu_profile(geom2, 0.6)
        d = ProblemData(geom2, 1.0, f, mu, 0.1, t=0.5)
        assert np.allclose(d.f_eff(), 0.5 * f)
        assert np.allclose(d.mu_eff(), 0.5 * mu)
        d2 = d.with_t(0.0)
        assert np.all(d2.f_eff() == 0.0)

    def test_with_t_checks_only_t(self, problem2, patch_everywhere):
        # the rest of the data was checked when it was built
        calls = []
        for real in (forms._checked_field, forms.check_A):
            def counted(*args, real=real):
                calls.append(args)
                return real(*args)

            patch_everywhere(real, counted)
        d = problem2.with_t(0.5)
        assert calls == []
        assert d.t == 0.5 and problem2.t == 0.7
        assert d.f_derivs() is problem2.f_derivs()
        with pytest.raises(ConfigurationError):
            problem2.with_t(1.5)

    def test_kappa_c(self, geom2, geom3):
        zero2 = np.zeros(geom2.shape)
        zero3 = np.zeros(geom3.shape)
        assert ProblemData(geom2, 1.0, zero2, zero2, 0.1).kappa_c == 1.0
        assert ProblemData(geom3, 1.0, zero3, zero3, 0.1).kappa_c == 3.0


class TestGPrime:
    def test_trivial_solution(self, geom2):
        u0, d = trivial_setup(geom2, A=0.05)
        gp = unpack_hermitian(gprime(evaluate(u0, d, 0.0)), 2)
        for j in range(2):
            assert np.allclose(gp[j, j].real, 1.0 / 0.05, rtol=1e-13)
        assert np.max(np.abs(gp[0, 1])) == 0.0

    def test_constant_u_zero_f(self, geom2):
        zero = np.zeros(geom2.shape)
        d = ProblemData(geom2, 3.0, zero, zero, 0.3, t=1.0)
        u = np.full(geom2.shape, 0.7)
        eigs = hermitian_eigenvalues(gprime(evaluate(u, d, 0.0)), 2)
        assert np.allclose(eigs, np.exp(0.7), rtol=1e-13)

    def test_eigenvalue_shift_relation(self, geom2, problem2, rng):
        # g' = a I + 2 n alpha Hess shares eigenvectors with Hess, so its
        # eigenvalues are exactly a + 2 n alpha * (Hessian eigenvalues)
        u = random_band_limited(geom2, rng, 2, 0.6)
        it = evaluate(u, problem2, 0.0)
        hess_eigs = hermitian_eigenvalues(it.derivs.hess_rows, 2)
        a = np.exp(u) + problem2.f_eff() * np.exp(-u)
        want = np.sort(a + 2 * 2 * problem2.alpha * hess_eigs, axis=0)
        got = hermitian_eigenvalues(gprime(it), 2)
        assert np.max(np.abs(got - want)) < 1e-10 * (1.0 + np.max(np.abs(want)))


class TestGTilde:
    def test_trivial_solution(self, geom2):
        u0, d = trivial_setup(geom2, A=0.05)
        gt = unpack_hermitian(gtilde(evaluate(u0, d, 0.0)), 2)
        for j in range(2):
            assert np.allclose(gt[j, j].real, (2 - 1) / 0.05, rtol=1e-13)

    def test_matrix_identity(self, geom2, problem2, rng):
        # gtilde = sigma_1(g') I - g' at every node
        it = evaluate(random_band_limited(geom2, rng, 2, 0.7), problem2, 0.0)
        gp = gprime(it)
        gt = unpack_hermitian(gtilde(it), 2)
        alt = -unpack_hermitian(gp, 2)
        s1 = sigma1_field(gp, 2)
        for j in range(2):
            alt[j, j] = alt[j, j] + s1
        scale = 1.0 + np.max(np.abs(gt))
        assert np.max(np.abs(alt - gt)) <= 1e-12 * scale

    def test_eigenvalue_complement_relation(self, geom3, problem3, rng):
        # each gtilde eigenvalue is the sum of the complementary g' eigenvalues
        it = evaluate(random_band_limited(geom3, rng, 1, 0.5), problem3, 0.0)
        lp = hermitian_eigenvalues(gprime(it), 3)
        lt = hermitian_eigenvalues(gtilde(it), 3)
        want = np.sort(lp.sum(axis=0) - lp, axis=0)
        assert np.max(np.abs(lt - want)) < 1e-9 * (1.0 + np.max(np.abs(want)))

    def test_n2_sigma_coincidence(self, geom2, problem2, rng):
        # in dimension two the two forms share both symmetric functions
        it = evaluate(random_band_limited(geom2, rng, 2, 0.7), problem2, 0.0)
        gp = gprime(it)
        gt = gtilde(it)
        assert np.allclose(sigma1_field(gt, 2), sigma1_field(gp, 2), rtol=0, atol=1e-11 * (1 + np.max(np.abs(sigma1_field(gp, 2)))))
        assert np.allclose(sigma2_field(gt, 2), sigma2_field(gp, 2), rtol=0, atol=1e-11 * (1 + np.max(np.abs(sigma2_field(gp, 2)))))

    def test_sigma_relations(self, geom3, problem3, rng):
        it = evaluate(random_band_limited(geom3, rng, 1, 0.5), problem3, 0.0)
        gp = gprime(it)
        gt = gtilde(it)
        n = 3
        s1p, s2p = sigma1_field(gp, n), sigma2_field(gp, n)
        s1t, s2t = sigma1_field(gt, n), sigma2_field(gt, n)
        scale1 = 1.0 + np.max(np.abs(s1t))
        scale2 = 1.0 + np.max(np.abs(s2t))
        assert np.max(np.abs(s1t - (n - 1) * s1p)) <= 1e-11 * scale1
        assert np.max(np.abs(s2t - (0.5 * (n - 1) * (n - 2) * s1p ** 2 + s2p))) <= 1e-11 * scale2


class TestFMatrix:
    def test_trivial(self, geom2):
        u0, d = trivial_setup(geom2, A=0.05)
        fm = unpack_hermitian(gtilde(evaluate(u0, d, 0.0)), 2)
        for j in range(2):
            assert np.allclose(fm[j, j].real, 1.0 / 0.05, rtol=1e-13)

    def test_trace_identity(self, geom2, problem2, rng):
        # trace of F against the flat metric equals (n-1) sigma_1(g')
        it = evaluate(random_band_limited(geom2, rng, 2, 0.7), problem2, 0.0)
        fm = gtilde(it)
        s1p = sigma1_field(gprime(it), 2)
        got = sigma1_field(fm, 2)
        assert np.max(np.abs(got - (2 - 1) * s1p)) <= 1e-11 * (1.0 + np.max(np.abs(got)))

    def test_diagonal_entries_are_complements(self, geom2, problem2):
        # on a field with diagonal Hessian, F^{jj} = sigma_1(lambda') - lambda'_j
        w = 2 * np.pi
        x = geom2.coordinate(0) * np.ones(geom2.shape)
        y = geom2.coordinate(3) * np.ones(geom2.shape)
        u = 0.3 * np.cos(w * x) + 0.2 * np.sin(w * y)
        it = evaluate(u, problem2, 0.0)
        gp = unpack_hermitian(gprime(it), 2)
        fm = unpack_hermitian(gtilde(it), 2)
        s1 = sigma1_field(gprime(it), 2)
        for j in range(2):
            want = s1 - gp[j, j].real
            assert np.max(np.abs(fm[j, j].real - want)) <= 1e-11 * (1.0 + np.max(np.abs(want)))


class TestResiduals:
    def test_trivial_solution_residuals_vanish(self, geom2, geom3):
        for geom in (geom2, geom3):
            it = evaluate(*trivial_setup(geom, A=0.05), 0.0)
            assert np.max(np.abs(residual_fy1(it))) < 1e-12
            assert np.max(np.abs(it.residual)) < 1e-10

    def test_divergence_structure_integrates_to_zero(self, geom2, problem2, rng):
        # integral of the residual is t * integral(mu) = 0 plus aliasing
        u = random_band_limited(geom2, rng, 2, 0.5)
        r = residual_fy1(evaluate(u, problem2, 0.0))
        assert abs(np.mean(r)) < 1e-10 * (1.0 + np.max(np.abs(r)))

    def test_proportionality(self, geom2, geom3, problem2, problem3, rng):
        for geom, d in ((geom2, problem2), (geom3, problem3)):
            u = random_band_limited(geom, rng, 2, 0.6)
            u = u + 0.8
            it = evaluate(u, d, 0.0)
            r1 = residual_fy1(it)
            r2 = it.residual
            pred = 2 * geom.n * d.alpha * r1
            scale = max(1.0, np.max(np.abs(r2)), np.max(np.abs(pred)))
            assert np.max(np.abs(r2 - pred)) <= 1e-10 * scale

    def test_rhs_constant_field_values(self, geom2):
        # at u = -log A with t = 0 the right-hand side is kappa_c e^{2u}
        u0, d = trivial_setup(geom2, A=0.1)
        it = evaluate(u0, d, 0.0)
        rhs = rhs_sigma2(d, it.derivs, it.weights)
        assert np.allclose(rhs, 1.0 / 0.01, rtol=1e-12)
        zero = np.zeros(geom2.shape)
        d1 = ProblemData(geom2, 2.0, zero, zero, 0.3, t=1.0)
        it = evaluate(np.full(geom2.shape, 0.4), d1, 0.0)
        assert np.allclose(rhs_sigma2(d1, it.derivs, it.weights), 1.0 * np.exp(0.8),
                           rtol=1e-12)

    def test_small_perturbation_is_linear(self, geom2, rng):
        # the residual at u0 + eps v is eps * (the derivative at u0) v + O(eps^2)
        u0, d = trivial_setup(geom2, A=0.1)
        v = random_band_limited(geom2, rng, 2, 1.0)
        eps = 1e-6
        u = u0 + eps * v
        r = residual(u, d)
        lin = derivative(u0, d, v)
        assert np.max(np.abs(r - eps * lin)) <= 1e-4 * np.max(np.abs(r))


class TestLinearize:
    def test_against_central_differences(self, geom2, problem2, rng):
        eps = 1e-5
        for _ in range(4):
            u = random_band_limited(geom2, rng, 2, 0.5)
            v = random_band_limited(geom2, rng, 2, 1.0)
            lin = derivative(u, problem2, v)
            up = u + eps * v
            um = u - eps * v
            fd = (residual(up, problem2) - residual(um, problem2)) / (2 * eps)
            assert np.max(np.abs(fd - lin)) <= 1e-6 * max(1.0, np.max(np.abs(lin)))

    def test_fourier_symbol_at_trivial_solution(self, geom2):
        # frozen at the t=0 constant solution the operator is
        # 2 n alpha (n-1) e^{u0} Lap, diagonal on Fourier modes
        u0, d = trivial_setup(geom2, A=0.1, alpha=1.3)
        w = 2 * np.pi
        x = geom2.coordinate(0) * np.ones(geom2.shape)
        y = geom2.coordinate(3) * np.ones(geom2.shape)
        v = np.cos(2 * w * x) * np.cos(w * y)
        lam = -0.25 * ((2 * w) ** 2 + w ** 2)
        want = 2 * 2 * 1.3 * (2 - 1) * np.exp(u0) * lam * v
        got = derivative(u0, d, v)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_constant_direction(self, geom2, problem2, rng):
        # direction v = const matches the pointwise u-derivative path
        u = random_band_limited(geom2, rng, 2, 0.4)
        c = 0.7
        v = np.full(geom2.shape, c)
        lin = derivative(u, problem2, v)
        eps = 1e-6
        up = u + eps * c
        um = u - eps * c
        fd = (residual(up, problem2) - residual(um, problem2)) / (2 * eps)
        assert np.max(np.abs(fd - lin)) <= 1e-6 * max(1.0, np.max(np.abs(lin)))


class TestManufacturedMu:
    def test_constant_u_star_zero_f(self, geom2):
        zero = np.zeros(geom2.shape)
        d = ProblemData(geom2, 1.0, zero, zero, 0.1, t=1.0)
        mu = manufactured_mu(evaluate(np.full(geom2.shape, 1.2), d, 0.0))
        assert np.max(np.abs(mu)) < 1e-14

    def test_residual_vanishes_by_construction(self, geom2, rng):
        f = profiles.f_profile(geom2, 0.2)
        zero = np.zeros(geom2.shape)
        seed = ProblemData(geom2, 0.9, f, zero, 0.1, t=1.0)
        u_star = 2.0 + random_band_limited(geom2, rng, 2, 0.3)
        mu = manufactured_mu(evaluate(u_star, seed, 0.0))
        assert abs(np.mean(mu)) < 1e-10
        d = ProblemData(geom2, 0.9, f, mu, 0.1, t=1.0)
        r = residual_fy1(evaluate(u_star, d, 0.0))
        assert np.max(np.abs(r)) < 1e-11 * (1.0 + np.max(np.abs(mu)))


class TestEigenvalues:
    def test_sigma2_trace_route_vs_eigenvalue_route(self, geom2, geom3,
                                                    problem2, problem3, rng):
        # two independent evaluations of sigma_2(g'): the trace identity
        # against elementary symmetric sums of the per-node eigenvalues
        for geom, d in ((geom2, problem2), (geom3, problem3)):
            gp = gprime(evaluate(random_band_limited(geom, rng, 2, 0.6), d, 0.0))
            via_trace = sigma2_field(gp, geom.n)
            eigs = hermitian_eigenvalues(gp, geom.n)
            via_eigs = np.zeros(geom.shape)
            for j in range(geom.n):
                for k in range(j + 1, geom.n):
                    via_eigs += eigs[j] * eigs[k]
            scale = 1.0 + np.max(np.abs(via_trace))
            assert np.max(np.abs(via_trace - via_eigs)) <= 1e-9 * scale

    def test_against_lapack_oracle(self, geom2, geom3, problem2, problem3, rng):
        for geom, d in ((geom2, problem2), (geom3, problem3)):
            h = gprime(evaluate(random_band_limited(geom, rng, 1, 0.6), d, 0.0))
            got = hermitian_eigenvalues(h, geom.n)
            mats = np.moveaxis(unpack_hermitian(h, geom.n).reshape(geom.n, geom.n, -1), -1, 0)
            want = np.linalg.eigvalsh(mats)  # ascending
            want = np.moveaxis(want, 0, -1).reshape((geom.n,) + geom.shape)
            assert np.max(np.abs(got - want)) < 1e-9 * (1.0 + np.max(np.abs(want)))

    def test_gamma2_mask_margin(self, geom2, problem2):
        u0 = np.full(geom2.shape, -np.log(problem2.A))
        gp = gprime(evaluate(u0, problem2.with_t(0.0), 0.0))
        s1, s2 = sigma1_field(gp, 2), sigma2_field(gp, 2)
        lam = 1.0 / problem2.A  # eigenvalues of the trivial g'
        assert np.all(gamma2_mask(s1, s2, 2, margin=0.0))
        assert np.all(gamma2_mask(s1, s2, 2, margin=lam * 0.5))
        assert not np.any(gamma2_mask(s1, s2, 2, margin=lam * 1.5))


class TestPackedLayout:
    """The packed real rows against LAPACK on seeded random Hermitian fields."""

    @staticmethod
    def random_hermitian(geom, rng):
        """Random packed rows, the full matrices they stand for (assembled
        here entry by entry) and those matrices' ascending eigenvalues."""
        n = geom.n
        rows = rng.standard_normal((n * n,) + geom.shape)
        m = np.empty((n, n) + geom.shape, dtype=complex)
        for j in range(n):
            m[j, j] = rows[j]
        for p, (j, k) in enumerate(torus.upper_pairs(n)):
            m[j, k] = rows[n + 2 * p] + 1j * rows[n + 2 * p + 1]
            m[k, j] = rows[n + 2 * p] - 1j * rows[n + 2 * p + 1]
        lam = np.linalg.eigvalsh(np.moveaxis(m.reshape(n, n, -1), -1, 0))  # ascending
        return rows, m, np.moveaxis(lam, 0, -1).reshape((n,) + geom.shape)

    @pytest.mark.parametrize("which", ["geom2", "geom3"])
    def test_against_eigvalsh(self, which, request, rng):
        geom = request.getfixturevalue(which)
        n = geom.n
        rows, m, lam = self.random_hermitian(geom, rng)
        assert np.array_equal(unpack_hermitian(rows, n), m)
        scale = 1.0 + np.max(np.abs(lam))
        s1 = lam.sum(axis=0)
        s2 = sum(lam[j] * lam[k] for j in range(n) for k in range(j + 1, n))
        assert np.max(np.abs(sigma1_field(rows, n) - s1)) <= 1e-12 * scale
        assert np.max(np.abs(sigma2_field(rows, n) - s2)) <= 1e-12 * scale ** 2
        assert np.max(np.abs(hermitian_eigenvalues(rows, n) - lam)) <= 1e-11 * scale


def perturbed_solution(d, rng, amplitude=0.05):
    """-log A, the t = 0 solution, plus a small band-limited perturbation."""
    pert = random_band_limited(d.geometry, rng, 2, amplitude)
    return -np.log(d.A) + pert


def root(arr):
    """The array that owns arr's memory."""
    while arr.base is not None:
        arr = arr.base
    return arr


def owned_bytes(obj):
    """Bytes of the distinct buffers obj reaches (see owned_arrays)."""
    return sum({id(r): r.nbytes for r in map(root, owned_arrays(obj))}.values())


def owned_arrays(obj):
    """The arrays an evaluated iterate reaches through its dataclass fields
    and tuples (ProblemData, shared by every iterate, is neither)."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for x in obj:
            yield from owned_arrays(x)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from owned_arrays(getattr(obj, f.name))


class TestLeanIterate:
    """The solve path reads sigma_1 and sigma_2 of g' from closed forms, streams
    the operator's direction rows and keeps only what the next step reads."""

    @pytest.mark.parametrize("which", ["problem2", "problem3"])
    def test_closed_form_sigmas(self, which, request, rng):
        d = request.getfixturevalue(which)
        it = evaluate(random_band_limited(d.geometry, rng, 3, 1.0), d, 0.0)
        s1, s2 = gprime_sigmas(d, it.derivs, it.weights.a)
        gp = gprime(it)
        for got, want in ((s1, sigma1_field(gp, d.n)), (s2, sigma2_field(gp, d.n))):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("which", ["problem2", "problem3"])
    def test_streamed_apply(self, which, request, rng):
        d = request.getfixturevalue(which)
        lc = linearization_coefficients(evaluate(perturbed_solution(d, rng), d, 0.0))
        v = random_band_limited(d.geometry, rng, 3, 1.0)
        rows = spectral_derivatives(v).rows
        want = sum(k_r * row for k_r, row in zip(lc.k, rows)) + lc.c0 * v
        got = lc.apply_to(v)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("which", ["problem2", "problem3"])
    def test_iterate_array_budget(self, which, request, rng):
        # the body is the n^2 + 2n rows and the Laplacian, e^u, e^{-u} and a;
        # the part a Newton step keeps is the field and the residual.  Every
        # array is counted once, through .base
        d = request.getfixturevalue(which)
        n = d.n
        it = evaluate(perturbed_solution(d, rng), d, 1e-6)
        grid_bytes = d.geometry.node_count * 8
        assert owned_bytes(it.take_body()) <= (n * n + 2 * n + 4) * grid_bytes
        assert owned_bytes(it) <= 2 * grid_bytes

    @pytest.mark.parametrize("which", ["problem2", "problem3"])
    def test_linearization_consumes_body(self, which, request, rng):
        # the coefficient rows are written over the bundle: the iterate keeps
        # no bundle and no weights, and k is the bundle's buffer
        d = request.getfixturevalue(which)
        it = evaluate(perturbed_solution(d, rng), d, 0.0)
        bundle = root(it.derivs.rows)
        lc = linearization_coefficients(it)
        assert it.body is None
        assert root(lc.k) is bundle
        for name in ("derivs", "weights"):
            with pytest.raises(RuntimeError):
                getattr(it, name)

    def test_evaluation_at_other_data_takes_body(self, problem2, rng):
        # a bundle carried to another t has one owner, so writing the
        # coefficient rows over it cannot reach the earlier iterate
        d = problem2
        prev = evaluate(perturbed_solution(d, rng), d, 0.0)
        rows = prev.derivs.rows
        it = evaluate(prev.u, d.with_t(0.5), 0.0, prev)
        assert prev.body is None and it.derivs.rows is rows

    def test_linearization_memory(self, problem3, rng, traced_peak):
        # c0 and a few row-sized temporaries: k is the bundle's buffer
        d = problem3
        it = evaluate(perturbed_solution(d, rng), d, 0.0)
        assert traced_peak(linearization_coefficients, it) <= 5 * d.geometry.node_count * 8

    def test_rhs_memory(self, problem3, rng, traced_peak):
        # the output and at most 4 grid arrays of temporaries
        d = problem3
        it = evaluate(perturbed_solution(d, rng), d, 0.0)
        assert traced_peak(rhs_sigma2, d, it.derivs, it.weights) <= 5 * d.geometry.node_count * 8

    @pytest.mark.parametrize("which", ["problem2", "problem3"])
    def test_gtilde_eig_range_is_exact(self, which, request, rng):
        # slab by slab, by the same nodewise algebra: equal, not close
        d = request.getfixturevalue(which)
        it = evaluate(random_band_limited(d.geometry, rng, 3, 1.0), d, 0.0)
        eigs = hermitian_eigenvalues(gtilde(it), d.n)
        assert gtilde_eig_range(it) == (float(np.min(eigs)), float(np.max(eigs)))
