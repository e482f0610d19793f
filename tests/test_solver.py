"""Newton corrector, normalization, and the continuation loop."""

import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg import LinearOperator

from sigma2lab import cli, forms, monitors, profiles, solve, torus
from sigma2lab.errors import (
    ConeViolationError,
    ContinuationStallError,
    ConvergenceError,
    LinearSolveError,
    NormalizationError,
)
from sigma2lab.forms import ProblemData, evaluate, gamma2_mask, gprime, sigma1_field, sigma2_field
from sigma2lab.profiles import normalization_level
from sigma2lab.solve import (
    SolverConfig,
    _newton_step,
    _solve_at_t,
    normalize,
    run_and_return,
)
from sigma2lab.torus import random_band_limited


def cone_mask(u, d, margin=0.0):
    """Per-node Gamma_2 test of u's assembled g'."""
    gp = gprime(evaluate(u, d, 0.0))
    return gamma2_mask(sigma1_field(gp, d.n), sigma2_field(gp, d.n), d.n, margin)


def resnorm(u, d):
    return evaluate(u, d, 0.0).rnorm


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(newton_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(t_step_init=0.1, t_step_min=0.2)
        with pytest.raises(ValueError):
            SolverConfig(backtrack_factor=1.0)
        with pytest.raises(ValueError):
            SolverConfig(cone_margin=-1.0)
        for bad in ({"newton_tol": np.inf}, {"newton_tol": np.nan},
                    {"cone_margin": np.nan}, {"cone_margin": np.inf},
                    {"max_newton_iters": -3}):
            with pytest.raises(ValueError):
                SolverConfig(**bad)


class TestNormalize:
    def test_constant_closed_form(self, geom2):
        out = normalize(np.zeros(geom2.shape), 0.1, 4.0)
        assert np.allclose(out, np.log(10.0), rtol=0, atol=1e-14)

    def test_already_normalized_is_fixed(self, geom2, rng):
        u = normalize(random_band_limited(geom2, rng, 2, 0.8), 0.1, 4.0)
        again = normalize(u, 0.1, 4.0)
        assert np.max(np.abs(again - u)) < 1e-13

    def test_shift_invariance(self, geom2, rng):
        u = random_band_limited(geom2, rng, 2, 0.8)
        a = normalize(u, 0.1, 4.0)
        b = normalize(u + 5.0, 0.1, 4.0)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_constraint_attained(self, geom2, rng):
        u = normalize(random_band_limited(geom2, rng, 2, 1.5), 0.07, 4.0)
        assert abs(normalization_level(u, 4.0) - 0.07) < 1e-12

    def test_large_fields_do_not_overflow(self, geom2, rng):
        u = 300.0 * random_band_limited(geom2, rng, 1, 1.0)
        out = normalize(u, 0.1, 8.0)
        assert np.all(np.isfinite(out))
        assert abs(normalization_level(out, 8.0) - 0.1) < 1e-10


class TestNewtonStep:
    def test_exact_solution_is_fixed_point(self, geom2, trivial2):
        u0 = np.full(geom2.shape, -np.log(trivial2.A))
        cfg = SolverConfig()
        it, s = _newton_step(evaluate(u0, trivial2, cfg.cone_margin), cfg)
        u1 = it.u
        assert resnorm(u1, trivial2) < 1e-10
        assert np.max(np.abs(u1 - u0)) < 1e-12

    def test_local_quadratic_contraction(self, geom2, trivial2, rng):
        u0 = np.full(geom2.shape, -np.log(trivial2.A))
        pert = random_band_limited(geom2, rng, 2, 1e-3)
        u = normalize(u0 + pert, trivial2.A, 4.0)
        r_before = resnorm(u, trivial2)
        cfg = SolverConfig()
        it, s = _newton_step(evaluate(u, trivial2, cfg.cone_margin), cfg)
        r_after = resnorm(it.u, trivial2)
        assert r_after <= r_before / 10.0

    def test_cone_precondition_enforced(self, geom2):
        zero = np.zeros(geom2.shape)
        d = ProblemData(geom2, 1.0, zero, zero, 0.1, t=0.0)
        w = 2 * np.pi
        x = geom2.coordinate(0) * np.ones(geom2.shape)
        bad = -np.log(0.1) + 2.0 * np.cos(w * x)
        assert not np.all(cone_mask(bad, d))
        cfg = SolverConfig()
        with pytest.raises(ConeViolationError):
            _newton_step(evaluate(bad, d, cfg.cone_margin), cfg)

    def test_step_damped_but_margin_respected(self, geom2):
        # large source: the full Newton step overshoots, backtracking accepts
        # a damped s and the new iterate still satisfies the margin
        zero = np.zeros(geom2.shape)
        d = ProblemData(geom2, 1.0, zero, profiles.mu_profile(geom2, 200.0),
                        0.1, t=1.0)
        u0 = np.full(geom2.shape, -np.log(0.1))
        cfg = SolverConfig(cone_margin=1e-6)
        it, s = _newton_step(evaluate(u0, d, cfg.cone_margin), cfg)
        u1 = it.u
        assert s < 1.0
        assert np.all(cone_mask(u1, d, cfg.cone_margin))
        assert resnorm(u1, d) <= resnorm(normalize(u0, d.A, 4.0), d) * (1 + 1e-12)

    def test_one_trial_alive_at_a_time(self, geom2, monkeypatch):
        # a step that backtracks four times: when each trial is evaluated,
        # the rejected one before it, the operator's coefficient rows and
        # the consumed bundle and weights of the start iterate are gone,
        # though the caller still holds that iterate
        zero = np.zeros(geom2.shape)
        d = ProblemData(geom2, 1.0, zero, profiles.mu_profile(geom2, 500.0),
                        0.1, t=1.0)
        cfg = SolverConfig()
        it = evaluate(np.full(geom2.shape, -np.log(0.1)), d, cfg.cone_margin)
        coeffs, trials, alive, body = [], [], [], []
        lincoef = solve.linearization_coefficients

        def tracked_coeffs(start, *args, **kwargs):
            dv = start.derivs
            body.extend(weakref.ref(x) for x in (dv, dv.rows, dv.lap, *start.weights))
            lc = lincoef(start, *args, **kwargs)
            coeffs.append(weakref.ref(lc))
            return lc

        def tracked_trial(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in coeffs + trials + body))
            trial = evaluate(*args, **kwargs)
            trials.append(weakref.ref(trial))
            return trial

        monkeypatch.setattr(solve, "linearization_coefficients", tracked_coeffs)
        monkeypatch.setattr(solve, "evaluate", tracked_trial)
        _, s = _newton_step(it, cfg)
        assert s <= 0.25 and len(trials) >= 3 and len(body) == 6
        assert alive == [0] * len(trials)


class TestSolveAtT:
    def test_trivial_returns_start(self, geom2, trivial2):
        u0 = np.full(geom2.shape, -np.log(trivial2.A))
        cfg = SolverConfig(newton_tol=1e-10)
        start = evaluate(normalize(u0, trivial2.A, 4.0), trivial2, cfg.cone_margin)
        u = _solve_at_t(start, cfg)[0].u
        assert resnorm(u, trivial2) < 1e-10
        assert np.max(np.abs(u - u0)) < 1e-12

    def test_zero_iteration_budget(self, geom2):
        d = profiles.perturbative_problem(geom2, 1.0, 0.1, 0.05, 0.05)
        u0 = np.full(geom2.shape, -np.log(0.1))
        cfg = SolverConfig(newton_tol=1e-12, max_newton_iters=0)
        start = evaluate(normalize(u0, d.A, 4.0), d, cfg.cone_margin)
        with pytest.raises(ConvergenceError) as exc_info:
            _solve_at_t(start, cfg)
        err = exc_info.value
        assert err.best is not None
        assert len(err.history) == 1

    def test_overflowed_field_is_never_converged(self, geom2, trivial2):
        # e^{2u} overflows at u = 400, so sigma_2(g') and the right-hand side
        # are both infinite and the residual is NaN: the Newton iteration
        # must fail with a typed solver error, not return the field
        cfg = SolverConfig()
        with np.errstate(all="ignore"):
            it = evaluate(np.full(geom2.shape, 400.0), trivial2, cfg.cone_margin)
            assert np.isnan(it.rnorm)
            with pytest.raises(solve._SOLVE_FAILURES):
                _solve_at_t(it, cfg)

    def test_manufactured_recovery_coarse(self, geom2):
        data, u_star = profiles.manufactured_problem(
            geom2, alpha=1.0, base_A=0.1, amplitude=0.25, f_scale=0.05)
        cfg = SolverConfig(newton_tol=1e-9, max_newton_iters=20, t_step_init=0.5)
        report, u = run_and_return(data, cfg)
        assert report.converged
        assert np.max(np.abs(u - u_star)) < 1e-10

    def test_residual_monotone_along_newton_chain(self, geom2):
        # accepted steps never increase the residual max-norm
        data, _ = profiles.manufactured_problem(
            geom2, alpha=1.0, base_A=0.1, amplitude=0.25, f_scale=0.05)
        cfg = SolverConfig(newton_tol=1e-9)
        it = evaluate(normalize(np.full(geom2.shape, -np.log(data.A)), data.A, 4.0),
                      data, cfg.cone_margin)
        norms = [resnorm(it.u, data)]
        for _ in range(4):
            it, _ = _newton_step(it, cfg)
            norms.append(resnorm(it.u, data))
            if norms[-1] < cfg.newton_tol:
                break
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))
        assert norms[-1] < norms[0]


def newton_system(geom, rng):
    """(u, data, coefficients, residual) of the Newton system at a small
    perturbation of the manufactured solution, the arguments of
    solve_newton_system before rtol."""
    data, u_star = profiles.manufactured_problem(
        geom, alpha=1.0, base_A=0.1, amplitude=0.25, f_scale=0.05)
    pert = random_band_limited(geom, rng, 2, 1e-3)
    u = normalize(u_star + pert, data.A, data.gamma)
    it = evaluate(u, data, 0.0)
    return u, data, forms.linearization_coefficients(it), it.residual


def assert_solves_both_rows(system, v, rtol):
    # the step keeps the normalization to first order, l(v) = 0, and
    # solves L v = -R up to a constant, both to rtol
    u, data, coeffs, r = system
    omega = np.exp(-data.gamma * u)
    omega /= np.sum(omega)
    lv = coeffs.apply_to(v)
    proj_r = r - np.mean(r)
    bnorm = float(np.linalg.norm(proj_r))
    assert np.linalg.norm(lv - np.mean(lv) + proj_r) <= rtol * bnorm
    # the border row's share of the residual norm is sqrt(N) |l(v)|
    assert np.sqrt(v.size) * abs(float(np.sum(omega * v))) <= rtol * bnorm


def scribbling_failure(op, b, **kwargs):
    """A Krylov solver that overwrites b, as bicgstab does, and fails."""
    b[:] = 1.0
    return np.zeros_like(b), 1


class TestBorderedNewtonSystem:
    def test_solution_satisfies_both_rows(self, geom2, rng):
        system = newton_system(geom2, rng)
        rtol = 1e-8
        assert_solves_both_rows(system, solve.solve_newton_system(*system, rtol), rtol)

    def test_fallback_solves_the_original_system(self, geom2, rng, monkeypatch):
        # bicgstab overwrites its right-hand side, so the GMRES fallback
        # must be handed the system formed again from the residual
        system = newton_system(geom2, rng)
        rtol = 1e-8
        monkeypatch.setattr(solve, "bicgstab", scribbling_failure)
        assert_solves_both_rows(system, solve.solve_newton_system(*system, rtol), rtol)

    def test_failure_is_typed_and_measured_on_the_original_system(
            self, geom2, rng, monkeypatch):
        # both solvers fail; the fallback returns half the solution, so the
        # reported relative residual against the original b is 1/2
        system = newton_system(geom2, rng)
        r = system[3]
        v = solve.solve_newton_system(*system, 1e-10)
        seen = []

        def half_solution(op, b, **kwargs):
            seen.append(b.copy())
            return 0.5 * v.ravel(), 1

        monkeypatch.setattr(solve, "bicgstab", scribbling_failure)
        monkeypatch.setattr(solve, "gmres", half_solution)
        with pytest.raises(LinearSolveError, match=r"relative residual 5\.00e-01"):
            solve.solve_newton_system(*system, 1e-8)
        assert np.array_equal(seen[0], np.subtract(r.mean(), r).ravel())

    @pytest.mark.parametrize("rtol, maxiter, outcome", [(1e-8, 200, 0), (1e-14, 3, 3)])
    def test_bicgstab_matches_scipy(self, geom2, rng, monkeypatch, rtol, maxiter, outcome):
        # the in-place loop is scipy's iteration: the same operator applies,
        # the same outcome, converged or at the cap, and the same solution
        captured = []
        real = solve.bicgstab

        def capture(op, b, **kwargs):
            captured.append((op, kwargs["M"], b.copy()))
            return real(op, b, **kwargs)

        monkeypatch.setattr(solve, "bicgstab", capture)
        solve.solve_newton_system(*newton_system(geom2, rng), 1e-8)
        op, M, b = captured[0]
        results = []
        for krylov in (real, scipy.sparse.linalg.bicgstab):
            applies = []

            def matvec(x):
                applies.append(1)
                return op.matvec(x)

            counted = LinearOperator(op.shape, matvec=matvec, dtype=float)
            x, info = krylov(counted, b.copy(), rtol=rtol, atol=0.0, maxiter=maxiter, M=M)
            results.append((x, info, len(applies)))
        (x, info, n_applies), (x_ref, info_ref, n_ref) = results
        assert (info, n_applies) == (info_ref, n_ref)
        assert info == outcome
        assert np.linalg.norm(x - x_ref) <= rtol * np.linalg.norm(x_ref)

    def test_bicgstab_zero_rhs(self):
        op = LinearOperator((4, 4), matvec=lambda x: 2.0 * x, dtype=float)
        x, info = solve.bicgstab(op, np.zeros(4), rtol=1e-8, maxiter=10, M=op)
        assert info == 0 and not x.any()

    @pytest.mark.parametrize("which", ["geom2", "geom3"])
    def test_linear_solve_array_budget(self, which, request, rng, traced_peak):
        # above its arguments: the preconditioner symbol, omega, the six
        # BiCGStab vectors (b among them) and one operator apply's output,
        # row, spectrum and FFT scratch
        geom = request.getfixturevalue(which)
        system = newton_system(geom, rng)
        peak = traced_peak(solve.solve_newton_system, *system, 1e-8)
        assert peak <= 13 * geom.node_count * 8

    def test_quadratic_rate_at_t_one(self, geom2, monkeypatch):
        # criterion-6 data on 16^4: once the t = 1 residual is below 1e-2,
        # a quadratically convergent Newton reaches newton_tol within two
        # more steps; a linear rate needs several more
        data, _ = profiles.manufactured_problem(
            geom2, alpha=1.0, base_A=0.1, amplitude=0.25, f_scale=0.05)
        cfg = SolverConfig(newton_tol=1e-9, max_newton_iters=20, t_step_init=0.5)
        histories = {}
        real = solve._solve_at_t

        def recorded(it, cfg):
            out = real(it, cfg)
            histories[it.data.t] = out[2]
            return out

        monkeypatch.setattr(solve, "_solve_at_t", recorded)
        report, _ = run_and_return(data, cfg)
        assert report.converged
        history = histories[1.0]
        assert history[-1] < cfg.newton_tol
        first = next(i for i, rn in enumerate(history) if rn < 1e-2)
        assert len(history) - 1 - first <= 2, history

    def test_manufactured_krylov_budget(self, geom2, monkeypatch):
        # the benchmark's Krylov-bound workload (criterion-6 data on 16^4):
        # Eisenstat-Walker forcing solves it in 8 Newton steps with at most
        # 48 operator applies, where the forcing 0.01 r_k / r_0 took 57
        data, _ = profiles.manufactured_problem(
            geom2, alpha=1.0, base_A=0.1, amplitude=0.25, f_scale=0.05)
        cfg = SolverConfig(newton_tol=1e-9, max_newton_iters=20, t_step_init=0.5)
        counts = Counter()
        apply_to, step = forms.LinearCoefficients.apply_to, solve._newton_step

        def counted_apply(self, v):
            counts["applies"] += 1
            return apply_to(self, v)

        def counted_step(*args, **kwargs):
            counts["steps"] += 1
            return step(*args, **kwargs)

        monkeypatch.setattr(forms.LinearCoefficients, "apply_to", counted_apply)
        monkeypatch.setattr(solve, "_newton_step", counted_step)
        report, _ = run_and_return(data, cfg)
        assert report.converged
        assert counts["steps"] <= 8 and counts["applies"] <= 48, counts


class TestContinuityRun:
    @pytest.mark.parametrize("geom", ["geom2", "geom3"])
    def test_t0_start_is_exact(self, geom, request):
        # the continuation accepts its t = 0 start without a Newton solve:
        # the normalized constant -log A has residual exactly 0 there
        geom = request.getfixturevalue(geom)
        d = profiles.perturbative_problem(geom, 1.0, 0.1, 0.05, 0.05)
        u0 = normalize(np.full(geom.shape, -np.log(d.A)), d.A, d.gamma)
        start = evaluate(u0, d.with_t(0.0), SolverConfig().cone_margin)
        assert start.rnorm == 0.0
        assert start.in_cone

    def test_trivial_data_constant_path(self, geom2):
        d = profiles.trivial_problem(geom2, alpha=1.0, A=0.05)
        cfg = SolverConfig(newton_tol=1e-10)
        report, u = run_and_return(d, cfg)
        assert report.converged
        assert report.t_values[-1] == 1.0
        assert np.all(np.diff(report.t_values) > 0)
        assert len(report.monitor_snapshots) == len(report.t_values)
        assert np.max(np.abs(u + np.log(0.05))) < 1e-12
        for rep in report.monitor_snapshots:
            assert rep.kappa == pytest.approx(rep.kappa_c, abs=1e-12)
            assert rep.gamma2_fraction == 1.0

    def test_accepted_iterates_normalized_and_in_cone(self, geom2):
        d = profiles.perturbative_problem(geom2, 1.0, 0.1, 0.05, 0.05)
        cfg = SolverConfig(newton_tol=1e-9)
        report, u = run_and_return(d, cfg)
        assert report.converged
        assert abs(normalization_level(u, 4.0) - 0.1) < 1e-10
        assert np.all(cone_mask(u, d, cfg.cone_margin))
        assert all(rn < cfg.newton_tol for rn in report.residual_norms)
        assert all(rep.gamma2_fraction == 1.0 for rep in report.monitor_snapshots)

    def test_dimension_three_perturbative(self, geom3):
        d = profiles.perturbative_problem(geom3, alpha=1.0, A=0.1,
                                          f_scale=0.05, mu_scale=0.05)
        cfg = SolverConfig(newton_tol=1e-9)
        report, u = run_and_return(d, cfg)
        last = report.monitor_snapshots[-1]
        assert report.converged
        assert last.kappa_c == 3.0
        assert last.kappa > 0.9 * last.kappa_c
        assert last.gamma2_fraction == 1.0
        assert abs(normalization_level(u, d.gamma) - 0.1) < 1e-10

    def test_stall_on_adversarial_source(self, geom2):
        zero = np.zeros(geom2.shape)
        d = ProblemData(geom2, 1.0, zero, profiles.mu_profile(geom2, 2e4),
                        0.1, t=1.0)
        cfg = SolverConfig(newton_tol=1e-9, max_newton_iters=3,
                           t_step_init=0.25, t_step_min=0.05)
        with pytest.raises(ContinuationStallError) as exc_info:
            run_and_return(d, cfg)
        report = exc_info.value.report
        assert report is not None and not report.converged
        assert report.t_values == [0.0]  # only the trivial point was reachable
        assert exc_info.value.last_field is not None
        assert len(report.monitor_snapshots) == len(report.t_values)
        # the message names the last failed attempt's error, chained as the cause
        cause = exc_info.value.__cause__
        assert isinstance(cause, solve._SOLVE_FAILURES)
        assert f"{type(cause).__name__}: {cause}" in str(exc_info.value)


class TestFieldsAreArrays:
    def test_no_field_record_inside_the_run(self, monkeypatch):
        # in memory a field is a plain array: ScalarField is the dump's
        # record, and the default solve builds none of them
        built = []
        check = torus.ScalarField.__post_init__

        def counted(field):
            built.append(field)
            check(field)

        cfg = cli.RunConfig()
        data, _ = cfg.build_problem()
        monkeypatch.setattr(torus.ScalarField, "__post_init__", counted)
        report, u = run_and_return(data, cfg.solver_config())
        assert len(built) == 0
        assert report.converged and isinstance(u, np.ndarray)


class TestOneEvaluationPerIterate:
    def test_default_solve(self, tmp_path, patch_everywhere):
        # Count the bundles and the closed-form sigmas of g' of the default
        # CLI solve by the bytes of their field (of a and t, for the sigmas).
        # The operator applies inside the Newton system are the only bundles
        # not counted: Krylov directions are not iterates.
        bundles, sigmas = Counter(), Counter()
        in_newton_system = []
        derivs, sigmas_, system = (torus.spectral_derivatives, forms.gprime_sigmas,
                                   solve.solve_newton_system)

        def counted_derivs(u):
            if not in_newton_system:
                bundles[u.tobytes()] += 1
            return derivs(u)

        def counted_sigmas(d, dv, a):
            sigmas[(a.tobytes(), d.t)] += 1
            return sigmas_(d, dv, a)

        def marked_system(*args, **kwargs):
            in_newton_system.append(True)
            try:
                return system(*args, **kwargs)
            finally:
                in_newton_system.pop()

        for real, fake in ((derivs, counted_derivs), (sigmas_, counted_sigmas),
                           (system, marked_system)):
            patch_everywhere(real, fake)

        assert cli.main(["solve", "--out", str(tmp_path), "--no-header"]) == 0
        assert len(bundles) > 2 and len(sigmas) > 2
        assert max(bundles.values()) == 1
        assert max(sigmas.values()) == 1

    def test_monitor_on_accepted_iterate(self, geom2, patch_everywhere):
        # a monitor run on each accepted iterate reads its bundle and weights
        # instead of building them again
        bundles, accepted = Counter(), []
        derivs = torus.spectral_derivatives

        def counted_derivs(u):
            bundles[u.tobytes()] += 1
            return derivs(u)

        def on_accept(t, it):
            accepted.append(it.u.tobytes())
            floor = -1e-10 * (1.0 + float(np.max(np.abs(it.u))) ** 2)
            assert monitors.wedge_lower_bound_check(it) >= floor

        patch_everywhere(derivs, counted_derivs)
        d = profiles.perturbative_problem(geom2, 1.0, 0.1, 0.05, 0.05)
        report, _ = run_and_return(d, SolverConfig(), on_accept=on_accept)
        assert report.converged and len(accepted) == len(report.t_values)
        assert all(bundles[u] == 1 for u in accepted)
        assert max(bundles.values()) == 1


class TestGridRefinement:
    def test_spectral_consistency_between_grids(self):
        # Shared manufactured data built on the fine grid and restricted to the
        # coarse one: u* has an analytic (non-band-limited) profile, so the
        # coarse grid sees a genuine aliasing defect while the fine grid
        # resolves it to rounding.  Both the equation residual at u* and the
        # distance of the solved field from u* must collapse by >= 4 decades
        # from 16 to 32 points per axis.
        alpha = 0.2
        g32 = torus.TorusGeometry(2, 32)
        g16 = torus.TorusGeometry(2, 16)
        sl = (slice(None, None, 2),) * 4

        w = 2 * np.pi
        x1 = g32.coordinate(0) * np.ones(g32.shape)
        y2 = g32.coordinate(3) * np.ones(g32.shape)
        p = np.exp(2.2 * np.cos(w * x1)) + np.exp(1.9 * np.sin(w * y2))
        p -= p.mean()
        p /= np.max(np.abs(p))
        us32 = -np.log(0.1) + p
        us16 = us32[sl]

        gamma = 4.0
        A = normalization_level(us32, gamma)
        f32 = profiles.f_profile(g32, 0.05)
        zero32 = np.zeros(g32.shape)
        mu32 = forms.manufactured_mu(
            evaluate(us32, ProblemData(g32, alpha, f32, zero32, A, t=1.0), 0.0))
        d32 = ProblemData(g32, alpha, f32, mu32, A, t=1.0)
        f16 = f32[sl]
        mu16 = mu32[sl] - np.mean(mu32[sl])
        d16 = ProblemData(g16, alpha, f16, mu16, A, t=1.0)

        r16 = resnorm(us16, d16)
        r32 = resnorm(us32, d32)
        assert r32 <= 1e-4 * r16  # discretization residual collapses

        cfg32 = SolverConfig(newton_tol=1e-9, max_newton_iters=10)
        start32 = evaluate(normalize(us32, A, gamma), d32, cfg32.cone_margin)
        u32 = _solve_at_t(start32, cfg32)[0].u
        err32 = float(np.max(np.abs(u32 - us32)))
        # the coarse problem carries an O(aliasing) inconsistency in its mean,
        # so the coarse tolerance sits just above that plateau
        cfg16 = SolverConfig(newton_tol=5e-3, max_newton_iters=20)
        start16 = evaluate(normalize(us16, A, gamma), d16, cfg16.cone_margin)
        u16 = _solve_at_t(start16, cfg16)[0].u
        err16 = float(np.max(np.abs(u16 - us16)))
        assert err32 <= 1e-11
        assert err16 >= 1e4 * max(err32, 1e-12)


class TestNormalizeGuard:
    def test_non_finite_shift_rejected(self, geom2):
        # engineered degenerate A cannot produce a finite shift
        u = np.zeros(geom2.shape)
        with pytest.raises((NormalizationError, ZeroDivisionError)):
            normalize(u, np.nan, 4.0)
