"""Newton corrector, normalization, and the continuation loop."""

import dataclasses
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

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


def out_of_cone(geom):
    """(u, data): a t = 0 field that leaves Gamma_2 at some nodes."""
    zero = np.zeros(geom.shape)
    d = ProblemData(geom, 1.0, zero, zero, 0.1, t=0.0)
    x = geom.coordinate(0) * np.ones(geom.shape)
    bad = -np.log(0.1) + 2.0 * np.cos(2 * np.pi * x)
    assert not np.all(cone_mask(bad, d))
    return bad, d


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

    def test_memory(self, geom2_32, rng, traced_peak):
        # the integrand is released before the shifted field is formed:
        # 1.00 grid arrays on 32^4, counting the result (the integrand's
        # temporaries beside the result gave 2.00)
        u = random_band_limited(geom2_32, rng, 3, 1.0)
        assert traced_peak(normalize, u, 0.1, 4.0) <= 1.25 * geom2_32.node_count * 8

    def test_shift_holds_one_slab(self, geom2_32, rng, traced_peak):
        # the integrand is formed and summed one slab at a time, 0.03 grid
        # arrays on 32^4, so an owner of the field can shift it in place
        # with no grid-sized allocation (the whole integrand was 1.00)
        u = random_band_limited(geom2_32, rng, 3, 1.0)
        peak = traced_peak(solve._normalization_shift, u, 0.1, 4.0)
        assert peak <= 0.1 * geom2_32.node_count * 8

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
        cfg = SolverConfig()
        with pytest.raises(ConeViolationError):
            _solve_at_t(evaluate(*out_of_cone(geom2), cfg.cone_margin), cfg)

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
        # the consumed bundle of the start iterate are gone, though the
        # caller still holds that iterate, which keeps its field and
        # residual alone
        zero = np.zeros(geom2.shape)
        d = ProblemData(geom2, 1.0, zero, profiles.mu_profile(geom2, 500.0),
                        0.1, t=1.0)
        cfg = SolverConfig()
        it = evaluate(np.full(geom2.shape, -np.log(0.1)), d, cfg.cone_margin)
        coeffs, trials, alive, body = [], [], [], []
        lincoef = solve.linearization_coefficients

        def tracked_coeffs(start, *args, **kwargs):
            dv = start.derivs
            body.extend(weakref.ref(x) for x in (dv, dv.rows))
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
        assert s <= 0.25 and len(trials) >= 3 and len(body) == 2
        assert alive == [0] * len(trials)
        assert it.body is None and [f.name for f in dataclasses.fields(it)
                                    if isinstance(getattr(it, f.name), np.ndarray)] == \
            ["u", "residual"]


class TestSolveAtT:
    def test_converged_start_is_cone_tested(self, geom2):
        # a start whose residual already meets newton_tol takes no Newton
        # step, and is still refused outside the cone
        cfg = SolverConfig()
        start = dataclasses.replace(evaluate(*out_of_cone(geom2), cfg.cone_margin), rnorm=0.0)
        assert start.rnorm < cfg.newton_tol
        with pytest.raises(ConeViolationError, match="leaves Gamma_2"):
            _solve_at_t(start, cfg)

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
    solve_newton_system before rtol; that call writes the right-hand side
    over the residual."""
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


BICGSTAB = solve.bicgstab


def one_iteration(op, b, **kwargs):
    """The package's BiCGStab stopped after one iteration, short of
    convergence: a failure that runs the real loop on b."""
    return BICGSTAB(op, b, **{**kwargs, "maxiter": 1})


def krylov_system(geom, rng, monkeypatch):
    """(operator, preconditioner, right-hand side) that solve_newton_system
    hands bicgstab for newton_system(geom, rng)."""
    captured = []

    def capture(op, b, **kwargs):
        captured.append((op, kwargs["M"], b.copy()))
        return BICGSTAB(op, b, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(solve, "bicgstab", capture)
        solve.solve_newton_system(*newton_system(geom, rng), 1e-8)
    return captured[0]


def breakdown_system(case):
    """(matrix, b) on which bicgstab breaks down.  rv: the zero operator
    gives rtilde . v = 0 at once.  rho: the first step leaves r = (0, -1),
    orthogonal to rtilde = b, with omega = 0 exactly.  omega: a matrix of
    scale 1e35 makes omega ~ 1e-35, below eps^2, while rho stays O(1)."""
    rng = np.random.default_rng(3)
    return {
        "rv": (np.zeros((3, 3)), np.array([1.0, 2.0, 3.0])),
        "rho": (np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0])),
        "omega": (1e35 * (rng.standard_normal((6, 6)) + 3.0 * np.eye(6)),
                  rng.standard_normal(6)),
    }[case]


class TestBorderedNewtonSystem:
    def test_solution_satisfies_both_rows(self, geom2, rng):
        # the right-hand side -(R - mean R) is written over R's buffer and
        # left there by the solve, so the rows are checked against a copy of
        # R taken before the call
        u, data, coeffs, residual = system = newton_system(geom2, rng)
        r = residual.copy()
        rtol = 1e-8
        v = solve.solve_newton_system(*system, rtol)
        assert_solves_both_rows((u, data, coeffs, r), v, rtol)
        assert residual.tobytes() == np.subtract(r.mean(), r).tobytes()

    def test_fallback_solves_the_original_system(self, geom2, rng, monkeypatch):
        # bicgstab reads its right-hand side and leaves it intact, so after
        # its failure the GMRES fallback is handed the bytes of
        # -(R - mean R); the fallback is scipy's GMRES, which solve.gmres
        # looks up on its call and which reads the two Operator tuples
        # through aslinearoperator
        real = scipy.sparse.linalg.gmres
        seen = []

        def spy(A, b, **kwargs):
            seen.append((type(A), type(kwargs["M"]), b.copy()))
            return real(A, b, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "gmres", spy)
        monkeypatch.setattr(solve, "bicgstab", one_iteration)
        u, data, coeffs, residual = system = newton_system(geom2, rng)
        r = residual.copy()
        rtol = 1e-8
        v = solve.solve_newton_system(*system, rtol)
        assert_solves_both_rows((u, data, coeffs, r), v, rtol)
        [(op_type, m_type, b)] = seen
        assert (op_type, m_type) == (solve.Operator, solve.Operator)
        assert b.tobytes() == np.subtract(r.mean(), r).ravel().tobytes()

    def test_failure_is_typed_and_measured_on_the_original_system(
            self, geom2, rng, monkeypatch):
        # both solvers fail; the fallback returns half the solution, so the
        # reported relative residual against b = -(R - mean R) is 1/2.
        # GMRES and the ratio read the bytes formed from R before the call
        system = newton_system(geom2, rng)
        r = system[3].copy()
        v = solve.solve_newton_system(*system[:3], r.copy(), 1e-10)
        seen = []

        def half_solution(op, b, **kwargs):
            seen.append((op, b, b.copy()))
            return 0.5 * v.ravel(), 1

        monkeypatch.setattr(solve, "bicgstab", one_iteration)
        monkeypatch.setattr(solve, "gmres", half_solution)
        with pytest.raises(LinearSolveError, match=r"relative residual 5\.00e-01") as err:
            solve.solve_newton_system(*system, 1e-8)
        [(op, b, handed)] = seen
        rhs = np.subtract(r.mean(), r).ravel()
        assert handed.tobytes() == b.tobytes() == rhs.tobytes()
        ratio = float(solve._norm(op.matvec(0.5 * v.ravel()) - rhs)) / float(solve._norm(rhs))
        assert f"relative residual {ratio:.2e}" in str(err.value)

    @pytest.mark.parametrize("case, outcome", [
        ("converged", 0), ("cap", 3), ("rv", -11), ("rho", -10), ("omega", -11),
    ])
    def test_bicgstab_leaves_b_intact(self, geom2, rng, monkeypatch, case, outcome):
        # b is the shadow residual and is only read: its bytes are the same
        # after a solve of several iterations, at the iteration cap and at
        # each breakdown exit
        if case in ("converged", "cap"):
            op, M, b = krylov_system(geom2, rng, monkeypatch)
            rtol, maxiter = (1e-8, 200) if case == "converged" else (1e-14, 3)
        else:
            mat, b = breakdown_system(case)
            op = solve.Operator(mat.shape, float, lambda x: mat @ x)
            M = solve.Operator(mat.shape, float, lambda x: x.copy())
            rtol, maxiter = 1e-12, 50
        applies = []

        def matvec(x):
            applies.append(1)
            return op.matvec(x)

        before = b.tobytes()
        _, info = solve.bicgstab(solve.Operator(op.shape, float, matvec), b,
                                 rtol=rtol, maxiter=maxiter, M=M)
        assert info == outcome
        assert b.tobytes() == before
        if case == "converged":
            assert len(applies) >= 4   # two whole iterations at least

    @pytest.mark.parametrize("rtol, maxiter, outcome", [(1e-8, 200, 0), (1e-14, 3, 3)])
    def test_bicgstab_matches_scipy(self, geom2, rng, monkeypatch, rtol, maxiter, outcome):
        # the in-place loop is scipy's iteration: the same operator applies,
        # the same outcome, converged or at the cap, and the same solution
        real = solve.bicgstab
        op, M, b = krylov_system(geom2, rng, monkeypatch)
        results = []
        for krylov in (real, scipy.sparse.linalg.bicgstab):
            applies = []

            def matvec(x):
                applies.append(1)
                return op.matvec(x)

            counted = solve.Operator(op.shape, float, matvec)
            kwargs = {} if krylov is real else {"atol": 0.0}   # bicgstab's stop has atol = 0
            x, info = krylov(counted, b.copy(), rtol=rtol, maxiter=maxiter, M=M, **kwargs)
            results.append((x, info, len(applies)))
        (x, info, n_applies), (x_ref, info_ref, n_ref) = results
        assert (info, n_applies) == (info_ref, n_ref)
        assert info == outcome
        assert np.linalg.norm(x - x_ref) <= rtol * np.linalg.norm(x_ref)

    def test_scaled_preconditioner_inverts_a_scaled_operator(self, geom2, rng, monkeypatch):
        # an operator sigma(x) c Lap, c one constant on every diagonal
        # Hessian row, no other row and c0 = 0: M^{-1} r = Lap^+(r n / sigma)
        # + mean r solves the bordered system exactly for a uniform border
        # weight (u constant) and a right-hand side with mean(r / sigma) = 0,
        # up to the single-precision rounding of n / sigma
        u, data, coeffs, residual = newton_system(geom2, rng)
        n = geom2.n
        sigma = 1.0 + 0.5 * random_band_limited(geom2, rng)
        k = np.zeros_like(coeffs.k)
        k[2 * n:3 * n] = float(np.mean(coeffs.k[2 * n:3 * n])) * sigma
        scaled = forms.LinearCoefficients(k, np.zeros(geom2.shape))
        captured = []
        real = solve.bicgstab

        def capture(op, b, **kwargs):
            captured.append((op, kwargs["M"]))
            return real(op, b, **kwargs)

        monkeypatch.setattr(solve, "bicgstab", capture)
        solve.solve_newton_system(np.full(geom2.shape, float(np.mean(u))), data,
                                  scaled, residual, 1e-8)
        op, M = captured[0]
        w1, w2 = (random_band_limited(geom2, rng) for _ in range(2))
        r = sigma * (w1 - float(np.mean(sigma * w1) / np.mean(sigma * w2)) * w2)
        assert abs(np.mean(r)) < 1e-15 and abs(np.mean(r / sigma)) < 1e-15
        r = r.ravel()
        assert np.linalg.norm(op.matvec(M.matvec(r)) - r) <= 1e-6 * np.linalg.norm(r)

    def test_newton_system_takes_no_transform(self, geom2, rng, monkeypatch):
        # the preconditioner changes basis by matmuls, as the derivatives
        # do: no numpy.fft function runs in a Newton system's solve (the
        # derivative matrices, built by transforms, are cached by the
        # evaluation that forms the system)
        system = newton_system(geom2, rng)

        def no_transform(*args, **kwargs):
            raise AssertionError("transformed")

        for name in np.fft.__all__:
            monkeypatch.setattr(np.fft, name, no_transform)
        for name in ("_rfft", "_irfft"):
            monkeypatch.setattr(torus, name, no_transform)
        v = solve.solve_newton_system(*system, 1e-8)
        assert np.all(np.isfinite(v))

    def test_bicgstab_zero_rhs(self):
        op = solve.Operator((4, 4), float, lambda x: 2.0 * x)
        x, info = solve.bicgstab(op, np.zeros(4), rtol=1e-8, maxiter=10, M=op)
        assert info == 0 and not x.any()

    @pytest.mark.parametrize("case, outcome, applies", [
        ("rv", -11, 1), ("rho", -10, 2), ("omega", -11, 2),
    ])
    def test_bicgstab_breakdowns_match_scipy(self, case, outcome, applies):
        # each breakdown exit (breakdown_system) returns scipy's info and
        # iterate after as many operator applies
        mat, b = breakdown_system(case)
        results = []
        for krylov in (solve.bicgstab, scipy.sparse.linalg.bicgstab):
            count = []

            def matvec(x):
                count.append(1)
                return mat @ x

            op = solve.Operator(mat.shape, float, matvec)
            identity = solve.Operator(mat.shape, float, lambda x: x.copy())
            kwargs = {} if krylov is solve.bicgstab else {"atol": 0.0}
            x, info = krylov(op, b.copy(), rtol=1e-12, maxiter=50, M=identity, **kwargs)
            results.append((x, info, len(count)))
        (x, info, n_applies), (x_ref, info_ref, n_ref) = results
        assert (info, n_applies) == (info_ref, n_ref) == (outcome, applies)
        assert np.allclose(x, x_ref, rtol=1e-12, atol=0.0)
        assert x.any() == (case != "rv")

    @pytest.mark.parametrize("which", ["geom2", "geom3"])
    def test_linear_solve_array_budget(self, which, request, rng, traced_peak):
        # above its arguments: the preconditioner's float32 n / sigma, omega,
        # the five vectors BiCGStab forms beside b (b is written over the
        # residual, an argument) and one operator apply's output, a block
        # of its first-axis terms and three slabs (a block and a slab are
        # half the grid on 16^4; on 8^6 a block is a quarter, a slab an
        # eighth); a preconditioner apply, its result and one slab, stays
        # below that peak.  9.54 grid arrays on 16^4 and 8.13 on 8^6.  The transformed
        # preconditioner's complex64 symbol beside 1/sigma gave 10.10 and
        # 8.76; b formed beside the residual, 11.10 and 9.76; the first-axis
        # terms formed whole, 11.59 and 10.50; two first partials and a
        # row, whole, 12.1
        geom = request.getfixturevalue(which)
        system = newton_system(geom, rng)
        peak = traced_peak(solve.solve_newton_system, *system, 1e-8)
        assert peak <= {"geom2": 9.75, "geom3": 8.5}[which] * geom.node_count * 8

    def test_n3_solve_array_budget(self, geom3, traced_peak):
        # the default n = 3 solve on 8^6, traced from before its data is
        # built, peaks in the Newton step's linear solve at 31.76 grid
        # arrays; the right-hand side formed beside the residual made
        # 32.76, the operator apply's first-axis terms formed whole 33.6,
        # and f's 2n - 1 partials off the first axis and the operator
        # apply's two whole-grid scratch arrays 40.1
        def solve_default_n3():
            cfg = cli.RunConfig(n=3, points_per_axis=8)
            data, _ = cfg.build_problem()
            run_and_return(data, cfg.solver_config())

        assert traced_peak(solve_default_n3) <= 32.0 * geom3.node_count * 8

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
            histories[it.data.t] = out[1]
            return out

        monkeypatch.setattr(solve, "_solve_at_t", recorded)
        report, _ = run_and_return(data, cfg)
        assert report.converged
        history = histories[1.0]
        assert history[-1] < cfg.newton_tol
        first = next(i for i, rn in enumerate(history) if rn < 1e-2)
        assert len(history) - 1 - first <= 2, history

    def test_last_step_from_above_5e4_finishes(self, tmp_path, monkeypatch):
        # the benchmark's perturbative-n3-8 workload at seed 1: the last
        # Newton step at t = 1 starts near 6e-4, where the floor
        # newton_tol / (2 r_k) lies below 1e-6.  The forcing follows the
        # floor, so that step ends below newton_tol; clipped at 1e-6 it
        # ended at 1.1e-9 and took a fifth step
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        w = workloads.WORKLOADS["perturbative-n3-8"]
        cfg = cli.RunConfig.from_file(str(workloads.prepare(w, 1, tmp_path).config))
        data, _ = cfg.build_problem()
        histories = {}
        real = solve._solve_at_t

        def recorded(it, cfg):
            out = real(it, cfg)
            histories[it.data.t] = out[1]
            return out

        monkeypatch.setattr(solve, "_solve_at_t", recorded)
        report, _ = run_and_return(data, cfg.solver_config())
        assert report.converged
        history = histories[1.0]
        assert history[-2] > 5e-4 and history[-1] < workloads.NEWTON_TOL, history

    def test_manufactured_krylov_budget(self, geom2, monkeypatch):
        # the benchmark's Krylov-bound workload (criterion-6 data on 16^4):
        # Eisenstat-Walker forcing and the preconditioner scaled by the local
        # ellipticity solve it in 8 Newton steps with at most 41 operator
        # applies, where the unscaled preconditioner took 47
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
        assert counts["steps"] <= 8 and counts["applies"] <= 41, counts


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
        d = profiles.perturbative_problem(geom2, alpha=1.0, A=0.05, f_scale=0.0, mu_scale=0.0)
        cfg = SolverConfig(newton_tol=1e-10)
        report, u = run_and_return(d, cfg)
        t_values = [rep.t for rep in report.accepted]
        assert report.converged
        assert t_values[-1] == 1.0
        assert np.all(np.diff(t_values) > 0)
        assert np.max(np.abs(u + np.log(0.05))) < 1e-12
        for rep in report.accepted:
            assert rep.kappa == pytest.approx(rep.kappa_c, abs=1e-12)
            assert rep.gamma2_fraction == 1.0

    def test_accepted_iterates_normalized_and_in_cone(self, geom2):
        d = profiles.perturbative_problem(geom2, 1.0, 0.1, 0.05, 0.05)
        cfg = SolverConfig(newton_tol=1e-9)
        report, u = run_and_return(d, cfg)
        assert report.converged
        assert abs(normalization_level(u, 4.0) - 0.1) < 1e-10
        assert np.all(cone_mask(u, d, cfg.cone_margin))
        assert all(rep.residual_norm < cfg.newton_tol for rep in report.accepted)
        assert all(rep.gamma2_fraction == 1.0 for rep in report.accepted)

    def test_dimension_three_perturbative(self, geom3):
        d = profiles.perturbative_problem(geom3, alpha=1.0, A=0.1,
                                          f_scale=0.05, mu_scale=0.05)
        cfg = SolverConfig(newton_tol=1e-9)
        report, u = run_and_return(d, cfg)
        last = report.accepted[-1]
        assert report.converged
        assert last.kappa_c == 3.0
        assert last.kappa > 0.9 * last.kappa_c
        assert last.gamma2_fraction == 1.0
        assert abs(normalization_level(u, d.gamma) - 0.1) < 1e-10

    @pytest.mark.parametrize("geom", ["geom2", "geom3"])
    def test_perturbative_newton_budget(self, geom, request, monkeypatch):
        # the default data: the first attempt, at t = 0.25, contracts its
        # residual by about 1e-4 in its first Newton step, so dt grows by the
        # cap 4 and the next attempt is t = 1, with 2 Newton steps each
        geom = request.getfixturevalue(geom)
        d = profiles.perturbative_problem(geom, 1.0, 0.1, 0.05, 0.05)
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
        report, _ = run_and_return(d, SolverConfig())
        assert report.converged
        assert [rep.t for rep in report.accepted] == [0.0, 0.25, 1.0]
        assert counts["steps"] <= 4 and counts["applies"] <= 6, counts

    def test_growth_falls_back_to_doubling_after_a_failure(self, geom2, trivial2,
                                                          monkeypatch):
        # the first attempt fails and every later one reports a first
        # contraction of 1e-6, which alone would grow dt by 4; after the
        # failure dt doubles: 0.25 fails, 0.125, then 0.125 + 0.25
        tried = []
        solve_at_t = solve._solve_at_t

        def fake(it, cfg):
            tried.append(it.data.t)
            if len(tried) == 1:
                raise ConvergenceError("first attempt fails", best=it.u,
                                       history=[it.rnorm])
            it, _ = solve_at_t(it, cfg)
            return it, [1.0, 1e-6]

        monkeypatch.setattr(solve, "_solve_at_t", fake)
        report, _ = run_and_return(trivial2, SolverConfig())
        assert report.converged
        assert tried == [0.25, 0.125, 0.375, 0.875, 1.0]

    @pytest.mark.parametrize("history, growth", [
        ([1.0], 4.0), ([1.0, 0.0], 4.0), ([1.0, 1e-6], 4.0),
        ([1.0, 0.0625], 4.0), ([1.0, 0.1], 2.5), ([1.0, 0.125], 2.0),
        ([1.0, 0.5], 2.0), ([0.174, 2.3e-5], 4.0),
    ])
    def test_theta_growth(self, history, growth):
        assert solve._theta_growth(history) == pytest.approx(growth, rel=1e-15)

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
        # only the trivial point was reachable
        assert [rep.t for rep in report.accepted] == [0.0]
        assert exc_info.value.last_field is not None
        # the message names the last failed attempt's error, chained as the cause
        cause = exc_info.value.__cause__
        assert isinstance(cause, solve._SOLVE_FAILURES)
        assert f"{type(cause).__name__}: {cause}" in str(exc_info.value)


def full_walk(d):
    """run_and_return(d) on d's own grid alone: a coarse grid needs more
    points per axis than any grid has."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solve, "_COARSE_MIN_POINTS", 1 << 20)
        return run_and_return(d, SolverConfig())


def default_32(geom2_32, scale=0.05):
    """The CLI's default data on 32^4 nodes, f_scale = mu_scale = scale."""
    return profiles.perturbative_problem(geom2_32, 1.0, 0.1, scale, scale)


@pytest.fixture(scope="module")
def full_walk_32(geom2_32):
    return full_walk(default_32(geom2_32))


def grid_counter(monkeypatch):
    """Counts of Newton steps and operator applies keyed by (kind, points
    per axis), and of the records assembled (monitors.assemble_report, which
    estimate_report and the handover's check call) by t."""
    counts = Counter()
    apply_to, step, assemble = (forms.LinearCoefficients.apply_to, solve._newton_step,
                                monitors.assemble_report)

    def counted_apply(self, v):
        counts["applies", v.shape[0]] += 1
        return apply_to(self, v)

    def counted_step(it, *args, **kwargs):
        counts["steps", it.u.shape[0]] += 1
        return step(it, *args, **kwargs)

    def counted_assemble(d, *args):
        counts["report", d.t] += 1
        return assemble(d, *args)

    monkeypatch.setattr(forms.LinearCoefficients, "apply_to", counted_apply)
    monkeypatch.setattr(solve, "_newton_step", counted_step)
    for module in (monitors, solve):
        monkeypatch.setattr(module, "assemble_report", counted_assemble)
    return counts


def failing_on(monkeypatch, points, times):
    """Make the first `times` Newton solves on `points` per axis fail, and
    the check of a handover onto that grid find its field unsolved, so that
    the handover's Newton solve is one of them."""
    real, check, failed = solve._solve_at_t, solve._solves_as_is, []

    def fake(it, cfg):
        if it.data.geometry.points_per_axis == points and len(failed) < times:
            failed.append(it.data.t)
            raise ConvergenceError("forced failure", best=it.u, history=[it.rnorm])
        return real(it, cfg)

    def unsolved(u, d, cfg):
        if d.geometry.points_per_axis == points:
            return None
        return check(u, d, cfg)

    monkeypatch.setattr(solve, "_solve_at_t", fake)
    monkeypatch.setattr(solve, "_solves_as_is", unsolved)
    return failed


def slab_reads(monkeypatch):
    """The slabs the handover's check reads, in order (solve.evaluate_slab,
    which evaluate does not call by that name)."""
    reads, real = [], solve.evaluate_slab

    def counted(d, g, w, margin, at, out=None):
        reads.append(at)
        return real(d, g, w, margin, at, out)

    monkeypatch.setattr(solve, "evaluate_slab", counted)
    return reads


class TestGridSequencing:
    def test_default_data_finishes_on_the_coarse_walk(self, geom2_32, full_walk_32,
                                                      monkeypatch):
        # the 16^4 walk's t = 1 field, prolonged to 32^4, is already below
        # newton_tol there: the fine grid takes no Newton step, the counts
        # stay those of the full walk, and so does the solution
        counts = grid_counter(monkeypatch)
        report, u = run_and_return(default_32(geom2_32), SolverConfig())
        full_report, full_u = full_walk_32
        assert report.converged and full_report.converged
        assert float(np.max(np.abs(u - full_u))) <= 1e-12
        assert counts["steps", 32] == counts["applies", 32] == 0
        assert (counts["steps", 16], counts["applies", 16]) == (4, 6), counts
        assert [rep.t for rep in report.accepted] == [0.0, 0.25, 1.0]
        # one record per accepted t, the t = 1 one from the fine grid only
        assert [counts["report", t] for t in (0.0, 0.25, 1.0)] == [1, 1, 1]
        assert report.accepted[-1].residual_norm < SolverConfig().newton_tol
        assert report.coarse == (16, 0.0)
        assert full_report.coarse is None

    @pytest.mark.parametrize("points, times", [(16, 1 << 20), (32, 1)])
    def test_failure_falls_back_to_the_full_walk(self, geom2_32, full_walk_32,
                                                 monkeypatch, points, times):
        # a coarse walk that stalls, or a handover whose Newton solve fails,
        # leaves the fine grid to walk from t = 0: the same bytes as the
        # full walk
        failed = failing_on(monkeypatch, points, times)
        report, u = run_and_return(default_32(geom2_32), SolverConfig())
        full_report, full_u = full_walk_32
        assert failed and failed[-1] == (1.0 if points == 32 else 0.25 / 128)
        assert u.tobytes() == full_u.tobytes()
        assert [rep.row() for rep in report.accepted] == \
            [rep.row() for rep in full_report.accepted]
        assert report.coarse is None and report.converged

    def test_checked_handover_is_the_evaluated_field(self, geom2_32, monkeypatch):
        # the check reads every slab of the prolonged field and records what
        # evaluating it would: the same row, and the field itself returned
        d, cfg = default_32(geom2_32), SolverConfig()
        reads = slab_reads(monkeypatch)
        report, u = run_and_return(d, cfg)
        _, u_c = run_and_return(d.restricted(), cfg)
        u_f = normalize(torus.prolong(u_c, 32), d.A, d.gamma)
        want = monitors.estimate_report(evaluate(u_f, d.with_t(1.0), cfg.cone_margin))
        assert report.accepted[-1].row() == want.row()
        assert u.tobytes() == u_f.tobytes()
        assert reads == list(torus.slabs(geom2_32.shape))
        assert solve._solves_as_is(u_f, d.with_t(1.0), cfg).row() == want.row()

    def test_handover_shifts_the_prolonged_field_in_place(self, geom2_32, monkeypatch):
        # the prolonged field is normalized in its own buffer, so the
        # handover forms no second grid array beside it: the field returned
        # is prolong's result
        made = []
        real = solve.prolong

        def recording(u, p):
            made.append(real(u, p))
            return made[-1]

        monkeypatch.setattr(solve, "prolong", recording)
        report, u = run_and_return(default_32(geom2_32), SolverConfig())
        assert report.coarse == (16, 0.0) and len(made) == 1 and u is made[0]

    def test_two_levels_hand_over_twice(self, geom2_32, monkeypatch):
        # with 8 points per axis allowed as a coarse grid, 32^4 walks on 8^4
        # and hands over twice: the 16^4 check fails, so Newton corrects the
        # prolonged field there, and the 32^4 check passes
        monkeypatch.setattr(solve, "_COARSE_MIN_POINTS", 8)
        d, cfg = default_32(geom2_32), SolverConfig()
        report, u = run_and_return(d, cfg)
        report16, u16 = run_and_return(d.restricted(), cfg)
        want = monitors.estimate_report(evaluate(u, d.with_t(1.0), cfg.cone_margin))
        assert report.converged and report16.converged
        assert [rep.t for rep in report.accepted] == [0.0, 0.25, 1.0]
        assert report.coarse == (16, 0.0)
        assert report16.coarse[0] == 8 and report16.coarse[1] > 0.0
        assert report.accepted[-1].row() == want.row()
        assert u.tobytes() == normalize(torus.prolong(u16, 32), d.A, d.gamma).tobytes()

    @pytest.mark.parametrize("slab", [1, 31])
    def test_one_node_above_tolerance_falls_through_to_newton(self, geom2_32, monkeypatch,
                                                              slab):
        # mu raised by 1e-9 at one node of odd indices, which injection does
        # not see, puts 4e-9 > newton_tol into the residual of the prolonged
        # field there: the check stops on that node's slab, and Newton
        # corrects the field to the bytes of a handover that skips the check
        d = default_32(geom2_32)
        mu = d.mu.copy()
        mu[slab, 1, 1, 1] += 1e-9
        d = ProblemData(geom2_32, d.alpha, d.f, mu, d.A, f_derivs=d.f_derivs)
        failed = failing_on(monkeypatch, 32, 0)   # no Newton failure, the check skipped
        want_report, want_u = run_and_return(d, SolverConfig())
        monkeypatch.undo()
        counts, reads = grid_counter(monkeypatch), slab_reads(monkeypatch)
        report, u = run_and_return(d, SolverConfig())
        assert failed == [] and reads == list(torus.slabs(geom2_32.shape))[:slab + 1]
        assert counts["steps", 32] >= 1 and report.coarse[1] > 0.0
        assert u.tobytes() == want_u.tobytes()
        assert [rep.row() for rep in report.accepted] == \
            [rep.row() for rep in want_report.accepted]
        assert report.coarse == want_report.coarse

    def test_memory_budget(self, geom2_32, traced_peak):
        # the 16^4 walk and the 32^4 handover peak at 2.06 grid arrays above
        # the data: the handover's check holds the prolonged field, a block
        # of each first-axis term of its bundle, a chunk of columns, one
        # slab of the bundle and slab temporaries.  Holding w = u - u(0)
        # whole in the check made it 3.0, and the two first-axis terms
        # formed whole 4.2; storing the field's bundle and a residual grid array
        # for the check, as an evaluation does, 10.4; with f's two arrays
        # formed in the run it was 12.4, whole-grid temporaries in the
        # evaluation had made that 23.1, and a stored bundle Laplacian,
        # e^{+-u}, a and f's other partials 19.4
        peak = traced_peak(run_and_return, default_32(geom2_32), SolverConfig())
        assert peak <= 2.25 * geom2_32.node_count * 8

    def test_fine_steps_hold_no_extra_array(self, geom2_32, traced_peak, monkeypatch):
        # f_scale = mu_scale = 4: the fine grid takes 2 Newton steps from the
        # prolonged field, and the sequenced run peaks no higher than the
        # full walk (holding the first fine iterate made it 30.5 against 29.1)
        # each run on fresh data
        full = traced_peak(full_walk, default_32(geom2_32, 4.0))
        counts = grid_counter(monkeypatch)
        seq = traced_peak(run_and_return, default_32(geom2_32, 4.0), SolverConfig())
        assert counts["steps", 32] == 2, counts
        assert seq <= full


class TestFDerivativesOnce:
    """f's derivatives are formed when its data is built: a solve forms them
    only for the coarse data it builds."""

    def test_continuation_forms_none(self, geom2, derivative_log):
        d = profiles.perturbative_problem(geom2, 1.0, 0.1, 0.05, 0.05)
        derivative_log.clear()
        report, _ = run_and_return(d, SolverConfig())
        assert report.converged and report.coarse is None
        assert derivative_log == []

    def test_sequenced_solve_forms_only_the_coarse_grids(self, geom2_32, derivative_log):
        d = default_32(geom2_32)
        derivative_log.clear()
        report, _ = run_and_return(d, SolverConfig())
        coarse = torus.TorusGeometry(2, 16).shape
        assert report.coarse == (16, 0.0)
        assert derivative_log == [("data", coarse), ("f", coarse)]


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
        # CLI solve by the bytes of their field (for the sigmas, of the slab
        # of a, the slab's position in its bundle and t: two slabs of a
        # constant field have the same bytes).
        # The operator applies inside the Newton system are the only bundles
        # not counted: Krylov directions are not iterates.
        bundles, sigmas = Counter(), Counter()
        fresh = []    # the fields evaluated with no bundle given
        starts = []   # the t = 0 fields given a bundle: the constant starts
        in_newton_system = []
        derivs, sigmas_, system, evaluate_ = (torus.spectral_derivatives, forms.gprime_sigmas,
                                              solve.solve_newton_system, forms.evaluate)

        def counted_derivs(u):
            if not in_newton_system:
                bundles[u.tobytes()] += 1
            return derivs(u)

        def counted_sigmas(d, dv, a):
            rows = dv.rows
            while rows.base is not None:
                rows = rows.base
            offset = dv.rows.ctypes.data - rows.ctypes.data
            sigmas[(a.tobytes(), offset, d.t)] += 1
            return sigmas_(d, dv, a)

        def marked_system(*args, **kwargs):
            in_newton_system.append(True)
            try:
                return system(*args, **kwargs)
            finally:
                in_newton_system.pop()

        def counted_evaluate(u, d, margin, derivs=None):
            if derivs is None:
                fresh.append(u.tobytes())
            elif d.t == 0.0:
                starts.append(u.tobytes())
            return evaluate_(u, d, margin, derivs)

        for real, fake in ((derivs, counted_derivs), (sigmas_, counted_sigmas),
                           (system, marked_system), (evaluate_, counted_evaluate)):
            patch_everywhere(real, fake)

        assert cli.main(["solve", "--out", str(tmp_path), "--no-header"]) == 0
        assert len(bundles) > 2 and len(sigmas) > 2
        assert max(bundles.values()) == 1
        assert max(sigmas.values()) == 1
        # every fresh field is transformed once, and the constant start,
        # which is given the zero bundle, not at all: one bundle fewer per run
        assert fresh and all(bundles[u] == 1 for u in fresh)
        assert len(starts) == 1 and bundles[starts[0]] == 0

    def test_monitor_on_accepted_iterate(self, geom2, patch_everywhere):
        # the monitors, and a further monitor run on each accepted iterate,
        # read its bundle and weights instead of building them again
        bundles, accepted = Counter(), []
        derivs, report_ = torus.spectral_derivatives, monitors.estimate_report

        def counted_derivs(u):
            bundles[u.tobytes()] += 1
            return derivs(u)

        def recorded_report(it):
            rep = report_(it)
            accepted.append(it.u.tobytes())
            floor = -1e-10 * (1.0 + float(np.max(np.abs(it.u))) ** 2)
            assert monitors.wedge_lower_bound_check(it) >= floor
            return rep

        patch_everywhere(derivs, counted_derivs)
        patch_everywhere(report_, recorded_report)
        d = profiles.perturbative_problem(geom2, 1.0, 0.1, 0.05, 0.05)
        report, _ = run_and_return(d, SolverConfig())
        assert report.converged and len(accepted) == len(report.accepted)
        # the t = 0 iterate is the constant start, whose bundle is 0 untransformed
        assert bundles[accepted[0]] == 0
        assert all(bundles[u] == 1 for u in accepted[1:])
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
