"""Estimate monitors, integral-identity checks, and the wedge lower bound."""

import math

import numpy as np
import pytest

from sigma2lab import cli, forms, profiles, solve, torus
from sigma2lab.errors import HypothesisError, RangeUnderflowError
from sigma2lab.forms import ProblemData, evaluate, gtilde, hermitian_eigenvalues, weights
from sigma2lab.monitors import (
    CSV_COLUMNS,
    estimate_report,
    moser_identity_gap,
    reverse_sobolev_constant,
    wedge_lower_bound_check,
)
from sigma2lab.torus import mixed_wedge_density, random_band_limited


def near_solution(d, rng):
    """d evaluated at -log A, the t = 0 solution, plus a perturbation small
    enough that gtilde stays positive."""
    u = -np.log(d.A) + random_band_limited(d.geometry, rng, 2, 0.01)
    return evaluate(u, d, 0.0)


@pytest.fixture(scope="module")
def near_solution_32(geom2_32):
    """An iterate on 32^4 nodes, 32 slabs of one first-axis index each."""
    d = ProblemData(geom2_32, 0.8, profiles.f_profile(geom2_32, 0.3),
                    profiles.mu_profile(geom2_32, 0.5), 0.15, t=0.7)
    return near_solution(d, np.random.default_rng(3))


@pytest.fixture(scope="module")
def solved_manufactured():
    """A solved smooth problem on the coarse grid (exact solution known)."""
    geom = torus.TorusGeometry(2, 16)
    data, u_star = profiles.manufactured_problem(
        geom, alpha=1.0, base_A=0.1, amplitude=0.25, f_scale=0.05)
    cfg = solve.SolverConfig(newton_tol=1e-9, max_newton_iters=20, t_step_init=0.5)
    report, u = solve.run_and_return(data, cfg)
    assert report.converged
    return geom, data, u, u_star


class TestEstimateReport:
    def test_trivial_closed_forms(self, geom2, trivial2):
        u0 = np.full(geom2.shape, -np.log(trivial2.A))
        it = evaluate(u0, trivial2, 0.0)
        rep = estimate_report(it)
        assert (rep.t, rep.residual_norm) == (trivial2.t, it.rnorm)
        assert rep.inf_u == rep.sup_u == pytest.approx(-np.log(trivial2.A))
        assert rep.c0_low_ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.c0_high_ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.c1_max == 0.0
        assert rep.kappa == pytest.approx(1.0, abs=1e-12)     # kappa_c for n=2
        assert rep.kappa_c == 1.0
        assert rep.gamma2_fraction == 1.0
        want_eig = (2 - 1) / trivial2.A
        assert rep.gtilde_eig_min == pytest.approx(want_eig, rel=1e-12)
        assert rep.gtilde_eig_max == pytest.approx(want_eig, rel=1e-12)

    def test_trivial_n3(self, geom3):
        zero = np.zeros(geom3.shape)
        d = ProblemData(geom3, 1.0, zero, zero, 0.1, t=0.0)
        u0 = np.full(geom3.shape, -np.log(0.1))
        rep = estimate_report(evaluate(u0, d, 0.0))
        assert rep.kappa == pytest.approx(3.0, abs=1e-12)
        assert rep.kappa_c == 3.0
        assert rep.gtilde_eig_min == pytest.approx(2.0 / 0.1, rel=1e-12)

    def test_one_pass_over_the_slabs(self, problem2, rng, patch_everywhere):
        # the C^1 reading and gtilde's eigenvalue range are read on each
        # slab in one pass (a pass for each gave 2)
        it = evaluate(random_band_limited(problem2.geometry, rng, 2, 0.5), problem2, 0.0)
        passes, slabs = [], torus.slabs

        def counted(shape):
            passes.append(shape)
            return slabs(shape)

        patch_everywhere(slabs, counted)
        estimate_report(it)
        assert passes == [problem2.geometry.shape]

    def test_weights_formed_once_per_slab(self, near_solution_32, patch_everywhere):
        # the C^1 reading and gtilde read each slab's one set of weights
        # (forming them for each gave 64 on 32^4)
        calls, real = [], forms.weights

        def counted(*args):
            calls.append(args)
            return real(*args)

        patch_everywhere(real, counted)
        estimate_report(near_solution_32)
        assert len(calls) == len(list(torus.slabs(near_solution_32.u.shape))) == 32


@pytest.fixture(scope="module")
def solved_perturbative():
    """The perturbative problem on 16^4 at f_scale = mu_scale = 1, solved:
    its Hessian has off-diagonal imaginary parts, unlike the manufactured
    solution's."""
    data = profiles.perturbative_problem(torus.TorusGeometry(2, 16), 1.0, 0.1, 1.0, 1.0)
    report, u = solve.run_and_return(data, solve.SolverConfig())
    assert report.converged
    return evaluate(u, data, 0.0)


class TestMoserIdentity:
    def test_trivial_data_gap_is_zero(self, geom2, trivial2):
        u0 = np.full(geom2.shape, -np.log(trivial2.A))
        it = evaluate(u0, trivial2, 0.0)
        for k in (2.0, 4.0, 8.0):
            assert moser_identity_gap(it, k) == 0.0

    def test_solved_field_gap_small(self, solved_manufactured):
        _, data, u, _ = solved_manufactured
        it = evaluate(u, data, 0.0)
        for k in (2.0, 4.0, 8.0):
            assert moser_identity_gap(it, k) < 1e-8

    def test_non_solution_gap_large(self, solved_manufactured, rng):
        geom, data, u, _ = solved_manufactured
        bad = u + random_band_limited(geom, rng, 2, 0.3)
        assert moser_identity_gap(evaluate(bad, data, 0.0), 4.0) > 1e-3

    def test_weight_validation(self, geom2, trivial2):
        u0 = np.full(geom2.shape, -np.log(trivial2.A))
        with pytest.raises(ValueError):
            moser_identity_gap(evaluate(u0, trivial2, 0.0), 0.0)

    def test_underflowed_weight_is_an_error(self, geom2, trivial2):
        # e^{-ku} underflows to 0 at every node of u = -log A ~ 3: every term
        # of the identity would be 0, a gap of 0 that measures nothing
        it = evaluate(np.full(geom2.shape, -np.log(trivial2.A)), trivial2, 0.0)
        assert moser_identity_gap(it, 200.0) == 0.0   # e^{-600} is a float64
        with pytest.raises(RangeUnderflowError, match="underflowed"):
            moser_identity_gap(it, 300.0)

    def test_solved_perturbative_gap_small(self, solved_perturbative):
        # the density contracted the other way round reads 1.8e-3 here
        for k in (2.0, 4.0, 8.0):
            assert moser_identity_gap(solved_perturbative, k) < 1e-8

    @pytest.mark.parametrize("grid, budget", [("32^4", 1.0), ("8^6", 2.0)])
    def test_memory(self, grid, budget, near_solution_32, problem3, rng, traced_peak):
        # every integrand is summed on its slab: 0.22 grid arrays on 32^4 and
        # 0.88 on 8^6, whose slabs are an eighth of the grid (whole-grid
        # weights, integrands and complex matrices gave 18 and 32)
        it = near_solution_32 if grid == "32^4" else near_solution(problem3, rng)
        assert traced_peak(moser_identity_gap, it, 4.0) <= budget * it.u.size * 8


class TestReverseSobolev:
    def test_constant_field_is_zero(self, geom2, trivial2):
        it = evaluate(np.full(geom2.shape, 1.3), trivial2, 0.0)
        assert reverse_sobolev_constant(it, 4.0) == 0.0

    def test_bounded_over_k_on_solved_field(self, solved_manufactured):
        _, data, u, _ = solved_manufactured
        it = evaluate(u, data, 0.0)
        consts = [reverse_sobolev_constant(it, k) for k in (4.0, 8.0, 16.0, 32.0)]
        assert all(np.isfinite(c) and c >= 0.0 for c in consts)
        # empirical uniform bound for solved fields on this data family
        assert max(consts) < 20.0

    def test_steep_non_solution_finite(self, geom2, trivial2, rng):
        u = 5.0 * random_band_limited(geom2, rng, 2, 1.0)
        c = reverse_sobolev_constant(evaluate(u, trivial2, 0.0), 8.0)
        assert np.isfinite(c) and c > 0.0

    def test_overflowed_constant_is_an_error(self, geom2, trivial2, rng):
        # k^2 overflows float64: the constant would read inf
        it = evaluate(random_band_limited(geom2, rng, 2, 0.5), trivial2, 0.0)
        assert np.isfinite(reverse_sobolev_constant(it, 1e100))
        with pytest.raises(RangeUnderflowError, match="overflows"):
            reverse_sobolev_constant(it, 1e300)

    def test_k_validation(self, geom2, trivial2):
        with pytest.raises(ValueError):
            reverse_sobolev_constant(evaluate(np.zeros(geom2.shape), trivial2, 0.0), 0.5)

    @pytest.mark.parametrize("grid", ["32^4", "8^6"])
    def test_memory(self, grid, near_solution_32, problem3, rng, traced_peak):
        # the three integrals are summed on each slab: 0.06 grid arrays on
        # 32^4 and 0.25 on 8^6 (whole-grid integrands gave 3, and the
        # weights of each slab, unread, 0.16 and 0.63)
        it = near_solution_32 if grid == "32^4" else near_solution(problem3, rng)
        assert traced_peak(reverse_sobolev_constant, it, 4.0) <= it.u.size * 8

    def test_forms_no_weights(self, near_solution_32, patch_everywhere):
        # no integral reads e^{+-u} or a (the slab walk forming them gave
        # one set per slab, 32 on 32^4)
        calls, real = [], forms.weights

        def counted(*args):
            calls.append(args)
            return real(*args)

        patch_everywhere(real, counted)
        reverse_sobolev_constant(near_solution_32, 4.0)
        assert not calls


class TestWedgeLowerBound:
    def test_constant_field_exact_zero(self, geom2, trivial2):
        u0 = np.full(geom2.shape, -np.log(trivial2.A))
        assert wedge_lower_bound_check(evaluate(u0, trivial2, 0.0)) == 0.0

    def test_solved_field_nonnegative(self, solved_manufactured):
        _, data, u, _ = solved_manufactured
        scale = 1.0 + float(np.max(np.abs(u))) ** 2
        assert wedge_lower_bound_check(evaluate(u, data, 0.0)) >= -1e-10 * scale

    def test_hypothesis_error_when_metric_not_positive(self, geom2):
        zero = np.zeros(geom2.shape)
        d = ProblemData(geom2, 1.0, zero, zero, 0.1, t=0.0)
        w = 2 * np.pi
        x = geom2.coordinate(0) * np.ones(geom2.shape)
        bad = -np.log(0.1) + 2.5 * np.cos(w * x)
        with pytest.raises(HypothesisError):
            wedge_lower_bound_check(evaluate(bad, d, 0.0))

    @pytest.mark.parametrize("which", ["problem2", "problem3"])
    def test_slack_is_the_whole_grid_minimum(self, which, request, rng):
        # read slab by slab by the same nodewise algebra: equal, not close
        d = request.getfixturevalue(which)
        it = near_solution(d, rng)
        a = weights(it.u, d).a
        assert np.min(hermitian_eigenvalues(gtilde(d, it.derivs, a), d.n)) > 0.0
        bound = math.factorial(d.n - 1) / (2.0 * d.n * d.alpha)
        slack = mixed_wedge_density(it.derivs) + bound * it.derivs.grad_sq * a
        assert wedge_lower_bound_check(it) == float(np.min(slack))

    @pytest.mark.parametrize("grid, budget", [("32^4", 1.0), ("8^6", 5.0)])
    def test_memory(self, grid, budget, near_solution_32, problem3, rng, traced_peak):
        # every temporary is a slab: 0.28 grid arrays on 32^4 and 3.50 on
        # 8^6, whose slabs are an eighth of the grid (the whole-grid density
        # and its complex matrices gave 16 and 30)
        it = near_solution_32 if grid == "32^4" else near_solution(problem3, rng)
        peak = traced_peak(wedge_lower_bound_check, it)
        assert peak <= budget * it.u.size * 8


class TestCsv:
    def test_header_and_row_shapes(self, geom2, trivial2, tmp_path):
        # the one CSV path: CSV_COLUMNS and EstimateReport.row, written by
        # the CLI's writer
        u0 = np.full(geom2.shape, -np.log(trivial2.A))
        rep = estimate_report(evaluate(u0, trivial2, 0.0))
        path = tmp_path / "monitors.csv"
        cli._write_csv(path, "solve", CSV_COLUMNS, [rep.row()], True)
        header, row = (line.split(",") for line in path.read_text().splitlines())
        assert len(header) == len(row) == len(CSV_COLUMNS)
        assert header[:2] == ["t", "residual_norm"]
        assert float(row[0]) == rep.t and float(row[1]) == rep.residual_norm
        assert float(row[CSV_COLUMNS.index("kappa")]) == rep.kappa
