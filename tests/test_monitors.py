"""Estimate monitors, integral-identity checks, and the wedge lower bound."""

import numpy as np
import pytest

from sigma2lab import cli, profiles, solve, torus
from sigma2lab.errors import HypothesisError, RangeUnderflowError
from sigma2lab.forms import ProblemData, evaluate
from sigma2lab.monitors import (
    CSV_COLUMNS,
    estimate_report,
    moser_identity_gap,
    reverse_sobolev_constant,
    wedge_lower_bound_check,
)
from sigma2lab.torus import random_band_limited


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
        rep = estimate_report(evaluate(u0, trivial2, 0.0))
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


class TestCsv:
    def test_header_and_row_shapes(self, geom2, trivial2, tmp_path):
        # the one CSV path: CSV_COLUMNS and EstimateReport.row, written by
        # the CLI's writer
        u0 = np.full(geom2.shape, -np.log(trivial2.A))
        rep = estimate_report(evaluate(u0, trivial2, 0.0))
        path = tmp_path / "monitors.csv"
        cli._write_csv(path, "solve", CSV_COLUMNS, [rep.row(0.0, 1e-12)], True)
        header, row = (line.split(",") for line in path.read_text().splitlines())
        assert len(header) == len(row) == len(CSV_COLUMNS)
        assert header[0] == "t"
        assert float(row[CSV_COLUMNS.index("kappa")]) == rep.kappa
