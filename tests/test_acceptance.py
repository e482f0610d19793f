"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Criterion 11 is an empirical observation of the perturbative regime, not a
guaranteed constant; its failure warrants investigation rather than
automatic rejection, which the assertion message records.
"""

import time

import numpy as np
import pytest

from sigma2lab import forms, monitors, profiles, solve, symfun, torus, verify
from sigma2lab.degeneracy import DegeneracyProbe, minimum_rhs, n2_bound_sides, n2_reduced_rhs, n3_path
from sigma2lab.symfun import sample_gamma2

SEED = 20_240_817


def report_line(tag, passed, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def manufactured_run():
    """Criterion 6 workload, shared with criterion 10: n=2, 32 points/axis,
    smooth low-mode exact solution, continuation from the trivial start."""
    geom = torus.TorusGeometry(2, 32)
    data, u_star = profiles.manufactured_problem(
        geom, alpha=1.0, base_A=0.1, amplitude=0.25, f_scale=0.05)
    cfg = solve.SolverConfig(newton_tol=1e-9, max_newton_iters=20, t_step_init=0.5)
    wedge_slacks = []

    def record_wedge(t, it):
        wedge_slacks.append((t, monitors.wedge_lower_bound_check(it)))

    start = time.perf_counter()
    report, u = solve.run_and_return(data, cfg, on_accept=record_wedge)
    elapsed = time.perf_counter() - start
    return {
        "geom": geom, "data": data, "u_star": u_star, "report": report,
        "u": u, "elapsed": elapsed, "wedge_slacks": wedge_slacks,
    }


def test_criterion_1_symmetric_function_relations():
    start = time.perf_counter()
    res = verify.suite_symfun_relations(SEED, samples=10_000, tol=1e-11)
    elapsed = time.perf_counter() - start
    report_line("C1 sigma-relations", res.passed and elapsed < 5.0,
                f"{res.detail}; {elapsed:.2f}s (budget 5s)")


def test_criterion_2_guan_ren_wang_gap():
    start = time.perf_counter()
    res = verify.suite_grw_gap(SEED, samples=10_000, tol=1e-12)
    elapsed = time.perf_counter() - start
    report_line("C2 concavity-gap", res.passed and elapsed < 5.0,
                f"{res.detail}; {elapsed:.2f}s (budget 5s)")


def test_criterion_3_leading_product_bound():
    res = verify.suite_leading_product(SEED, samples=10_000, tol=1e-12)
    report_line("C3 leading-product", res.passed, res.detail)


def test_criterion_4_residual_form_equivalence():
    start = time.perf_counter()
    res = verify.suite_residual_proportionality(SEED, fields=100, tol=1e-10)
    elapsed = time.perf_counter() - start
    report_line("C4 residual-equivalence", res.passed and elapsed < 60.0,
                f"{res.detail}; {elapsed:.1f}s (budget 60s)")


def test_criterion_5_trivial_solution():
    start = time.perf_counter()
    details = []
    ok = True
    for n, points, kappa_c in ((2, 16, 1.0), (3, 8, 3.0)):
        geom = torus.TorusGeometry(n, points)
        zero = np.zeros(geom.shape)
        d = forms.ProblemData(geom, 1.0, zero, zero, 0.05, t=0.0)
        u0 = np.full(geom.shape, -np.log(0.05))
        it = forms.evaluate(u0, d, 0.0)
        rnorm, kappa = it.rnorm, it.kappa
        ok &= rnorm < 1e-10 and abs(kappa - kappa_c) <= 1e-12
        details.append(f"n={n}: residual {rnorm:.2e}, |kappa-{kappa_c:g}| = {abs(kappa - kappa_c):.2e}")
    elapsed = time.perf_counter() - start
    report_line("C5 trivial-solution", ok and elapsed < 5.0,
                "; ".join(details) + f"; {elapsed:.2f}s (budget 5s)")


def test_criterion_6_manufactured_solution(manufactured_run):
    run = manufactured_run
    err = float(np.max(np.abs(run["u"] - run["u_star"])))
    it = forms.evaluate(run["u"], run["data"], 0.0)
    gaps = {k: monitors.moser_identity_gap(it, k) for k in (2.0, 4.0, 8.0)}
    ok = (run["report"].converged and err < 1e-8
          and all(g < 1e-8 for g in gaps.values())
          and run["elapsed"] < 600.0)
    detail = (f"L_inf error {err:.2e} (tol 1e-8); identity gaps "
              + ", ".join(f"k={k:g}: {g:.2e}" for k, g in gaps.items())
              + f"; solve {run['elapsed']:.0f}s (budget 600s)")
    report_line("C6 manufactured-solution", ok, detail)


def test_criterion_7_linearization_certification():
    res = verify.suite_linearize_fd(SEED, pairs=20, tol=1e-6)
    report_line("C7 linearization-vs-fd", res.passed, res.detail)


def test_criterion_8_n3_degeneracy_path():
    start = time.perf_counter()
    worst_rhs = 0.0
    worst_kp = 0.0
    for s in np.linspace(0.0, 1.0, 101):
        kp, rhs = n3_path(float(s))
        worst_rhs = max(worst_rhs, abs(rhs - (s * s - 1.0) ** 2 / 9.0))
        worst_kp = max(worst_kp, abs(kp - (2 * s + s * s)))
    elapsed = time.perf_counter() - start
    ok = worst_rhs <= 1e-12 and worst_kp <= 1e-12 and elapsed < 1.0
    report_line("C8 n3-path", ok,
                f"max |rhs - (s^2-1)^2/9| = {worst_rhs:.2e}, "
                f"max |kappa_p - (2s+s^2)| = {worst_kp:.2e}; {elapsed:.3f}s (budget 1s)")


def test_criterion_9_n2_reduction_consistency():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        m = sample_gamma2(rng, 2, 1)[0]
        w1 = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(0.0, 0.4))
        probe = DegeneracyProbe(2, m, np.array([w1, 1.0 - w1]), theta)
        combo = (w1 * n2_reduced_rhs(probe.kappa_p, theta, (m[1], m[0]))
                 + (1.0 - w1) * n2_reduced_rhs(probe.kappa_p, theta, (m[0], m[1])))
        worst = max(worst, abs(minimum_rhs(probe) - combo))
    lhs, rhs = n2_bound_sides(1.0, 0.0)
    exact_equality = (lhs == rhs)
    ok = worst <= 1e-12 and exact_equality
    report_line("C9 n2-reduction", ok,
                f"worst reduction gap {worst:.2e} (tol 1e-12); "
                f"sides at (1,0): {lhs} == {rhs}")


def test_criterion_10_wedge_identity_and_lower_bound(manufactured_run):
    res = verify.suite_wedge_identity(SEED, fields=20, tol=1e-10)
    slacks = manufactured_run["wedge_slacks"]
    scale = 1.0 + float(np.max(np.abs(manufactured_run["u"]))) ** 2
    floor = -1e-10 * scale
    slack_ok = all(s >= floor for _, s in slacks)
    worst = min(s for _, s in slacks)
    ok = res.passed and slack_ok and len(slacks) == len(manufactured_run["report"].t_values)
    report_line("C10 wedge-identity", ok,
                f"{res.detail}; min iterate slack {worst:.2e} "
                f"over {len(slacks)} accepted t (floor {floor:.1e})")


def test_criterion_11_perturbative_nondegeneracy():
    # Empirical check of the small-data regime; a failure here triggers
    # investigation of the continuation path, not automatic rejection.
    geom = torus.TorusGeometry(2, 16)
    data = profiles.perturbative_problem(geom, alpha=1.0, A=0.05,
                                         f_scale=0.05, mu_scale=0.05)
    cfg = solve.SolverConfig(newton_tol=1e-9)
    report, u = solve.run_and_return(data, cfg)
    kappa = report.monitor_snapshots[-1].kappa
    kappa_c = report.monitor_snapshots[-1].kappa_c
    ok = report.converged and kappa >= 0.9 * kappa_c
    report_line("C11 perturbative-kappa", ok,
                f"converged={report.converged}, kappa = {kappa:.6f} "
                f">= 0.9*kappa_c = {0.9 * kappa_c:.2f} (empirical regime check)")
