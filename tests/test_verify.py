"""The randomized identity suites, including a fault-injection check that the
suites actually detect a broken build."""

import numpy as np

from sigma2lab import forms, symfun, torus, verify


def test_all_suites_pass_fast_mode():
    results = verify.run_all(seed=20_240_817, fast=True)
    assert len(results) == len(verify.ALL_SUITES)
    for res in results:
        assert res.passed, f"{res.name}: {res.detail}"


def test_verdicts_seed_robust():
    for seed in (1, 2):
        for res in verify.run_all(seed=seed, fast=True):
            assert res.passed, f"seed {seed}, {res.name}: {res.detail}"


def test_injected_fault_is_caught(monkeypatch):
    # flip the sign of the Hessian block inside the linearization metric:
    # the sigma-relation suite must fail with a concrete counterexample
    real_gtilde = forms.gtilde

    def broken_gtilde(d, dv, a):
        coef = 2.0 * d.n * d.alpha
        return real_gtilde(d, dv, a) + 2.0 * coef * dv.hess_rows  # sign flip of the Hessian part

    monkeypatch.setattr(forms, "gtilde", broken_gtilde)
    res = verify.suite_sigma_relations_fields(seed=3, fields=2)
    assert not res.passed
    assert "counterexample" in res.detail


def test_residual_fault_is_caught(monkeypatch):
    # a wrong proportionality constant must break the equivalence suite
    real = forms.residual_fy1

    def broken(it):
        return 1.01 * real(it)

    monkeypatch.setattr(forms, "residual_fy1", broken)
    res = verify.suite_residual_proportionality(seed=3, fields=2)
    assert not res.passed


def test_grw_fault_is_caught(monkeypatch):
    # the grw-gap suite runs the package's own inequality: a slack that is
    # 1 too small must fail it
    real = symfun.grw_gap
    monkeypatch.setattr(symfun, "grw_gap", lambda lam, a: real(lam, a) - 1.0)
    res = verify.suite_grw_gap(seed=3, samples=300)
    assert not res.passed
    assert "counterexample" in res.detail


def test_leading_product_fault_is_caught(monkeypatch):
    real = symfun.leading_product_gap
    monkeypatch.setattr(symfun, "leading_product_gap", lambda lam: real(lam) - 1.0)
    res = verify.suite_leading_product(seed=3, samples=300)
    assert not res.passed
    assert "counterexample" in res.detail


def test_nan_slack_fails(monkeypatch):
    # a NaN compares False against any bound; the suite must still fail on it
    real = symfun.leading_product_gap

    def one_nan(lam):
        gap = real(lam)
        gap[len(gap) // 2] = np.nan
        return gap

    monkeypatch.setattr(symfun, "leading_product_gap", one_nan)
    res = verify.suite_leading_product(seed=3, samples=300)
    assert not res.passed
    assert "nan" in res.detail


def test_wedge_conjugation_fault_is_caught(monkeypatch):
    # the density contracted with the transposed Hessian, whose packed rows
    # are the Hessian's with every imaginary part negated: only the
    # integration by parts on generic fields can see it
    real = torus.mixed_wedge_density

    def transposed(dv):
        rows = dv.rows.copy()
        n = dv.n
        rows[3 * n + 1::2] *= -1.0
        return real(torus.Derivs(rows))

    monkeypatch.setattr(torus, "mixed_wedge_density", transposed)
    res = verify.suite_wedge_identity(seed=3, fields=2)
    assert not res.passed
    assert "generic field" in res.detail
