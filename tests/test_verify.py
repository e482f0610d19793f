"""The randomized identity suites, including a fault-injection check that the
suites actually detect a broken build."""

from sigma2lab import forms, verify


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

    def broken_gtilde(it):
        gt = real_gtilde(it)
        coef = 2.0 * it.data.n * it.data.alpha
        rows = gt.rows + 2.0 * coef * it.derivs.hess_rows  # sign flip of the Hessian part
        return forms.HermitianField(gt.geometry, rows)

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
