"""Minimum-point inequality evaluators and the dimension-specific reductions."""

import numpy as np
import pytest

from sigma2lab.degeneracy import (
    DegeneracyProbe,
    minimum_rhs,
    n2_bound_sides,
    n2_reduced_rhs,
    n2_sweep,
    n3_path,
    n3_sweep,
)
from sigma2lab.errors import ConeViolationError, HypothesisError
from sigma2lab.symfun import sample_gamma2


class TestProbe:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            DegeneracyProbe(2, np.array([1.0, 1.0]),
                            np.array([0.7, 0.7]), 0.0)
        with pytest.raises(ValueError):
            DegeneracyProbe(2, np.array([1.0, 1.0]),
                            np.array([-0.2, 1.2]), 0.0)

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            DegeneracyProbe(2, np.array([1.0, 1.0]),
                            np.array([0.5, 0.5]), -0.1)

    @pytest.mark.parametrize("w, theta", [
        ([np.nan, np.nan], 0.0), ([np.nan, 1.0], 0.0), ([0.5, 0.5], np.inf),
    ])
    def test_non_finite_weights_and_theta_rejected(self, w, theta):
        # NaN compares False against every tolerance, so each check must be
        # written to fail on it; an accepted probe would give a NaN rhs
        with pytest.raises(ValueError):
            DegeneracyProbe(2, np.array([1.0, 1.0]), np.array(w), theta)

    def test_rejects_nan(self):
        for m in ([1.0, np.nan], [np.inf, 1.0]):
            with pytest.raises(ValueError):
                DegeneracyProbe(2, np.array(m), np.array([0.5, 0.5]), 0.0)

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            DegeneracyProbe(1, np.array([1.0]), np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            DegeneracyProbe(2, np.array([1.0]), np.array([0.5, 0.5]), 0.0)

    def test_cone_validation(self):
        with pytest.raises(ConeViolationError):
            DegeneracyProbe(2, np.array([3.0, -1.0]),
                            np.array([0.5, 0.5]), 0.0)

    def test_boundary_of_cone_accepted(self):
        # paths degenerate to the cone boundary at their endpoints
        p = DegeneracyProbe(3, np.array([1.0, 0.0, 0.0]),
                            np.array([1.0, 0.0, 0.0]), 0.0)
        assert p.kappa_p == 0.0

    def test_kappa_p_is_derived(self):
        p = DegeneracyProbe(3, np.array([1.0, 0.5, 0.5]),
                            np.array([1.0, 0.0, 0.0]), 0.0)
        assert p.kappa_p == pytest.approx(1.25, abs=1e-15)


class TestMinimumRhs:
    def test_equality_at_symmetric_point(self):
        # m = (1,...,1) has kappa_p = kappa_c; the inequality is tight there
        for n in (2, 3, 4, 5):
            rng = np.random.default_rng(n)
            w = rng.uniform(0.0, 1.0, n)
            w /= w.sum()
            p = DegeneracyProbe(n, np.ones(n), w, 0.0)
            assert p.kappa_p == pytest.approx(n * (n - 1) / 2.0, abs=1e-12)
            assert abs(minimum_rhs(p)) < 1e-12

    def test_n3_sample_point(self):
        p = DegeneracyProbe(3, np.array([1.0, 0.5, 0.5]),
                            np.array([1.0, 0.0, 0.0]), 0.0)
        assert minimum_rhs(p) == pytest.approx(0.0625, abs=1e-13)

    def test_n2_trivial_zero(self):
        p = DegeneracyProbe(2, np.array([1.0, 1.0]),
                            np.array([0.5, 0.5]), 0.0)
        assert abs(minimum_rhs(p)) < 1e-14


class TestN2Reduction:
    def test_examples(self):
        assert n2_reduced_rhs(0.0, (1.0, 1.0)) == pytest.approx(0.0, abs=1e-15)
        # -(3/4-0.15) - (3/4-0.05) + (1.5-0.1) - 0.1 = 0
        assert n2_reduced_rhs(0.1, (1.0, 1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_dimension_enforced(self):
        with pytest.raises(ValueError):
            n2_reduced_rhs(0.0, (1.0, 1.0, 1.0))

    def test_matches_minimum_rhs_under_probe_dictionary(self):
        # The reduced display fixes the gradient along one eigendirection; a
        # probe with general weights is the matching convex combination of
        # the two orientations.  Exact identity, random-tested.
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(1000):
            m = sample_gamma2(rng, 2, 1)[0]
            w1 = float(rng.uniform(0.0, 1.0))
            theta = float(rng.uniform(0.0, 0.4))
            p = DegeneracyProbe(2, m, np.array([w1, 1 - w1]), theta)
            combo = (w1 * n2_reduced_rhs(theta, (m[1], m[0]))
                     + (1 - w1) * n2_reduced_rhs(theta, (m[0], m[1])))
            worst = max(worst, abs(minimum_rhs(p) - combo))
        assert worst <= 1e-12

    def test_single_direction_probes_match_directly(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = sample_gamma2(rng, 2, 1)[0]
            theta = float(rng.uniform(0.0, 0.3))
            p = DegeneracyProbe(2, m, np.array([0.0, 1.0]), theta)
            direct = n2_reduced_rhs(theta, (m[0], m[1]))
            assert abs(minimum_rhs(p) - direct) <= 1e-12


class TestN2BoundSides:
    def test_exact_equality_at_one_zero(self):
        lhs, rhs = n2_bound_sides(1.0, 0.0)
        assert lhs == rhs == 0.75

    def test_positive_theta_curvature_at_one(self):
        # at kappa_p = 1 the first order in theta cancels exactly and the
        # remainder is +theta^2/6, so the bound holds with a tiny margin
        lhs, rhs = n2_bound_sides(1.0, 0.01)
        assert rhs - lhs == pytest.approx(0.01 ** 2 / 6.0, rel=2e-2)

    def test_sign_frontier_below_one(self):
        # scenarios with kappa_p below ~1 - O(theta) violate the bound
        lhs, rhs = n2_bound_sides(0.9, 0.01)
        assert rhs - lhs < 0.0
        lhs, rhs = n2_bound_sides(1.2, 0.01)
        assert rhs - lhs > 0.0

    def test_hypothesis_domain(self):
        with pytest.raises(HypothesisError):
            n2_bound_sides(1.0, 0.6)   # 3/4 - 3 theta/2 <= 0
        with pytest.raises(HypothesisError):
            n2_bound_sides(0.001, 0.01)


class TestN3Path:
    def test_closed_form_along_path(self):
        for s in np.linspace(0.0, 1.0, 101):
            kp, rhs = n3_path(float(s))
            assert kp == pytest.approx(2 * s + s * s, abs=1e-13)
            assert abs(rhs - (s * s - 1.0) ** 2 / 9.0) <= 1e-12

    def test_endpoints(self):
        assert n3_path(0.0) == pytest.approx((0.0, 1.0 / 9.0), abs=1e-14)
        kp, rhs = n3_path(1.0)
        assert kp == pytest.approx(3.0, abs=1e-14)
        assert rhs == pytest.approx(0.0, abs=1e-14)

    def test_midpoint(self):
        kp, rhs = n3_path(0.5)
        assert kp == pytest.approx(1.25, abs=1e-14)
        assert rhs == pytest.approx(0.0625, abs=1e-13)

    def test_never_negative(self):
        # the obstruction: the inequality right-hand side stays >= 0 on the
        # whole path, so it cannot forbid kappa_p from reaching zero
        rows = n3_sweep(101)
        assert np.all(rows[:, 2] >= -1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            n3_path(1.5)
        with pytest.raises(ValueError):
            n3_path(-0.1)


class TestSweeps:
    def test_n3_rows(self):
        rows = n3_sweep(11)
        assert rows.shape == (11, 3)
        assert rows[0, 0] == 0.0 and rows[-1, 0] == 1.0

    def test_n2_frontier_location(self):
        kappas = np.linspace(0.5, 1.5, 201)
        for theta in (0.002, 0.01, 0.02):
            rows = n2_sweep(kappas, [theta])
            signs = rows[:, 4]
            flips = np.nonzero(np.diff(np.sign(signs + 0.5)))[0]
            assert flips.size >= 1
            frontier = kappas[flips[0]]
            assert abs(frontier - 1.0) < 10 * theta + 0.02
