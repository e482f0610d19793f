"""Symmetric-function algebra: oracles, identities, and the two inequalities."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma2lab import symfun
from sigma2lab.errors import ConeViolationError
from sigma2lab.symfun import (
    Spectrum,
    cone_member,
    elementary,
    grw_gap,
    leading_product_gap,
    sample_gamma2,
    sigma,
    sigma2_gradient,
    sigma_excl,
)


def sigma_by_enumeration(k, values):
    """Independent oracle: direct sum over k-subsets."""
    if k == 0:
        return 1.0
    if k > len(values):
        return 0.0
    return float(sum(np.prod(c) for c in itertools.combinations(values, k)))


finite_entries = st.floats(min_value=-10.0, max_value=10.0,
                           allow_nan=False, allow_infinity=False)
spectra = st.lists(finite_entries, min_size=2, max_size=5)


class TestSigma:
    def test_examples(self):
        assert sigma(2, (1.0, 0.5, 0.5)) == pytest.approx(1.25, abs=1e-15)
        assert sigma(1, (3.0, -1.0)) == pytest.approx(2.0, abs=1e-15)
        assert sigma(3, (1.7, -2.3)) == 0.0  # order above tuple length
        assert sigma(0, (4.0, 5.0)) == 1.0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            sigma(-1, (1.0, 2.0))

    @given(spectra)
    @settings(max_examples=200, deadline=None)
    def test_matches_enumeration(self, values):
        for k in range(len(values) + 2):
            got = sigma(k, values)
            want = sigma_by_enumeration(k, values)
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))

    @given(spectra)
    @settings(max_examples=200, deadline=None)
    def test_deletion_identity(self, values):
        # sigma_k(lam) = sigma_k(lam|j) + lam_j sigma_{k-1}(lam|j)
        n = len(values)
        scale = symfun.scale_of(values)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                whole = sigma(k, values)
                split = sigma_excl(k, values, j) + values[j - 1] * sigma_excl(k - 1, values, j)
                assert abs(whole - split) <= 1e-12 * scale

    def test_coefficient_extraction_oracle(self, rng):
        # sigma_k equals the coefficient of t^k in prod_j (1 + t lam_j)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            lam = rng.uniform(-3.0, 3.0, n)
            poly = np.array([1.0])
            for x in lam:
                poly = np.convolve(poly, np.array([x, 1.0]))  # times (1 + x t)
            coeffs = poly[::-1]  # ascending powers of t
            for k in range(n + 1):
                assert abs(sigma(k, lam) - coeffs[k]) <= 1e-12 * (1.0 + abs(coeffs[k]))


class TestSigmaExcl:
    def test_examples(self):
        assert sigma_excl(1, (5.0, 9.0), 1) == 9.0
        assert sigma_excl(3, (1.0, 0.7, 0.7), 1) == 0.0
        assert sigma_excl(2, (1.0, 0.5, 0.5), 1) == pytest.approx(0.25, abs=1e-15)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            sigma_excl(1, (1.0, 2.0), 0)
        with pytest.raises(ValueError):
            sigma_excl(1, (1.0, 2.0), 3)


class TestConeMember:
    def test_examples(self):
        assert cone_member((1.0, 1.0, 1.0)).in_gamma2
        v = cone_member((3.0, -1.0))
        assert (v.sigma1, v.sigma2, v.in_gamma2) == (2.0, -3.0, False)
        v = cone_member((2.0, 0.1))
        assert v.in_gamma2
        assert v.sigma1 == pytest.approx(2.1)
        assert v.sigma2 == pytest.approx(0.2)

    def test_verdict_invariant(self, rng):
        for _ in range(200):
            lam = rng.uniform(-2.0, 2.0, int(rng.integers(2, 6)))
            v = cone_member(lam)
            assert v.in_gamma2 == (v.sigma1 > 0 and v.sigma2 > 0)


class TestSigma2Gradient:
    def test_examples(self):
        assert np.allclose(sigma2_gradient((1.0, 1.0)).values, [1.0, 1.0])
        assert np.allclose(sigma2_gradient((1.0, 0.5, 0.5)).values, [1.0, 1.5, 1.5])
        assert np.allclose(sigma2_gradient((4.0, 0.0)).values, [0.0, 4.0])

    def test_is_deleted_sigma1(self, rng):
        lam = rng.uniform(-2.0, 2.0, 4)
        grad = sigma2_gradient(lam).values
        for j in range(1, 5):
            assert grad[j - 1] == pytest.approx(sigma_excl(1, lam, j), abs=1e-14)


class TestGrwGap:
    def test_examples(self):
        assert grw_gap((1.0, 1.0), (1.0, 1.0)) == pytest.approx(2.0, abs=1e-14)
        assert grw_gap((1.0, 1.0), (1.0, -1.0)) == pytest.approx(2.0, abs=1e-14)
        assert grw_gap((2.0, 0.1), (0.0, 0.0)) == 0.0

    def test_cone_hypothesis_enforced(self):
        with pytest.raises(ConeViolationError):
            grw_gap((3.0, -1.0), (1.0, 1.0))

    def test_nonnegative_on_random_samples(self, rng):
        for n in (2, 3, 4):
            lam = sample_gamma2(rng, n, 700)
            for row in lam:
                a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                scale = symfun.scale_of(row, a.real, a.imag)
                assert grw_gap(row, a) >= -1e-12 * scale


class TestLeadingProductGap:
    def test_examples(self):
        assert leading_product_gap((1.0, 1.0)) == pytest.approx(0.0, abs=1e-15)
        assert leading_product_gap((1.0, 0.5, 0.5)) == pytest.approx(1.0 / 6.0, abs=1e-14)
        assert leading_product_gap((2.0, 0.1)) == pytest.approx(0.0, abs=1e-15)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            leading_product_gap((0.5, 1.0))

    def test_cone_enforced(self):
        with pytest.raises(ConeViolationError):
            leading_product_gap((3.0, -1.0))

    def test_nonnegative_on_sorted_samples(self, rng):
        for n in (2, 3, 4, 5):
            lam = sample_gamma2(rng, n, 700, sort_descending=True)
            for row in lam:
                scale = symfun.scale_of(row)
                assert leading_product_gap(row) >= -1e-12 * scale

    def test_n2_is_identically_zero(self, rng):
        for row in sample_gamma2(rng, 2, 200, sort_descending=True):
            assert abs(leading_product_gap(row)) <= 1e-13 * symfun.scale_of(row)


class TestConcavity:
    def test_ratio_concave_on_cone(self, rng):
        # H = sigma_2 / sigma_1 is concave on Gamma_2 (the mechanism behind
        # the Guan-Ren-Wang inequality)
        def ratio(x):
            e = symfun.elementary(x)
            return e[2] / e[1]

        for _ in range(3000):
            n = int(rng.integers(2, 6))
            lam, mu = sample_gamma2(rng, n, 2)
            s = rng.uniform(0.0, 1.0)
            mixed = ratio(s * lam + (1 - s) * mu)
            chord = s * ratio(lam) + (1 - s) * ratio(mu)
            assert mixed >= chord - 1e-10


class TestElementary:
    def test_rows_match_single_tuples_exactly(self, rng):
        # one recurrence for a tuple and for a batch: the same bits either way
        lam = rng.uniform(-2.0, 2.0, size=(50, 5))
        rows = np.array([elementary(row) for row in lam])
        assert np.array_equal(elementary(lam), rows)
        assert elementary(lam.reshape(5, 10, 5)).shape == (5, 10, 6)


class TestSampling:
    def test_samples_are_in_cone(self, rng):
        lam = sample_gamma2(rng, 3, 500)
        e = elementary(lam)
        assert np.all(e[:, 1] > 0) and np.all(e[:, 2] > 0)

    def test_sorted_option(self, rng):
        lam = sample_gamma2(rng, 4, 100, sort_descending=True)
        assert np.all(np.diff(lam, axis=1) <= 0)


class TestSpectrum:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, np.nan]))

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0]))
