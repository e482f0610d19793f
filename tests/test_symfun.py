"""Symmetric-function algebra: oracles, identities, and the two inequalities."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma2lab import symfun
from sigma2lab.errors import ConeViolationError
from sigma2lab.symfun import elementary, grw_gap, leading_product_gap, sample_gamma2


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
        assert elementary((1.0, 0.5, 0.5))[2] == pytest.approx(1.25, abs=1e-15)
        assert elementary((3.0, -1.0))[1] == pytest.approx(2.0, abs=1e-15)
        assert elementary((4.0, 5.0))[0] == 1.0

    @given(spectra)
    @settings(max_examples=200, deadline=None)
    def test_matches_enumeration(self, values):
        e = elementary(values)
        for k in range(len(values) + 1):
            want = sigma_by_enumeration(k, values)
            assert abs(e[k] - want) <= 1e-12 * (1.0 + abs(want))

    @given(spectra)
    @settings(max_examples=200, deadline=None)
    def test_deletion_identity(self, values):
        # sigma_k(lam) = sigma_k(lam|j) + lam_j sigma_{k-1}(lam|j), where
        # sigma_k(lam|j) is sigma_k of the tuple without entry j (0 for k = n)
        n = len(values)
        scale = symfun.scale_of(values)
        whole = elementary(values)
        for j in range(n):
            rest = np.append(elementary(np.delete(values, j)), 0.0)
            for k in range(1, n + 1):
                split = rest[k] + values[j] * rest[k - 1]
                assert abs(whole[k] - split) <= 1e-12 * scale

    def test_coefficient_extraction_oracle(self, rng):
        # sigma_k equals the coefficient of t^k in prod_j (1 + t lam_j)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            lam = rng.uniform(-3.0, 3.0, n)
            poly = np.array([1.0])
            for x in lam:
                poly = np.convolve(poly, np.array([x, 1.0]))  # times (1 + x t)
            coeffs = poly[::-1]  # ascending powers of t
            e = elementary(lam)
            for k in range(n + 1):
                assert abs(e[k] - coeffs[k]) <= 1e-12 * (1.0 + abs(coeffs[k]))


class TestSigmaExcl:
    def test_examples(self):
        # sigma_k(lam|j): sigma_k of the tuple without entry j
        assert elementary(np.delete((5.0, 9.0), 0))[1] == 9.0
        assert elementary(np.delete((1.0, 0.5, 0.5), 0))[2] == pytest.approx(0.25, abs=1e-15)
        assert elementary(np.append(np.delete((1.0, 0.7, 0.7), 0), 0.0))[3] == 0.0


class TestConeMember:
    """Gamma_2 membership (sigma_1 > 0 and sigma_2 > 0) is the hypothesis
    both inequalities check on every tuple."""

    def test_examples(self):
        grw_gap((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
        leading_product_gap((2.0, 0.1))
        with pytest.raises(ConeViolationError, match="sigma1=2, sigma2=-3"):
            grw_gap((3.0, -1.0), (1.0, 1.0))

    def test_verdict_invariant(self, rng):
        for _ in range(200):
            lam = rng.uniform(-2.0, 2.0, int(rng.integers(2, 6)))
            e = elementary(lam)
            if e[1] > 0 and e[2] > 0:
                grw_gap(lam, np.ones(lam.size))
            else:
                with pytest.raises(ConeViolationError):
                    grw_gap(lam, np.ones(lam.size))


class TestGrwGap:
    def test_examples(self):
        assert grw_gap((1.0, 1.0), (1.0, 1.0)) == pytest.approx(2.0, abs=1e-14)
        assert grw_gap((1.0, 1.0), (1.0, -1.0)) == pytest.approx(2.0, abs=1e-14)
        assert grw_gap((2.0, 0.1), (0.0, 0.0)) == 0.0

    def test_cone_hypothesis_enforced(self):
        with pytest.raises(ConeViolationError):
            grw_gap((3.0, -1.0), (1.0, 1.0))

    def test_shape_enforced(self):
        assert grw_gap(np.ones((4, 2)), np.ones((4, 2))).shape == (4,)
        with pytest.raises(ValueError):
            grw_gap((1.0, 1.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            grw_gap(np.ones((4, 2)), np.ones((3, 2)))

    def test_nonnegative_on_random_samples(self, rng):
        for n in (2, 3, 4):
            lam = sample_gamma2(rng, n, 700)
            a = np.array([rng.standard_normal(n) + 1j * rng.standard_normal(n)
                          for _ in lam])
            top = np.max(np.abs(np.concatenate([lam, a.real, a.imag], axis=1)), axis=1)
            assert np.all(grw_gap(lam, a) >= -1e-12 * (1.0 + top * top))

    def test_batch_rows_match_single_tuples(self, rng):
        for n in (2, 3, 4):
            lam = sample_gamma2(rng, n, 50).reshape(5, 10, n)
            a = rng.standard_normal((5, 10, n)) + 1j * rng.standard_normal((5, 10, n))
            gaps = grw_gap(lam, a)
            assert gaps.shape == (5, 10)
            for idx in np.ndindex(5, 10):
                one = grw_gap(lam[idx], a[idx])
                scale = symfun.scale_of(lam[idx], a[idx].real, a[idx].imag)
                assert abs(gaps[idx] - one) <= 1e-13 * scale

    def test_one_bad_row_raises(self, rng):
        lam = sample_gamma2(rng, 3, 20)
        lam[13] = (3.0, -1.0, -1.0)
        with pytest.raises(ConeViolationError, match="tuple 13"):
            grw_gap(lam, np.ones((20, 3), dtype=complex))


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
            scale = 1.0 + np.max(np.abs(lam), axis=1) ** 2
            assert np.all(leading_product_gap(lam) >= -1e-12 * scale)

    def test_n2_is_identically_zero(self, rng):
        lam = sample_gamma2(rng, 2, 200, sort_descending=True)
        scale = 1.0 + np.max(np.abs(lam), axis=1) ** 2
        assert np.all(np.abs(leading_product_gap(lam)) <= 1e-13 * scale)

    def test_batch_rows_match_single_tuples(self, rng):
        for n in (2, 3, 4, 5):
            lam = sample_gamma2(rng, n, 50, sort_descending=True).reshape(5, 10, n)
            gaps = leading_product_gap(lam)
            assert gaps.shape == (5, 10)
            for idx in np.ndindex(5, 10):
                one = leading_product_gap(lam[idx])
                assert abs(gaps[idx] - one) <= 1e-13 * symfun.scale_of(lam[idx])

    def test_one_bad_row_raises(self, rng):
        lam = sample_gamma2(rng, 3, 20, sort_descending=True)
        unsorted = lam.copy()
        unsorted[7] = unsorted[7, ::-1]
        with pytest.raises(ValueError, match="sorted"):
            leading_product_gap(unsorted)
        outside = lam.copy()
        outside[7] = (3.0, -1.0, -1.0)
        with pytest.raises(ConeViolationError, match="tuple 7"):
            leading_product_gap(outside)


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
