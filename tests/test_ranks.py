import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import rank_oracle
from scipy.stats import rankdata

from cairoreg.ranks import SoftRankConfig, mid_distribution, rank, softrank


class TestRank:
    def test_strict_ordering(self):
        np.testing.assert_array_equal(rank(np.array([0.3, 0.1, 0.2])), [3, 1, 2])

    def test_mid_rank_under_ties(self):
        np.testing.assert_array_equal(rank(np.array([1.0, 1.0, 2.0])), [1.5, 1.5, 3.0])

    def test_singleton(self):
        np.testing.assert_array_equal(rank(np.array([7.0])), [1.0])

    def test_matches_scipy_average_ranks(self):
        rng = np.random.default_rng(0)
        inputs = [rng.integers(0, 8, size=rng.integers(1, 40)).astype(float) for _ in range(50)]
        inputs.append(np.array([0.0, -0.0, 1.0, -0.0]))  # signed zeros tie
        for v in inputs:
            np.testing.assert_array_equal(rank(v), rankdata(v, method="average"))

    def test_sum_identity_and_range(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 60))
            v = rng.integers(0, 5, size=n).astype(float)
            r = rank(v)
            assert r.sum() == n * (n + 1) / 2
            assert r.min() >= 1.0 and r.max() <= n

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=30)
        base = rank(v)
        np.testing.assert_array_equal(rank(np.exp(v)), base)
        np.testing.assert_array_equal(rank(3.5 * v + 11.0), base)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            rank(np.array([1.0, np.nan]))

    @given(
        st.lists(
            st.one_of(
                st.integers(-3, 3).map(float),  # ties
                st.sampled_from([0.0, -0.0]),
                st.builds(
                    lambda sign, size: sign * size,
                    st.sampled_from([1.0, -1.0]),
                    st.floats(1e-300, 1e300),
                ),
            ),
            min_size=1,
            max_size=300,
        )
    )
    def test_one_sort_is_bitwise_the_two_search_oracle(self, values):
        v = np.array(values)
        assert rank(v).tobytes() == rank_oracle(v).tobytes()


class TestMidDistribution:
    def test_tied_counts(self):
        np.testing.assert_allclose(
            mid_distribution(np.array([1.0, 1.0, 2.0])), [1 / 3, 1 / 3, 5 / 6]
        )

    def test_strictly_ordered_n4(self):
        np.testing.assert_allclose(
            mid_distribution(np.array([1.0, 2.0, 3.0, 4.0])),
            [0.125, 0.375, 0.625, 0.875],
        )

    def test_all_equal(self):
        np.testing.assert_allclose(mid_distribution(np.array([3.0, 3.0])), [0.5, 0.5])

    def test_mean_is_exactly_half(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.integers(0, 6, size=int(rng.integers(1, 80))).astype(float)
            assert abs(mid_distribution(v).mean() - 0.5) < 1e-12

    def test_direct_counting_definition(self):
        rng = np.random.default_rng(4)
        v = rng.integers(0, 4, size=25).astype(float)
        expected = np.array(
            [(np.sum(v < x) + 0.5 * np.sum(v == x)) / v.size for x in v]
        )
        np.testing.assert_allclose(mid_distribution(v), expected, atol=1e-15)


class TestSoftRank:
    def test_symmetric_pair(self):
        for tau in (0.01, 0.5, 3.0):
            values, _ = softrank(np.zeros(2), SoftRankConfig(tau))
            np.testing.assert_allclose(values, [1.5, 1.5])

    def test_saturated_pair(self):
        values, _ = softrank(np.array([0.0, 10.0]), SoftRankConfig(0.01))
        np.testing.assert_allclose(values, [1.0, 2.0], atol=1e-6)

    def test_sum_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            s = rng.normal(size=n) * rng.uniform(0.1, 10)
            tau = float(rng.uniform(1e-3, 5.0))
            values, _ = softrank(s, SoftRankConfig(tau))
            assert abs(values.sum() - n * (n + 1) / 2) < 1e-9

    def test_small_temperature_limit_is_mid_rank(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            # tie-free with gaps well above tau, else the sigmoids sit unsaturated
            s = np.sort(rng.normal(size=15)) + 0.01 * np.arange(15)
            s = s[rng.permutation(15)]
            values, _ = softrank(s, SoftRankConfig(1e-4))
            np.testing.assert_allclose(values, rank(s), atol=1e-3)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 20))
            s = rng.normal(size=n)
            s += np.linspace(0, 1e-3 * n, n)[rng.permutation(n)]  # break ties
            tau = float(rng.uniform(0.05, 1.0))
            v = rng.normal(size=n)
            _, got = softrank(s, SoftRankConfig(tau), v)
            h = 1e-6
            fd = np.empty(n)
            for k in range(n):
                e = np.zeros(n)
                e[k] = h
                up, _ = softrank(s + e, SoftRankConfig(tau))
                dn, _ = softrank(s - e, SoftRankConfig(tau))
                fd[k] = v @ (up - dn) / (2 * h)
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(got - fd) / denom < 1e-5

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError, match="positive"):
            SoftRankConfig(0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            softrank(np.array([np.inf, 0.0]), SoftRankConfig(0.1))

    @pytest.mark.parametrize("cotangent", [np.zeros(2), np.zeros(4), np.zeros((3, 1)), 1.0])
    def test_rejects_wrong_shape_cotangent(self, cotangent):
        s, cfg = np.array([0.0, 1.0, 2.0]), SoftRankConfig(0.1)
        with pytest.raises(ValueError, match=r"cotangent must have shape \(3,\)"):
            softrank(s, cfg, cotangent)
