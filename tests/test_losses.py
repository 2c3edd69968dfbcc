import numpy as np
import pytest
from oracles import (
    _weight_matrix,
    gini_rank_loss,
    hard_pairwise_loss,
    hard_pairwise_loss_ordered,
    kendall_identity_check,
)

from cairoreg.losses import (
    LossValueGrad,
    PairwiseSurrogate,
    PointwiseMse,
    SoftGini,
    WeightVariant,
    evaluate_loss,
    mse_loss,
    soft_gini_loss,
    surrogate_pairwise_loss,
)
from cairoreg.ranks import rank

ALL_VARIANTS = list(WeightVariant)


def _tie_free(rng, n):
    v = rng.normal(size=n)
    while np.unique(v).size < n:
        v = rng.normal(size=n)
    return v


class TestPairWeight:
    """The pair weights every loss oracle is built from."""

    def test_uniform(self):
        np.testing.assert_array_equal(
            _weight_matrix(WeightVariant.UNIFORM, np.array([3.0, -17.0])), np.ones((2, 2))
        )

    def test_absolute_gap(self):
        w = _weight_matrix(WeightVariant.ABSOLUTE_GAP, np.array([3.0, 1.0]))
        assert w[0, 1] == 2.0

    def test_rank_gap(self):
        w = _weight_matrix(WeightVariant.RANK_GAP, np.array([10.0, 20.0, 30.0]))
        assert w[0, 2] == pytest.approx(2 / 3, abs=1e-15)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=10)
        for variant in ALL_VARIANTS:
            w = _weight_matrix(variant, y)
            np.testing.assert_array_equal(w, w.T)
            assert np.all(w >= 0)


class TestHardPairwiseLoss:
    def test_concordant_pair(self):
        assert hard_pairwise_loss(
            np.array([1.0, 2.0]), np.array([1.0, 2.0]), WeightVariant.UNIFORM
        ) == 0.0

    def test_single_misordered_pair(self):
        assert hard_pairwise_loss(
            np.array([1.0, 2.0]), np.array([2.0, 1.0]), WeightVariant.UNIFORM
        ) == 0.5

    def test_absolute_gap_full_reversal(self):
        got = hard_pairwise_loss(
            np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0]), WeightVariant.ABSOLUTE_GAP
        )
        assert got == pytest.approx(2 / 3, abs=1e-15)

    def test_tied_score_counts_as_error_under_uniform(self):
        # verbatim <= 0 indicator: a tied-score pair with distinct targets is an error
        got = hard_pairwise_loss(
            np.array([1.0, 2.0]), np.array([5.0, 5.0]), WeightVariant.UNIFORM
        )
        assert got == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            hard_pairwise_loss(np.zeros(3), np.zeros(2), WeightVariant.UNIFORM)


class TestOrderedFormEquivalence:
    def test_pair_example(self):
        assert hard_pairwise_loss_ordered(
            np.array([1.0, 2.0]), np.array([2.0, 1.0]), WeightVariant.UNIFORM
        ) == 0.5

    def test_zero_on_concordant(self):
        y = np.array([1.0, 2.0, 3.0])
        for variant in ALL_VARIANTS:
            assert hard_pairwise_loss_ordered(y, y.copy(), variant) == 0.0

    def test_matches_two_sided_form_on_tie_free_input(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            y = _tie_free(rng, 50)
            s = _tie_free(rng, 50)
            for variant in ALL_VARIANTS:
                a = hard_pairwise_loss(y, s, variant)
                b = hard_pairwise_loss_ordered(y, s, variant)
                assert abs(a - b) < 1e-12

    def test_ties_rejected_with_indices(self):
        with pytest.raises(ValueError, match=r"targets at indices \[0, 2\]"):
            hard_pairwise_loss_ordered(
                np.array([5.0, 1.0, 5.0]), np.array([1.0, 2.0, 3.0]), WeightVariant.UNIFORM
            )


def _finite_diff_grad(fn, s, h=1e-5):
    g = np.empty_like(s)
    for k in range(s.size):
        e = np.zeros_like(s)
        e[k] = h
        g[k] = (fn(s + e) - fn(s - e)) / (2 * h)
    return g


def _assert_grad_close(fn, value_grad: LossValueGrad, s, rtol=1e-5):
    fd = _finite_diff_grad(fn, s)
    denom = max(np.linalg.norm(fd), 1e-12)
    assert np.linalg.norm(value_grad.grad - fd) / denom < rtol


class TestSurrogateLoss:
    def test_tied_scores_value(self):
        got = surrogate_pairwise_loss(
            np.array([1.0, 2.0]), np.array([0.0, 0.0]), PairwiseSurrogate(WeightVariant.UNIFORM)
        )
        assert got.value == pytest.approx(np.log(2) / 2, abs=1e-12)

    def test_saturates_to_zero(self):
        got = surrogate_pairwise_loss(
            np.array([2.0, 1.0]), np.array([60.0, 0.0]), PairwiseSurrogate(WeightVariant.UNIFORM)
        )
        assert got.value < 1e-12

    def test_upper_bounds_hard_ordered_loss(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            y = _tie_free(rng, n)
            s = _tie_free(rng, n)
            sigma = float(rng.uniform(0.3, 3.0))
            for variant in ALL_VARIANTS:
                sur = surrogate_pairwise_loss(y, s, PairwiseSurrogate(variant, sigma)).value
                hard = hard_pairwise_loss_ordered(y, s, variant)
                assert sur >= hard - 1e-12

    def test_gradients(self):
        rng = np.random.default_rng(3)
        for variant in ALL_VARIANTS:
            y = _tie_free(rng, 12)
            s = _tie_free(rng, 12)
            spec = PairwiseSurrogate(variant, 1.7)
            got = surrogate_pairwise_loss(y, s, spec)
            _assert_grad_close(lambda q: surrogate_pairwise_loss(y, q, spec).value, got, s)

    def test_sigma_rescaling_absorbs_positive_affine_scores(self):
        rng = np.random.default_rng(4)
        y = _tie_free(rng, 20)
        s = _tie_free(rng, 20)
        a, b = 3.7, -2.0
        for variant in ALL_VARIANTS:
            base = surrogate_pairwise_loss(y, s, PairwiseSurrogate(variant, 1.3)).value
            moved = surrogate_pairwise_loss(y, a * s + b, PairwiseSurrogate(variant, 1.3 / a)).value
            assert abs(base - moved) < 1e-12

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            surrogate_pairwise_loss(
                np.zeros(2), np.zeros(2), PairwiseSurrogate(WeightVariant.UNIFORM, 0.0)
            )


class TestSoftGiniLoss:
    def test_constant_targets_vanish(self):
        got = soft_gini_loss(np.full(5, 2.0), np.arange(5.0), SoftGini(0.2))
        assert got.value == 0.0
        np.testing.assert_array_equal(got.grad, np.zeros(5))

    def test_hand_value_at_small_temperature(self):
        got = soft_gini_loss(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]), SoftGini(1e-6))
        assert got.value == pytest.approx(-4 / 9, abs=1e-9)

    def test_matches_rank_covariance_at_small_temperature(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            y = _tie_free(rng, 15)
            s = np.sort(rng.normal(size=15)) + 0.05 * np.arange(15)
            s = s[rng.permutation(15)]
            soft = soft_gini_loss(y, s, SoftGini(1e-4)).value
            cov = np.mean((y - y.mean()) * (rank(s) / 15 - np.mean(rank(s) / 15)))
            assert abs(soft - (-2.0 * cov)) < 1e-6

    def test_gradients(self):
        rng = np.random.default_rng(6)
        y = rng.normal(size=10)
        s = rng.normal(size=10)
        got = soft_gini_loss(y, s, SoftGini(0.3))
        _assert_grad_close(lambda q: soft_gini_loss(y, q, SoftGini(0.3)).value, got, s)


class TestGiniRankIdentity:
    def test_exact_covariance_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(3, 60))
            y = rng.normal(size=n)
            s = rng.normal(size=n)
            r = rank(s)
            lhs = gini_rank_loss(y, s)
            rhs = -2.0 * np.mean((y - y.mean()) * (r / n - np.mean(r / n)))
            assert abs(lhs - rhs) < 1e-12

    def test_sum_form(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=20)
        s = rng.normal(size=20)
        n = 20
        r = rank(s)
        expected = -(2 / n**2) * (np.dot(y, r) - y.mean() * n * (n + 1) / 2)
        assert gini_rank_loss(y, s) == pytest.approx(expected, abs=1e-14)


class TestMseLoss:
    def test_zero_at_match(self):
        got = mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert got.value == 0.0
        np.testing.assert_array_equal(got.grad, np.zeros(2))

    def test_singleton(self):
        got = mse_loss(np.array([0.0]), np.array([2.0]))
        assert got.value == 4.0
        np.testing.assert_array_equal(got.grad, [4.0])

    def test_two_sided(self):
        assert mse_loss(np.array([0.0, 0.0]), np.array([1.0, -1.0])).value == 1.0

    def test_gradients(self):
        rng = np.random.default_rng(9)
        y = rng.normal(size=8)
        s = rng.normal(size=8)
        _assert_grad_close(lambda q: mse_loss(y, q).value, mse_loss(y, s), s)


class TestKendallIdentity:
    def test_perfect_concordance(self):
        y = np.arange(5.0)
        assert kendall_identity_check(y, y.copy()) == (0.0, 1.0)

    def test_full_reversal_n2(self):
        assert kendall_identity_check(np.array([1.0, 2.0]), np.array([2.0, 1.0])) == (
            1.0,
            -1.0,
        )

    def test_identity_on_random_tie_free_input(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            y = _tie_free(rng, 100)
            s = _tie_free(rng, 100)
            loss_uni, tau_hat = kendall_identity_check(y, s)
            assert abs(loss_uni - (1.0 - tau_hat) / 2.0) < 1e-12


class TestScaleInvariance:
    def test_hard_losses_bitwise_invariant(self):
        rng = np.random.default_rng(11)
        y = _tie_free(rng, 30)
        s = _tie_free(rng, 30)
        for variant in ALL_VARIANTS:
            base = hard_pairwise_loss(y, s, variant)
            assert hard_pairwise_loss(y, 2.5 * s + 7.0, variant) == base
            assert hard_pairwise_loss(y, np.exp(s), variant) == base


class TestSpearmanCorrespondence:
    def test_pair_averaged_rank_gap_tracks_spearman(self):
        from cairoreg.metrics import spearman

        rng = np.random.default_rng(12)
        n = 500
        for _ in range(5):
            y = _tie_free(rng, n)
            s = 0.7 * y + 0.7 * rng.normal(size=n)
            pair_averaged = 2.0 * hard_pairwise_loss(y, s, WeightVariant.RANK_GAP)
            rho = spearman(y, s)
            assert abs(pair_averaged - (1.0 - rho) / 6.0) <= 2.0 / n


class TestEvaluateLossDispatch:
    def test_specs_route_to_matching_functions(self):
        rng = np.random.default_rng(13)
        y = _tie_free(rng, 10)
        s = _tie_free(rng, 10)
        cases = [
            (
                PairwiseSurrogate(WeightVariant.ABSOLUTE_GAP, 2.0),
                surrogate_pairwise_loss(y, s, PairwiseSurrogate(WeightVariant.ABSOLUTE_GAP, 2.0)),
            ),
            (SoftGini(0.4), soft_gini_loss(y, s, SoftGini(0.4))),
            (PointwiseMse(), mse_loss(y, s)),
        ]
        for spec, expected in cases:
            got = evaluate_loss(spec, y, s)
            assert got.value == expected.value
            np.testing.assert_array_equal(got.grad, expected.grad)

    def test_invalid_spec_params(self):
        for value in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="^sigma must be finite and positive"):
                PairwiseSurrogate(sigma=value)
            with pytest.raises(ValueError, match="^temperature must be finite and positive"):
                SoftGini(temperature=value)
