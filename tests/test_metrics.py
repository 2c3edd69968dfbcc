import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import kendall_reference
from scipy import stats

from cairoreg.metrics import EvalReport, MetricError, aggregate, kendall, rmse, spearman

# kendall merges runs of width 2^k, so sizes at and next to powers of two are edges
_EDGES = [2**k + d for k in range(1, 9) for d in (-1, 0, 1)]
SIZES = st.one_of(st.integers(2, 300), st.sampled_from([n for n in _EDGES if 2 <= n <= 300]))


def _vector(rng, n, tied):
    """A few repeated integers (sometimes one constant) when tied, else continuous values."""
    if tied:
        return rng.integers(0, rng.integers(1, 6), size=n).astype(np.float64)
    return rng.standard_t(2, size=n)


@pytest.mark.parametrize("metric", [rmse, spearman, kendall])
@pytest.mark.parametrize(
    "bad", [[1.0, np.nan, 3.0, 4.0], [np.nan, np.nan, 3.0, 4.0], [1.0, 2.0, np.inf, 4.0]]
)
def test_non_finite_input_rejected(metric, bad):
    good = np.array([4.0, 3.0, 2.0, 1.0])
    for a, b in ((np.array(bad), good), (good, np.array(bad))):
        with pytest.raises(MetricError, match="non-finite input"):
            metric(a, b)


class TestRmse:
    def test_zero_at_match(self):
        assert rmse(np.arange(4.0), np.arange(4.0)) == 0.0

    def test_hand_value(self):
        assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(
            np.sqrt(12.5)
        )

    def test_translation_invariant(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=30)
        yhat = rng.normal(size=30)
        assert rmse(y + 5.0, yhat + 5.0) == pytest.approx(rmse(y, yhat), abs=1e-12)


class TestSpearman:
    def test_increasing_transform_gives_one(self):
        a = np.array([0.3, -1.2, 2.0, 0.7])
        assert spearman(a, np.exp(a)) == 1.0

    def test_reversal_gives_minus_one(self):
        a = np.arange(6.0)
        assert spearman(a, a[::-1]) == -1.0

    def test_hand_value(self):
        assert spearman(np.array([1.0, 2.0, 3.0]), np.array([1.0, 3.0, 2.0])) == 0.5

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(3, 50))
            a = rng.integers(0, 6, size=n).astype(float)
            b = rng.integers(0, 6, size=n).astype(float)
            if np.unique(a).size < 2 or np.unique(b).size < 2:
                continue
            got = spearman(a, b)
            want = stats.spearmanr(a, b).statistic
            assert got == pytest.approx(want, abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(MetricError, match="undefined correlation"):
            spearman(np.ones(4), np.arange(4.0))


class TestKendall:
    def test_identical_orderings(self):
        a = np.array([3.0, 1.0, 2.0])
        assert kendall(a, a * 2 + 1) == 1.0

    def test_full_reversal(self):
        a = np.arange(5.0)
        assert kendall(a, -a) == -1.0

    def test_hand_value(self):
        got = kendall(np.array([1.0, 2.0, 3.0]), np.array([1.0, 3.0, 2.0]))
        assert got == pytest.approx(1 / 3, abs=1e-15)

    @given(n=SIZES, seed=st.integers(0, 2**32 - 1), a_tied=st.booleans(), b_tied=st.booleans())
    def test_matches_quadratic_reference_with_ties(self, n, seed, a_tied, b_tied):
        rng = np.random.default_rng(seed)
        a, b = _vector(rng, n, a_tied), _vector(rng, n, b_tied)
        try:
            want = kendall_reference(a, b)
        except MetricError:
            with pytest.raises(MetricError, match="undefined correlation"):
                kendall(a, b)
            return
        # both form the same integer counts and divide them through the same formula
        assert kendall(a, b) == want

    def test_matches_scipy_tau_b(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(3, 80))
            a = rng.integers(0, 7, size=n).astype(float)
            b = rng.integers(0, 7, size=n).astype(float)
            if np.unique(a).size < 2 or np.unique(b).size < 2:
                continue
            want = stats.kendalltau(a, b).statistic
            assert kendall(a, b) == pytest.approx(want, abs=1e-12)

    def test_all_tied_rejected(self):
        with pytest.raises(MetricError, match="undefined correlation"):
            kendall(np.ones(5), np.arange(5.0))


class TestRankInvariance:
    def test_both_metrics_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            rho, tau = spearman(a, b), kendall(a, b)
            for f in (np.exp, lambda v: 4.2 * v + 3.0):
                assert abs(spearman(f(a), b) - rho) < 1e-12
                assert abs(spearman(a, f(b)) - rho) < 1e-12
                assert abs(kendall(f(a), b) - tau) < 1e-12
                assert abs(kendall(a, f(b)) - tau) < 1e-12

    def test_signs_agree_on_strongly_monotone_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=100)
            b = a + 0.3 * rng.normal(size=100)
            if spearman(a, b) >= 0.8:
                assert kendall(a, b) > 0


def _report(**kw):
    base = dict(model_name="m", spearman=0.5, kendall=0.4, rmse=1.0)
    base.update(kw)
    return EvalReport(**base)


class TestAggregate:
    def test_identical_reports_zero_width(self):
        agg = aggregate([_report(), _report()])
        assert agg.rmse.mean == 1.0
        assert agg.rmse.half_width == 0.0
        assert agg.repetitions == 2

    def test_two_values(self):
        agg = aggregate([_report(rmse=1.0), _report(rmse=3.0)])
        assert agg.rmse.mean == 2.0
        assert agg.rmse.half_width == pytest.approx(1.96)

    def test_monotone_in_inputs(self):
        lo = aggregate([_report(rmse=1.0), _report(rmse=2.0)])
        hi = aggregate([_report(rmse=2.0), _report(rmse=3.0)])
        assert hi.rmse.mean > lo.rmse.mean

    def test_requires_two_reports(self):
        with pytest.raises(MetricError, match="at least 2"):
            aggregate([_report()])

    def test_rejects_mixed_models(self):
        with pytest.raises(MetricError, match="mix"):
            aggregate([_report(), _report(model_name="other")])

    def test_true_mean_column_aggregated_when_present(self):
        reports = [_report(rmse_vs_true_mean=0.1), _report(rmse_vs_true_mean=0.3)]
        agg = aggregate(reports)
        assert agg.rmse_vs_true_mean.mean == pytest.approx(0.2)


class TestEvalReportInvariants:
    def test_out_of_range_rejected(self):
        with pytest.raises(MetricError):
            _report(spearman=1.5)
        with pytest.raises(MetricError):
            _report(rmse=-0.1)
        with pytest.raises(MetricError):
            _report(kendall=float("nan"))
