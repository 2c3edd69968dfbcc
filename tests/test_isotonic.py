import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import pav_fit_unpruned, pav_oracle
from scipy.optimize import isotonic_regression as scipy_isotonic

from cairoreg.data import config_from_dict, config_to_dict
from cairoreg.isotonic import (
    AutoCalibrationReport,
    CalibrationMap,
    audit_autocalibration,
    pav_blocks,
    pav_fit,
    predict,
)


class TestPavFit:
    def test_already_monotone(self):
        cmap = pav_fit(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(cmap.fitted, [1, 2, 3])

    def test_total_pooling(self):
        s = np.array([1.0, 2.0, 3.0])
        cmap = pav_fit(s, np.array([3.0, 1.0, 2.0]))
        np.testing.assert_array_equal(predict(cmap, s), [2, 2, 2])

    def test_partial_pooling(self):
        cmap = pav_fit(np.array([1.0, 2.0, 3.0]), np.array([1.0, 3.0, 2.0]))
        np.testing.assert_array_equal(cmap.fitted, [1, 2.5, 2.5])

    def test_tied_scores_pooled_first(self):
        cmap = pav_fit(np.array([1.0, 1.0, 2.0]), np.array([0.0, 4.0, 3.0]))
        np.testing.assert_array_equal(cmap.knots, [1, 2])
        np.testing.assert_array_equal(cmap.fitted, [2, 3])

    def test_unsorted_input(self):
        s = np.array([3.0, 1.0, 2.0])
        cmap = pav_fit(s, np.array([2.0, 3.0, 1.0]))
        np.testing.assert_array_equal(cmap.knots, [1, 3])  # sorted: the ends of the one level
        np.testing.assert_array_equal(predict(cmap, s), [2, 2, 2])

    def test_matches_scipy_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            s = np.sort(rng.normal(size=n))
            while np.unique(s).size < n:
                s = np.sort(rng.normal(size=n))
            y = rng.normal(size=n)
            cmap = pav_fit(s, y)
            np.testing.assert_allclose(predict(cmap, s), scipy_isotonic(y).x, atol=1e-10)

    def test_mean_preservation(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            s = rng.integers(0, 10, size=n).astype(float)
            y = rng.normal(size=n)
            cmap = pav_fit(s, y)
            fitted_per_point = predict(cmap, s)
            assert abs(fitted_per_point.mean() - y.mean()) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=30)
        y = rng.normal(size=30)
        first = pav_fit(s, y)
        again = pav_fit(s, predict(first, s))
        np.testing.assert_allclose(again.fitted, first.fitted, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            pav_fit(np.array([1.0, np.inf]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize(
        "scores, targets",
        [
            # the merge of two violators overflows
            ([0.0, 1.0], [1.7e308, 1e308]),
            # the sum of 300 tied targets overflows, though their mean does not
            ([0.0] * 300, [1.5e306] * 300),
            # the weighted sums of a long pooled run overflow
            (np.arange(300.0), np.linspace(1.6e306, 1.4e306, 300)),
        ],
    )
    def test_overflow_is_named_without_a_warning(self, recwarn, scores, targets):
        with pytest.raises(ValueError, match="^targets too large to calibrate: "):
            pav_fit(np.asarray(scores), np.asarray(targets))
        assert not recwarn.list, [str(w.message) for w in recwarn.list]

    def test_pav_blocks_merges_violators_by_weight_and_keeps_equal_blocks_apart(self):
        assert pav_blocks([2.0, 0.0], [3.0, 1.0]) == ([1.5], [2])
        assert pav_blocks([1.0, 3.0, 2.0, 2.5], [1.0] * 4) == ([1.0, 2.5, 2.5], [1, 2, 1])

    def test_keeps_the_ends_of_each_level(self):
        s = np.arange(1.0, 8.0)
        cmap = pav_fit(s, np.array([1.0, 1.0, 1.0, 5.0, 3.0, 7.0, 7.0]))
        np.testing.assert_array_equal(cmap.knots, [1, 3, 4, 5, 6, 7])
        np.testing.assert_array_equal(cmap.fitted, [1, 1, 4, 4, 7, 7])

    def test_keeps_every_knot_of_a_negative_zero_level(self):
        """Between two -0.0 knots np.interp gives +0.0, so each -0.0 training score stays."""
        s = np.arange(1.0, 5.0)
        cmap = pav_fit(s, np.array([-0.0, -0.0, -0.0, 1.0]))
        np.testing.assert_array_equal(cmap.knots, s)
        assert np.signbit(predict(cmap, s[:3])).all()


@st.composite
def _fit_inputs(draw):
    """One or two points or up to 60, tied scores, and constant, few-level or signed-zero targets."""
    n = draw(st.sampled_from([1, 2]) | st.integers(3, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(1, 2 * n))
    s = rng.normal(size=levels)[rng.integers(0, levels, size=n)] * 10.0 ** draw(st.integers(-3, 3))
    y = draw(
        st.sampled_from(
            [
                lambda: rng.normal(size=n),
                lambda: rng.integers(-2, 3, size=n).astype(float),
                lambda: np.full(n, rng.normal()),
                lambda: rng.choice([-0.0, 0.0, 1.0], size=n, p=[0.7, 0.15, 0.15]),
            ]
        )
    )()
    return s, y


@settings(max_examples=300, deadline=None)
@given(_fit_inputs())
def test_pruned_map_predicts_the_bits_of_the_map_over_every_score(inputs):
    """pav_fit keeps the ends of each level and predicts what the map over every score does."""
    s, y = inputs
    cmap, full = pav_fit(s, y), pav_fit_unpruned(s, y)
    k = full.knots
    outside = [k[0] - 1.0, k[-1] + 1.0, -1e300, 1e300, -np.inf, np.inf]
    queries = np.concatenate([s, k, (k[:-1] + k[1:]) / 2, outside])
    assert predict(cmap, queries).tobytes() == predict(full, queries).tobytes()

    def value_changes(f):
        return int(np.count_nonzero(f[1:] != f[:-1]))

    assert value_changes(cmap.fitted) == value_changes(full.fitted)
    # at most two knots per run of equal values; a -0.0 run keeps all (see pav_fit)
    bits = cmap.fitted.view(np.int64)
    starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
    lengths = np.diff(np.r_[starts, bits.size])
    negative_zero = (cmap.fitted[starts] == 0) & np.signbit(cmap.fitted[starts])
    assert (lengths[~negative_zero] <= 2).all()


class TestPredict:
    def test_midpoint_interpolation(self):
        cmap = CalibrationMap(knots=np.array([1.0, 3.0]), fitted=np.array([2.0, 4.0]))
        assert predict(cmap, np.array([2.0]))[0] == 3.0

    def test_clipping(self):
        cmap = CalibrationMap(knots=np.array([1.0, 3.0]), fitted=np.array([2.0, 4.0]))
        np.testing.assert_array_equal(predict(cmap, np.array([0.0, 10.0])), [2.0, 4.0])

    def test_training_scores_reproduce_fitted_values(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=25)
        y = rng.normal(size=25)
        cmap = pav_fit(s, y)
        preds = predict(cmap, cmap.knots)
        np.testing.assert_array_equal(preds, cmap.fitted)

    def test_single_knot_constant(self):
        cmap = CalibrationMap(knots=np.array([2.0]), fitted=np.array([7.0]))
        np.testing.assert_array_equal(predict(cmap, np.array([-5.0, 2.0, 9.0])), [7.0] * 3)

    def test_monotone_on_dense_grid(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = rng.normal(size=40)
            y = rng.normal(size=40)
            cmap = pav_fit(s, y)
            grid = np.linspace(s.min() - 1, s.max() + 1, 500)
            assert np.all(np.diff(predict(cmap, grid)) >= -1e-15)

    def test_map_holds_read_only_copies_of_its_arrays(self):
        k, f = np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 100.0])
        cmap = CalibrationMap(knots=k, fitted=f)
        k[1], f[0] = 0.5, 99.0
        np.testing.assert_array_equal(cmap.knots, [1, 2, 3])
        np.testing.assert_array_equal(cmap.fitted, [1, 2, 100])
        with pytest.raises(ValueError, match="read-only"):
            cmap.fitted[0] = 99.0
        with pytest.raises(ValueError, match="read-only"):
            cmap.knots[1] = 0.5
        assert predict(cmap, np.array([2.5]))[0] == 51.0

    def test_map_invariants_enforced(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CalibrationMap(knots=np.array([1.0, 1.0]), fitted=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="nondecreasing"):
            CalibrationMap(knots=np.array([1.0, 2.0]), fitted=np.array([1.0, 0.0]))

    def test_map_spanning_the_float64_range_is_checked_without_a_warning(self, recwarn):
        # the difference of neighbours, 3.4e308, would overflow
        wide = np.array([-1.7e308, 1.7e308])
        CalibrationMap(knots=wide, fitted=np.array([0.0, 1.0]))
        CalibrationMap(knots=np.array([0.0, 1.0]), fitted=wide)
        assert pav_fit(np.array([0.0, 1.0]), wide).fitted.tolist() == wide.tolist()
        assert not recwarn.list, [str(w.message) for w in recwarn.list]
        with pytest.raises(ValueError, match="strictly increasing"):
            CalibrationMap(knots=wide[::-1], fitted=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="nondecreasing"):
            CalibrationMap(knots=np.array([0.0, 1.0]), fitted=wide[::-1])


class TestAudit:
    @given(
        n=st.integers(2, 80),
        seed=st.integers(0, 2**32 - 1),
        log10_scale=st.floats(0.0, 9.0),
        signed=st.booleans(),
    )
    def test_training_fit_is_auto_calibrated(self, n, seed, log10_scale, signed):
        """On its training pair the residual is rounding error, relative to max|y|."""
        rng = np.random.default_rng(seed)
        s = rng.integers(0, 12, size=n).astype(float)  # tied scores
        y = (rng.normal(size=n) if signed else rng.lognormal(size=n)) * 10.0**log10_scale
        report = audit_autocalibration(pav_fit(s, y), s, y)
        assert report.max_abs_block_residual <= 1e-12 * max(1.0, np.abs(y).max())

    def test_constant_targets_single_block(self):
        s = np.arange(5.0)
        y = np.full(5, 3.0)
        report = audit_autocalibration(pav_fit(s, y), s, y)
        assert report == AutoCalibrationReport(block_count=1, max_abs_block_residual=0.0)

    def test_hand_case(self):
        s = np.array([1.0, 2.0, 3.0])
        y = np.array([3.0, 1.0, 2.0])
        report = audit_autocalibration(pav_fit(s, y), s, y)
        assert report.block_count == 1
        assert report.max_abs_block_residual == 0.0


class TestPavOracle:
    def test_total_pooling(self):
        np.testing.assert_array_equal(
            pav_oracle(np.array([1.0, 2.0, 3.0]), np.array([3.0, 1.0, 2.0])), [2, 2, 2]
        )

    def test_monotone_targets_fixed_point(self):
        y = np.array([1.0, 2.0, 5.0, 9.0])
        np.testing.assert_array_equal(pav_oracle(np.arange(4.0), y), y)

    def test_matches_pav_fit_on_small_permutations(self):
        s = np.arange(6.0)
        for perm in itertools.permutations(range(1, 7)):
            y = np.array(perm, dtype=float)
            got = predict(pav_fit(s, y), s)
            want = pav_oracle(s, y)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError, match="n <= 10"):
            pav_oracle(np.arange(11.0), np.arange(11.0))

    def test_rejects_tied_scores(self):
        with pytest.raises(ValueError, match="distinct"):
            pav_oracle(np.array([1.0, 1.0]), np.array([0.0, 1.0]))


class TestSerialization:
    def test_round_trip(self):
        cmap = pav_fit(np.arange(10.0), np.random.default_rng(6).normal(size=10))
        obj = json.loads(json.dumps(config_to_dict(cmap)))
        back = config_from_dict(CalibrationMap, obj, "calibration")
        np.testing.assert_array_equal(back.knots, cmap.knots)
        np.testing.assert_array_equal(back.fitted, cmap.fitted)
