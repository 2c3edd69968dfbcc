"""Which ranking objectives recover the order of the cell means, on two cells.

Cell A holds rows with one target and cell B rows with two; every A row
scores delta and every B row 0, so the derivative of a loss in delta is the
sum of its score gradient over A. A pairwise objective weighs the pairs that
put A above B against those that put B above A: it takes the mean's order
only where its pair weights make the two sums agree with the means.
Absolute-gap RankNet and soft-Gini do; uniform RankNet and RANK_GAP follow
the pairwise majority instead.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cairoreg.losses import (
    PairwiseSurrogate,
    SoftGini,
    WeightVariant,
    evaluate_loss,
)


def _cells(a, b0, b1, n_a, n_b0, n_b1):
    """Targets of the two cells, shuffled, and a mask of the A rows."""
    y = np.concatenate([np.full(n_a, a), np.full(n_b0, b0), np.full(n_b1, b1)])
    in_a = np.arange(y.size) < n_a
    perm = np.random.default_rng(y.size).permutation(y.size)
    return y[perm], in_a[perm]


def _slope(spec, y, in_a, delta):
    """dL/d delta: the score gradient summed over the A rows."""
    return evaluate_loss(spec, y, np.where(in_a, delta, 0.0)).grad[in_a].sum()


# A: 250 rows at 1. B: 200 rows at 0 and 50 at 10, so B's mean, 2, is above A's,
# while A is above B in 200 x 250 of the 250 x 250 cross pairs.
Y, IN_A = _cells(1.0, 0.0, 10.0, 250, 200, 50)
N = Y.size
PAIRS_AB, PAIRS_BA = 250 * 200, 50 * 250
# each variant's weight of an A-over-B and a B-over-A pair: uniform 1, the target gap,
# and the gap in mid-distribution, 0.2 for B at 0, 0.65 for A and 0.95 for B at 10
WEIGHTS = {
    WeightVariant.UNIFORM: (1.0, 1.0),
    WeightVariant.ABSOLUTE_GAP: (1.0, 9.0),
    WeightVariant.RANK_GAP: (0.45, 0.30),
}
RATIOS = {
    WeightVariant.UNIFORM: 4.0,
    WeightVariant.ABSOLUTE_GAP: 4.0 / 9.0,
    WeightVariant.RANK_GAP: 6.0,
}


@pytest.mark.parametrize("sigma", [1.0, 3.0])
@pytest.mark.parametrize("variant", list(WeightVariant))
def test_surrogate_slope_vanishes_where_the_weighted_pair_counts_balance(variant, sigma):
    # dL/d delta = sigma/(n(n-1)) (P_BA w_BA sig(sigma delta) - P_AB w_AB sig(-sigma delta)),
    # zero at delta* = log(P_AB w_AB / (P_BA w_BA)) / sigma
    spec = PairwiseSurrogate(variant, sigma)
    w_ab, w_ba = WEIGHTS[variant]
    ratio = PAIRS_AB * w_ab / (PAIRS_BA * w_ba)
    assert ratio == pytest.approx(RATIOS[variant], rel=1e-12)
    star = np.log(RATIOS[variant]) / sigma
    for delta in (star - 1.0, star - 0.1, star, star + 0.1, star + 1.0):
        sig = 1.0 / (1.0 + np.exp(-sigma * delta))
        want = sigma / (N * (N - 1)) * (PAIRS_BA * w_ba * sig - PAIRS_AB * w_ab * (1.0 - sig))
        got = _slope(spec, Y, IN_A, delta)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-15)
        assert np.sign(got) == np.sign(delta - star) or abs(got) < 1e-15
    assert abs(_slope(spec, Y, IN_A, star)) < 1e-15
    assert _slope(spec, Y, IN_A, star - 0.1) < -1e-5 and _slope(spec, Y, IN_A, star + 0.1) > 1e-5
    # B's mean, 2, is above A's, so only delta* < 0 takes the mean's order
    assert (star < 0.0) == (variant is WeightVariant.ABSOLUTE_GAP)


@pytest.mark.parametrize("tau", [0.1, 0.5])
def test_soft_gini_slope_follows_the_gap_of_the_means_at_every_delta(tau):
    # dL/d delta = -(2/n^2) (sig'(delta/tau)/tau) n_A n_B (mean_A - mean_B)
    spec = SoftGini(tau)
    n_a, n_b = 250, 250
    for delta in (-0.3, -0.05, 0.0, 0.02, 0.2):
        sig = 1.0 / (1.0 + np.exp(-delta / tau))
        want = -(2.0 / N**2) * (sig * (1.0 - sig) / tau) * n_a * n_b * (1.0 - 2.0)
        assert _slope(spec, Y, IN_A, delta) == pytest.approx(want, rel=1e-9)
    if tau == 0.1:
        assert _slope(spec, Y, IN_A, 0.0) == pytest.approx(1.25, rel=1e-12)


COUNTS = st.integers(1, 40)
LEVELS = st.integers(-50, 50)


@settings(max_examples=40, deadline=None)
@given(
    a=LEVELS,
    below=st.integers(1, 50),
    above=st.integers(1, 50),
    n=st.tuples(COUNTS, COUNTS, COUNTS),
)
def test_absolute_gap_and_soft_gini_take_the_order_of_the_means(a, below, above, n):
    # B is two-point {b0, b1} with b0 < a < b1; absolute gap's delta* has the sign of
    # mean_A - mean_B, so its slope at delta = 0 has the opposite sign, as soft-Gini's has
    # at every delta
    n_a, n_b0, n_b1 = n
    b0, b1 = a - below, a + above
    gap = n_b0 * below - n_b1 * above  # (mean_A - mean_B) (n_b0 + n_b1)
    assume(gap != 0)
    y, in_a = _cells(float(a), float(b0), float(b1), n_a, n_b0, n_b1)
    spec = PairwiseSurrogate(WeightVariant.ABSOLUTE_GAP)
    star = np.log(n_b0 * below / (n_b1 * above))
    assert np.sign(star) == np.sign(gap)
    assert np.sign(_slope(spec, y, in_a, 0.0)) == -np.sign(gap)
    assert abs(_slope(spec, y, in_a, star)) < 1e-12
    for delta in (-1.0, 0.0, 0.5):
        assert np.sign(_slope(SoftGini(0.5), y, in_a, delta)) == -np.sign(gap)


OBJECTIVES = [PairwiseSurrogate(v) for v in WeightVariant] + [SoftGini(0.5)]


@settings(max_examples=30, deadline=None)
@given(
    a=LEVELS,
    b0_above=st.integers(0, 20),
    b1_above=st.integers(1, 20),
    n=st.tuples(COUNTS, COUNTS, COUNTS),
    delta=st.floats(-3.0, 3.0),
)
def test_every_objective_pushes_a_below_a_stochastically_higher_b(a, b0_above, b1_above, n, delta):
    # B is two-point {b0, b1} with a <= b0 < b1: no pair puts A above B, so every
    # objective's slope in delta is positive at every delta
    n_a, n_b0, n_b1 = n
    b0 = a + b0_above
    y, in_a = _cells(float(a), float(b0), float(b0 + b1_above), n_a, n_b0, n_b1)
    for spec in OBJECTIVES:
        assert _slope(spec, y, in_a, delta) > 0.0, spec
