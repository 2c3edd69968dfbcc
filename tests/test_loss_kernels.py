"""The blocked pair kernels against their quadratic oracles, as properties.

Sizes cross several PAIR_BLOCK_ROWS boundaries; inputs mix tied and
tie-free targets and scores, all three weight variants, and temperatures
and sigmas over four decades.
"""

import tracemalloc

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from oracles import softrank_oracle, surrogate_pairwise_loss_oracle

from cairoreg.losses import WeightVariant, soft_gini_loss, surrogate_pairwise_loss
from cairoreg.ranks import PAIR_BLOCK_ROWS, SoftRankConfig, softrank

EPS = np.finfo(np.float64).eps
TOL = 1e-12

_EDGES = [k * PAIR_BLOCK_ROWS + d for k in range(1, 5) for d in (-1, 0, 1)]
SIZES = st.one_of(st.integers(2, 300), st.sampled_from([n for n in _EDGES if 2 <= n <= 300]))
SEEDS = st.integers(0, 2**32 - 1)
LOG_SCALE = st.floats(-2.0, 2.0)


def _vector(rng, n, tied):
    """Heavy-tailed values, or a few repeated integers when tied."""
    if tied:
        return rng.integers(0, 1 + n // 10, size=n).astype(np.float64)
    return rng.standard_t(2, size=n)


def _close(got, want, magnitude):
    return np.max(np.abs(np.asarray(got) - np.asarray(want))) <= TOL * magnitude


@given(
    n=SIZES,
    seed=SEEDS,
    y_tied=st.booleans(),
    s_tied=st.booleans(),
    variant=st.sampled_from(list(WeightVariant)),
    log_sigma=LOG_SCALE,
    given_cdf=st.booleans(),
)
def test_surrogate_matches_oracle(n, seed, y_tied, s_tied, variant, log_sigma, given_cdf):
    rng = np.random.default_rng(seed)
    y, s = _vector(rng, n, y_tied), _vector(rng, n, s_tied)
    sigma = 10.0**log_sigma
    # a caller's cdf need not follow the targets' order; the pairs still do
    cdf = rng.uniform(size=n) if given_cdf and variant is WeightVariant.RANK_GAP else None
    got = surrogate_pairwise_loss(y, s, variant, sigma, cdf)
    want = surrogate_pairwise_loss_oracle(y, s, variant, sigma, cdf)
    assert _close(got.value, want.value, abs(want.value))  # a sum of nonnegative terms
    assert _close(got.grad, want.grad, np.max(np.abs(want.grad)))
    again = surrogate_pairwise_loss(y, s, variant, sigma, cdf)
    assert again.value == got.value and again.grad.tobytes() == got.grad.tobytes()


@given(n=SIZES, seed=SEEDS, s_tied=st.booleans(), log_tau=LOG_SCALE)
def test_softrank_matches_oracle(n, seed, s_tied, log_tau):
    rng = np.random.default_rng(seed)
    s = _vector(rng, n, s_tied)
    v = rng.normal(size=n)
    cfg = SoftRankConfig(10.0 ** (log_tau - 1.0))
    values, jac = softrank(s, cfg)
    want_values, want_jac = softrank_oracle(s, cfg)
    assert _close(values, want_values, np.max(np.abs(want_values)))
    assert abs(values.sum() - n * (n + 1) / 2) <= 1e-9
    # The oracle forms sig' as sig (1 - sig), off by up to about eps per pair
    # once a pair saturates; the kernel forms e p^2, exact to a few ulps.
    floor = 4 * n * EPS * np.max(np.abs(v)) / cfg.temperature
    grad, want_grad = jac(v), want_jac(v)
    assert np.max(np.abs(grad - want_grad)) <= TOL * np.max(np.abs(want_grad)) + floor
    values_again, jac_again = softrank(s, cfg)
    assert values_again.tobytes() == values.tobytes()
    assert jac_again(v).tobytes() == grad.tobytes()


@given(n=SIZES, seed=SEEDS, s_tied=st.booleans(), log_tau=LOG_SCALE)
def test_soft_gini_matches_oracle(n, seed, s_tied, log_tau):
    rng = np.random.default_rng(seed)
    y, s = rng.standard_t(2, size=n), _vector(rng, n, s_tied)
    tau = 10.0 ** (log_tau - 1.0)
    got = soft_gini_loss(y, s, tau)
    cotangent = -(2.0 / n**2) * (y - y.mean())
    values, jac = softrank_oracle(s, SoftRankConfig(tau))
    assert _close(got.value, cotangent @ values, np.abs(cotangent) @ values)
    floor = 4 * n * EPS * np.max(np.abs(cotangent)) / tau
    want_grad = jac(cotangent)
    assert np.max(np.abs(got.grad - want_grad)) <= TOL * np.max(np.abs(want_grad)) + floor


def test_full_batch_memory():
    n = 4200
    rng = np.random.default_rng(0)
    y, s = rng.standard_t(2, size=n), rng.normal(size=n)
    for call in (
        lambda: surrogate_pairwise_loss(y, s, WeightVariant.ABSOLUTE_GAP, 1.0),
        lambda: soft_gini_loss(y, s, 0.1),
    ):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.0f} MB"
