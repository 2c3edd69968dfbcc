"""The blocked pair kernels against their quadratic oracles, as properties.

Sizes cross several PAIR_BLOCK_ROWS boundaries; inputs mix tied and
tie-free targets and scores, all three weight variants, and temperatures
and sigmas over four decades. Both kernels are also checked with scores
whose scaled span sits just inside and just outside EXP_SPAN_LIMIT, where
they switch between their exponential-space and stable forms; the surrogate
there also with targets shifted by 1e8 and scaled by 1e200, which its
gap-weighted products centre and scale.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import softrank_oracle, surrogate_pairwise_loss_oracle

import cairoreg
from cairoreg.losses import (
    PairwiseSurrogate,
    SoftGini,
    WeightVariant,
    soft_gini_loss,
    surrogate_pairwise_loss,
)
from cairoreg.ranks import EXP_SPAN_LIMIT, PAIR_BLOCK_ROWS, SoftRankConfig, softrank

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
)
def test_surrogate_matches_oracle(n, seed, y_tied, s_tied, variant, log_sigma):
    rng = np.random.default_rng(seed)
    y, s = _vector(rng, n, y_tied), _vector(rng, n, s_tied)
    sigma = 10.0**log_sigma
    got = surrogate_pairwise_loss(y, s, PairwiseSurrogate(variant, sigma))
    want = surrogate_pairwise_loss_oracle(y, s, variant, sigma)
    assert _close(got.value, want.value, abs(want.value))  # a sum of nonnegative terms
    assert _close(got.grad, want.grad, np.max(np.abs(want.grad)))
    again = surrogate_pairwise_loss(y, s, PairwiseSurrogate(variant, sigma))
    assert again.value == got.value and again.grad.tobytes() == got.grad.tobytes()


@pytest.mark.parametrize("span", [EXP_SPAN_LIMIT - 1.0, EXP_SPAN_LIMIT + 1.0])
@pytest.mark.parametrize("n", [PAIR_BLOCK_ROWS - 1, PAIR_BLOCK_ROWS + 1, 2 * PAIR_BLOCK_ROWS + 1])
@pytest.mark.parametrize("y_tied", [False, True])
@pytest.mark.parametrize("variant", list(WeightVariant))
@pytest.mark.parametrize(
    "y_shift, y_scale", [(0.0, 1.0), (1e8, 1.0), (0.0, 1e200)], ids=["y", "y+1e8", "y*1e200"]
)
def test_surrogate_matches_oracle_on_both_sides_of_the_exponential_span_limit(
    span, n, y_tied, variant, y_shift, y_scale
):
    # Just inside the limit the kernel multiplies factors up to exp(+-349.5); just outside
    # it takes the stable per-pair forms. sigma * s spans [20, 20 + span], where exp(sigma * s)
    # alone would overflow, so the factors must be centred. The gap weights y_i - y_j are
    # never formed: the kernel takes products with the targets and subtracts per row. For
    # targets near 1e8 that keeps about 8 digits of a unit gap unless the targets are
    # centred; targets near 1e200 check that the power-of-two scaling of the centred
    # targets is undone exactly in the value and the gradient.
    rng = np.random.default_rng(n)
    y, s = _vector(rng, n, y_tied) * y_scale + y_shift, rng.standard_t(2, size=n)
    sigma = 3.0
    s = (s - s.min()) * (span / (sigma * np.ptp(s))) + 20.0 / sigma
    assert (np.ptp(sigma * s) <= EXP_SPAN_LIMIT) == (span < EXP_SPAN_LIMIT)
    got = surrogate_pairwise_loss(y, s, PairwiseSurrogate(variant, sigma))
    want = surrogate_pairwise_loss_oracle(y, s, variant, sigma)
    assert _close(got.value, want.value, abs(want.value))
    assert _close(got.grad, want.grad, np.max(np.abs(want.grad)))


@pytest.mark.parametrize("sigma", [1.0, 1e4], ids=["products", "exp-per-pair"])
@pytest.mark.parametrize("y_tied", [False, True])
@pytest.mark.parametrize("variant", list(WeightVariant))
def test_surrogate_without_its_value_gives_the_gradient_bytes(sigma, y_tied, variant):
    # In exponential space the value is skipped and None; the stable forms' value is
    # unbounded, so train reads it to report a divergence, and it is formed anyway.
    rng = np.random.default_rng(5)
    n = 2 * PAIR_BLOCK_ROWS + 1
    y, s = _vector(rng, n, y_tied), rng.standard_t(2, size=n)
    stable = np.ptp(sigma * s) > EXP_SPAN_LIMIT
    assert stable == (sigma == 1e4)
    spec = PairwiseSurrogate(variant, sigma)
    asked = surrogate_pairwise_loss(y, s, spec)
    skipped = surrogate_pairwise_loss(y, s, spec, value=False)
    assert skipped.grad.tobytes() == asked.grad.tobytes()
    if stable:
        assert skipped.value.hex() == asked.value.hex()
    else:
        assert skipped.value is None


@given(n=SIZES, seed=SEEDS, s_tied=st.booleans(), log_tau=LOG_SCALE)
def test_softrank_matches_oracle(n, seed, s_tied, log_tau):
    rng = np.random.default_rng(seed)
    s = _vector(rng, n, s_tied)
    v = rng.normal(size=n)
    cfg = SoftRankConfig(10.0 ** (log_tau - 1.0))
    values, grad = softrank(s, cfg, v)
    want_values, want_jac = softrank_oracle(s, cfg)
    assert _close(values, want_values, np.max(np.abs(want_values)))
    assert abs(values.sum() - n * (n + 1) / 2) <= 1e-9
    # The oracle forms sig' as sig (1 - sig), off by up to about eps per pair
    # once a pair saturates; the kernel forms e p^2, exact to a few ulps.
    floor = 4 * n * EPS * np.max(np.abs(v)) / cfg.temperature
    want_grad = want_jac(v)
    assert np.max(np.abs(grad - want_grad)) <= TOL * np.max(np.abs(want_grad)) + floor
    values_again, grad_again = softrank(s, cfg, v)
    assert values_again.tobytes() == values.tobytes()
    assert grad_again.tobytes() == grad.tobytes()
    values_alone, zero_grad = softrank(s, cfg)  # the cotangent defaults to zeros
    assert values_alone.tobytes() == values.tobytes()
    assert not zero_grad.any()


@pytest.mark.parametrize("span", [EXP_SPAN_LIMIT - 1.0, EXP_SPAN_LIMIT + 1.0])
@pytest.mark.parametrize("n", [PAIR_BLOCK_ROWS - 1, PAIR_BLOCK_ROWS + 1, 2 * PAIR_BLOCK_ROWS + 1])
@pytest.mark.parametrize("s_tied", [False, True])
def test_softrank_matches_oracle_on_both_sides_of_the_exponential_span_limit(span, n, s_tied):
    # Just inside the limit the kernel multiplies factors up to exp(+-349.5); just outside
    # it takes the stable per-pair form. s / tau spans [20, 20 + span], where exp(s / tau)
    # alone would overflow, so the factors must be centred.
    rng = np.random.default_rng(n)
    s, v = _vector(rng, n, s_tied), rng.normal(size=n)
    cfg = SoftRankConfig(0.01)
    s = (s - s.min()) * (span * cfg.temperature / np.ptp(s)) + 20.0 * cfg.temperature
    assert (np.ptp(s / cfg.temperature) <= EXP_SPAN_LIMIT) == (span < EXP_SPAN_LIMIT)
    values, grad = softrank(s, cfg, v)
    want_values, want_jac = softrank_oracle(s, cfg)
    assert _close(values, want_values, np.max(np.abs(want_values)))
    assert abs(values.sum() - n * (n + 1) / 2) <= 1e-9
    floor = 4 * n * EPS * np.max(np.abs(v)) / cfg.temperature
    want_grad = want_jac(v)
    assert np.max(np.abs(grad - want_grad)) <= TOL * np.max(np.abs(want_grad)) + floor


@pytest.mark.parametrize("tau", [0.1, 1e-4], ids=["products", "exp-per-pair"])
@pytest.mark.parametrize("s_tied", [False, True])
def test_soft_gini_without_its_value_gives_the_gradient_bytes(tau, s_tied):
    # Without the value softrank forms no soft ranks and returns None for them; its slopes
    # are formed as with the value, so the gradient keeps its bytes in both forms.
    rng = np.random.default_rng(7)
    n = 2 * PAIR_BLOCK_ROWS + 5
    y, s = rng.standard_t(2, size=n), _vector(rng, n, s_tied)
    assert (np.ptp(s / tau) > EXP_SPAN_LIMIT) == (tau == 1e-4)
    spec = SoftGini(tau)
    asked = soft_gini_loss(y, s, spec)
    skipped = soft_gini_loss(y, s, spec, value=False)
    assert asked.value is not None and skipped.value is None
    assert skipped.grad.tobytes() == asked.grad.tobytes()
    v = rng.normal(size=n)
    values, grad = softrank(s, spec, v)
    no_values, same_grad = softrank(s, spec, v, value=False)
    assert values is not None and no_values is None
    assert same_grad.tobytes() == grad.tobytes()


@given(n=SIZES, seed=SEEDS, s_tied=st.booleans(), log_tau=LOG_SCALE)
def test_soft_gini_matches_oracle(n, seed, s_tied, log_tau):
    rng = np.random.default_rng(seed)
    y, s = rng.standard_t(2, size=n), _vector(rng, n, s_tied)
    tau = 10.0 ** (log_tau - 1.0)
    got = soft_gini_loss(y, s, SoftGini(tau))
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
        lambda: surrogate_pairwise_loss(y, s, PairwiseSurrogate(WeightVariant.ABSOLUTE_GAP)),
        lambda: soft_gini_loss(y, s, SoftGini()),
        lambda: soft_gini_loss(y, s, SoftGini(1e-4)),  # a span beyond EXP_SPAN_LIMIT
    ):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.0f} MB"


# Prints each surrogate's value and gradient bits for heavy-tailed targets at
# four batch sizes, at sigma = 1, where the scaled scores' span is within
# EXP_SPAN_LIMIT, and at sigma = 1e4, where it is beyond; then soft-Gini's at
# tau = 0.1 (within) and tau = 1e-4 (beyond). Each line is tagged with its form
# and ends with the gradient's hash from the call without the value, the one
# train makes on all but one batch per epoch. Every kernel's row sums are
# products over a whole block row, up to 4200 terms, and a threaded BLAS may
# split a long sum in an order set by its thread count; their column sums run
# over at most PAIR_BLOCK_ROWS terms.
_SURROGATE_BITS = """
import hashlib
import numpy as np
from cairoreg.losses import (
    PairwiseSurrogate, SoftGini, WeightVariant, soft_gini_loss, surrogate_pairwise_loss
)
from cairoreg.ranks import exp_factors
def form(x):
    return "products" if exp_factors(x) is not None else "exp-per-pair"
def bits(kernel):
    got, skipped = kernel(True), kernel(False)
    hashes = (hashlib.sha256(g.grad).hexdigest() for g in (got, skipped))
    return got.value.hex(), *hashes
for n in (256, 1024, 1500, 4200):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        y, s = rng.standard_t(2, size=n), rng.normal(size=n)
        for variant in WeightVariant:
            for sigma in (1.0, 1e4):
                spec = PairwiseSurrogate(variant, sigma)
                tag = (variant.value, sigma, form(sigma * s))
                print(n, seed, *tag, *bits(lambda v: surrogate_pairwise_loss(y, s, spec, v)))
        for tau in (0.1, 1e-4):
            tag = ("soft-gini", tau, form(s / tau))
            print(n, seed, *tag, *bits(lambda v: soft_gini_loss(y, s, SoftGini(tau), v)))
"""


def test_surrogate_bits_do_not_depend_on_the_blas_thread_count():
    src = str(Path(cairoreg.__path__[0]).parent)

    def bits(threads):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(threads)}
        run = subprocess.run(
            [sys.executable, "-c", _SURROGATE_BITS],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return run.stdout.splitlines()

    one, two = bits(1), bits(2)
    assert len(one) == 4 * 3 * (3 * 2 + 2)
    # each size and seed takes both forms in every kernel
    forms = [line.split()[4] for line in one]
    assert forms == ["products", "exp-per-pair"] * (len(one) // 2)
    # the gradient without the value has the bytes of the gradient with it
    assert all(line.split()[-1] == line.split()[-2] for line in one)
    assert one == two, [(a, b) for a, b in zip(one, two) if a != b]
