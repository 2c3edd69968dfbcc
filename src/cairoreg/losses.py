"""Stage-1 objectives over (targets, scores), each with exact score gradients.

Training uses the log-sigmoid pairwise surrogate, the softrank Gini loss,
or plain MSE. The surrogate weighs each pair with y_i > y_j uniformly, by
the target gap, or by the gap in the batch's target mid-distribution, and
divides by n(n-1). Each kernel takes its spec, as softrank takes its
SoftRankConfig, and trusts the spec's checks. The two ranking kernels,
the surrogate here and softrank in ranks, sort their input once and walk
the strict lower triangle of pairs in blocks of PAIR_BLOCK_ROWS rows, so
they hold no n x n temporaries; soft-Gini passes its cotangent to
softrank, so one walk gives its value and gradient. Both work from the
per-row exponentials (u, v) of ranks.exp_factors, exact while the span of
the scaled scores is at most ranks.EXP_SPAN_LIMIT = 700, where their
products stay within float64's range: a block's sigmoids, and softrank's
slopes, are reciprocals of one product of per-row factor columns, two or
three wide, with no exp per pair. Beyond that span, and for non-finite
scaled scores, the surrogate takes its stable per-pair forms over the same
blocks, and softrank forms each pair's exponential with an exp of its own.
Every surrogate variant runs one block body, which forms a block's softplus
and sigmoid and takes its sums as products with a vector of ones or, for
the gap weights, the two columns [1, g]: a gap weight g_i - g_j is a
difference of per-row values, so no pair weight is formed.
Only the gradient trains the scorer, so both ranking losses and
evaluate_loss take value=False, which scorer.train passes on all but one
batch per epoch: the surrogate then skips its softplus, a log1p per pair,
in exponential space, and soft-Gini the sums of its soft ranks in both
forms and their sigmoids, one per pair, in exponential space. Gradients
have the same bytes with or without the value.
The dense forms, and the hard pairwise losses the surrogate bounds, are test
oracles in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Union

import numpy as np

from .ranks import (
    PAIR_BLOCK_ROWS,
    SoftRankConfig,
    exp_factors,
    mid_distribution,
    softrank,
)


class WeightVariant(Enum):
    UNIFORM = "uniform"
    ABSOLUTE_GAP = "absolute-gap"
    RANK_GAP = "rank-gap"


@dataclass(frozen=True)
class PairwiseSurrogate:
    """Log-sigmoid pairwise loss: weights x softplus(-sigma (s_i - s_j))."""

    variant: WeightVariant = WeightVariant.UNIFORM
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")


@dataclass(frozen=True)
class SoftGini(SoftRankConfig):
    """Negative covariance between targets and soft ranks of the scores.

    The 0.1 default temperature keeps gradients alive when scores are O(1),
    as they are at a freshly initialized standardized-input scorer.
    """

    temperature: float = 0.1


@dataclass(frozen=True)
class PointwiseMse:
    """Squared-error baseline objective."""


LossSpec = Union[PairwiseSurrogate, SoftGini, PointwiseMse]


class LossValueGrad(NamedTuple):
    value: float | None  # None when the value was not asked for and not formed
    grad: np.ndarray


def _check_pair(y: np.ndarray, s: np.ndarray, min_n: int = 2) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if y.shape != s.shape or y.ndim != 1:
        raise ValueError(f"length mismatch: targets {y.shape}, scores {s.shape}")
    if y.size < min_n:
        raise ValueError(f"need at least {min_n} points")
    return y, s


@np.errstate(over="ignore", invalid="ignore")  # train reports a non-finite value or gradient
def surrogate_pairwise_loss(
    y: np.ndarray, s: np.ndarray, spec: PairwiseSurrogate, value: bool = True
) -> LossValueGrad:
    """Smooth upper bound on the misordered-pair loss, with exact gradient.

    value = (1/(n(n-1))) sum_{i != j} w_ij 1{y_i > y_j} softplus(-sigma (s_i - s_j)),
    with the weights and sigma of spec. With value=False the kernel forms only
    the gradient, and returns None for the value, in exponential space: there
    every term is at most log1p(exp(EXP_SPAN_LIMIT)), so finite scores give a
    finite value. The stable forms always give the value, since x is unbounded
    there: a sigma near float64's largest value makes it inf or NaN while the
    gradient stays finite, and train reads it to report the divergence.
    Overflow and invalid operations raise no numpy warning; they show as a
    non-finite value or gradient.

    The rows are sorted by target once, so the pairs with y_i > y_j are
    j < first[i] (the first row tied with i): a lower triangle, cut back
    at ties, walked in blocks of PAIR_BLOCK_ROWS rows. With xs = sigma s in
    target order, a pair's term is softplus(x) and its slope sigmoid(x) for
    x = xs_j - xs_i. While the span of xs is at most EXP_SPAN_LIMIT, the
    kernel works in exponential space: with c the middle of that span, it
    forms u = exp(xs - c) and v = exp(c - xs) once per call. A block's
    sigmoid(x) = 1/(1 + u_i v_j) is then the reciprocal of one product of
    the two-column factors [1, u_i] and [1, v_j], and, when the value is
    asked, its softplus is log1p(E) of the outer product E = exp(x) = v_i u_j,
    with no exp per pair. A wider span, or a non-finite one, takes the
    stable per-pair forms max(x, 0) + log1p(e) and the matching sigmoid,
    with e = exp(-|x|). O(n^2) time and O(n * PAIR_BLOCK_ROWS) memory; the
    stable forms write every block into three buffers allocated once per
    call, exponential space into two of them, one when no value is formed.

    Every variant runs one block body: a block of m rows forms its masked
    softplus S and sigmoid P and takes P @ W and S @ W, over c1 columns (up
    to n), for its row sums and its value, and W^T @ P, over m <=
    PAIR_BLOCK_ROWS rows, for its column sums; without the value it forms
    neither S nor S @ W. W is a vector of ones under
    uniform weights. A weighted pair's weight is its gap g_i - g_j in g, the
    sorted targets or (RANK_GAP) their mid-distribution, and W = [1, g], so
    each weighted sum is a difference of two products and no weight is
    formed. g is centred on the middle of its span, as xs is, and scaled by
    a power of two to |g| <= 1.
    """
    y, s = _check_pair(y, s)
    n = y.size
    order = np.argsort(y, kind="stable")
    ys = y[order]
    xs = spec.sigma * s[order]
    first = np.searchsorted(ys, ys, side="left")
    factors = exp_factors(xs)  # None for a NaN, inf or too wide span: the stable forms
    value = value or factors is None  # the stable forms' value is unbounded, so always formed
    W = np.ones(n)
    if spec.variant is not WeightVariant.UNIFORM:
        g = mid_distribution(y)[order] if spec.variant is WeightVariant.RANK_GAP else ys
        # centred, so that a small gap between large targets keeps its digits, and scaled
        # by a power of two to |g| <= 1, undone exactly at the end, so g makes no sum overflow
        g = g - (g[0] + 0.5 * (g[-1] - g[0]))
        g_exp = int(np.frexp(g[-1])[1])
        g = np.ldexp(g, -g_exp)
        W = np.stack([W, g], axis=1)  # [1, g]
    # per row: P W and S W; per column: W^T P, summed over blocks
    p_rows, s_rows, cols = np.zeros(W.shape), np.zeros(W.shape), np.zeros(W.T.shape)
    if factors is not None:
        left = np.array([np.ones(n), factors[0]]).T  # [1, u] per row
        right = np.array([np.ones(n), factors[1]])  # [1, v] per column
    buffers = np.empty((3, PAIR_BLOCK_ROWS * n))
    for r0 in range(0, n, PAIR_BLOCK_ROWS):
        r1 = min(r0 + PAIR_BLOCK_ROWS, n)
        # columns below c0 pair with every row of the block, those in [c0, c1) with some
        c0, c1 = first[r0], first[r1 - 1]
        if c1 == 0:
            continue
        rows = slice(r0, r1)
        size = (r1 - r0) * c1
        softplus, slope, scratch = (b[:size].reshape(r1 - r0, c1) for b in buffers)
        pairs = np.arange(c0, c1) < first[rows, None]
        if factors is None:
            x = np.subtract(xs[:c1], xs[rows, None], out=softplus)  # -sigma (s_i - s_j)
            e = np.abs(x, out=scratch)
            np.negative(e, out=e)
            np.exp(e, out=e)
            np.maximum(e, x >= 0.0, out=slope)  # 1 if x >= 0 else e
            np.maximum(x, 0.0, out=x)
            x += np.log1p(e)  # softplus(x)
            # masked after, so that a NaN or infinite term still makes the result NaN
            x[:, c0:] *= pairs
            slope[:, c0:] *= pairs
            np.add(e, 1.0, out=scratch)
            slope /= scratch  # sigmoid(x)
        else:
            # sigmoid(x) = 1/(1 + exp(-x)) = 1/([1, u_i] . [1, v_j]) for (u, v) = factors;
            # every term is finite, so a copy, cheaper than a product, masks it
            unpaired = ~pairs
            np.reciprocal(np.matmul(left[rows], right[:, :c1], out=slope), out=slope)
            np.copyto(slope[:, c0:], 0.0, where=unpaired)  # sigmoid is 0 where the pair is not
            if value:
                # exp(x) = v_i u_j, which einsum forms faster than broadcasting
                e = np.einsum("i,j->ij", factors[1][rows], factors[0][:c1], out=softplus)
                np.copyto(e[:, c0:], 0.0, where=unpaired)  # softplus is 0 where exp(x) is
                np.log1p(e, out=softplus)
        np.matmul(slope, W[:c1], out=p_rows[rows])
        if value:
            np.matmul(softplus, W[:c1], out=s_rows[rows])
        cols[..., :c1] += W.T[..., rows] @ slope
    scale = 1.0 / (n * (n - 1))
    if spec.variant is WeightVariant.UNIFORM:
        grad = cols - p_rows
        total = s_rows.sum()
    else:
        # With w_ij = g_i - g_j, sum_i w_ij P_ij = (g^T P)_j - g_j (1^T P)_j,
        # sum_j w_ij P_ij = g_i (P 1)_i - (P g)_i, and the value is sum_i g_i (S 1)_i - (S g)_i
        grad = (cols[1] - g * cols[0]) - (g * p_rows[:, 0] - p_rows[:, 1])
        total = (g * s_rows[:, 0] - s_rows[:, 1]).sum()
        scale = float(np.ldexp(scale, g_exp))  # undoes g's power-of-two scaling
    out = np.empty(n)
    out[order] = grad * (spec.sigma * scale)
    return LossValueGrad(float(total) * scale if value else None, out)


def soft_gini_loss(
    y: np.ndarray, s: np.ndarray, spec: SoftRankConfig, value: bool = True
) -> LossValueGrad:
    """Smoothed negative rank covariance -(2/n^2) sum (y_i - mean y) softrank_i.

    The soft ranks are softrank's at spec's temperature. Centering the
    targets drops only an additive constant, keeping the value comparable
    across batches; the gradient is exact: softrank returns the
    cotangent's VJP from the walk that gives the soft ranks. With
    value=False softrank sums no soft ranks, and the value is None; the
    gradient has the same bytes either way. The value is bounded for any
    finite scores, so no form needs it to report a divergence.
    """
    y, s = _check_pair(y, s)
    cotangent = -(2.0 / y.size**2) * (y - y.mean())
    values, grad = softrank(s, spec, cotangent, value)
    return LossValueGrad(float(cotangent @ values) if value else None, grad)


def mse_loss(y: np.ndarray, s: np.ndarray) -> LossValueGrad:
    y, s = _check_pair(y, s, min_n=1)
    n = y.size
    resid = s - y
    return LossValueGrad(float(np.mean(resid**2)), 2.0 * resid / n)


def evaluate_loss(
    spec: LossSpec, y: np.ndarray, s: np.ndarray, value: bool = True
) -> LossValueGrad:
    """Dispatch a LossSpec to its value-and-gradient implementation.

    value=False lets the ranking losses skip their value and return None:
    the pairwise surrogate in exponential space (its stable forms always
    give theirs), soft-Gini in both its forms. MSE always gives its value,
    a mean over the batch.
    """
    if isinstance(spec, PairwiseSurrogate):
        return surrogate_pairwise_loss(y, s, spec, value)
    if isinstance(spec, SoftGini):
        return soft_gini_loss(y, s, spec, value)
    if isinstance(spec, PointwiseMse):
        return mse_loss(y, s)
    raise TypeError(f"unknown loss spec: {spec!r}")


def is_ranking_loss(spec: LossSpec) -> bool:
    return isinstance(spec, (PairwiseSurrogate, SoftGini))
