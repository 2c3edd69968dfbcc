"""Rank, mid-distribution, and differentiable softrank kernels.

Ties everywhere follow the mid-rank convention: tied entries share the
average of the ranks they span, which keeps rank/covariance identities
valid for discrete scores. softrank sorts the scores once and walks the
strict lower triangle of pairs once, in blocks of PAIR_BLOCK_ROWS rows, for
the soft ranks and a VJP; sigmoid(-x) = 1 - sigmoid(x) gives the upper one.
Both pairwise kernels, softrank here and the surrogate loss in losses, work
in exponential space while their scaled scores span at most EXP_SPAN_LIMIT:
exp_factors forms two exponentials per score once per call, and a pair's
exp(x_j - x_i) is the product of one from each row. Each block's sigmoid
denominators are then one short product of per-row factor columns, two or
three wide, and one reciprocal, with no exp per pair. In softrank, a wider
span forms each pair's exponential with an exp of its own and takes the
sigmoid and its slope from it. softrank(value=False) sums no soft ranks and,
in exponential space, forms only the slopes, which the VJP needs; it returns
None for the soft ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _check_scores(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("scores must be a nonempty 1-d vector")
    if not np.all(np.isfinite(s)):
        raise ValueError("non-finite score")
    return s


def rank(scores: np.ndarray) -> np.ndarray:
    """Mid-ranks in [1, n]: rank_i = #{s_j < s_i} + (#{s_j = s_i} + 1)/2.

    One sort, O(n log n): the run of equal scores at sorted positions
    [start, end) ranks (start + end + 1)/2, which is exact in float64, so
    the ranks always sum to n(n+1)/2 exactly. -0.0 and 0.0 are one run.
    """
    s = _check_scores(scores)
    order = np.argsort(s)
    sorted_s = s[order]
    bounds = np.flatnonzero(np.concatenate(([True], sorted_s[1:] != sorted_s[:-1], [True])))
    starts, ends = bounds[:-1], bounds[1:]
    out = np.empty(s.size)
    out[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return out


def mid_distribution(scores: np.ndarray) -> np.ndarray:
    """Tie-robust CDF (#{s_j < s_i} + 0.5 #{s_j = s_i})/n = (rank_i - 0.5)/n.

    Its sample mean is exactly 1/2 for any input.
    """
    s = _check_scores(scores)
    return (rank(s) - 0.5) / s.size


# Rows per block of the pairwise kernels (softrank here, the pairwise
# surrogate loss in losses): each block holds a few PAIR_BLOCK_ROWS x n
# temporaries, so memory grows as O(n) where n x n matrices grew as O(n^2).
PAIR_BLOCK_ROWS = 64

# The widest span of scaled scores that the pairwise kernels handle in exponential
# space. Their factors then stay within exp(+-350) and their products within exp(+-700),
# short of float64's overflow at exp(709.78) and of subnormals below exp(-708.4).
EXP_SPAN_LIMIT = 700.0

# Masks of a block's square of pairs: below its diagonal, and on or above it.
_LOWER = np.tri(PAIR_BLOCK_ROWS, k=-1, dtype=bool)
_UPPER = ~_LOWER
_LOWER.flags.writeable = _UPPER.flags.writeable = False


def exp_factors(x: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(exp(x - c), exp(c - x)) with c the middle of x's span, so exp(x_j - x_i) is the
    product of the first at j and the second at i; None when that span is wider than
    EXP_SPAN_LIMIT or not finite (NaN or inf), where the products could overflow.
    """
    lo, hi = x.min(), x.max()
    if not (hi - lo <= EXP_SPAN_LIMIT):
        return None
    mid = lo + 0.5 * (hi - lo)  # hi + lo could overflow
    return np.exp(x - mid), np.exp(mid - x)


@dataclass(frozen=True)
class SoftRankConfig:
    """Sigmoid width for the smooth rank surrogate."""

    temperature: float

    def __post_init__(self) -> None:
        if not 0.0 < self.temperature < np.inf:
            raise ValueError(f"temperature must be finite and positive, got {self.temperature}")


def softrank(
    scores: np.ndarray,
    cfg: SoftRankConfig,
    cotangent: np.ndarray | None = None,
    value: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Smooth ranks softrank_i = 1 + sum_{j != i} sigmoid((s_i - s_j)/tau).

    Returns the soft ranks and, for a cotangent v (zeros by default),
    v^T (d softrank / d scores). The soft ranks sum to n(n+1)/2
    for every input and converge to mid-ranks as tau -> 0 on tie-free input.
    With value=False the soft ranks are not summed, nor their sigmoids formed
    in exponential space, and come back as None; the VJP has the same bytes
    either way. One walk over the strict lower triangle of the sorted scores,
    in blocks of PAIR_BLOCK_ROWS rows, gives both: O(n^2) time,
    O(n * PAIR_BLOCK_ROWS) memory, in two buffers allocated once per call. While (max s - min s)/tau is at most
    EXP_SPAN_LIMIT, a block's sigmoids and slopes are reciprocals of two- and
    three-column products of exp_factors, with no exp per pair; a wider or
    non-finite span takes an exp per pair.
    """
    s = _check_scores(scores)
    n = s.size
    if cotangent is None:
        cotangent = np.zeros(n)
    if np.shape(cotangent) != (n,):
        raise ValueError(f"cotangent must have shape ({n},)")
    tau = cfg.temperature
    order = np.argsort(s, kind="stable")
    scaled = s[order] / tau
    ones = np.ones(n)
    W = np.stack([ones, np.asarray(cotangent, dtype=np.float64)[order]], axis=1)  # [1, v]
    v = W[:, 1]

    # In sorted order, with e = exp(-(s_i - s_j)/tau), sigmoid((s_i - s_j)/tau)
    # is p_ij = 1/(1 + e) below the diagonal and 1 - p_ji above it. As
    # d softrank_i / d s_k is -(1/tau) sig'((s_i-s_k)/tau) off the diagonal and
    # (1/tau) sum_j sig'((s_i-s_j)/tau) on it and sig' is even, with D the lower
    # triangle of sig' = e p^2 = 1/(1/e + 2 + e), v^T J = (v (D 1 + D^T 1) - D v - D^T v)/tau.
    # A block's D W gives D 1 and D v over its columns, and W^T D gives 1^T D and v^T D
    # over its m <= PAIR_BLOCK_ROWS rows, which a threaded BLAS sums alike for any
    # thread count; the soft ranks take p's row and column sums, products with ones.
    below, above = np.zeros(n), np.zeros(n)  # p's row and column sums
    row_sums, col_sums = np.zeros((n, 2)), np.zeros((2, n))  # D W and W^T D
    factors = exp_factors(scaled)
    if factors is not None:
        # with (up, down) = (exp(x - c), exp(c - x)), e = down_i up_j, so
        # 1 + e = [1, down_i] . [1, up_j] and 1/e + 2 + e = [down_i, up_i, 1] . [up_j, down_j, 2]
        up, down = factors
        d_rows, d_cols = np.array([down, up, ones]).T, np.array([up, down, 2.0 * ones])
        if value:
            p_rows, p_cols = np.array([ones, down]).T, np.array([ones, up])
    buffers = np.empty((2, PAIR_BLOCK_ROWS * n))
    for r0 in range(0, n, PAIR_BLOCK_ROWS):
        r1 = min(r0 + PAIR_BLOCK_ROWS, n)  # rows [r0, r1) over the columns j < r1
        m = r1 - r0
        p, d = (b[: m * r1].reshape(m, r1) for b in buffers)
        if factors is None:  # e = exp(scaled_j - scaled_i), <= 1 below the diagonal
            np.subtract(scaled[:r1], scaled[r0:r1, None], out=d)
            square = d[:, r0:]  # holds the diagonal; p is masked on and above it
            np.minimum(square, 0.0, out=square)  # so that exp cannot overflow there
            np.exp(d, out=d)
            np.add(d, 1.0, out=p)
            np.reciprocal(p, out=p)
            p[:, r0:] *= _LOWER[:m, :m]  # e <= exp(EXP_SPAN_LIMIT) above it, so p is 0 there
            d *= p
            d *= p  # now D = e p^2, 0 where p is
        else:  # each product is at most exp(EXP_SPAN_LIMIT) + 3, so no reciprocal is 0 or inf
            # and the masks can zero the square by a copy, cheaper than a product over it
            np.reciprocal(np.matmul(d_rows[r0:r1], d_cols[:, :r1], out=d), out=d)
            np.copyto(d[:, r0:], 0.0, where=_UPPER[:m, :m])
            if value:
                np.reciprocal(np.matmul(p_rows[r0:r1], p_cols[:, :r1], out=p), out=p)
                np.copyto(p[:, r0:], 0.0, where=_UPPER[:m, :m])
        if value:
            np.matmul(p, ones[:r1], out=below[r0:r1])
            above[:r1] += ones[:m] @ p
        np.matmul(d, W[:r1], out=row_sums[r0:r1])  # D 1 and D v
        col_sums[:, :r1] += W[r0:r1].T @ d  # 1^T D and v^T D
    grad = np.empty(n)
    grad[order] = ((row_sums[:, 0] + col_sums[0]) * v - (row_sums[:, 1] + col_sums[1])) / tau
    if not value:
        return None, grad
    values = np.empty(n)
    values[order] = (n - np.arange(n)) + below - above
    return values, grad
