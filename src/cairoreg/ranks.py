"""Rank, mid-distribution, and differentiable softrank kernels.

Ties everywhere follow the mid-rank convention: tied entries share the
average of the ranks they span, which keeps rank/covariance identities
valid for discrete scores. softrank sorts the scores once and walks the
strict lower triangle of pairs once, in blocks of PAIR_BLOCK_ROWS rows, for
the soft ranks and a VJP; sigmoid(-x) = 1 - sigmoid(x) gives the upper one.
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


@dataclass(frozen=True)
class SoftRankConfig:
    """Sigmoid width for the smooth rank surrogate."""

    temperature: float

    def __post_init__(self) -> None:
        if not 0.0 < self.temperature < np.inf:
            raise ValueError(f"temperature must be finite and positive, got {self.temperature}")


def softrank(
    scores: np.ndarray, cfg: SoftRankConfig, cotangent: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Smooth ranks softrank_i = 1 + sum_{j != i} sigmoid((s_i - s_j)/tau).

    Returns the soft ranks and, for a cotangent v (zeros by default),
    v^T (d softrank / d scores). The soft ranks sum to n(n+1)/2
    for every input and converge to mid-ranks as tau -> 0 on tie-free input.
    One walk over the strict lower triangle of the sorted scores, in blocks
    of PAIR_BLOCK_ROWS rows, gives both: O(n^2) time, O(n * PAIR_BLOCK_ROWS) memory.
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
    v = np.asarray(cotangent, dtype=np.float64)[order]

    # In sorted order, with e = exp(-(s_i - s_j)/tau), sigmoid((s_i - s_j)/tau)
    # is p_ij = 1/(1 + e) below the diagonal and 1 - p_ji above it. As
    # d softrank_i / d s_k is -(1/tau) sig'((s_i-s_k)/tau) off the diagonal and
    # (1/tau) sum_j sig'((s_i-s_j)/tau) on it and sig' is even, with D the lower
    # triangle of sig' = e p^2, v^T J = (v (D 1 + D^T 1) - D v - D^T v)/tau.
    below = np.zeros(n)
    above = np.zeros(n)
    out = np.zeros(n)
    for r0 in range(0, n, PAIR_BLOCK_ROWS):
        r1 = min(r0 + PAIR_BLOCK_ROWS, n)  # rows [r0, r1) over the columns j < r1
        e = scaled[:r1] - scaled[r0:r1, None]  # <= 0 below the diagonal
        square = e[:, r0:]  # holds the diagonal; p is masked on and above it
        np.minimum(square, 0.0, out=square)  # so that exp cannot overflow there
        np.exp(e, out=e)
        p = e + 1.0
        np.reciprocal(p, out=p)
        p[:, r0:] *= np.arange(r0, r1) < np.arange(r0, r1)[:, None]
        below[r0:r1] += p.sum(axis=1)
        above[:r1] += p.sum(axis=0)
        p *= p
        p *= e  # now D
        out[r0:r1] += p.sum(axis=1) * v[r0:r1] - p @ v[:r1]
        out[:r1] += p.sum(axis=0) * v[:r1] - v[r0:r1] @ p
    values = np.empty(n)
    values[order] = (n - np.arange(n)) + below - above
    grad = np.empty(n)
    grad[order] = out / tau
    return values, grad
