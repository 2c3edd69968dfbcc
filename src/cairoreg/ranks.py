"""Rank, empirical CDF, mid-distribution, and differentiable softrank kernels.

Ties everywhere follow the mid-rank convention: tied entries share the
average of the ranks they span, which keeps rank/covariance identities
valid for discrete scores. softrank sorts the scores once and walks the
strict lower triangle of pairs in blocks of PAIR_BLOCK_ROWS rows; the
upper triangle follows from sigmoid(-x) = 1 - sigmoid(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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

    Both counts are binary searches into the sorted scores, O(n log n).
    The ranks always sum to n(n+1)/2 exactly.
    """
    s = _check_scores(scores)
    sorted_s = np.sort(s)
    below = np.searchsorted(sorted_s, s, side="left")
    through = np.searchsorted(sorted_s, s, side="right")
    return 0.5 * (below + through + 1)


def empirical_cdf(scores: np.ndarray) -> np.ndarray:
    """rank(scores)/n elementwise."""
    s = _check_scores(scores)
    return rank(s) / s.size


def mid_distribution(scores: np.ndarray) -> np.ndarray:
    """Tie-robust CDF (#{s_j < s_i} + 0.5 #{s_j = s_i})/n = (rank_i - 0.5)/n.

    Its sample mean is exactly 1/2 for any input.
    """
    s = _check_scores(scores)
    return (rank(s) - 0.5) / s.size


def mid_distribution_at(sample: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Evaluate the sample's mid-distribution at arbitrary points."""
    sample = np.sort(_check_scores(sample))
    q = np.asarray(query, dtype=np.float64)
    lo = np.searchsorted(sample, q, side="left")
    hi = np.searchsorted(sample, q, side="right")
    return (lo + 0.5 * (hi - lo)) / sample.size


# Rows per block of the pairwise kernels (softrank here, the pairwise
# surrogate loss in losses): each block holds a few PAIR_BLOCK_ROWS x n
# temporaries, so memory grows as O(n) where n x n matrices grew as O(n^2).
PAIR_BLOCK_ROWS = 64


@dataclass(frozen=True)
class SoftRankConfig:
    """Sigmoid width for the smooth rank surrogate."""

    temperature: float

    def __post_init__(self) -> None:
        if not self.temperature > 0.0:
            raise ValueError("temperature must be positive")


def softrank(
    scores: np.ndarray, cfg: SoftRankConfig
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Smooth ranks softrank_i = 1 + sum_{j != i} sigmoid((s_i - s_j)/tau).

    Returns the soft ranks and a jacobian-apply closure mapping a cotangent
    v to v^T (d softrank / d scores). The soft ranks sum to n(n+1)/2 for
    every input and converge to mid-ranks as tau -> 0 on tie-free input.
    Both walk the strict lower triangle of the sorted scores in blocks of
    PAIR_BLOCK_ROWS rows: O(n^2) time and O(n * PAIR_BLOCK_ROWS) memory.
    """
    s = _check_scores(scores)
    tau = cfg.temperature
    n = s.size
    order = np.argsort(s, kind="stable")
    scaled = s[order] / tau

    def lower_blocks():
        """Per row block [r0, r1) of the sorted scores, over columns j < r1:
        e = exp(-(s_i - s_j)/tau) and p = sigmoid((s_i - s_j)/tau), p zero for j >= i."""
        for r0 in range(0, n, PAIR_BLOCK_ROWS):
            r1 = min(r0 + PAIR_BLOCK_ROWS, n)
            e = scaled[:r1] - scaled[r0:r1, None]  # <= 0 below the diagonal
            square = e[:, r0:]  # holds the diagonal; p is masked on and above it
            np.minimum(square, 0.0, out=square)  # so that exp cannot overflow there
            np.exp(e, out=e)
            p = e + 1.0
            np.reciprocal(p, out=p)
            p[:, r0:] *= np.arange(r0, r1) < np.arange(r0, r1)[:, None]
            yield r0, r1, e, p

    # In sorted order, sigmoid((s_i - s_j)/tau) is p_ij below the diagonal
    # and 1 - p_ji above it.
    below = np.zeros(n)
    above = np.zeros(n)
    for r0, r1, _, p in lower_blocks():
        below[r0:r1] += p.sum(axis=1)
        above[:r1] += p.sum(axis=0)
    values = np.empty(n)
    values[order] = (n - np.arange(n)) + below - above

    # d softrank_i / d s_k is -(1/tau) sig'((s_i-s_k)/tau) off the diagonal and
    # (1/tau) sum_j sig'((s_i-s_j)/tau) on it; sig' is even, so with D the
    # lower triangle of sig' = e p^2, v^T J = (v (D 1 + D^T 1) - D v - D^T v)/tau.
    def jacobian_apply(cotangent: np.ndarray) -> np.ndarray:
        v = np.asarray(cotangent, dtype=np.float64)
        if v.shape != (n,):
            raise ValueError(f"cotangent must have shape ({n},)")
        v = v[order]
        out = np.zeros(n)
        for r0, r1, e, p in lower_blocks():
            p *= p
            p *= e
            out[r0:r1] += p.sum(axis=1) * v[r0:r1] - p @ v[:r1]
            out[:r1] += p.sum(axis=0) * v[:r1] - v[r0:r1] @ p
        grad = np.empty(n)
        grad[order] = out / tau
        return grad

    return values, jacobian_apply
