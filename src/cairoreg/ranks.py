"""Rank, empirical CDF, mid-distribution, and differentiable softrank kernels.

Ties everywhere follow the mid-rank convention: tied entries share the
average of the ranks they span, which keeps rank/covariance identities
valid for discrete scores.
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


@dataclass(frozen=True)
class SoftRankConfig:
    """Sigmoid width for the smooth rank surrogate.

    The 0.1 default keeps gradients alive when scores are O(1), as they are
    at a freshly initialized standardized-input scorer.
    """

    temperature: float = 0.1

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
    Pairwise construction: O(n^2) time and memory.
    """
    s = _check_scores(scores)
    tau = cfg.temperature
    n = s.size
    diff = (s[:, None] - s[None, :]) / tau
    sig = _sigmoid(diff)
    np.fill_diagonal(sig, 0.0)
    values = 1.0 + sig.sum(axis=1)

    # d softrank_i / d s_k is (1/tau) sig'((s_i-s_k)/tau) off-diagonal (negated)
    # and (1/tau) sum_j sig'((s_i-s_j)/tau) on the diagonal; sig' is even, so
    # v^T J collapses to a weighted difference against each row of v.
    dsig = sig * (1.0 - sig)
    np.fill_diagonal(dsig, 0.0)

    def jacobian_apply(cotangent: np.ndarray) -> np.ndarray:
        v = np.asarray(cotangent, dtype=np.float64)
        if v.shape != (n,):
            raise ValueError(f"cotangent must have shape ({n},)")
        return (dsig.sum(axis=1) * v - dsig @ v) / tau

    return values, jacobian_apply


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
