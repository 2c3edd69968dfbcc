"""Evaluation statistics: RMSE, Spearman's rho, Kendall's tau, aggregation.

Both rank correlations use mid-ranks under ties; kendall is the tau-b variant
(tie-corrected), by merge-sort inversion counting: one sort of n int64 codes
for each of the log2(n) merge levels, and no binary searches.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .ranks import rank


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class EvalReport:
    model_name: str
    spearman: float
    kendall: float
    rmse: float
    rmse_vs_true_mean: float | None = None

    def __post_init__(self) -> None:
        for name in ("spearman", "kendall"):
            v = getattr(self, name)
            if not np.isfinite(v) or abs(v) > 1.0 + 1e-12:
                raise MetricError(f"{name} out of range: {v}")
        for name in ("rmse", "rmse_vs_true_mean"):
            v = getattr(self, name)
            if v is not None and (not np.isfinite(v) or v < 0):
                raise MetricError(f"invalid {name}: {v}")


# the report's metric names, in output order
METRICS = tuple(f.name for f in fields(EvalReport))[1:]


def _check(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise MetricError("inputs must be equal-length 1-d vectors")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise MetricError("non-finite input")
    return a, b


def rmse(y: np.ndarray, yhat: np.ndarray) -> float:
    y, yhat = _check(y, yhat)
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of mid-ranks."""
    a, b = _check(a, b)
    if a.size < 2:
        raise MetricError("need at least 2 points")
    ra, rb = rank(a), rank(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra @ ra) * (rb @ rb))
    if denom == 0.0:
        raise MetricError("undefined correlation: constant input")
    return float((ra @ rb) / denom)


def _dense_ranks(v: np.ndarray) -> tuple[np.ndarray, int]:
    """0-based dense ranks of v, and the number of tied pairs among its values."""
    _, ranks, counts = np.unique(v, return_inverse=True, return_counts=True)
    return ranks, int(np.sum(counts * (counts - 1)) // 2)


def _discordant_pairs(keys: np.ndarray) -> int:
    """Pairs i < j with keys[i] > keys[j], for integer keys in [0, n), by bottom-up merge sort.

    A merge level sorts one int64 code per key, ((block << bits | key) << 1) | side, with side
    1 in a block's right half, so ties put left keys first. Sorting moves each right key left
    past the left keys of its block that exceed it, so a level's discordant pairs are its right
    keys' positions before the sort less their positions after it. Codes need 2 log2(n) + 1 bits.
    """
    n = keys.size
    bits = max(n - 1, 1).bit_length()
    position = np.arange(n, dtype=np.int64)
    key_mask = ((1 << bits) - 1) << 1
    codes = keys.astype(np.int64) << 1
    discordant = 0
    level = 0
    while 1 << level < n:
        codes &= key_mask
        codes |= (position >> (level + 1)) << (bits + 1)
        side = (position >> level) & 1
        codes |= side
        codes.sort()
        discordant += int(position @ side) - int(position @ (codes & 1))
        level += 1
    return discordant


def kendall(a: np.ndarray, b: np.ndarray) -> float:
    """Tie-corrected tau-b via merge-sort inversion counting (Knight 1966).

    Equals the plain concordant-minus-discordant U-statistic when no ties
    are present.
    """
    a, b = _check(a, b)
    n = a.size
    if n < 2:
        raise MetricError("need at least 2 points")
    ra, ties_a = _dense_ranks(a)
    rb, ties_b = _dense_ranks(b)
    joint = ra * n + rb  # equal exactly for pairwise-equal (a, b)
    _, ties_ab = _dense_ranks(joint)
    discordant = _discordant_pairs(np.sort(joint) % n)  # b's ranks in (a, b) order

    total = n * (n - 1) / 2
    denom = np.sqrt((total - ties_a) * (total - ties_b))
    if denom == 0.0:
        raise MetricError("undefined correlation: constant input")
    con_minus_dis = total - ties_a - ties_b + ties_ab - 2 * discordant
    return float(con_minus_dis / denom)


@dataclass(frozen=True)
class MetricAggregate:
    mean: float
    half_width: float  # 1.96 * sd / sqrt(reps)


@dataclass(frozen=True)
class AggregateReport:
    model_name: str
    repetitions: int
    spearman: MetricAggregate
    kendall: MetricAggregate
    rmse: MetricAggregate
    rmse_vs_true_mean: MetricAggregate | None = None


def _aggregate_values(values: np.ndarray) -> MetricAggregate:
    sd = float(np.std(values, ddof=1))
    return MetricAggregate(
        mean=float(np.mean(values)),
        half_width=1.96 * sd / np.sqrt(values.size),
    )


def aggregate(reports: Sequence[EvalReport]) -> AggregateReport:
    """Mean and normal-approximation 95% half-width per metric over repetitions."""
    if len(reports) < 2:
        raise MetricError("need at least 2 repetitions to aggregate")
    names = {r.model_name for r in reports}
    if len(names) != 1:
        raise MetricError(f"reports mix models: {sorted(names)}")
    stats = {}
    for metric in METRICS:
        values = [getattr(r, metric) for r in reports]
        stats[metric] = None if None in values else _aggregate_values(np.array(values))
    return AggregateReport(model_name=reports[0].model_name, repetitions=len(reports), **stats)
