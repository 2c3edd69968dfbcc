"""Evaluation statistics: RMSE, Spearman's rho, Kendall's tau, aggregation.

Both rank correlations use mid-ranks under ties; kendall is the tau-b
variant (tie-corrected), computed in O(n log n) by inversion counting.
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
        if not np.isfinite(self.rmse) or self.rmse < 0:
            raise MetricError(f"invalid rmse: {self.rmse}")


# the report's metric names, in output order
METRICS = tuple(f.name for f in fields(EvalReport))[1:]


def _check(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise MetricError("inputs must be equal-length 1-d vectors")
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


def _pair_ties(sorted_v: np.ndarray) -> float:
    _, counts = np.unique(sorted_v, return_counts=True)
    return float(np.sum(counts * (counts - 1)) / 2)


def _count_inversions(values: list[float]) -> int:
    def merge_sort(lst: list[float]) -> tuple[list[float], int]:
        if len(lst) <= 1:
            return lst, 0
        mid = len(lst) // 2
        left, inv_l = merge_sort(lst[:mid])
        right, inv_r = merge_sort(lst[mid:])
        merged: list[float] = []
        inv = inv_l + inv_r
        i = j = 0
        while i < len(left) and j < len(right):
            if left[i] <= right[j]:
                merged.append(left[i])
                i += 1
            else:
                merged.append(right[j])
                j += 1
                inv += len(left) - i
        merged.extend(left[i:])
        merged.extend(right[j:])
        return merged, inv

    return merge_sort(values)[1]


def kendall(a: np.ndarray, b: np.ndarray) -> float:
    """Tie-corrected tau-b via merge-sort inversion counting.

    Equals the plain concordant-minus-discordant U-statistic when no ties
    are present.
    """
    a, b = _check(a, b)
    n = a.size
    if n < 2:
        raise MetricError("need at least 2 points")
    order = np.lexsort((b, a))
    a_sorted, b_sorted = a[order], b[order]

    total = n * (n - 1) / 2
    ties_a = _pair_ties(a_sorted)
    ties_b = _pair_ties(np.sort(b))
    joint = a_sorted + 1j * b_sorted  # pairwise-equal (a, b) runs
    ties_ab = _pair_ties(joint)
    discordant = _count_inversions(b_sorted.tolist())

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
