"""Stage-1 objectives over (targets, scores), each with exact score gradients.

Hard weighted pairwise losses and their misordered-pair form are kept for
diagnostics and identity checks; training uses the log-sigmoid surrogate,
the softrank Gini loss, or plain MSE. All pairwise forms share one
canonical normalizer n(n-1); only kendall_identity_check switches to
pair-averaged normalization, the convention under which the uniform loss
equals (1 - tau)/2 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Union

import numpy as np

from .ranks import SoftRankConfig, _sigmoid, mid_distribution, mid_distribution_at, rank, softrank


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
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class SoftGini:
    """Negative covariance between targets and soft ranks of the scores."""

    temperature: float = 0.1

    def __post_init__(self) -> None:
        if not self.temperature > 0.0:
            raise ValueError("temperature must be positive")


@dataclass(frozen=True)
class PointwiseMse:
    """Squared-error baseline objective."""


LossSpec = Union[PairwiseSurrogate, SoftGini, PointwiseMse]


class LossValueGrad(NamedTuple):
    value: float
    grad: np.ndarray


def _check_pair(y: np.ndarray, s: np.ndarray, min_n: int = 2) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if y.shape != s.shape or y.ndim != 1:
        raise ValueError(f"length mismatch: targets {y.shape}, scores {s.shape}")
    if y.size < min_n:
        raise ValueError(f"need at least {min_n} points")
    return y, s


def _tied_indices(v: np.ndarray) -> list[int]:
    order = np.argsort(v, kind="stable")
    sv = v[order]
    tied = np.flatnonzero(sv[1:] == sv[:-1])
    out: set[int] = set()
    for k in tied:
        out.add(int(order[k]))
        out.add(int(order[k + 1]))
    return sorted(out)


def _require_tie_free(name: str, v: np.ndarray) -> None:
    tied = _tied_indices(v)
    if tied:
        raise ValueError(f"ties in {name} at indices {tied}")


def mid_cdf(targets: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Mid-distribution of a target sample, evaluable at arbitrary values."""
    frozen = np.array(targets, dtype=np.float64, copy=True)

    def lookup(values: np.ndarray) -> np.ndarray:
        return mid_distribution_at(frozen, values)

    return lookup


def pair_weight(
    variant: WeightVariant,
    y_i: float,
    y_j: float,
    cdf_y: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """Symmetric nonnegative pair weight; cdf_y required for RANK_GAP."""
    if variant is WeightVariant.UNIFORM:
        return 1.0
    if variant is WeightVariant.ABSOLUTE_GAP:
        return abs(float(y_i) - float(y_j))
    if cdf_y is None:
        raise ValueError("RANK_GAP weight needs the target mid-distribution")
    f = cdf_y(np.array([y_i, y_j], dtype=np.float64))
    return abs(float(f[0]) - float(f[1]))


def _weight_matrix(
    variant: WeightVariant, y: np.ndarray, target_cdf: np.ndarray | None
) -> np.ndarray:
    if variant is WeightVariant.UNIFORM:
        return np.ones((y.size, y.size))
    if variant is WeightVariant.ABSOLUTE_GAP:
        return np.abs(y[:, None] - y[None, :])
    f = mid_distribution(y) if target_cdf is None else np.asarray(target_cdf, dtype=np.float64)
    if f.shape != y.shape:
        raise ValueError("target_cdf must align with targets")
    return np.abs(f[:, None] - f[None, :])


def hard_pairwise_loss(
    y: np.ndarray,
    s: np.ndarray,
    variant: WeightVariant,
    target_cdf: np.ndarray | None = None,
) -> float:
    """Weighted fraction of non-concordant pairs over i<j, divided by n(n-1).

    The indicator is (y_i - y_j)(s_i - s_j) <= 0, so pairs tied in either
    coordinate count as errors under the uniform weight; gap weights assign
    tied-target pairs zero weight automatically.
    """
    y, s = _check_pair(y, s)
    n = y.size
    w = _weight_matrix(variant, y, target_cdf)
    bad = (y[:, None] - y[None, :]) * (s[:, None] - s[None, :]) <= 0.0
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    return float(np.sum(w[upper & bad]) / (n * (n - 1)))


def hard_pairwise_loss_ordered(
    y: np.ndarray,
    s: np.ndarray,
    variant: WeightVariant,
    target_cdf: np.ndarray | None = None,
) -> float:
    """Misordered-pair form: sum over i != j of w_ij 1{y_i>y_j} 1{s_i<s_j}.

    Equal to hard_pairwise_loss on tie-free input; ties are rejected.
    """
    y, s = _check_pair(y, s)
    _require_tie_free("targets", y)
    _require_tie_free("scores", s)
    n = y.size
    w = _weight_matrix(variant, y, target_cdf)
    mis = (y[:, None] > y[None, :]) & (s[:, None] < s[None, :])
    return float(np.sum(w[mis]) / (n * (n - 1)))


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def surrogate_pairwise_loss(
    y: np.ndarray,
    s: np.ndarray,
    variant: WeightVariant,
    sigma: float = 1.0,
    target_cdf: np.ndarray | None = None,
) -> LossValueGrad:
    """Smooth upper bound on the misordered-pair loss, with exact gradient.

    value = (1/(n(n-1))) sum_{i != j} w_ij 1{y_i > y_j} softplus(-sigma (s_i - s_j)).
    """
    y, s = _check_pair(y, s)
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    n = y.size
    coeff = _weight_matrix(variant, y, target_cdf) * (y[:, None] > y[None, :])
    coeff /= n * (n - 1)
    delta = -sigma * (s[:, None] - s[None, :])
    value = float(np.sum(coeff * _softplus(delta)))
    slope = coeff * _sigmoid(delta) * sigma
    grad = slope.sum(axis=0) - slope.sum(axis=1)
    return LossValueGrad(value, grad)


def soft_gini_loss(
    y: np.ndarray, s: np.ndarray, temperature: float = 0.1
) -> LossValueGrad:
    """Smoothed negative rank covariance -(2/n^2) sum (y_i - mean y) softrank_i.

    Centering the targets drops only an additive constant, keeping the
    value comparable across batches; the gradient is exact through the
    softrank jacobian.
    """
    y, s = _check_pair(y, s)
    n = y.size
    cotangent = -(2.0 / n**2) * (y - y.mean())
    values, jacobian_apply = softrank(s, SoftRankConfig(temperature))
    return LossValueGrad(float(cotangent @ values), jacobian_apply(cotangent))


def gini_rank_loss(y: np.ndarray, s: np.ndarray) -> float:
    """Exact-rank counterpart of soft_gini_loss: -(2/n^2) sum (y_i - mean y) rank_i."""
    y, s = _check_pair(y, s)
    n = y.size
    return float(-(2.0 / n**2) * np.dot(y - y.mean(), rank(s)))


def mse_loss(y: np.ndarray, s: np.ndarray) -> LossValueGrad:
    y, s = _check_pair(y, s, min_n=1)
    n = y.size
    resid = s - y
    return LossValueGrad(float(np.mean(resid**2)), 2.0 * resid / n)


def kendall_identity_check(y: np.ndarray, s: np.ndarray) -> tuple[float, float]:
    """Pair-averaged uniform hard loss and the Kendall U-statistic.

    Both are normalized by the number of unordered pairs n(n-1)/2 so that
    loss_uni = (1 - tau_hat)/2 holds exactly on tie-free input.
    """
    y, s = _check_pair(y, s)
    _require_tie_free("targets", y)
    _require_tie_free("scores", s)
    n = y.size
    sy = np.sign(y[:, None] - y[None, :])
    ss = np.sign(s[:, None] - s[None, :])
    pairs = n * (n - 1) / 2
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    loss_uni = float(np.sum((sy * ss)[upper] < 0) / pairs)
    tau_hat = float(np.sum((sy * ss)[upper]) / pairs)
    return loss_uni, tau_hat


def evaluate_loss(
    spec: LossSpec,
    y: np.ndarray,
    s: np.ndarray,
    target_cdf: np.ndarray | None = None,
) -> LossValueGrad:
    """Dispatch a LossSpec to its value-and-gradient implementation."""
    if isinstance(spec, PairwiseSurrogate):
        return surrogate_pairwise_loss(y, s, spec.variant, spec.sigma, target_cdf)
    if isinstance(spec, SoftGini):
        return soft_gini_loss(y, s, spec.temperature)
    if isinstance(spec, PointwiseMse):
        return mse_loss(y, s)
    raise TypeError(f"unknown loss spec: {spec!r}")


def is_ranking_loss(spec: LossSpec) -> bool:
    return isinstance(spec, (PairwiseSurrogate, SoftGini))
