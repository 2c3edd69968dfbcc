"""Quadratic reference kernels the blocked loss kernels are checked against.

These are the dense forms: each builds its n x n weight, difference and
sigmoid matrices in full, so they are slow and memory-hungry, but each
line maps onto the formula in its docstring.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from cairoreg.losses import LossValueGrad, WeightVariant, _check_pair, _weight_matrix
from cairoreg.ranks import SoftRankConfig, _check_scores


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def surrogate_pairwise_loss_oracle(
    y: np.ndarray,
    s: np.ndarray,
    variant: WeightVariant,
    sigma: float,
    target_cdf: np.ndarray | None = None,
) -> LossValueGrad:
    """value = (1/(n(n-1))) sum_{i != j} w_ij 1{y_i > y_j} softplus(-sigma (s_i - s_j))."""
    y, s = _check_pair(y, s)
    n = y.size
    coeff = _weight_matrix(variant, y, target_cdf) * (y[:, None] > y[None, :])
    coeff /= n * (n - 1)
    delta = -sigma * (s[:, None] - s[None, :])
    value = float(np.sum(coeff * _softplus(delta)))
    slope = coeff * _sigmoid(delta) * sigma
    grad = slope.sum(axis=0) - slope.sum(axis=1)
    return LossValueGrad(value, grad)


def softrank_oracle(
    scores: np.ndarray, cfg: SoftRankConfig
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """softrank_i = 1 + sum_{j != i} sigmoid((s_i - s_j)/tau) and its jacobian-apply."""
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
