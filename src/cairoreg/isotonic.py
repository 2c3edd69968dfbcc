"""Monotone calibration: weighted PAV fit, interpolating predictor, audit.

pav_fit solves least squares over nondecreasing step functions of the
score. Because every block's fitted value is the exact mean of its
targets, predictions on the training set are auto-calibrated by
construction; audit_autocalibration measures that residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CalibrationMap:
    """Sorted unique training scores (knots) with nondecreasing fitted values."""

    knots: np.ndarray
    fitted: np.ndarray

    def __post_init__(self) -> None:
        knots = np.asarray(self.knots, dtype=np.float64)
        fitted = np.asarray(self.fitted, dtype=np.float64)
        if knots.ndim != 1 or knots.size < 1 or knots.shape != fitted.shape:
            raise ValueError("knots and fitted must be equal-length nonempty vectors")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(fitted))):
            raise ValueError("knots and fitted values must be finite")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if np.any(np.diff(fitted) < 0):
            raise ValueError("fitted values must be nondecreasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "fitted", fitted)


@dataclass(frozen=True)
class AutoCalibrationReport:
    block_count: int
    max_abs_block_residual: float


def _check_fit_inputs(scores, targets) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if s.ndim != 1 or s.shape != y.shape or s.size < 1:
        raise ValueError("scores and targets must be equal-length 1-d vectors")
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite input")
    return s, y


def pav_fit(scores: np.ndarray, targets: np.ndarray) -> CalibrationMap:
    """Least-squares nondecreasing fit of targets against scores.

    Tied scores are pooled first (mean target, count weight), then adjacent
    violating blocks are merged into their weighted means via a stack;
    O(n log n) including the sort.
    """
    s, y = _check_fit_inputs(scores, targets)
    order = np.argsort(s, kind="stable")
    s_sorted, y_sorted = s[order], y[order]
    knots, starts = np.unique(s_sorted, return_index=True)
    sums = np.add.reduceat(y_sorted, starts)
    counts = np.diff(np.append(starts, s_sorted.size)).astype(np.float64)

    # stack of (value, weight) blocks; merge while monotonicity is violated
    values: list[float] = []
    weights: list[float] = []
    lengths: list[int] = []
    for v, w in zip(sums / counts, counts):
        cur_v, cur_w, cur_len = float(v), float(w), 1
        while values and values[-1] > cur_v:
            pv, pw = values.pop(), weights.pop()
            cur_v = (pv * pw + cur_v * cur_w) / (pw + cur_w)
            cur_w += pw
            cur_len += lengths.pop()
        values.append(cur_v)
        weights.append(cur_w)
        lengths.append(cur_len)

    fitted = np.repeat(values, lengths)
    return CalibrationMap(knots=knots, fitted=fitted)


def predict(cmap: CalibrationMap, scores: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolation through the knots, clipped outside them."""
    s = np.asarray(scores, dtype=np.float64)
    return np.interp(s, cmap.knots, cmap.fitted)


def audit_autocalibration(
    cmap: CalibrationMap, scores: np.ndarray, targets: np.ndarray
) -> AutoCalibrationReport:
    """Max deviation of within-level-set target means from the predicted value.

    Meaningful only on the training pair the map was fitted to, where it is
    rounding error relative to max|y|: it grows with the targets' scale.
    """
    s, y = _check_fit_inputs(scores, targets)
    preds = predict(cmap, s)
    levels, inverse = np.unique(preds, return_inverse=True)
    sums = np.bincount(inverse, weights=y)
    counts = np.bincount(inverse)
    residual = np.abs(sums / counts - levels).max()
    return AutoCalibrationReport(
        block_count=int(levels.size), max_abs_block_residual=float(residual)
    )
