"""Monotone calibration: weighted PAV fit, interpolating predictor, audit.

pav_fit solves least squares over nondecreasing step functions of the
score. Because every block's fitted value is the exact mean of its
targets, predictions on the training set are auto-calibrated by
construction; audit_autocalibration measures that residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _freeze


@dataclass(frozen=True)
class CalibrationMap:
    """Increasing score knots with nondecreasing fitted values; predict interpolates them.

    pav_fit keeps the first and last training score of each run of equal
    fitted values (a run of one keeps its one score), so the knots are the
    ends of the map's levels. A map that lists every training score, as
    bundles written before that pruning do, predicts the same values. Both
    arrays are read-only float64 copies, so the checks below hold for the
    map's life.
    """

    knots: np.ndarray
    fitted: np.ndarray

    def __post_init__(self) -> None:
        knots = _freeze(self.knots)
        fitted = _freeze(self.fitted)
        if knots.ndim != 1 or knots.size < 1 or knots.shape != fitted.shape:
            raise ValueError("knots and fitted must be equal-length nonempty vectors")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(fitted))):
            raise ValueError("knots and fitted values must be finite")
        # neighbours are compared, not differenced: a difference of two
        # finite values can overflow
        if np.any(knots[1:] <= knots[:-1]):
            raise ValueError("knots must be strictly increasing")
        if np.any(fitted[1:] < fitted[:-1]):
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


def pav_blocks(values: list[float], weights: list[float]) -> tuple[list[float], list[int]]:
    """Pool adjacent violators: the nondecreasing least-squares fit of a weighted sequence.

    values are in the order of the fit (pav_fit's sorted scores); returns the
    value and the length of each block, left to right. Adjacent violating
    blocks merge into their weighted mean through a stack; blocks of equal
    value stay apart. Pass Python floats: the merge arithmetic then keeps
    the bits of every earlier fit.
    """
    block_values: list[float] = []
    block_weights: list[float] = []
    lengths: list[int] = []
    for v, w in zip(values, weights):
        cur_v, cur_w, cur_len = v, w, 1
        while block_values and block_values[-1] > cur_v:
            pv, pw = block_values.pop(), block_weights.pop()
            cur_v = (pv * pw + cur_v * cur_w) / (pw + cur_w)
            cur_w += pw
            cur_len += lengths.pop()
        block_values.append(cur_v)
        block_weights.append(cur_w)
        lengths.append(cur_len)
    return block_values, lengths


def pav_fit(scores: np.ndarray, targets: np.ndarray) -> CalibrationMap:
    """Least-squares nondecreasing fit of targets against scores.

    Tied scores are pooled first (mean target, count weight), then pav_blocks
    fits the pooled means; O(n log n) including the sort. The map keeps the
    first and last distinct score of each run of equal fitted values. Between
    two knots of one value v, np.interp returns 0.0 * (s - knot) + v, which
    is v, so the inner scores would predict nothing the ends do not. The
    one exception is v = -0.0, for which that sum is +0.0; those knots all
    stay, and every prediction keeps the bits of a map over every score.

    Targets whose pooled sums or merged block means overflow float64 raise
    ValueError, with no numpy warning.
    """
    s, y = _check_fit_inputs(scores, targets)
    order = np.argsort(s, kind="stable")
    s_sorted, y_sorted = s[order], y[order]
    knots, starts = np.unique(s_sorted, return_index=True)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        sums = np.add.reduceat(y_sorted, starts)
    counts = np.diff(np.append(starts, s_sorted.size)).astype(np.float64)
    values, lengths = pav_blocks((sums / counts).tolist(), counts.tolist())

    fitted = np.repeat(values, lengths)
    if not np.all(np.isfinite(fitted)):
        raise ValueError(
            "targets too large to calibrate: a pooled sum or block mean of targets"
            f" up to {np.abs(y).max():.3g} in magnitude overflows float64"
        )
    bits = fitted.view(np.int64)
    inner = np.zeros(fitted.size, dtype=bool)
    inner[1:-1] = (bits[1:-1] == bits[:-2]) & (bits[1:-1] == bits[2:])
    keep = ~inner | ((fitted == 0.0) & np.signbit(fitted))
    return CalibrationMap(knots=knots[keep], fitted=fitted[keep])


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
