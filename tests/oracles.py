"""Reference implementations the package is checked against.

The dense loss and soft-rank kernels build their n x n weight, difference
and sigmoid matrices in full, so they are slow and memory-hungry, but
each line maps onto the formula in its docstring. The hard pairwise
losses, the exact-rank Gini loss and the Kendall identity check state
the identities the surrogates are built on; pav_oracle and
kendall_reference solve by exhaustive enumeration what pav_fit and
kendall compute in O(n log n). None of them runs in a fit.
read_numeric_csv_oracle is the list-of-rows CSV reader that the streaming
read_numeric_csv replaced, and write_numeric_csv_oracle the writer that
formats every row at once, which the block-wise write_numeric_csv replaced.
undecodable_oracle names a file's first bad UTF-8 byte from all its lines at
once, where the reader scans it in blocks. rank_oracle counts each score's
mid-rank by two binary searches, as rank did before it took its mid-ranks
from one sort. pav_fit_unpruned is pav_fit as it
was before the map kept only the ends of its levels: one knot per distinct
training score, from its own copy of the PAV stack loop.
train_oracle is the training loop as it was before forward, backward and
adam_step wrote into one preallocated workspace per fit: each batch
allocates its activations, concatenates its layer gradients into a new
vector and builds new parameter and Adam vectors.
"""

from __future__ import annotations

import csv
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np

from cairoreg.data import BATCH_CHUNK_ROWS, DataError, Dataset, make_rng
from cairoreg.isotonic import CalibrationMap, _check_fit_inputs
from cairoreg.losses import (
    LossValueGrad,
    WeightVariant,
    _check_pair,
    evaluate_loss,
    is_ranking_loss,
)
from cairoreg.metrics import MetricError, _check
from cairoreg.ranks import SoftRankConfig, _check_scores, mid_distribution, rank
from cairoreg.scorer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    MlpParams,
    TrainConfig,
    init_params,
)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


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


def _weight_matrix(variant: WeightVariant, y: np.ndarray) -> np.ndarray:
    """Symmetric nonnegative pair weights; rank-gap weights use the mid-distribution of y."""
    if variant is WeightVariant.UNIFORM:
        return np.ones((y.size, y.size))
    if variant is WeightVariant.ABSOLUTE_GAP:
        return np.abs(y[:, None] - y[None, :])
    f = mid_distribution(y)
    return np.abs(f[:, None] - f[None, :])


def hard_pairwise_loss(y: np.ndarray, s: np.ndarray, variant: WeightVariant) -> float:
    """Weighted fraction of non-concordant pairs over i<j, divided by n(n-1).

    The indicator is (y_i - y_j)(s_i - s_j) <= 0, so pairs tied in either
    coordinate count as errors under the uniform weight; gap weights assign
    tied-target pairs zero weight automatically.
    """
    y, s = _check_pair(y, s)
    n = y.size
    w = _weight_matrix(variant, y)
    bad = (y[:, None] - y[None, :]) * (s[:, None] - s[None, :]) <= 0.0
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    return float(np.sum(w[upper & bad]) / (n * (n - 1)))


def hard_pairwise_loss_ordered(y: np.ndarray, s: np.ndarray, variant: WeightVariant) -> float:
    """Misordered-pair form: sum over i != j of w_ij 1{y_i>y_j} 1{s_i<s_j}.

    Equal to hard_pairwise_loss on tie-free input; ties are rejected.
    """
    y, s = _check_pair(y, s)
    _require_tie_free("targets", y)
    _require_tie_free("scores", s)
    n = y.size
    w = _weight_matrix(variant, y)
    mis = (y[:, None] > y[None, :]) & (s[:, None] < s[None, :])
    return float(np.sum(w[mis]) / (n * (n - 1)))


def rank_oracle(scores: np.ndarray) -> np.ndarray:
    """Mid-ranks #{s_j < s_i} + (#{s_j = s_i} + 1)/2, both counts binary searches."""
    s = _check_scores(scores)
    sorted_s = np.sort(s)
    below = np.searchsorted(sorted_s, s, side="left")
    through = np.searchsorted(sorted_s, s, side="right")
    return 0.5 * (below + through + 1)


def gini_rank_loss(y: np.ndarray, s: np.ndarray) -> float:
    """Exact-rank counterpart of soft_gini_loss: -(2/n^2) sum (y_i - mean y) rank_i."""
    y, s = _check_pair(y, s)
    n = y.size
    return float(-(2.0 / n**2) * np.dot(y - y.mean(), rank(s)))


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


def surrogate_pairwise_loss_oracle(
    y: np.ndarray, s: np.ndarray, variant: WeightVariant, sigma: float
) -> LossValueGrad:
    """value = (1/(n(n-1))) sum_{i != j} w_ij 1{y_i > y_j} softplus(-sigma (s_i - s_j))."""
    y, s = _check_pair(y, s)
    n = y.size
    coeff = _weight_matrix(variant, y) * (y[:, None] > y[None, :])
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


def pav_oracle(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Exhaustive isotonic fit for n <= 10 with distinct scores.

    Enumerates every contiguous partition in score order, keeps those whose
    block means are nondecreasing, and returns the SSE-minimizing fit per
    input point. Test oracle; not for production sizes.
    """
    s, y = _check_fit_inputs(scores, targets)
    n = s.size
    if n > 10:
        raise ValueError("oracle limited to n <= 10")
    order = np.argsort(s, kind="stable")
    if np.any(np.diff(s[order]) == 0):
        raise ValueError("oracle requires distinct scores")
    ys = y[order]
    prefix = np.concatenate([[0.0], np.cumsum(ys)])

    best_sse = np.inf
    best_fit: np.ndarray | None = None
    for mask in range(1 << (n - 1)):
        bounds = [0] + [k + 1 for k in range(n - 1) if mask >> k & 1] + [n]
        means = [
            (prefix[b] - prefix[a]) / (b - a) for a, b in zip(bounds, bounds[1:])
        ]
        if any(m2 < m1 for m1, m2 in zip(means, means[1:])):
            continue
        fit = np.repeat(means, np.diff(bounds))
        sse = float(np.sum((ys - fit) ** 2))
        if sse < best_sse:
            best_sse, best_fit = sse, fit
    assert best_fit is not None  # the single-block partition is always feasible
    out = np.empty(n)
    out[order] = best_fit
    return out


def pav_fit_unpruned(scores: np.ndarray, targets: np.ndarray) -> CalibrationMap:
    """pav_fit with a knot at every distinct training score."""
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

    return CalibrationMap(knots=knots, fitted=np.repeat(values, lengths))


def kendall_reference(a: np.ndarray, b: np.ndarray) -> float:
    """O(n^2) tau-b over explicit pairs; cross-check for kendall()."""
    a, b = _check(a, b)
    n = a.size
    if n < 2:
        raise MetricError("need at least 2 points")
    da = np.sign(a[:, None] - a[None, :])
    db = np.sign(b[:, None] - b[None, :])
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    prod = (da * db)[upper]
    con = float(np.sum(prod > 0))
    dis = float(np.sum(prod < 0))
    total = n * (n - 1) / 2
    ties_a = float(np.sum(da[upper] == 0))
    ties_b = float(np.sum(db[upper] == 0))
    denom = np.sqrt((total - ties_a) * (total - ties_b))
    if denom == 0.0:
        raise MetricError("undefined correlation: constant input")
    return float((con - dis) / denom)


def undecodable_oracle(path: str | Path) -> str:
    """The line and column of the first byte of path that is not UTF-8, and why, from the
    whole file split into lines at once.
    """
    for number, line in enumerate(Path(path).read_bytes().splitlines(), 1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            column, byte = exc.start + 1, line[exc.start]
            return f"line {number}, column {column}: byte 0x{byte:02x} is not UTF-8 ({exc.reason})"
    return "a byte that is not UTF-8"


def read_numeric_csv_oracle(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Parse a fully numeric CSV with a header row into (column names, float64 matrix).

    Non-numeric cells and missing values are hard errors reported with row
    index, column name and path; so is a column name that appears twice. A
    file that is not UTF-8 fails naming the line and column of its first bad
    byte. A UTF-8 byte-order mark at the start of the file is dropped.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing file: {path}")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError:
        raise DataError(f"cannot read {path}, stopped at {undecodable_oracle(path)}") from None
    rows = [r for r in rows if r]
    if not rows:
        raise DataError(f"empty CSV: {path}")
    header, body = rows[0], rows[1:]
    duplicated = [name for name, count in Counter(header).items() if count > 1]
    if duplicated:
        raise DataError(f"duplicate column names {duplicated} in {path}")

    parsed = np.empty((len(body), len(header)), dtype=np.float64)
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise DataError(f"row {i} has {len(row)} cells, expected {len(header)} in {path}")
        for j, cell in enumerate(row):
            try:
                parsed[i, j] = float(cell)
            except ValueError:
                raise DataError(
                    f"non-numeric cell {cell!r} at row {i}, column {header[j]!r} in {path}"
                ) from None
    finite = np.isfinite(parsed).all(axis=1)
    if not finite.all():
        raise DataError(f"non-finite value at row {int(np.argmin(finite))} in {path}")
    return header, parsed


def write_numeric_csv_oracle(path: str | Path, header: list[str], columns: list) -> None:
    """Write float columns under a header row, 17 significant digits per cell."""
    rows = zip(*(np.asarray(c, dtype=np.float64).tolist() for c in columns))
    line = ",".join(["%.17g"] * len(columns)) + "\r\n"
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(line % row for row in rows)


def _forward_oracle(params: MlpParams, X: np.ndarray) -> tuple[np.ndarray, tuple]:
    Z1 = X @ params.W1.T + params.b1
    H1 = np.maximum(Z1, 0.0)
    Z2 = H1 @ params.W2.T + params.b2
    H2 = np.maximum(Z2, 0.0)
    return H2 @ params.w3 + params.b3, (X, Z1, H1, Z2, H2)


def _batch_sum_oracle(dZ: np.ndarray, A: np.ndarray) -> np.ndarray:
    out = dZ[:BATCH_CHUNK_ROWS].T @ A[:BATCH_CHUNK_ROWS]
    for r0 in range(BATCH_CHUNK_ROWS, dZ.shape[0], BATCH_CHUNK_ROWS):
        out += dZ[r0 : r0 + BATCH_CHUNK_ROWS].T @ A[r0 : r0 + BATCH_CHUNK_ROWS]
    return out


def _backward_oracle(params: MlpParams, cache: tuple, g: np.ndarray) -> np.ndarray:
    """Gradient vector of sum_i g_i * score_i, each layer in a new array, concatenated."""
    X, Z1, H1, Z2, H2 = cache
    dH2 = np.outer(g, params.w3)
    dZ2 = dH2 * (Z2 > 0.0)
    dH1 = dZ2 @ params.W2
    dZ1 = dH1 * (Z1 > 0.0)
    ones = np.ones(g.size)
    layers = [
        _batch_sum_oracle(dZ1, X),
        _batch_sum_oracle(ones, dZ1),
        _batch_sum_oracle(dZ2, H1),
        _batch_sum_oracle(ones, dZ2),
        H2.T @ g,
        g.sum(),
    ]
    return np.concatenate(layers, axis=None)


def _adam_step_oracle(
    vec: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, lr: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step t of bias-corrected Adam; returns new (vec, m, v) and modifies none of its inputs."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g**2
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return vec - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON), m, v


def train_oracle(ds: Dataset, cfg: TrainConfig) -> tuple[MlpParams, list[float]]:
    """scorer.train's batches, shuffles, losses and updates, allocating anew at every step."""
    params = init_params(ds.d, cfg.seed)
    m = np.zeros_like(params.vector)
    v = np.zeros_like(params.vector)
    history: list[float] = []
    t = 0
    for epoch in range(cfg.epochs):
        order = make_rng(np.random.SeedSequence([cfg.seed, epoch])).permutation(ds.n)
        batch_losses = []
        for start in range(0, ds.n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if idx.size < 2 and is_ranking_loss(cfg.loss):
                continue
            scores, cache = _forward_oracle(params, ds.features[idx])
            value, grad_scores = evaluate_loss(cfg.loss, ds.targets[idx], scores)
            grads = _backward_oracle(params, cache, grad_scores)
            t += 1
            vec, m, v = _adam_step_oracle(params.vector, grads, m, v, t, cfg.learning_rate)
            params = MlpParams(vec, params.dims)
            batch_losses.append(value)
        history.append(float(np.mean(batch_losses)))
    return params, history
