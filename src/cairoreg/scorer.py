"""Two-hidden-layer MLP scorer with exact backprop and Adam, all float64.

The network is score(x) = w3 . relu(W2 relu(W1 x + b1) + b2) + b3. Width
defaults to 32 x 16. Training minimizes any LossSpec objective batchwise;
pairwise losses only ever see pairs inside one batch.

All parameters live in one float64 vector, in the order W1 (h1 x d),
b1 (h1), W2 (h2 x h1), b2 (h2), w3 (h2), b3 (one entry), with matrices
row-major. Gradients and Adam's moments are vectors in the same layout,
so an Adam step is one elementwise update. A model bundle stores the
vector in this layout too, next to dims.

The activations, the gradient vector and Adam's moments live in one
Workspace, and forward, backward and adam_step write through out= into its
buffers and the parameter vector. train builds one per fit, sized for its
largest batch; forward and backward called without one build a fresh one
for their rows. A workspace allocates each buffer at its first use, so a
call allocates only the buffers it writes.

Backward takes every sum over the batch as a BLAS product: the weight
gradients as dZ.T @ A and the bias gradients as 1.T @ dZ, both summed over
data.BATCH_CHUNK_ROWS-row chunks in order (data._batch_sum), so a fit's bits
do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, _batch_sum, make_rng
from .losses import LossSpec, PointwiseMse, evaluate_loss, is_ranking_loss


def _layout(dims: tuple[int, int, int]) -> list[tuple[str, tuple[int, ...]]]:
    """Each layer's name and shape, in vector order; () marks the scalar b3."""
    d, h1, h2 = dims
    return [
        ("W1", (h1, d)), ("b1", (h1,)), ("W2", (h2, h1)), ("b2", (h2,)), ("w3", (h2,)), ("b3", ())
    ]


def _vector_size(dims: tuple[int, int, int]) -> int:
    return sum(math.prod(shape) for _, shape in _layout(dims))


@dataclass(frozen=True)
class MlpParams:
    """The parameter vector and dims = (d, h1, h2).

    W1, b1, W2, b2 and w3 are views into the vector; b3 reads vector[-1] as
    a float at each access, so it follows in-place updates too.
    """

    vector: np.ndarray
    dims: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.dims) != 3 or min(self.dims) < 1:
            raise ValueError(f"dims must be three integers >= 1, got {list(self.dims)}")
        size = _vector_size(self.dims)
        if self.vector.shape != (size,):
            raise ValueError(f"parameter vector has shape {self.vector.shape}, dims need ({size},)")
        pos = 0
        for name, shape in _layout(self.dims)[:-1]:  # all but b3
            view = self.vector[pos : pos + math.prod(shape)].reshape(shape)
            object.__setattr__(self, name, view)
            pos += view.size

    @property
    def b3(self) -> float:
        return float(self.vector[-1])


def init_params(d: int, seed: int, hidden: tuple[int, int] = (32, 16)) -> MlpParams:
    """Glorot-uniform weights drawn in layer order W1, W2, w3; zero biases."""
    if d < 1:
        raise ValueError("input dimension must be >= 1")
    h1, h2 = hidden
    rng = make_rng(seed)

    def glorot(fan_out: int, fan_in: int) -> np.ndarray:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_out, fan_in))

    layers = [glorot(h1, d), np.zeros(h1), glorot(h2, h1), np.zeros(h2), glorot(1, h2), 0.0]
    return MlpParams(np.concatenate(layers, axis=None), (d, h1, h2))


@dataclass(frozen=True)
class ForwardCache:
    X: np.ndarray
    Z1: np.ndarray
    H1: np.ndarray
    Z2: np.ndarray
    H2: np.ndarray
    params: MlpParams


@dataclass(frozen=True)
class Workspace:
    """The buffers train, forward, backward and adam_step write into.

    Row buffers have one row per row of the largest batch they serve; a
    batch of n rows uses their [:n] views. X and y hold the batch train
    gathers and finite its finiteness checks; relu1 and relu2 mark Z1 > 0
    and Z2 > 0. finite, relu1 and relu2 are bool; ones is all ones, for
    backward's bias sums. grads is the gradient vector with its layer views,
    m and v are Adam's moments, zero until the first step, and adam_scratch
    two more vectors of the parameters' length.
    Each buffer is allocated at its first use, so a workspace that only
    forward writes, as score_rows' does, holds only forward's buffers.
    """

    rows: int
    dims: tuple[int, int, int]

    def __getattr__(self, name: str):
        """Allocates a buffer at its first use; the instance then holds it."""
        if name.startswith("_"):  # copy and pickle look up dunders before dims is set
            raise AttributeError(name)
        d, h1, h2 = self.dims
        n, size = self.rows, _vector_size(self.dims)
        floats = {"X": (n, d), "y": (n,), "scores": (n,), "Z1": (n, h1), "H1": (n, h1)}
        floats |= {"dZ1": (n, h1), "Z2": (n, h2), "H2": (n, h2), "dZ2": (n, h2)}
        masks = {"finite": (n,), "relu1": (n, h1), "relu2": (n, h2)}
        if name in floats:
            buffer = np.empty(floats[name])
        elif name in masks:
            buffer = np.empty(masks[name], dtype=bool)
        elif name in ("m", "v"):
            buffer = np.zeros(size)
        elif name == "ones":
            buffer = np.ones(n)
        elif name == "grads":
            buffer = MlpParams(np.empty(size), self.dims)
        elif name == "adam_scratch":
            buffer = (np.empty(size), np.empty(size))
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, buffer)
        return buffer


def forward(
    params: MlpParams, X: np.ndarray, work: Workspace | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """Scores of the rows of X and the activations backward needs.

    The scores and activations are views of work's buffers, valid until the
    next call that writes them; without work they are a fresh Workspace's.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != params.dims[0]:
        raise ValueError(f"expected {params.dims[0]} feature columns, got {X.shape[1]}")
    n = X.shape[0]
    work = Workspace(n, params.dims) if work is None else work
    Z1, H1, Z2, H2 = work.Z1[:n], work.H1[:n], work.Z2[:n], work.H2[:n]
    scores = work.scores[:n]
    np.matmul(X, params.W1.T, out=Z1)
    np.add(Z1, params.b1, out=Z1)
    np.maximum(Z1, 0.0, out=H1)
    np.matmul(H1, params.W2.T, out=Z2)
    np.add(Z2, params.b2, out=Z2)
    np.maximum(Z2, 0.0, out=H2)
    np.matmul(H2, params.w3, out=scores)
    np.add(scores, params.b3, out=scores)
    return scores, ForwardCache(X=X, Z1=Z1, H1=H1, Z2=Z2, H2=H2, params=params)


def backward(
    cache: ForwardCache, grad_scores: np.ndarray, work: Workspace | None = None
) -> MlpParams:
    """Exact gradient of sum_i grad_scores_i * score_i w.r.t. every parameter.

    The ReLU subgradient at 0 is taken as 0. Returns work.grads, the
    gradient vector packed in an MlpParams container, which the call
    overwrites; without work, a fresh Workspace's.
    """
    g = np.asarray(grad_scores, dtype=np.float64)
    n = cache.X.shape[0]
    if g.shape != (n,):
        raise ValueError("stale cache: gradient length does not match forward batch")
    p = cache.params
    work = Workspace(n, p.dims) if work is None else work
    dZ1, dZ2, relu1, relu2 = work.dZ1[:n], work.dZ2[:n], work.relu1[:n], work.relu2[:n]
    grads = work.grads
    np.multiply(g[:, None], p.w3, out=dZ2)  # dH2, the outer product of g and w3
    np.multiply(dZ2, np.greater(cache.Z2, 0.0, out=relu2), out=dZ2)
    np.matmul(dZ2, p.W2, out=dZ1)  # dH1
    np.multiply(dZ1, np.greater(cache.Z1, 0.0, out=relu1), out=dZ1)
    ones = work.ones[:n]
    _batch_sum(dZ1, cache.X, out=grads.W1)
    _batch_sum(ones, dZ1, out=grads.b1)
    _batch_sum(dZ2, cache.H1, out=grads.W2)
    _batch_sum(ones, dZ2, out=grads.b2)
    np.matmul(cache.H2.T, g, out=grads.w3)
    grads.vector[-1] = g.sum()
    return grads


# Adam's moment decay rates and denominator guard; the learning rate is
# a TrainConfig field.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def adam_step(
    params: MlpParams, grads: MlpParams, t: int, learning_rate: float, work: Workspace
) -> None:
    """Step t >= 1 of bias-corrected Adam on the whole parameter vector.

    Updates params.vector and Adam's moments work.m and work.v in place.
    """
    tmp, den = work.adam_scratch
    vec, g, m, v = params.vector, grads.vector, work.m, work.v
    m *= ADAM_BETA1  # m = beta1 * m + (1 - beta1) * g
    m += np.multiply(1.0 - ADAM_BETA1, g, out=tmp)
    v *= ADAM_BETA2  # v = beta2 * v + (1 - beta2) * g**2
    v += np.multiply(1.0 - ADAM_BETA2, np.square(g, out=tmp), out=tmp)
    np.divide(m, 1.0 - ADAM_BETA1**t, out=tmp)  # m_hat
    tmp *= learning_rate
    np.divide(v, 1.0 - ADAM_BETA2**t, out=den)  # v_hat
    np.sqrt(den, out=den)
    den += ADAM_EPSILON
    tmp /= den  # lr * m_hat / (sqrt(v_hat) + eps)
    vec -= tmp


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 256
    seed: int = 0
    loss: LossSpec = field(default_factory=PointwiseMse)
    learning_rate: float = 1e-3

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if is_ranking_loss(self.loss) and self.batch_size < 2:
            raise ValueError("pairwise losses need batch_size >= 2")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")


def train(ds: Dataset, cfg: TrainConfig) -> tuple[MlpParams, list[float]]:
    """Minibatch training loop; returns params and each epoch's last trained batch's loss.

    Each step gathers its batch into one Workspace sized for the fit's
    largest batch, writes every result there and updates the parameters and
    Adam's moments in place. Shuffling is reseeded per epoch from
    (cfg.seed, epoch) so runs are bitwise reproducible. Trailing batches
    with a single row are dropped for pairwise losses, which are undefined
    there. The loss value is asked for only on each epoch's last trained
    batch, the one history keeps, so on the others a pairwise surrogate in
    exponential space skips it, and soft-Gini skips its soft ranks; every
    value a loss returns is checked.
    Raises ValueError, naming the epoch and batch, at the first non-finite
    score, loss value or score gradient.
    """
    if is_ranking_loss(cfg.loss) and ds.n < 2:
        raise ValueError("pairwise losses need at least 2 rows")

    params = init_params(ds.d, cfg.seed)
    work = Workspace(min(cfg.batch_size, ds.n), params.dims)
    history: list[float] = []
    t = 0  # Adam steps taken
    starts = range(0, ds.n, cfg.batch_size)
    last = len(starts) - 1  # the last batch trained in an epoch
    if is_ranking_loss(cfg.loss) and ds.n - starts[-1] < 2:
        last -= 1

    for epoch in range(cfg.epochs):
        rng = make_rng(np.random.SeedSequence([cfg.seed, epoch]))
        order = rng.permutation(ds.n)
        for batch, start in enumerate(starts):
            idx = order[start : start + cfg.batch_size]
            if idx.size < 2 and is_ranking_loss(cfg.loss):
                continue
            n = idx.size
            # idx is in range, and mode="raise" would gather into a temporary first
            X = np.take(ds.features, idx, axis=0, out=work.X[:n], mode="clip")
            y = np.take(ds.targets, idx, out=work.y[:n], mode="clip")
            finite = work.finite[:n]
            scores, cache = forward(params, X, work)
            if not np.isfinite(scores, out=finite).all():
                raise ValueError(
                    f"training diverged at epoch {epoch}, batch {batch}: non-finite score"
                )
            value, grad_scores = evaluate_loss(cfg.loss, y, scores, value=batch == last)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"training diverged at epoch {epoch}, batch {batch}: loss {value}")
            if not np.isfinite(grad_scores, out=finite).all():
                raise ValueError(
                    f"training diverged at epoch {epoch}, batch {batch}: non-finite score gradient"
                )
            grads = backward(cache, grad_scores, work)
            t += 1
            adam_step(params, grads, t, cfg.learning_rate, work)
            if batch == last:
                history.append(value)
    return params, history
