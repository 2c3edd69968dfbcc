"""Two-hidden-layer MLP scorer with exact backprop and Adam, all float64.

The network is score(x) = w3 . relu(W2 relu(W1 x + b1) + b2) + b3. Width
defaults to 32 x 16. Training minimizes any LossSpec objective batchwise;
pairwise losses only ever see pairs inside one batch.

All parameters live in one float64 vector, in the order W1 (h1 x d),
b1 (h1), W2 (h2 x h1), b2 (h2), w3 (h2), b3 (one entry), with matrices
row-major. Gradients and Adam's moments are vectors in the same layout,
so an Adam step is one elementwise update. A model bundle stores the
vector in this layout too, next to dims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, make_rng
from .losses import LossSpec, PointwiseMse, evaluate_loss, is_ranking_loss


def _layout(dims: tuple[int, int, int]) -> list[tuple[str, tuple[int, ...]]]:
    """Each layer's name and shape, in vector order; () marks the scalar b3."""
    d, h1, h2 = dims
    return [
        ("W1", (h1, d)), ("b1", (h1,)), ("W2", (h2, h1)), ("b2", (h2,)), ("w3", (h2,)), ("b3", ())
    ]


@dataclass(frozen=True)
class MlpParams:
    """The parameter vector and dims = (d, h1, h2).

    W1, b1, W2, b2 and w3 are views into the vector; b3 reads as a float.
    """

    vector: np.ndarray
    dims: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.dims) != 3 or min(self.dims) < 1:
            raise ValueError(f"dims must be three integers >= 1, got {list(self.dims)}")
        layout = _layout(self.dims)
        size = sum(math.prod(shape) for _, shape in layout)
        if self.vector.shape != (size,):
            raise ValueError(f"parameter vector has shape {self.vector.shape}, dims need ({size},)")
        pos = 0
        for name, shape in layout:
            view = self.vector[pos : pos + math.prod(shape)].reshape(shape)
            object.__setattr__(self, name, view if shape else float(view))
            pos += view.size


def flatten_params(p: MlpParams) -> np.ndarray:
    return p.vector.copy()


def unflatten_params(vec: np.ndarray, like: MlpParams) -> MlpParams:
    return MlpParams(vec, like.dims)


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


def forward(params: MlpParams, X: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    d = params.dims[0]
    if X.shape[1] != d:
        raise ValueError(f"expected {d} feature columns, got {X.shape[1]}")
    Z1 = X @ params.W1.T + params.b1
    H1 = np.maximum(Z1, 0.0)
    Z2 = H1 @ params.W2.T + params.b2
    H2 = np.maximum(Z2, 0.0)
    scores = H2 @ params.w3 + params.b3
    return scores, ForwardCache(X=X, Z1=Z1, H1=H1, Z2=Z2, H2=H2, params=params)


# Rows per chunk of backward's weight-gradient products. OpenBLAS splits a
# product's sum over the batch across its threads once the batch is long
# enough, which changes the bits with the thread count; chunks of this many
# rows, summed in order, keep a fit's bits the same for any thread count.
# A batch of at most this many rows is one product, as before chunking.
BATCH_CHUNK_ROWS = 1024


def _batch_sum(dZ: np.ndarray, A: np.ndarray) -> np.ndarray:
    """dZ.T @ A, summed over BATCH_CHUNK_ROWS-row chunks in order."""
    out = dZ[:BATCH_CHUNK_ROWS].T @ A[:BATCH_CHUNK_ROWS]
    for r0 in range(BATCH_CHUNK_ROWS, dZ.shape[0], BATCH_CHUNK_ROWS):
        out += dZ[r0 : r0 + BATCH_CHUNK_ROWS].T @ A[r0 : r0 + BATCH_CHUNK_ROWS]
    return out


def backward(cache: ForwardCache, grad_scores: np.ndarray) -> MlpParams:
    """Exact gradient of sum_i grad_scores_i * score_i w.r.t. every parameter.

    The ReLU subgradient at 0 is taken as 0. Returns the gradient vector
    packed in an MlpParams container.
    """
    g = np.asarray(grad_scores, dtype=np.float64)
    if g.shape != (cache.X.shape[0],):
        raise ValueError("stale cache: gradient length does not match forward batch")
    p = cache.params
    dH2 = np.outer(g, p.w3)
    dZ2 = dH2 * (cache.Z2 > 0.0)
    dH1 = dZ2 @ p.W2
    dZ1 = dH1 * (cache.Z1 > 0.0)
    layers = [  # in vector order
        _batch_sum(dZ1, cache.X),
        dZ1.sum(axis=0),
        _batch_sum(dZ2, cache.H1),
        dZ2.sum(axis=0),
        cache.H2.T @ g,
        g.sum(),
    ]
    return MlpParams(np.concatenate(layers, axis=None), p.dims)


# Adam's moment decay rates and denominator guard; the learning rate is
# a TrainConfig field.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int
    learning_rate: float


def init_adam(params: MlpParams, learning_rate: float) -> AdamState:
    zeros = np.zeros_like(params.vector)
    return AdamState(m=zeros, v=zeros, step=0, learning_rate=learning_rate)


def adam_step(
    params: MlpParams, grads: MlpParams, state: AdamState
) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update of the whole parameter vector; purely functional."""
    t = state.step + 1
    g = grads.vector
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g**2
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    step = state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return (
        MlpParams(params.vector - step, params.dims),
        AdamState(m=m, v=v, step=t, learning_rate=state.learning_rate),
    )


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
    """Minibatch training loop; returns params and mean in-batch loss per epoch.

    Shuffling is reseeded per epoch from (cfg.seed, epoch) so runs are
    bitwise reproducible. Trailing batches with a single row are dropped
    for pairwise losses, which are undefined there. Raises ValueError,
    naming the epoch and batch, at the first non-finite score, loss value
    or score gradient.
    """
    if is_ranking_loss(cfg.loss) and ds.n < 2:
        raise ValueError("pairwise losses need at least 2 rows")

    params = init_params(ds.d, cfg.seed)
    state = init_adam(params, cfg.learning_rate)
    history: list[float] = []

    for epoch in range(cfg.epochs):
        rng = make_rng(np.random.SeedSequence([cfg.seed, epoch]))
        order = rng.permutation(ds.n)
        batch_losses = []
        for batch, start in enumerate(range(0, ds.n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            if idx.size < 2 and is_ranking_loss(cfg.loss):
                continue
            X, y = ds.features[idx], ds.targets[idx]
            scores, cache = forward(params, X)
            if not np.isfinite(scores).all():
                raise ValueError(
                    f"training diverged at epoch {epoch}, batch {batch}: non-finite score"
                )
            value, grad_scores = evaluate_loss(cfg.loss, y, scores)
            if not math.isfinite(value):
                raise ValueError(f"training diverged at epoch {epoch}, batch {batch}: loss {value}")
            if not np.isfinite(grad_scores).all():
                raise ValueError(
                    f"training diverged at epoch {epoch}, batch {batch}: non-finite score gradient"
                )
            grads = backward(cache, grad_scores)
            params, state = adam_step(params, grads, state)
            batch_losses.append(value)
        history.append(float(np.mean(batch_losses)))
    return params, history
