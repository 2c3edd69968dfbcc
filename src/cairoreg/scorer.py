"""Two-hidden-layer MLP scorer with exact backprop and Adam, all float64.

The network is score(x) = w3 . relu(W2 relu(W1 x + b1) + b2) + b3. Width
defaults to 32 x 16. Training minimizes any LossSpec objective batchwise;
pairwise losses only ever see pairs inside one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .losses import (
    LossSpec,
    PairwiseSurrogate,
    PointwiseMse,
    WeightVariant,
    evaluate_loss,
    is_ranking_loss,
    mid_cdf,
)

_FIELDS = ("W1", "b1", "W2", "b2", "w3", "b3")

MODEL_VERSION = "cairo-mlp-v1"


@dataclass(frozen=True)
class MlpParams:
    W1: np.ndarray  # (h1, d)
    b1: np.ndarray  # (h1,)
    W2: np.ndarray  # (h2, h1)
    b2: np.ndarray  # (h2,)
    w3: np.ndarray  # (h2,)
    b3: float

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.W1.shape[1], self.W1.shape[0], self.W2.shape[0]


def _arrays(p: MlpParams) -> list[np.ndarray]:
    return [np.asarray(getattr(p, name), dtype=np.float64) for name in _FIELDS]


def _params_from_arrays(arrs: list[np.ndarray]) -> MlpParams:
    return MlpParams(
        W1=arrs[0], b1=arrs[1], W2=arrs[2], b2=arrs[3], w3=arrs[4], b3=float(arrs[5])
    )


def flatten_params(p: MlpParams) -> np.ndarray:
    return np.concatenate([a.ravel() for a in _arrays(p)])


def unflatten_params(vec: np.ndarray, like: MlpParams) -> MlpParams:
    arrs, pos = [], 0
    for a in _arrays(like):
        arrs.append(np.asarray(vec[pos : pos + a.size]).reshape(a.shape))
        pos += a.size
    return _params_from_arrays(arrs)


def init_params(d: int, seed: int, hidden: tuple[int, int] = (32, 16)) -> MlpParams:
    """Glorot-uniform weights drawn in layer order W1, W2, w3; zero biases."""
    if d < 1:
        raise ValueError("input dimension must be >= 1")
    h1, h2 = hidden
    rng = np.random.Generator(np.random.Philox(seed))

    def glorot(fan_out: int, fan_in: int) -> np.ndarray:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_out, fan_in))

    return MlpParams(
        W1=glorot(h1, d),
        b1=np.zeros(h1),
        W2=glorot(h2, h1),
        b2=np.zeros(h2),
        w3=glorot(1, h2)[0],
        b3=0.0,
    )


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


def backward(cache: ForwardCache, grad_scores: np.ndarray) -> MlpParams:
    """Exact gradient of sum_i grad_scores_i * score_i w.r.t. every parameter.

    The ReLU subgradient at 0 is taken as 0. Returns gradients packed in an
    MlpParams container.
    """
    g = np.asarray(grad_scores, dtype=np.float64)
    if g.shape != (cache.X.shape[0],):
        raise ValueError("stale cache: gradient length does not match forward batch")
    p = cache.params
    dH2 = np.outer(g, p.w3)
    dZ2 = dH2 * (cache.Z2 > 0.0)
    dH1 = dZ2 @ p.W2
    dZ1 = dH1 * (cache.Z1 > 0.0)
    return MlpParams(
        W1=dZ1.T @ cache.X,
        b1=dZ1.sum(axis=0),
        W2=dZ2.T @ cache.H1,
        b2=dZ2.sum(axis=0),
        w3=cache.H2.T @ g,
        b3=float(g.sum()),
    )


@dataclass(frozen=True)
class AdamHyper:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


@dataclass(frozen=True)
class AdamState:
    m: MlpParams
    v: MlpParams
    step: int
    hyper: AdamHyper


def init_adam(params: MlpParams, hyper: AdamHyper | None = None) -> AdamState:
    zeros = _params_from_arrays([np.zeros_like(a) for a in _arrays(params)])
    return AdamState(m=zeros, v=zeros, step=0, hyper=hyper or AdamHyper())


def adam_step(
    params: MlpParams, grads: MlpParams, state: AdamState
) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update; purely functional."""
    h = state.hyper
    t = state.step + 1
    new_p, new_m, new_v = [], [], []
    for p, g, m, v in zip(_arrays(params), _arrays(grads), _arrays(state.m), _arrays(state.v)):
        m = h.beta1 * m + (1.0 - h.beta1) * g
        v = h.beta2 * v + (1.0 - h.beta2) * g**2
        m_hat = m / (1.0 - h.beta1**t)
        v_hat = v / (1.0 - h.beta2**t)
        new_p.append(p - h.learning_rate * m_hat / (np.sqrt(v_hat) + h.epsilon))
        new_m.append(m)
        new_v.append(v)
    return (
        _params_from_arrays(new_p),
        AdamState(
            m=_params_from_arrays(new_m),
            v=_params_from_arrays(new_v),
            step=t,
            hyper=h,
        ),
    )


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 256
    seed: int = 0
    loss: LossSpec = field(default_factory=PointwiseMse)
    adam: AdamHyper = field(default_factory=AdamHyper)
    # Rank-gap weights default to the in-batch target mid-distribution;
    # set True to evaluate the full training set's mid-distribution instead.
    rank_weights_full_set: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if is_ranking_loss(self.loss) and self.batch_size < 2:
            raise ValueError("pairwise losses need batch_size >= 2")


def train(ds: Dataset, cfg: TrainConfig) -> tuple[MlpParams, list[float]]:
    """Minibatch training loop; returns params and mean in-batch loss per epoch.

    Shuffling is reseeded per epoch from (cfg.seed, epoch) so runs are
    bitwise reproducible. Trailing batches with a single row are dropped
    for pairwise losses, which are undefined there. Raises ValueError,
    naming the epoch and batch, at the first non-finite loss value or
    score gradient.
    """
    if ds.n < 1:
        raise ValueError("empty dataset")
    if is_ranking_loss(cfg.loss) and ds.n < 2:
        raise ValueError("pairwise losses need at least 2 rows")

    params = init_params(ds.d, cfg.seed)
    state = init_adam(params, cfg.adam)
    history: list[float] = []

    full_cdf = None
    if (
        cfg.rank_weights_full_set
        and isinstance(cfg.loss, PairwiseSurrogate)
        and cfg.loss.variant is WeightVariant.RANK_GAP
    ):
        full_cdf = mid_cdf(ds.targets)

    for epoch in range(cfg.epochs):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence([cfg.seed, epoch]))
        )
        order = rng.permutation(ds.n)
        batch_losses = []
        for batch, start in enumerate(range(0, ds.n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            if idx.size < 2 and is_ranking_loss(cfg.loss):
                continue
            X, y = ds.features[idx], ds.targets[idx]
            scores, cache = forward(params, X)
            target_cdf = None if full_cdf is None else full_cdf(y)
            value, grad_scores = evaluate_loss(cfg.loss, y, scores, target_cdf)
            if not math.isfinite(value):
                raise ValueError(f"training diverged at epoch {epoch}, batch {batch}: loss {value}")
            if not np.isfinite(grad_scores).all():
                raise ValueError(
                    f"training diverged at epoch {epoch}, batch {batch}: non-finite score gradient"
                )
            grads = backward(cache, grad_scores)
            params, state = adam_step(params, grads, state)
            batch_losses.append(value)
        history.append(float(np.mean(batch_losses)) if batch_losses else float("nan"))
    return params, history


def mlp_to_dict(params: MlpParams) -> dict:
    """Flat JSON-ready dict; matrices stored row-major, shapes implied by dims."""
    d, h1, h2 = params.dims
    return {
        "version": MODEL_VERSION,
        "dims": [d, h1, h2],
        "W1": params.W1.ravel().tolist(),
        "b1": params.b1.tolist(),
        "W2": params.W2.ravel().tolist(),
        "b2": params.b2.tolist(),
        "w3": params.w3.tolist(),
        "b3": params.b3,
    }


def mlp_from_dict(obj: dict) -> MlpParams:
    if obj.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported scorer version: {obj.get('version')!r}")
    d, h1, h2 = obj["dims"]
    return MlpParams(
        W1=np.asarray(obj["W1"], dtype=np.float64).reshape(h1, d),
        b1=np.asarray(obj["b1"], dtype=np.float64),
        W2=np.asarray(obj["W2"], dtype=np.float64).reshape(h2, h1),
        b2=np.asarray(obj["b2"], dtype=np.float64),
        w3=np.asarray(obj["w3"], dtype=np.float64),
        b3=float(obj["b3"]),
    )
