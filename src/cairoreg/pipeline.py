"""Two-stage fit/predict plus the same-architecture MSE baseline.

Every variant's stage 1 trains its scorer on standardized features and
standardized targets, so no objective sees the targets' scale. cairo_fit
then fits the monotone calibration map of the raw targets on the training
scores, which restores their scale. The MSE baseline folds the targets'
mean and std into the scorer's output layer, so its scorer predicts on the
target scale and it has no calibration map.

A model bundle is one JSON object whose one version is BUNDLE_VERSION. Its
scorer, standardizer, calibration map and loss spec are written and read by
the dataclass codec in data, and model_from_dict alone reports a bad entry,
naming its dotted JSON path; load_model adds the file's path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Dataset, Standardizer, apply_standardizer, fit_standardizer
from .data import _coerce, column_moments, config_from_dict, config_to_dict
from .isotonic import CalibrationMap, pav_fit
from .isotonic import predict as calibration_predict
from .losses import LossSpec, PairwiseSurrogate, PointwiseMse, SoftGini, WeightVariant
from .losses import is_ranking_loss
from .scorer import MlpParams, TrainConfig, Workspace, forward, train

BUNDLE_VERSION = "cairo-model-v4"

# CLI variant flag -> display name used in reports. ranknet-giniw and gininet-softrank are
# ORO ("Optimal-in-Rank-Order") in the paper's sense: they take the order of the conditional
# mean. ranknet takes the order of the pairwise majority. All three agree where the
# conditional laws are stochastically ordered, as in the three shipped scenarios (the README
# says where). tests/test_mean_order.py checks this on two-cell laws.
VARIANTS = {
    "ranknet": "CAIRO-RankNet",
    "ranknet-giniw": "CAIRO-RankNet-GiniW",
    "gininet-softrank": "CAIRO-GiniNet-SoftRank",
    "nn-mse": "NN-MSE",
}


def variant_loss_spec(
    variant: str,
    sigma: float = PairwiseSurrogate.sigma,
    temperature: float = SoftGini.temperature,
) -> LossSpec:
    if variant == "ranknet":
        return PairwiseSurrogate(WeightVariant.UNIFORM, sigma)
    if variant == "ranknet-giniw":
        return PairwiseSurrogate(WeightVariant.ABSOLUTE_GAP, sigma)
    if variant == "gininet-softrank":
        return SoftGini(temperature)
    if variant == "nn-mse":
        return PointwiseMse()
    raise ValueError(f"unknown model variant: {variant!r} (choose from {sorted(VARIANTS)})")


@dataclass(frozen=True)
class FitHyper:
    """Per-model training hyperparameters, with the library's defaults.

    These are the `cairo fit` options and the keys a bench run may
    override per model. Each value is checked, whichever variant is fitted,
    by the class that uses it.
    """

    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    sigma: float = PairwiseSurrogate.sigma
    temperature: float = SoftGini.temperature

    def __post_init__(self) -> None:
        TrainConfig(
            epochs=self.epochs, batch_size=self.batch_size, learning_rate=self.learning_rate
        )
        PairwiseSurrogate(sigma=self.sigma)
        SoftGini(self.temperature)


def variant_train_config(variant: str, seed: int, hyper: FitHyper) -> TrainConfig:
    """Training configuration of one named variant under the given hyperparameters."""
    return TrainConfig(
        epochs=hyper.epochs,
        batch_size=hyper.batch_size,
        seed=seed,
        loss=variant_loss_spec(variant, hyper.sigma, hyper.temperature),
        learning_rate=hyper.learning_rate,
    )


# Rows per chunk of the score path. Chunks bound its memory: every chunk's
# forward writes into one Workspace of this many rows. They also fix its bits:
# one product over a long matrix may take other bits at another BLAS thread
# count, while 8192-row chunks gave the same bits at 1 and 2 threads for every
# size tried. A matrix of at most this many rows is one chunk, as before chunking.
SCORE_CHUNK_ROWS = 8192


def score_rows(scorer: MlpParams, standardizer: Standardizer, X: np.ndarray) -> np.ndarray:
    """Scores of the raw feature rows X, standardized and forwarded SCORE_CHUNK_ROWS at a time.

    predict_model, cairo_fit's calibration scores and the CLI's plot data all
    score here, so the same rows get the same scores on each path.
    """
    work = Workspace(min(X.shape[0], SCORE_CHUNK_ROWS), scorer.dims)
    scores = np.empty(X.shape[0])
    for r0 in range(0, X.shape[0], SCORE_CHUNK_ROWS):
        chunk = standardizer.transform(X[r0 : r0 + SCORE_CHUNK_ROWS])
        scores[r0 : r0 + chunk.shape[0]], _ = forward(scorer, chunk, work)
    return scores


@dataclass(frozen=True)
class CairoModel:
    scorer: MlpParams
    calibration: CalibrationMap
    standardizer: Standardizer
    spec: LossSpec
    feature_names: tuple[str, ...]  # training columns, in the scorer's input order


@dataclass(frozen=True)
class MseBaselineModel:
    scorer: MlpParams  # its output layer is on the target scale
    standardizer: Standardizer
    feature_names: tuple[str, ...]


def _stage1(
    ds: Dataset, cfg: TrainConfig
) -> tuple[Standardizer, MlpParams, np.ndarray, np.ndarray]:
    """Every variant's stage 1: the scorer trained on ds, features and targets standardized.

    The features take the standardizer fitted on ds, the targets data.column_moments
    of their column, the features' rule (constant targets keep std 1), so no objective
    sees the targets' scale. Returns the standardizer, the scorer and the targets'
    one-entry mean and std.
    """
    st = fit_standardizer(ds)
    y_mean, y_std = column_moments(ds.targets[:, None])
    targets = (ds.targets - y_mean) / y_std
    params, _ = train(replace(apply_standardizer(st, ds), targets=targets), cfg)
    return st, params, y_mean, y_std


def cairo_fit(train_ds: Dataset, loss: LossSpec, cfg: TrainConfig) -> CairoModel:
    """Stage 1 (rank scorer, standardized targets) then Stage 2 (isotonic map of the raw targets).

    Both stages fit every row of train_ds, so the model is auto-calibrated on its training rows.
    """
    if not is_ranking_loss(loss):
        raise ValueError("cairo_fit needs a ranking objective; use mse_fit for the baseline")
    st, params, _, _ = _stage1(train_ds, replace(cfg, loss=loss))
    # the scores predict_model gives these rows, so the map calibrates the same bits
    scores = score_rows(params, st, train_ds.features)
    if not np.isfinite(scores).all():
        raise ValueError("training diverged at its last step: non-finite score")
    calibration = pav_fit(scores, train_ds.targets)
    return CairoModel(
        scorer=params,
        calibration=calibration,
        standardizer=st,
        spec=loss,
        feature_names=train_ds.feature_names,
    )


def mse_fit(train_ds: Dataset, cfg: TrainConfig) -> MseBaselineModel:
    """Identical architecture and loop, squared error on standardized targets.

    After training, w3 <- std * w3 and b3 <- std * b3 + mean fold the targets'
    scale into the output layer, so the scorer predicts on the target scale.
    """
    st, params, y_mean, y_std = _stage1(train_ds, replace(cfg, loss=PointwiseMse()))
    params.w3[...] *= y_std
    params.b3[...] = y_std * params.b3 + y_mean
    return MseBaselineModel(scorer=params, standardizer=st, feature_names=train_ds.feature_names)


Model = CairoModel | MseBaselineModel


def fit_variant(variant: str, train_ds: Dataset, cfg: TrainConfig) -> Model:
    """Fit one named variant; cfg.loss must match the variant's objective.

    cfg.loss may differ from the variant's spec only in sigma or temperature;
    any other loss is rejected before training.
    """
    want = variant_loss_spec(
        variant,
        getattr(cfg.loss, "sigma", PairwiseSurrogate.sigma),
        getattr(cfg.loss, "temperature", SoftGini.temperature),
    )
    if cfg.loss != want:
        raise ValueError(f"model {variant!r} fits {want}, not the configured loss {cfg.loss}")
    if is_ranking_loss(want):
        return cairo_fit(train_ds, cfg.loss, cfg)
    return mse_fit(train_ds, cfg)


def predict_model(model: Model, X: np.ndarray) -> np.ndarray:
    """Scorer on standardized features, then the calibration map if the model has one."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    expected = model.scorer.dims[0]
    if X.ndim != 2 or X.shape[1] != expected:
        raise ValueError(
            f"dimension mismatch: model expects {expected} features, data has {X.shape[-1]}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite feature value")
    yhat = score_rows(model.scorer, model.standardizer, X)
    if isinstance(model, CairoModel):
        yhat = calibration_predict(model.calibration, yhat)
    if not np.isfinite(yhat).all():
        bad = int(np.count_nonzero(~np.isfinite(yhat)))
        raise ValueError(f"non-finite prediction: {bad} of {yhat.size} rows")
    return yhat


# The bundle's "objective" name of each ranking loss spec; the spec's fields follow it.
LOSS_OBJECTIVES = {
    "pairwise-surrogate": PairwiseSurrogate,
    "soft-gini": SoftGini,
}


def model_to_dict(model: Model, config: dict | None = None) -> dict:
    out = {
        "version": BUNDLE_VERSION,
        "config": config or {},
        "scorer": config_to_dict(model.scorer),
        "standardizer": config_to_dict(model.standardizer),
        "feature_names": list(model.feature_names),
    }
    if isinstance(model, CairoModel):
        objective = next(k for k, cls in LOSS_OBJECTIVES.items() if isinstance(model.spec, cls))
        out["kind"] = "cairo"
        out["calibration"] = config_to_dict(model.calibration)
        out["loss"] = {"objective": objective, **config_to_dict(model.spec)}
    else:
        out["kind"] = "nn-mse"
    return out


def model_from_dict(obj: dict) -> Model:
    """Inverse of model_to_dict; a bad entry raises ValueError naming its dotted JSON path."""
    if not isinstance(obj, dict):
        raise ValueError(f"a model bundle is a JSON object, not a {type(obj).__name__}")
    if obj.get("version") != BUNDLE_VERSION:
        raise ValueError(f"unsupported model version: {obj.get('version')!r}")
    try:
        params = config_from_dict(MlpParams, obj.get("scorer"), "scorer")
        d = params.dims[0]
        st = config_from_dict(Standardizer, obj.get("standardizer"), "standardizer")
        if st.mean.shape != (d,):
            raise ValueError(f"standardizer has {st.mean.size} columns, the scorer takes {d}")
        names = _coerce("feature_names", tuple[str, ...], obj.get("feature_names"))
        if len(names) != d or len(set(names)) != d:
            raise ValueError(f"feature_names must list the scorer's {d} distinct column names")
        shared = {"scorer": params, "standardizer": st, "feature_names": names}
        if obj.get("kind") == "cairo":
            calibration = config_from_dict(CalibrationMap, obj.get("calibration"), "calibration")
            loss = obj.get("loss")
            objective = loss.get("objective") if isinstance(loss, dict) else None
            if not isinstance(objective, str) or objective not in LOSS_OBJECTIVES:
                raise ValueError(f"loss needs an objective in {list(LOSS_OBJECTIVES)}: {loss!r}")
            spec = config_from_dict(LOSS_OBJECTIVES[objective], loss, "loss")
            return CairoModel(**shared, calibration=calibration, spec=spec)
        if obj.get("kind") == "nn-mse":
            return MseBaselineModel(**shared)
        raise ValueError(f"kind: unknown model kind {obj.get('kind')!r}")
    except ValueError as exc:
        raise ValueError(f"corrupt bundle: {exc}") from None


def save_model(model: Model, path: str | Path, config: dict | None = None) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model, config)), encoding="utf-8")


def load_model(path: str | Path) -> Model:
    try:
        return model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        raise ValueError(f"model bundle {path} is not JSON: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{exc} (in {path})") from None
