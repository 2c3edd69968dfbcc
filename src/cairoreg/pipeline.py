"""Two-stage fit/predict plus the same-architecture MSE baseline.

cairo_fit standardizes features, trains the scorer on a ranking loss
against raw targets, then fits the monotone calibration map on the
training scores. Targets are never standardized on the ranking path: the
calibration stage restores their scale. The baseline standardizes targets
during training and undoes that at prediction time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Dataset, SplitSpec, Standardizer, apply_standardizer, fit_standardizer, split
from .isotonic import (
    CalibrationMap,
    calibration_from_dict,
    calibration_to_dict,
    pav_fit,
)
from .isotonic import predict as calibration_predict
from .losses import (
    LossSpec,
    PairwiseSurrogate,
    PointwiseMse,
    SoftGini,
    WeightVariant,
    is_ranking_loss,
)
from .scorer import AdamHyper, MlpParams, TrainConfig, forward, mlp_from_dict, mlp_to_dict, train

BUNDLE_VERSION = "cairo-model-v2"

# CLI variant flag -> display name used in reports
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
    override per model.
    """

    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = AdamHyper.learning_rate
    sigma: float = PairwiseSurrogate.sigma
    temperature: float = SoftGini.temperature


def variant_train_config(variant: str, seed: int, hyper: FitHyper) -> TrainConfig:
    """Training configuration of one named variant under the given hyperparameters."""
    return TrainConfig(
        epochs=int(hyper.epochs),
        batch_size=int(hyper.batch_size),
        seed=seed,
        loss=variant_loss_spec(variant, float(hyper.sigma), float(hyper.temperature)),
        adam=AdamHyper(learning_rate=float(hyper.learning_rate)),
    )


@dataclass(frozen=True)
class CairoModel:
    scorer: MlpParams
    calibration: CalibrationMap
    standardizer: Standardizer
    spec: LossSpec
    feature_names: tuple[str, ...]  # training columns, in the scorer's input order


@dataclass(frozen=True)
class MseBaselineModel:
    scorer: MlpParams
    standardizer: Standardizer
    target_mean: float
    target_std: float
    feature_names: tuple[str, ...]


def cairo_fit(
    train_ds: Dataset,
    loss: LossSpec,
    cfg: TrainConfig,
    calibration_fraction: float | None = None,
) -> CairoModel:
    """Stage 1 (rank scorer) then Stage 2 (isotonic scale recovery).

    Calibration reuses the full training set by default; pass
    calibration_fraction to fit it on a held-out slice instead.
    """
    if not is_ranking_loss(loss):
        raise ValueError("cairo_fit needs a ranking objective; use mse_fit for the baseline")
    st = fit_standardizer(train_ds)
    std_train = apply_standardizer(st, train_ds)

    if calibration_fraction is None:
        scorer_ds, calib_ds = std_train, std_train
    else:
        scorer_ds, calib_ds = split(
            std_train, SplitSpec(train_fraction=1.0 - calibration_fraction, seed=cfg.seed)
        )

    params, _ = train(scorer_ds, replace(cfg, loss=loss))
    scores, _ = forward(params, calib_ds.features)
    calibration = pav_fit(scores, calib_ds.targets)
    return CairoModel(
        scorer=params,
        calibration=calibration,
        standardizer=st,
        spec=loss,
        feature_names=tuple(train_ds.feature_names),
    )


def _check_features(model: Model, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    expected = model.scorer.dims[0]
    if X.ndim != 2 or X.shape[1] != expected:
        raise ValueError(
            f"dimension mismatch: model expects {expected} features, data has {X.shape[-1]}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite feature value")
    return X


def cairo_predict(model: CairoModel, X: np.ndarray) -> np.ndarray:
    X = _check_features(model, X)
    scores, _ = forward(model.scorer, model.standardizer.transform(X))
    return calibration_predict(model.calibration, scores)


def mse_fit(train_ds: Dataset, cfg: TrainConfig) -> MseBaselineModel:
    """Identical architecture and loop, squared error on standardized targets."""
    st = fit_standardizer(train_ds)
    y_mean = float(train_ds.targets.mean())
    y_std = float(train_ds.targets.std()) or 1.0
    std_train = Dataset(
        features=st.transform(train_ds.features),
        targets=(train_ds.targets - y_mean) / y_std,
        feature_names=list(train_ds.feature_names),
    )
    params, _ = train(std_train, replace(cfg, loss=PointwiseMse()))
    return MseBaselineModel(
        scorer=params,
        standardizer=st,
        target_mean=y_mean,
        target_std=y_std,
        feature_names=tuple(train_ds.feature_names),
    )


def mse_predict(model: MseBaselineModel, X: np.ndarray) -> np.ndarray:
    X = _check_features(model, X)
    scores, _ = forward(model.scorer, model.standardizer.transform(X))
    return scores * model.target_std + model.target_mean


Model = CairoModel | MseBaselineModel


def fit_variant(
    variant: str,
    train_ds: Dataset,
    cfg: TrainConfig,
    calibration_fraction: float | None = None,
) -> Model:
    """Fit one named variant; cfg.loss must match the variant's objective.

    calibration_fraction is passed to cairo_fit; the MSE baseline has no
    calibration stage and rejects it.
    """
    if variant == "nn-mse":
        if calibration_fraction is not None:
            raise ValueError("calibration_fraction applies only to ranking variants")
        return mse_fit(train_ds, cfg)
    if variant not in VARIANTS:
        raise ValueError(f"unknown model variant: {variant!r}")
    return cairo_fit(train_ds, cfg.loss, cfg, calibration_fraction)


def predict_model(model: Model, X: np.ndarray) -> np.ndarray:
    if isinstance(model, CairoModel):
        return cairo_predict(model, X)
    return mse_predict(model, X)


def _loss_to_dict(spec: LossSpec) -> dict:
    if isinstance(spec, PairwiseSurrogate):
        return {
            "objective": "pairwise-surrogate",
            "variant": spec.variant.value,
            "sigma": spec.sigma,
        }
    if isinstance(spec, SoftGini):
        return {"objective": "soft-gini", "temperature": spec.temperature}
    return {"objective": "pointwise-mse"}


def _loss_from_dict(obj: dict) -> LossSpec:
    kind = obj.get("objective")
    if kind == "pairwise-surrogate":
        return PairwiseSurrogate(WeightVariant(obj["variant"]), float(obj["sigma"]))
    if kind == "soft-gini":
        return SoftGini(float(obj["temperature"]))
    if kind == "pointwise-mse":
        return PointwiseMse()
    raise ValueError(f"unknown loss objective: {kind!r}")


def model_to_dict(model: Model, config: dict | None = None) -> dict:
    st = model.standardizer
    out = {
        "version": BUNDLE_VERSION,
        "config": config or {},
        "scorer": mlp_to_dict(model.scorer),
        "standardizer": {"mean": st.mean.tolist(), "std": st.std.tolist()},
        "feature_names": list(model.feature_names),
    }
    if isinstance(model, CairoModel):
        out["kind"] = "cairo"
        out["calibration"] = calibration_to_dict(model.calibration)
        out["loss"] = _loss_to_dict(model.spec)
    else:
        out["kind"] = "nn-mse"
        out["target_mean"] = model.target_mean
        out["target_std"] = model.target_std
    return out


def model_from_dict(obj: dict) -> Model:
    if obj.get("version") != BUNDLE_VERSION:
        raise ValueError(f"unsupported model version: {obj.get('version')!r}")
    st = Standardizer(
        mean=np.asarray(obj["standardizer"]["mean"], dtype=np.float64),
        std=np.asarray(obj["standardizer"]["std"], dtype=np.float64),
    )
    params = mlp_from_dict(obj["scorer"])
    d = params.dims[0]
    if st.mean.shape != (d,) or st.std.shape != (d,):
        raise ValueError(
            f"corrupt bundle: standardizer lengths {st.mean.shape}, {st.std.shape} "
            f"do not match the scorer's {d} input features"
        )
    names = obj.get("feature_names")
    if (
        not isinstance(names, list)
        or len(names) != d
        or not all(isinstance(c, str) for c in names)
    ):
        raise ValueError(f"corrupt bundle: feature_names must list the scorer's {d} column names")
    if obj.get("kind") == "cairo":
        return CairoModel(
            scorer=params,
            calibration=calibration_from_dict(obj["calibration"]),
            standardizer=st,
            spec=_loss_from_dict(obj["loss"]),
            feature_names=tuple(names),
        )
    if obj.get("kind") == "nn-mse":
        return MseBaselineModel(
            scorer=params,
            standardizer=st,
            target_mean=float(obj["target_mean"]),
            target_std=float(obj["target_std"]),
            feature_names=tuple(names),
        )
    raise ValueError(f"unknown model kind: {obj.get('kind')!r}")


def save_model(model: Model, path: str | Path, config: dict | None = None) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model, config)), encoding="utf-8")


def load_model(path: str | Path) -> Model:
    return model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
