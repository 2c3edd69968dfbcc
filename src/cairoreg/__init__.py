"""Rank-then-calibrate regression.

Stage 1 trains a small MLP on a scale-free ranking loss; Stage 2 restores
the target scale with isotonic regression, which makes training-set
predictions auto-calibrated by construction. Includes synthetic noise
regimes, rank-correlation metrics, and a benchmark harness.
"""

from .data import Dataset, SplitSpec, Standardizer, load_csv, make_rng, split, write_csv
from .dgp import Scenario, ScenarioSpec, generate
from .isotonic import CalibrationMap, audit_autocalibration, pav_fit
from .losses import (
    LossSpec,
    PairwiseSurrogate,
    PointwiseMse,
    SoftGini,
    WeightVariant,
)
from .metrics import EvalReport, aggregate, kendall, rmse, spearman
from .pipeline import (
    CairoModel,
    MseBaselineModel,
    cairo_fit,
    load_model,
    mse_fit,
    predict_model,
    save_model,
)
from .scorer import MlpParams, TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "CairoModel",
    "CalibrationMap",
    "Dataset",
    "EvalReport",
    "LossSpec",
    "MlpParams",
    "MseBaselineModel",
    "PairwiseSurrogate",
    "PointwiseMse",
    "Scenario",
    "ScenarioSpec",
    "SoftGini",
    "SplitSpec",
    "Standardizer",
    "TrainConfig",
    "WeightVariant",
    "aggregate",
    "audit_autocalibration",
    "cairo_fit",
    "generate",
    "kendall",
    "load_csv",
    "load_model",
    "make_rng",
    "mse_fit",
    "pav_fit",
    "predict_model",
    "rmse",
    "save_model",
    "spearman",
    "split",
    "train",
    "write_csv",
]
