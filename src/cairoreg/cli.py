"""Command-line front end: simulate | fit | predict | eval | bench.

Every command is deterministic given its flags; seeds are explicit with
fixed defaults. Each command's options, with their types and defaults,
come from one table derived from a library dataclass: ScenarioSpec for
simulate, FitHyper (plus the seed and the calibration split) for fit,
BenchConfig for bench. The table gives both the flags and the keys a JSON
config file (--config) may hold; flags take precedence and unknown config
keys are rejected. JSON outputs carry {"version", "config"}; CSV outputs
get a <name>.meta.json sidecar with the same fields. predict and
eval --model take a model's feature columns by the names it was fitted on.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import MISSING, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .bench import (
    BenchConfig,
    config_to_dict,
    run_bench,
    write_results_json,
    write_table_csv,
)
from .data import (
    TARGET_COLUMN,
    TRUE_MEAN_COLUMN,
    load_csv,
    read_numeric_csv,
    select_columns,
    write_csv,
    write_numeric_csv,
)
from .dgp import ScenarioSpec, generate
from .isotonic import predict as calibration_predict
from .metrics import rmse, spearman, kendall
from .pipeline import (
    VARIANTS,
    CairoModel,
    FitHyper,
    fit_variant,
    load_model,
    predict_model,
    save_model,
    variant_train_config,
)
from .scorer import TrainConfig, forward

EVAL_VERSION = "cairo-eval-v1"
DATASET_VERSION = "cairo-dataset-v1"
PREDICTIONS_VERSION = "cairo-predictions-v1"


class CliError(RuntimeError):
    pass


def _table(cls) -> dict[str, tuple[type, object]]:
    """Options of a config dataclass: field name -> (type, default)."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default if f.default_factory is MISSING else f.default_factory())
        for f in fields(cls)
    }


_TARGET = {"target_column": (str, TARGET_COLUMN)}

# Each command's options: every key is a flag and an allowed --config key,
# except dict-valued ones (bench's per-model overrides), which only a
# config file can hold.
OPTIONS = {
    "simulate": _table(ScenarioSpec),
    "fit": {
        "model": (str, None),
        **_TARGET,
        **_table(FitHyper),
        "seed": (int, TrainConfig.seed),
        "calibration_fraction": (float, None),
    },
    "predict": _TARGET,
    "eval": _TARGET,
    "bench": _table(BenchConfig),
}


def _coerce(kind, value):
    if typing.get_origin(kind) is tuple:  # comma-separated on the command line
        if isinstance(value, str):
            value = [v for v in value.split(",") if v]
        element = typing.get_args(kind)[0]
        return tuple(element(v) for v in value)
    return kind(value)


def _resolve(args: argparse.Namespace) -> dict:
    """Each option of the command: its flag, else its --config entry, else its default."""
    table = OPTIONS[args.command]
    file_cfg = {}
    if args.config is not None:
        file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(file_cfg, dict):
            raise CliError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(table)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, (kind, default) in table.items():
        value = getattr(args, key, None)
        if value is None:
            value = file_cfg.get(key, default)
        out[key] = None if value is None else _coerce(kind, value)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")


def _write_sidecar(csv_path: Path, version: str, config: dict) -> None:
    meta_path = csv_path.with_suffix(csv_path.suffix + ".meta.json")
    _write_json(meta_path, {"version": version, "config": config})


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = ScenarioSpec(**_resolve(args))
    ds = generate(spec)
    out = Path(args.out)
    write_csv(ds, out)
    _write_sidecar(out, DATASET_VERSION, config_to_dict(spec))
    print(f"wrote {ds.n} rows x {ds.d} features to {out}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    opts = _resolve(args)
    model_name = opts["model"]
    if model_name not in VARIANTS:
        raise CliError(f"--model must be one of {sorted(VARIANTS)}")
    # The bundle records the model first, then the data path, then the rest.
    config = {"model": model_name, "data": str(args.data), **opts}
    ds = load_csv(args.data, opts["target_column"])
    hyper = FitHyper(**{f.name: opts[f.name] for f in fields(FitHyper)})
    model = fit_variant(
        model_name,
        ds,
        variant_train_config(model_name, opts["seed"], hyper),
        opts["calibration_fraction"],
    )
    save_model(model, args.out, config)
    if args.emit_plot_data is not None:
        _emit_plot_data(model, ds, Path(args.emit_plot_data), config)
    print(f"fitted {VARIANTS[model_name]} on {ds.n} rows; model at {args.out}")
    return 0


def _emit_plot_data(model, ds, path: Path, config: dict) -> None:
    """Training-point sets for score/target, score/calibrated, and fit/target plots."""
    if isinstance(model, CairoModel):
        scores, _ = forward(model.scorer, model.standardizer.transform(ds.features))
        calibrated = calibration_predict(model.calibration, scores)
    else:
        scores = predict_model(model, ds.features)
        calibrated = scores
    write_numeric_csv(path, ["score", "target", "calibrated"], [scores, ds.targets, calibrated])
    _write_sidecar(path, "cairo-plot-data-v1", config)


def _load_feature_matrix(path: str, target_column: str, names: tuple[str, ...]) -> np.ndarray:
    header, parsed = read_numeric_csv(path)
    drop = {target_column, TRUE_MEAN_COLUMN}
    keep = [j for j, name in enumerate(header) if name not in drop]
    return select_columns([header[j] for j in keep], parsed[:, keep], names)


def cmd_predict(args: argparse.Namespace) -> int:
    target_column = _resolve(args)["target_column"]
    model = load_model(args.model)
    X = _load_feature_matrix(args.data, target_column, model.feature_names)
    yhat = predict_model(model, X)
    out = Path(args.out)
    write_numeric_csv(out, ["prediction"], [yhat])
    config = {"model": str(args.model), "data": str(args.data), "target_column": target_column}
    _write_sidecar(out, PREDICTIONS_VERSION, config)
    print(f"wrote {yhat.size} predictions to {out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    target_column = _resolve(args)["target_column"]
    if (args.model is None) == (args.pred is None):
        raise CliError("provide exactly one of --model or --pred")
    ds = load_csv(args.data, target_column)
    if args.model is not None:
        model = load_model(args.model)
        yhat = predict_model(
            model, select_columns(ds.feature_names, ds.features, model.feature_names)
        )
        model_label = str(args.model)
    else:
        header, parsed = read_numeric_csv(args.pred)
        if "prediction" not in header:
            raise CliError(f"missing 'prediction' column in {args.pred}")
        yhat = parsed[:, header.index("prediction")]
        if yhat.size != ds.n:
            raise CliError(
                f"row mismatch: {yhat.size} predictions vs {ds.n} data rows"
            )
        model_label = str(args.pred)
    config = {
        "data": str(args.data),
        "target_column": target_column,
        "model": args.model and str(args.model),
        "pred": args.pred and str(args.pred),
    }
    payload = {
        "version": EVAL_VERSION,
        "config": config,
        "model": model_label,
        "spearman": spearman(ds.targets, yhat),
        "kendall": kendall(ds.targets, yhat),
        "rmse": rmse(ds.targets, yhat),
    }
    if ds.true_mean is not None:
        payload["rmse_vs_true_mean"] = rmse(ds.true_mean, yhat)
    _write_json(Path(args.out), payload)
    print(
        f"spearman={payload['spearman']:.4f} kendall={payload['kendall']:.4f} "
        f"rmse={payload['rmse']:.4f}"
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = BenchConfig(**_resolve(args))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_bench(cfg, max_workers=args.threads)
    write_results_json(result, out_dir / "results.json")
    write_table_csv(result, out_dir / "table1.csv")
    _write_sidecar(out_dir / "table1.csv", "cairo-bench-v1", config_to_dict(cfg))
    print(f"bench complete: {len(result.raw)} model-repetitions; results in {out_dir}")
    return 0


def _shown(value) -> str:
    if isinstance(value, Enum):
        return str(value.value)
    if isinstance(value, tuple):
        return ",".join(_shown(v) for v in value)
    return str(value)


def _command(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    """Subcommand parser with one flag per option of the command's table."""
    p = sub.add_parser(name, help=help)
    for key, (kind, default) in OPTIONS[name].items():
        if kind is dict:
            continue
        kw: dict = {"default": None}
        if default is not None:
            kw["help"] = f"default: {_shown(default)}"
        if kind is bool:
            kw["action"] = "store_true"
        elif key == "model":
            kw["choices"] = sorted(VARIANTS)
        elif isinstance(kind, type) and issubclass(kind, Enum):
            kw["choices"] = [member.value for member in kind]
        elif typing.get_origin(kind) is tuple:
            kw["help"] = f"comma-separated; {kw['help']}"
        else:
            kw["type"] = kind
        p.add_argument("--" + key.replace("_", "-"), **kw)
    p.add_argument("--config", default=None, help="JSON file of options; flags take precedence")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cairo",
        description="Rank-then-calibrate regression: simulate, fit, predict, eval, bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "simulate", cmd_simulate, "generate a synthetic dataset CSV")
    p.add_argument("--out", required=True)

    p = _command(sub, "fit", cmd_fit, "fit a model variant on a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--emit-plot-data", default=None, metavar="CSV")
    p.add_argument("--out", required=True)

    p = _command(sub, "predict", cmd_predict, "apply a fitted model to a feature CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = _command(sub, "eval", cmd_eval, "evaluate a model or a predictions file")
    p.add_argument("--data", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--pred", default=None)
    p.add_argument("--out", required=True)

    p = _command(sub, "bench", cmd_bench, "run the synthetic comparison harness")
    p.add_argument("--threads", type=int, default=None, help="overrides CAIRO_THREADS")
    p.add_argument("--out-dir", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # runtime failures exit 1; usage errors exit 2 via argparse
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
