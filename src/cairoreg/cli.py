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
eval only predicts (or reads predictions) and writes its report, which
bench.evaluate builds as it does for each bench repetition.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import fields
from enum import Enum
from pathlib import Path

import numpy as np

from .bench import (
    RESULTS_VERSION,
    BenchConfig,
    evaluate,
    run_bench,
    write_results_json,
    write_table_csv,
)
from .data import (
    TARGET_COLUMN,
    DataError,
    _coerce,
    _plain,
    _table,
    config_to_dict,
    feature_columns,
    load_csv,
    read_numeric_csv,
    select_columns,
    usable_cpus,
    write_csv,
    write_numeric_csv,
)
from .dgp import ScenarioSpec, generate
# calibration_predict is not called here; it stays bound because perfbench/spans.py wraps it.
from .isotonic import predict as calibration_predict  # noqa: F401
# kendall, rmse and spearman are not called here; they stay bound for perfbench/spans.py.
from .metrics import METRICS, kendall, rmse, spearman  # noqa: F401
from .pipeline import (
    VARIANTS,
    FitHyper,
    fit_variant,
    load_model,
    predict_model,
    save_model,
    score_rows,
    variant_train_config,
)
# forward is not called here; it stays bound because perfbench/spans.py wraps cli.forward.
from .scorer import TrainConfig, forward  # noqa: F401

EVAL_VERSION = "cairo-eval-v1"
DATASET_VERSION = "cairo-dataset-v1"
PREDICTIONS_VERSION = "cairo-predictions-v1"
PLOT_DATA_VERSION = "cairo-plot-data-v1"


class CliError(RuntimeError):
    pass


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


def _option(key: str, kind, value):
    """_coerce, reading a tuple flag as comma-separated text; a dict is its dataclass's to check."""
    if kind is dict:
        return value
    if typing.get_origin(kind) is tuple and isinstance(value, str):
        value = [v for v in value.split(",") if v]
    return _coerce(key, kind, value)


def _resolve(args: argparse.Namespace) -> dict:
    """Each option of the command: its flag, else its --config entry, else its default."""
    table = OPTIONS[args.command]
    file_cfg = {}
    if args.config is not None:
        try:
            file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise CliError(f"config file {args.config} is not JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise CliError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_cfg) - set(table)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, (kind, default) in table.items():
        value = getattr(args, key, None)
        if value is None:
            value = file_cfg.get(key, default)
        # a null stands for "unset" only where that is the default
        out[key] = None if value is None and default is None else _option(key, kind, value)
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
    hyper = FitHyper(**{f.name: opts[f.name] for f in fields(FitHyper)})
    train_cfg = variant_train_config(model_name, opts["seed"], hyper)
    # The bundle records the model first, then the data path, then the rest.
    config = {"model": model_name, "data": str(args.data), **opts}
    ds = load_csv(args.data, opts["target_column"])
    if ds.d == 0:
        raise CliError(f"no feature columns in {args.data}")
    model = fit_variant(model_name, ds, train_cfg, opts["calibration_fraction"])
    try:  # mse_fit leaves its last step unchecked; a model that overflows is not written
        yhat = predict_model(model, ds.features)
    except ValueError as exc:
        raise CliError(f"training diverged at its last step: {exc}") from None
    save_model(model, args.out, config)
    if args.emit_plot_data is not None:
        # training points for score/target, score/calibrated and fit/target plots
        plot_path = Path(args.emit_plot_data)
        scores = score_rows(model.scorer, model.standardizer, ds.features)
        write_numeric_csv(plot_path, ["score", "target", "calibrated"], [scores, ds.targets, yhat])
        _write_sidecar(plot_path, PLOT_DATA_VERSION, config)
    print(f"fitted {VARIANTS[model_name]} on {ds.n} rows; model at {args.out}")
    return 0


def _model_features(args: argparse.Namespace, model, header: list[str], matrix: np.ndarray):
    """The columns of matrix that model was fitted on; a mismatch names --data and --model."""
    try:
        return select_columns(header, matrix, model.feature_names)
    except DataError as exc:
        raise CliError(f"{exc}; data {args.data}, model {args.model}") from None


def cmd_predict(args: argparse.Namespace) -> int:
    target_column = _resolve(args)["target_column"]
    model = load_model(args.model)
    header, parsed = read_numeric_csv(args.data)
    keep = feature_columns(header, target_column)
    X = _model_features(args, model, [header[j] for j in keep], parsed[:, keep])
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
        yhat = predict_model(model, _model_features(args, model, ds.feature_names, ds.features))
        model_label = str(args.model)
    else:
        header, parsed = read_numeric_csv(args.pred)
        if "prediction" not in header:
            raise CliError(f"missing 'prediction' column in {args.pred}")
        yhat = parsed[:, header.index("prediction")]
        if yhat.size != ds.n:
            raise CliError(
                f"row mismatch: {yhat.size} predictions in {args.pred}"
                f" vs {ds.n} data rows in {args.data}"
            )
        model_label = str(args.pred)
    config = {
        "data": str(args.data),
        "target_column": target_column,
        "model": args.model and str(args.model),
        "pred": args.pred and str(args.pred),
    }
    report = evaluate(model_label, ds, yhat)
    metrics = {m: getattr(report, m) for m in METRICS if getattr(report, m) is not None}
    _write_json(
        Path(args.out),
        {"version": EVAL_VERSION, "config": config, "model": report.model_name, **metrics},
    )
    print(f"spearman={report.spearman:.4f} kendall={report.kendall:.4f} rmse={report.rmse:.4f}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = BenchConfig(**_resolve(args))
    if args.threads < 1:
        raise CliError(f"threads must be >= 1, got {args.threads}")
    out_dir = Path(args.out_dir)
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir():  # found before the run, which it would otherwise waste
        raise CliError(f"out_dir {out_dir} cannot be made: {nearest} is not a directory")
    result = run_bench(cfg, max_workers=args.threads)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_results_json(result, out_dir / "results.json")
    write_table_csv(result, out_dir / "table1.csv")
    _write_sidecar(out_dir / "table1.csv", RESULTS_VERSION, config_to_dict(cfg))
    print(f"bench complete: {len(result.raw)} model-repetitions; results in {out_dir}")
    return 0


def _shown(value) -> str:
    value = _plain(value)
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


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
    p.add_argument(
        "--threads",
        type=int,
        default=usable_cpus(),
        help="worker processes; default: one per usable CPU (%(default)s here)",
    )
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
