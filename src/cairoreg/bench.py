"""Synthetic comparison harness: CAIRO variants vs the MSE baseline.

One repetition = generate a dataset (fresh weight vector per seed), split,
fit every requested model, evaluate on the held-out rows. Repetitions fork
their seeds as base_seed + rep, so serial and parallel execution produce
identical reports. RMSE is measured against observed targets (it includes
the irreducible noise); RMSE against the true conditional mean is carried
as an auxiliary diagnostic.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .data import (
    SplitSpec,
    _coerce,
    _plain,
    _table,
    config_to_dict,
    split,
    split_sizes,
    usable_cpus,
)
from .dgp import Scenario, ScenarioSpec, generate
from .metrics import METRICS, AggregateReport, EvalReport, aggregate, kendall, rmse, spearman
from .pipeline import VARIANTS, FitHyper, fit_variant, predict_model, variant_train_config

RESULTS_VERSION = "cairo-bench-v1"


class BenchError(RuntimeError):
    pass


@dataclass(frozen=True)
class BenchConfig(FitHyper):
    """A bench run; the FitHyper fields are the hyperparameters every model shares."""

    scenarios: tuple[Scenario, ...] = tuple(Scenario)
    models: tuple[str, ...] = tuple(VARIANTS)
    n: int = ScenarioSpec.n
    d: int = ScenarioSpec.d
    repetitions: int = 5
    base_seed: int = 0
    train_fraction: float = 0.7
    # per-model overrides of the FitHyper fields, e.g. {"nn-mse": {"epochs": 400}}
    overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        try:  # a scenario may be named by its value, as in a config file
            object.__setattr__(self, "scenarios", tuple(map(Scenario, self.scenarios)))
        except ValueError:
            known = ", ".join(s.value for s in Scenario)
            raise ValueError(
                f"scenarios must be among {known}: got {tuple(map(_plain, self.scenarios))}"
            ) from None
        for key in ("scenarios", "models"):
            values = tuple(map(_plain, getattr(self, key)))
            if not values or len(set(values)) < len(values):
                raise ValueError(f"{key} must name each entry once, at least one: got {values}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        ScenarioSpec(n=self.n, d=self.d)
        SplitSpec(self.train_fraction, self.base_seed)
        n_train, n_test = split_sizes(self.n, self.train_fraction)
        if min(n_train, n_test) < 2:  # pairwise losses and the rank metrics need 2 rows
            raise ValueError(
                f"n={self.n} at train_fraction={self.train_fraction} splits into {n_train}"
                f" train and {n_test} test rows; each side needs at least 2"
            )
        overrides = self.overrides
        if not isinstance(overrides, dict) or not all(
            isinstance(kv, dict) for kv in overrides.values()
        ):
            raise ValueError(
                f"overrides must map model names to objects of FitHyper keys, got {overrides!r}"
            )
        hyper = _table(FitHyper)
        for model, kv in overrides.items():
            bad = set(kv) - set(hyper)
            if bad:
                raise ValueError(f"unknown override keys for {model!r}: {sorted(bad)}")
        typed = {
            model: {k: _coerce(f"overrides.{model}.{k}", hyper[k][0], v) for k, v in kv.items()}
            for model, kv in overrides.items()
        }
        object.__setattr__(self, "overrides", typed)
        # a bad model name or override fails here, before any data is generated
        for model in dict.fromkeys([*self.models, *typed]):
            prefix = f"overrides.{model}: " if model in typed else ""
            try:
                variant_train_config(model, self.base_seed, self.hyper(model))
            except ValueError as exc:
                raise ValueError(prefix + str(exc)) from None

    def hyper(self, model: str) -> FitHyper:
        """One model's training hyperparameters: the shared values, then its overrides."""
        shared = {f.name: getattr(self, f.name) for f in fields(FitHyper)}
        return FitHyper(**{**shared, **self.overrides.get(model, {})})


@dataclass(frozen=True)
class RepetitionResult:
    scenario: str
    rep: int
    report: EvalReport


@dataclass(frozen=True)
class BenchResult:
    config: BenchConfig
    raw: list[RepetitionResult]
    aggregates: list[tuple[str, AggregateReport]]  # (scenario, per-model aggregate)


def _run_repetition(cfg: BenchConfig, scenario: Scenario, rep: int) -> list[RepetitionResult]:
    seed = cfg.base_seed + rep
    ds = generate(ScenarioSpec(scenario=scenario, n=cfg.n, d=cfg.d, seed=seed))
    train_ds, test_ds = split(ds, SplitSpec(cfg.train_fraction, seed=seed))
    out = []
    for model_name in cfg.models:
        try:
            train_cfg = variant_train_config(model_name, seed, cfg.hyper(model_name))
            model = fit_variant(model_name, train_ds, train_cfg)
            yhat = predict_model(model, test_ds.features)
            report = EvalReport(
                model_name=VARIANTS[model_name],
                spearman=spearman(test_ds.targets, yhat),
                kendall=kendall(test_ds.targets, yhat),
                rmse=rmse(test_ds.targets, yhat),
                rmse_vs_true_mean=rmse(test_ds.true_mean, yhat),
            )
        except Exception as exc:
            raise BenchError(
                f"repetition failed: scenario={scenario.value} model={model_name} rep={rep}: {exc}"
            ) from exc
        out.append(RepetitionResult(scenario=scenario.value, rep=rep, report=report))
    return out


def _tasks(cfg: BenchConfig, max_workers: int) -> list[tuple[BenchConfig, Scenario, int]]:
    """The (cfg, scenario, rep) arguments of each _run_repetition call, in result order.

    Of the (scenario, repetition) pairs, the first len - len % max_workers run
    whole, max_workers to a round. Each pair left over for a last round that
    would leave workers idle runs as one task per model instead. One worker
    runs every pair whole.
    """
    pairs = [(scenario, rep) for scenario in cfg.scenarios for rep in range(cfg.repetitions)]
    whole = len(pairs) - len(pairs) % max_workers
    tasks = [(cfg, scenario, rep) for scenario, rep in pairs[:whole]]
    for scenario, rep in pairs[whole:]:
        tasks += [(replace(cfg, models=(model,)), scenario, rep) for model in cfg.models]
    return tasks


def run_bench(cfg: BenchConfig, max_workers: int | None = None) -> BenchResult:
    """Run every (scenario, repetition), aggregate per (scenario, model).

    Above one worker, the tasks of _tasks run on a process pool of
    max_workers, by default one per usable CPU. Workers receive forked
    seeds; results are ordered by task index, so the report is identical
    for any worker count.
    """
    if max_workers is None:
        max_workers = usable_cpus()
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    tasks = _tasks(cfg, max_workers)
    if max_workers > 1 and len(tasks) > 1:
        # imported here: cairo predict and eval load this module but never start a pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(max_workers, len(tasks))) as pool:
            chunks = list(pool.map(_run_repetition, *zip(*tasks)))
    else:
        chunks = [_run_repetition(*task) for task in tasks]

    raw = [r for chunk in chunks for r in chunk]
    aggregates = []
    for scenario in cfg.scenarios:
        for model_name in cfg.models:
            cell = (scenario.value, VARIANTS[model_name])
            reports = [r.report for r in raw if (r.scenario, r.report.model_name) == cell]
            if len(reports) >= 2:
                aggregates.append((scenario.value, aggregate(reports)))
    return BenchResult(config=cfg, raw=raw, aggregates=aggregates)


def result_to_dict(result: BenchResult) -> dict:
    def agg_entry(scenario: str, agg: AggregateReport) -> dict:
        entry = {"scenario": scenario, "model": agg.model_name, "repetitions": agg.repetitions}
        for metric in METRICS:
            stat = getattr(agg, metric)
            if stat is not None:
                entry[metric] = {"mean": stat.mean, "ci95": stat.half_width}
        return entry

    return {
        "version": RESULTS_VERSION,
        "config": config_to_dict(result.config),
        "raw": [
            {
                "scenario": r.scenario,
                "model": r.report.model_name,
                "rep": r.rep,
                **{metric: getattr(r.report, metric) for metric in METRICS},
            }
            for r in result.raw
        ],
        "aggregates": [agg_entry(s, a) for s, a in result.aggregates],
    }


def write_results_json(result: BenchResult, path: str | Path) -> None:
    Path(path).write_text(json.dumps(result_to_dict(result), indent=2), encoding="utf-8")


def write_table_csv(result: BenchResult, path: str | Path) -> None:
    """Summary table: one row per (scenario, model) with mean +/- half-width."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "model", *(f"{m}{s}" for m in METRICS for s in ("", "_ci95"))])
        for scenario, agg in result.aggregates:
            row = [scenario, agg.model_name]
            for metric in METRICS:
                stat = getattr(agg, metric)
                row += (
                    ["", ""] if stat is None else [f"{stat.mean:.17g}", f"{stat.half_width:.17g}"]
                )
            writer.writerow(row)
