import json
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from cairoreg import bench
from cairoreg.bench import (
    BenchConfig,
    BenchError,
    _tasks,
    result_to_dict,
    run_bench,
    write_results_json,
    write_table_csv,
)
from cairoreg.data import usable_cpus
from cairoreg.dgp import Scenario
from cairoreg.pipeline import VARIANTS, FitHyper


def _smoke_cfg(**kw):
    base = dict(
        n=200,
        d=3,
        repetitions=1,
        epochs=2,
        batch_size=64,
        scenarios=(Scenario.NORMAL, Scenario.GAMMA_TAIL, Scenario.HEAVY_TAIL),
        models=("ranknet", "nn-mse"),
    )
    base.update(kw)
    return BenchConfig(**base)


def _layout(tasks):
    """(scenario, rep, models) of each task."""
    return [(scenario.value, rep, cfg.models) for cfg, scenario, rep in tasks]


class TestTasks:
    """Whole repetitions fill the pool's full rounds; the leftovers split by model."""

    MODELS = tuple(VARIANTS)

    def _cfg(self, scenarios, repetitions):
        return _smoke_cfg(scenarios=scenarios, repetitions=repetitions, models=self.MODELS)

    def test_three_pairs_on_two_workers_split_the_last(self):
        cfg = self._cfg(tuple(Scenario), 1)
        tasks = _tasks(cfg, 2)
        assert _layout(tasks) == [
            ("normal", 0, self.MODELS),
            ("gamma", 0, self.MODELS),
            *(("heavy", 0, (m,)) for m in self.MODELS),
        ]
        assert tasks[0][0] is cfg and tasks[1][0] is cfg
        assert [t[0] for t in tasks[2:]] == [replace(cfg, models=(m,)) for m in self.MODELS]

    def test_four_pairs_on_two_workers_stay_whole(self):
        cfg = self._cfg((Scenario.NORMAL, Scenario.GAMMA_TAIL), 2)
        assert _layout(_tasks(cfg, 2)) == [
            (s, rep, self.MODELS) for s in ("normal", "gamma") for rep in (0, 1)
        ]

    @pytest.mark.parametrize("repetitions", [1, 2, 5])
    def test_one_worker_runs_every_pair_whole(self, repetitions):
        cfg = self._cfg(tuple(Scenario), repetitions)
        tasks = _tasks(cfg, 1)
        assert _layout(tasks) == [
            (s.value, rep, self.MODELS) for s in Scenario for rep in range(repetitions)
        ]
        assert all(task_cfg is cfg for task_cfg, _, _ in tasks)

    def test_one_pair_on_two_workers_splits_by_model(self):
        cfg = self._cfg((Scenario.HEAVY_TAIL,), 1)
        assert _layout(_tasks(cfg, 2)) == [("heavy", 0, (m,)) for m in self.MODELS]

    def test_three_pairs_on_four_workers_split_every_pair(self):
        cfg = self._cfg(tuple(Scenario), 1)
        assert _layout(_tasks(cfg, 4)) == [
            (s, 0, (m,)) for s in ("normal", "gamma", "heavy") for m in self.MODELS
        ]


class TestRunBench:
    def test_smoke_run_emits_one_report_per_cell(self):
        result = run_bench(_smoke_cfg())
        assert len(result.raw) == 3 * 2  # scenarios x models, 1 rep
        cells = {(r.scenario, r.report.model_name) for r in result.raw}
        assert len(cells) == 6
        assert result.aggregates == []  # aggregation needs >= 2 reps

    def test_aggregates_with_repetitions(self):
        result = run_bench(_smoke_cfg(repetitions=2, scenarios=(Scenario.NORMAL,)))
        assert len(result.raw) == 4
        assert len(result.aggregates) == 2
        for scenario, agg in result.aggregates:
            assert scenario == "normal"
            assert agg.repetitions == 2
            assert agg.rmse.half_width >= 0

    def test_deterministic(self):
        a = result_to_dict(run_bench(_smoke_cfg(repetitions=2, scenarios=(Scenario.NORMAL,))))
        b = result_to_dict(run_bench(_smoke_cfg(repetitions=2, scenarios=(Scenario.NORMAL,))))
        assert a == b

    def test_parallel_matches_serial(self):
        for cfg in (
            _smoke_cfg(repetitions=2, scenarios=(Scenario.NORMAL,), models=("nn-mse",)),
            # 3 (scenario, repetition) pairs: at 2 workers the last one runs a task per model
            _smoke_cfg(),
            # 1 pair, which runs a task per model on any pool
            _smoke_cfg(scenarios=(Scenario.HEAVY_TAIL,)),
        ):
            serial = result_to_dict(run_bench(cfg, max_workers=1))
            for max_workers in (2, 3):
                assert result_to_dict(run_bench(cfg, max_workers=max_workers)) == serial

    def test_failed_repetition_identifies_cell(self):
        cfg = _smoke_cfg(overrides={"ranknet": {"learning_rate": 1e300}})
        # the cause is in the message itself, which a process pool passes back intact
        want = r"scenario=normal model=ranknet rep=0: training diverged at epoch 0, batch"
        for max_workers in (1, 2):
            with np.errstate(all="ignore"), pytest.raises(BenchError, match=want):
                run_bench(cfg, max_workers=max_workers)

    @pytest.mark.parametrize("max_workers", [0, -3])
    def test_worker_count_below_one_fails_before_any_data(self, monkeypatch, max_workers):
        generated = []
        monkeypatch.setattr("cairoreg.bench.generate", lambda spec: generated.append(spec))
        with pytest.raises(ValueError, match=f"^max_workers must be >= 1, got {max_workers}$"):
            run_bench(_smoke_cfg(), max_workers=max_workers)
        assert not generated

    def test_default_worker_count_is_the_usable_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        workers = []
        monkeypatch.setattr(bench, "_tasks", lambda cfg, w: workers.append(w) or [])
        run_bench(_smoke_cfg())
        assert workers == [usable_cpus()] == [3]
        monkeypatch.delattr(os, "sched_getaffinity")
        run_bench(_smoke_cfg())
        assert workers[1:] == [usable_cpus()] == [1]

    def test_forked_seeds_differ_across_reps(self):
        result = run_bench(
            _smoke_cfg(repetitions=2, scenarios=(Scenario.NORMAL,), models=("nn-mse",))
        )
        (r0, r1) = result.raw
        assert r0.report.rmse != r1.report.rmse

    def test_config_validation(self):
        # every value is checked when the config is built, before any data exists
        for kw, message in (
            ({"models": ("nope",)}, "unknown model variant: 'nope'"),
            ({"models": ()}, r"models must name each entry once, at least one: got \(\)"),
            (
                {"models": ("ranknet", "ranknet")},
                r"models must name each entry once, at least one: got \('ranknet', 'ranknet'\)",
            ),
            ({"scenarios": ()}, r"scenarios must name each entry once, at least one: got \(\)"),
            (
                {"scenarios": (Scenario.NORMAL, Scenario.NORMAL)},
                r"scenarios must name each entry once, at least one: got \('normal', 'normal'\)",
            ),
            ({"overrides": {"nope": {}}}, "overrides.nope: unknown model variant: 'nope'"),
            ({"overrides": {"ranknet": {"bogus": 1}}}, "unknown override keys"),
            ({"train_fraction": 1.5}, "train_fraction must lie in"),
            ({"n": 1}, "need n >= 2"),
            ({"d": 0}, "need n >= 2 and d >= 1"),
            ({"n": 3}, "n=3 at train_fraction=0.7 splits into 2 train and 1 test rows"),
            ({"temperature": float("nan")}, "temperature must be finite"),
            ({"models": ("nn-mse",), "sigma": -1.0}, "sigma must be finite"),
            ({"overrides": {"ranknet": {"sigma": -1}}}, "overrides.ranknet: sigma must be finite"),
            ({"overrides": {"ranknet": {"batch_size": 1}}}, "overrides.ranknet: pairwise losses"),
        ):
            with pytest.raises(ValueError, match=f"^{message}"):
                BenchConfig(**kw)

    def test_scenarios_named_by_value_are_members(self):
        cfg = _smoke_cfg(scenarios=("normal",), models=("nn-mse",))
        assert cfg.scenarios == (Scenario.NORMAL,)
        assert [r.scenario for r in run_bench(cfg).raw] == ["normal"]
        with pytest.raises(ValueError, match=r"^scenarios must be among normal, gamma, heavy: "):
            BenchConfig(scenarios=("nope",))
        with pytest.raises(ValueError, match=r"^scenarios must name each entry once"):
            BenchConfig(scenarios=("normal", Scenario.NORMAL))

    def test_overrides_are_typed_at_construction(self):
        for kv, path in (({"sigma": True}, "sigma must be"), ({"epochs": 1.7}, "epochs must be")):
            with pytest.raises(ValueError, match=f"^overrides.ranknet.{path}"):
                BenchConfig(overrides={"ranknet": kv})
        for overrides in ({"ranknet": 5}, [1]):
            with pytest.raises(ValueError, match="^overrides must map model names to objects"):
                BenchConfig(overrides=overrides)
        cfg = BenchConfig(overrides={"ranknet": {"epochs": 2.0, "sigma": 1}})
        hyper = cfg.hyper("ranknet")
        assert (type(hyper.epochs), type(hyper.sigma)) == (int, float)
        assert cfg.overrides == {"ranknet": {"epochs": 2, "sigma": 1.0}}

    def test_shared_hyperparameters_are_fit_hyper_fields(self):
        assert fields(BenchConfig)[: len(fields(FitHyper))] == fields(FitHyper)
        cfg = BenchConfig(epochs=7, sigma=0.5, overrides={"nn-mse": {"epochs": 400}})
        assert cfg.hyper("ranknet") == FitHyper(epochs=7, sigma=0.5)
        assert cfg.hyper("nn-mse") == FitHyper(epochs=400, sigma=0.5)


class TestOutputs:
    def test_results_json_shape(self, tmp_path):
        result = run_bench(_smoke_cfg(repetitions=2, scenarios=(Scenario.NORMAL,)))
        path = tmp_path / "results.json"
        write_results_json(result, path)
        obj = json.loads(path.read_text())
        assert obj["version"] == "cairo-bench-v1"
        assert obj["config"]["n"] == 200
        assert len(obj["raw"]) == 4
        assert {a["model"] for a in obj["aggregates"]} == {"CAIRO-RankNet", "NN-MSE"}
        for entry in obj["raw"]:
            assert np.isfinite(entry["rmse"])
            assert entry["rmse_vs_true_mean"] is not None

    def test_table_csv_layout(self, tmp_path):
        result = run_bench(_smoke_cfg(repetitions=2, scenarios=(Scenario.NORMAL,)))
        path = tmp_path / "table1.csv"
        write_table_csv(result, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("scenario,model,spearman,")
        assert len(lines) == 3  # header + 2 models
        # numeric cells round-trip through float()
        cells = lines[1].split(",")
        assert cells[0] == "normal"
        float(cells[2]), float(cells[6])
