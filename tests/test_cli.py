import argparse
import csv
import json

import numpy as np
import pytest

from cairoreg.bench import BenchConfig
from cairoreg.cli import OPTIONS, build_parser, main
from cairoreg.data import TARGET_COLUMN, load_csv
from cairoreg.losses import PairwiseSurrogate, SoftGini
from cairoreg.pipeline import load_model, predict_model
from cairoreg.scorer import AdamHyper, TrainConfig


def _simulate(tmp_path, name="data.csv", n=120, d=3, seed=1, scenario="normal"):
    out = tmp_path / name
    rc = main(
        [
            "simulate",
            "--scenario",
            scenario,
            "--n",
            str(n),
            "--d",
            str(d),
            "--seed",
            str(seed),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return out


class TestSimulate:
    def test_shape(self, tmp_path):
        out = _simulate(tmp_path, n=100, d=10)
        rows = list(csv.reader(out.open()))
        assert len(rows) == 101
        assert len(rows[0]) == 12  # 10 features + __target + __true_mean
        assert rows[0][-2:] == ["__target", "__true_mean"]

    def test_deterministic(self, tmp_path):
        a = _simulate(tmp_path, "a.csv", seed=5)
        b = _simulate(tmp_path, "b.csv", seed=5)
        assert a.read_text() == b.read_text()

    def test_unknown_scenario_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", "weird", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_meta_sidecar(self, tmp_path):
        out = _simulate(tmp_path, seed=9)
        meta = json.loads((tmp_path / "data.csv.meta.json").read_text())
        assert meta["version"] == "cairo-dataset-v1"
        assert meta["config"]["seed"] == 9


def _fit(tmp_path, data, model="ranknet", extra=()):
    out = tmp_path / f"{model}.json"
    rc = main(
        [
            "fit",
            "--data",
            str(data),
            "--model",
            model,
            "--epochs",
            "4",
            "--batch-size",
            "64",
            "--seed",
            "0",
            "--out",
            str(out),
            *extra,
        ]
    )
    assert rc == 0
    return out


class TestFitPredictEval:
    def test_fit_writes_model_with_config(self, tmp_path):
        data = _simulate(tmp_path)
        model_path = _fit(tmp_path, data)
        obj = json.loads(model_path.read_text())
        assert obj["version"] == "cairo-model-v2"
        assert obj["config"]["model"] == "ranknet"
        assert obj["config"]["epochs"] == 4

    def test_predict_on_training_file_matches_pipeline(self, tmp_path):
        data = _simulate(tmp_path)
        model_path = _fit(tmp_path, data)
        pred_path = tmp_path / "preds.csv"
        rc = main(
            ["predict", "--model", str(model_path), "--data", str(data), "--out", str(pred_path)]
        )
        assert rc == 0
        rows = list(csv.reader(pred_path.open()))
        assert rows[0] == ["prediction"]
        got = np.array([float(r[0]) for r in rows[1:]])
        ds = load_csv(data)
        want = predict_model(load_model(model_path), ds.features)
        np.testing.assert_array_equal(got, want)  # 17g output round-trips exactly
        # training rows land on the calibration map's fitted values
        fitted = set(load_model(model_path).calibration.fitted.tolist())
        assert all(any(abs(v - f) < 1e-12 for f in fitted) for v in got[:20])

    def test_eval_on_perfect_predictions(self, tmp_path):
        data = _simulate(tmp_path)
        ds = load_csv(data)
        pred_path = tmp_path / "perfect.csv"
        with pred_path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["prediction"])
            for v in ds.targets:
                w.writerow([f"{v:.17g}"])
        out = tmp_path / "report.json"
        rc = main(
            ["eval", "--data", str(data), "--pred", str(pred_path), "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["version"] == "cairo-eval-v1"
        assert report["spearman"] == 1.0
        assert report["kendall"] == 1.0
        assert report["rmse"] == 0.0
        assert "config" in report

    def test_eval_with_model(self, tmp_path):
        data = _simulate(tmp_path)
        model_path = _fit(tmp_path, data, model="nn-mse")
        out = tmp_path / "report.json"
        rc = main(["eval", "--data", str(data), "--model", str(model_path), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert 0 <= report["rmse"] and np.isfinite(report["rmse"])
        assert "rmse_vs_true_mean" in report  # simulated data carries the true mean

    def test_eval_requires_exactly_one_source(self, tmp_path):
        data = _simulate(tmp_path)
        rc = main(["eval", "--data", str(data), "--out", str(tmp_path / "r.json")])
        assert rc == 1

    def test_dimension_mismatch_is_runtime_error(self, tmp_path):
        data3 = _simulate(tmp_path, "d3.csv", d=3)
        data5 = _simulate(tmp_path, "d5.csv", d=5)
        model_path = _fit(tmp_path, data3)
        rc = main(
            [
                "predict",
                "--model",
                str(model_path),
                "--data",
                str(data5),
                "--out",
                str(tmp_path / "p.csv"),
            ]
        )
        assert rc == 1

    def test_feature_columns_are_taken_by_name(self, tmp_path, capsys):
        data = _simulate(tmp_path, d=4)
        model_path = _fit(tmp_path, data)
        rows = list(csv.reader(data.open()))
        swapped = tmp_path / "swapped.csv"
        with swapped.open("w", newline="") as fh:
            csv.writer(fh).writerows([r[1], r[0], *r[2:]] for r in rows)
        renamed = tmp_path / "renamed.csv"
        with renamed.open("w", newline="") as fh:
            csv.writer(fh).writerows([["z1", *rows[0][1:]], *rows[1:]])

        def run(command, path, out):
            return main([command, "--model", str(model_path), "--data", str(path), "--out", str(out)])

        for command, ext in (("predict", "csv"), ("eval", "json")):
            assert run(command, data, tmp_path / f"a.{ext}") == 0
            assert run(command, swapped, tmp_path / f"b.{ext}") == 0
            a, b = ((tmp_path / f"{x}.{ext}").read_text() for x in "ab")
            assert a.replace(str(data), str(swapped)) == b
            capsys.readouterr()
            assert run(command, renamed, tmp_path / f"c.{ext}") == 1
            assert "missing ['x1']" in capsys.readouterr().err

    def test_missing_file_is_runtime_error(self, tmp_path):
        rc = main(
            [
                "fit",
                "--data",
                str(tmp_path / "nope.csv"),
                "--model",
                "ranknet",
                "--out",
                str(tmp_path / "m.json"),
            ]
        )
        assert rc == 1

    def test_emit_plot_data(self, tmp_path):
        data = _simulate(tmp_path)
        plot_path = tmp_path / "plot.csv"
        _fit(tmp_path, data, extra=("--emit-plot-data", str(plot_path)))
        rows = list(csv.reader(plot_path.open()))
        assert rows[0] == ["score", "target", "calibrated"]
        assert len(rows) == 121


class TestConfigFile:
    def test_flags_take_precedence(self, tmp_path):
        data = _simulate(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "nn-mse", "epochs": 2}))
        out = tmp_path / "m.json"
        rc = main(
            [
                "fit",
                "--data",
                str(data),
                "--config",
                str(cfg),
                "--model",
                "ranknet",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        obj = json.loads(out.read_text())
        assert obj["config"]["model"] == "ranknet"  # flag wins
        assert obj["config"]["epochs"] == 2  # config fills the gap

    def test_unknown_config_keys_rejected(self, tmp_path):
        data = _simulate(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        rc = main(
            [
                "fit",
                "--data",
                str(data),
                "--config",
                str(cfg),
                "--model",
                "ranknet",
                "--out",
                str(tmp_path / "m.json"),
            ]
        )
        assert rc == 1


    def test_rank_weights_full_set_is_not_an_option(self, tmp_path):
        data = _simulate(tmp_path)
        fit = ["fit", "--data", str(data), "--model", "ranknet", "--out", str(tmp_path / "m.json")]
        with pytest.raises(SystemExit) as exc:
            main([*fit, "--rank-weights-full-set"])
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rank_weights_full_set": True}))
        assert main([*fit, "--config", str(cfg)]) == 1


class TestOptionTable:
    # flags that name files or set how a run executes; no config file holds them
    RUN_FLAGS = {
        "simulate": {"out"},
        "fit": {"data", "emit_plot_data", "out"},
        "predict": {"model", "data", "out"},
        "eval": {"data", "model", "pred", "out"},
        "bench": {"threads", "out_dir"},
    }

    def test_flags_equal_config_keys(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(OPTIONS)
        for command, p in sub.choices.items():
            flags = {a.dest for a in p._actions} - {"help", "config"} - self.RUN_FLAGS[command]
            config_only = {k for k, (kind, _) in OPTIONS[command].items() if kind is dict}
            assert config_only <= {"overrides"}  # per-model dicts have no flag form
            assert flags | config_only == set(OPTIONS[command]), command

    def test_fit_records_library_defaults(self, tmp_path):
        data = _simulate(tmp_path)
        out = tmp_path / "m.json"
        assert main(["fit", "--data", str(data), "--model", "ranknet", "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        train, adam = TrainConfig(), AdamHyper()
        assert config == {
            "model": "ranknet",
            "data": str(data),
            "target_column": TARGET_COLUMN,
            "epochs": train.epochs,
            "batch_size": train.batch_size,
            "learning_rate": adam.learning_rate,
            "sigma": PairwiseSurrogate().sigma,
            "temperature": SoftGini().temperature,
            "seed": train.seed,
            "calibration_fraction": None,
        }
        bench = BenchConfig()
        for key in ("epochs", "batch_size", "learning_rate", "sigma", "temperature"):
            assert getattr(bench, key) == config[key]
        # the recorded options, read back from a config file, give the same bundle
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({k: v for k, v in config.items() if k != "data"}))
        again = tmp_path / "again.json"
        assert main(["fit", "--data", str(data), "--config", str(cfg), "--out", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()

    def test_help_shows_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["fit", "--help"])
        text = capsys.readouterr().out
        assert f"default: {AdamHyper().learning_rate}" in text
        assert f"default: {TrainConfig().batch_size}" in text


class TestBenchCommand:
    def test_smoke(self, tmp_path):
        out_dir = tmp_path / "bench"
        rc = main(
            [
                "bench",
                "--scenarios",
                "normal",
                "--models",
                "ranknet,nn-mse",
                "--n",
                "200",
                "--d",
                "3",
                "--repetitions",
                "1",
                "--epochs",
                "2",
                "--batch-size",
                "64",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert rc == 0
        results = json.loads((out_dir / "results.json").read_text())
        assert results["version"] == "cairo-bench-v1"
        assert results["config"]["n"] == 200
        assert len(results["raw"]) == 2
        assert (out_dir / "table1.csv").exists()
        assert (out_dir / "table1.csv.meta.json").exists()
