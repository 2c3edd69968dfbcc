import argparse
import csv
import json
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cairoreg.bench import BenchConfig, result_to_dict, run_bench
from cairoreg.cli import OPTIONS, build_parser, main
from cairoreg.data import TARGET_COLUMN, SplitSpec, load_csv, split, usable_cpus, write_csv
from cairoreg.dgp import Scenario, ScenarioSpec, generate
from cairoreg.isotonic import audit_autocalibration
from cairoreg.isotonic import predict as calibration_predict
from cairoreg.losses import PairwiseSurrogate, SoftGini
from cairoreg.metrics import METRICS, MetricError
from cairoreg.pipeline import (
    VARIANTS,
    fit_variant,
    load_model,
    mse_fit,
    predict_model,
    save_model,
    score_rows,
    variant_train_config,
)
from cairoreg.scorer import TrainConfig


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

    def test_heavy_noise_flags_fail_for_other_scenarios(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        flags = ["--scenario", "normal", "--raw-lognormal", "--lognormal-scale", "5"]
        assert main(["simulate", *flags, "--out", str(out)]) == 1
        assert "only heavy uses them" in capsys.readouterr().err
        assert not out.exists()

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
        assert obj["version"] == "cairo-model-v4"
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

    @pytest.mark.parametrize("model", ["ranknet", "nn-mse"])
    def test_eval_of_a_repetition_s_test_rows_gives_its_raw_entry(self, tmp_path, model):
        """cairo eval --model and a bench repetition build one report, to the same bits."""
        cfg = BenchConfig(
            scenarios=(Scenario.HEAVY_TAIL,),
            models=(model,),
            n=200,
            d=3,
            repetitions=2,
            base_seed=3,
            epochs=4,
            batch_size=32,
            learning_rate=0.01,
        )
        entry = result_to_dict(run_bench(cfg, max_workers=1))["raw"][1]
        seed = cfg.base_seed + entry["rep"]
        ds = generate(ScenarioSpec(Scenario.HEAVY_TAIL, n=cfg.n, d=cfg.d, seed=seed))
        train_ds, test_ds = split(ds, SplitSpec(cfg.train_fraction, seed=seed))
        fitted = fit_variant(model, train_ds, variant_train_config(model, seed, cfg.hyper(model)))
        data, model_path, out = tmp_path / "test.csv", tmp_path / "m.json", tmp_path / "r.json"
        write_csv(test_ds, data)
        save_model(fitted, model_path)
        args = ["eval", "--data", str(data), "--model", str(model_path), "--out", str(out)]
        assert main(args) == 0
        report = json.loads(out.read_text())
        assert [report[m] for m in METRICS] == [entry[m] for m in METRICS]

    def test_eval_rejects_a_non_finite_metric(self, tmp_path, capsys):
        # targets near 1e200 against their negatives: the squared errors overflow
        big = tmp_path / "big.csv"
        pred = tmp_path / "pred.csv"
        y = (1e200 * (1.0 + np.arange(20) / 20)).tolist()
        big.write_text("x1,__target\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(y)))
        pred.write_text("prediction\n" + "".join(f"{-v!r}\n" for v in y))
        out = tmp_path / "report.json"
        capsys.readouterr()
        with np.errstate(over="ignore"):
            rc = main(["eval", "--data", str(big), "--pred", str(pred), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: invalid rmse: inf")
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, constant", [("pred", "prediction"), ("pred", "target"), ("model", "target")]
    )
    def test_an_undefined_metric_names_the_eval_s_inputs(self, tmp_path, capsys, source, constant):
        """A constant prediction or target column fails naming --data and --model or --pred."""
        data = _simulate(tmp_path)
        ds = load_csv(data)
        if constant == "target":
            data = tmp_path / "flat.csv"
            write_csv(replace(ds, targets=np.ones(ds.n)), data)
        if source == "model":
            given_path = _fit(tmp_path, _simulate(tmp_path, "train.csv", seed=2))
        else:
            given_path = tmp_path / "pred.csv"
            yhat = np.zeros(ds.n) if constant == "prediction" else ds.targets
            given_path.write_text("prediction\n" + "".join(f"{v!r}\n" for v in yhat.tolist()))
        out = tmp_path / "report.json"
        args = ["eval", "--data", str(data), f"--{source}", str(given_path), "--out", str(out)]
        capsys.readouterr()
        assert main(args) == 1
        want = f"error: undefined correlation: constant input; data {data}, {source} {given_path}\n"
        assert capsys.readouterr().err == want
        assert not out.exists()

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
            err = capsys.readouterr().err
            assert "missing ['x1']" in err and f"data {renamed}, model {model_path}" in err
            assert not (tmp_path / f"c.{ext}").exists()

    def test_a_csv_that_does_not_fit_the_command_fails_naming_its_files(self, tmp_path, capsys):
        data = _simulate(tmp_path, n=4)
        model_path = _fit(tmp_path, data, model="nn-mse")
        target_only = tmp_path / "target-only.csv"
        target_only.write_text("__target\n1\n2\n3\n4\n")
        short = tmp_path / "short.csv"
        short.write_text("prediction\n1\n2\n")
        out = tmp_path / "out"
        model = ["--model", str(model_path)]
        columns = (
            "feature columns differ from the model's: missing ['x1', 'x2', 'x3'], unexpected [];"
            f" data {target_only}, model {model_path}"
        )
        for args, says in (
            (
                ["fit", "--data", str(target_only), "--model", "ranknet"],
                f"no feature columns in {target_only}",
            ),
            (["predict", *model, "--data", str(target_only)], columns),
            (["eval", *model, "--data", str(target_only)], columns),
            (
                ["eval", "--pred", str(short), "--data", str(data)],
                f"row mismatch: 2 predictions in {short} vs 4 data rows in {data}",
            ),
        ):
            capsys.readouterr()
            assert main([*args, "--out", str(out)]) == 1, args
            assert capsys.readouterr().err == f"error: {says}\n"
            assert not out.exists()
        # a predictions file needs no feature columns
        pred = tmp_path / "pred.csv"
        pred.write_text("prediction\n4\n3\n2\n1\n")
        args = ["eval", "--pred", str(pred), "--data", str(target_only)]
        assert main([*args, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["kendall"] == -1.0

    def test_duplicate_column_names_rejected(self, tmp_path, capsys):
        data = _simulate(tmp_path, d=2)
        model_path = _fit(tmp_path, data)
        rows = list(csv.reader(data.open()))
        dup = tmp_path / "dup.csv"
        with dup.open("w", newline="") as fh:
            csv.writer(fh).writerows([["x1", "x1", *rows[0][2:]], *rows[1:]])
        pred = tmp_path / "pred.csv"
        with pred.open("w", newline="") as fh:
            csv.writer(fh).writerows([["prediction"] * 2, *(r[:2] for r in rows[1:])])
        out = str(tmp_path / "out")
        for args in (
            ["fit", "--data", str(dup), "--model", "ranknet", "--epochs", "1", "--out", out],
            ["predict", "--model", str(model_path), "--data", str(dup), "--out", out],
            ["eval", "--model", str(model_path), "--data", str(dup), "--out", out],
            ["eval", "--pred", str(pred), "--data", str(data), "--out", out],
        ):
            capsys.readouterr()
            assert main(args) == 1, args
            assert "duplicate column names" in capsys.readouterr().err, args

    @pytest.mark.parametrize("fault", ["undecodable-byte", "oversized-field"])
    def test_unreadable_csv_fails_naming_the_file(self, tmp_path, capsys, fault):
        data = _simulate(tmp_path, n=600, d=8)  # 10 columns with __target and __true_mean
        model_path = _fit(tmp_path, data, extra=("--epochs", "1"))
        lines = data.read_bytes().split(b"\n")
        if fault == "undecodable-byte":  # the text layer's decode chunk ends lines earlier
            lines[401] = b"\xff" + lines[401][1:]
        else:  # over csv's default field size limit of 131072 characters
            lines[401] = b"1" * 131073 + lines[401]
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        args = ["predict", "--model", str(model_path), "--data", str(bad)]
        assert main([*args, "--out", str(tmp_path / "p.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {bad}, stopped at line ")
        if fault == "undecodable-byte":
            assert err.startswith(f"error: cannot read {bad}, stopped at line 402, column 1: ")

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
        ds = load_csv(data)
        for model_name in ("ranknet", "nn-mse"):
            plot_path = tmp_path / f"{model_name}.plot.csv"
            model_path = _fit(tmp_path, data, model_name, ("--emit-plot-data", str(plot_path)))
            rows = list(csv.reader(plot_path.open()))
            assert rows[0] == ["score", "target", "calibrated"]
            assert len(rows) == 121
            score, target, calibrated = np.array(rows[1:], dtype=np.float64).T
            model = load_model(model_path)
            want = predict_model(model, ds.features)
            np.testing.assert_array_equal(target, ds.targets)
            np.testing.assert_array_equal(calibrated, want)
            if model_name == "nn-mse":
                np.testing.assert_array_equal(score, want)
            else:  # the ranking score, which the calibration map takes to the prediction
                np.testing.assert_array_equal(calibration_predict(model.calibration, score), want)


@pytest.fixture(scope="module")
def small_bundles(tmp_path_factory):
    """A 2-epoch ranknet and nn-mse fitted on 300 heavy-tail rows, with their data."""
    tmp = tmp_path_factory.mktemp("bundles")
    data = _simulate(tmp, n=300, scenario="heavy")
    return data, {m: _fit(tmp, data, m, ("--epochs", "2")) for m in ("ranknet", "nn-mse")}


@pytest.mark.parametrize(
    "model, path, value",
    [
        ("ranknet", ("calibration", "fitted", -1), float("nan")),
        ("ranknet", ("calibration", "knots", -1), float("nan")),
        ("ranknet", ("standardizer", "std", 0), 0.0),
        ("ranknet", ("standardizer", "mean", 0), float("inf")),
        ("ranknet", ("scorer", "vector", 0), float("nan")),
        ("ranknet", ("loss",), {"objective": "pointwise-mse"}),  # a cairo model ranks
    ],
    ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_corrupt_bundle_values_fail_to_load(small_bundles, tmp_path, capsys, model, path, value):
    data, bundles = small_bundles
    obj = json.loads(bundles[model].read_text())
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    mutant = tmp_path / "mutant.json"
    mutant.write_text(json.dumps(obj))
    capsys.readouterr()
    out = tmp_path / "p.csv"
    assert main(["predict", "--model", str(mutant), "--data", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: corrupt bundle:") and str(mutant) in err


@pytest.mark.parametrize(
    "option, text, says",
    [
        ("--model", "[1]", "a model bundle is a JSON object, not a list"),
        ("--model", "{", "is not JSON: Expecting property name"),
        ("--config", "{", "is not JSON: Expecting property name"),
        ("--config", "[1]", "must hold a JSON object"),
    ],
    ids=["bundle-list", "bundle-not-json", "config-not-json", "config-list"],
)
def test_file_that_is_not_a_json_object_fails_saying_so(
    small_bundles, tmp_path, capsys, option, text, says
):
    data, bundles = small_bundles
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    model = bad if option == "--model" else bundles["ranknet"]
    predict = ["predict", "--model", str(model), "--data", str(data)]
    config = ["--config", str(bad)] if option == "--config" else []
    capsys.readouterr()
    assert main([*predict, *config, "--out", str(tmp_path / "p.csv")]) == 1
    err = capsys.readouterr().err
    assert says in err and str(bad) in err


# What a mutation sets an entry to: every JSON kind, the two non-finite floats, and
# an integer beyond float64's range.
_WRONG_VALUES = (True, "x", None, {}, float("nan"), float("inf"), 10**400)


def _mutations(bundle):
    """(path, edit) for every mutation of a bundle; edit changes a copy of it in place.

    Each entry is deleted or set to each of _WRONG_VALUES, each list is made one
    entry longer and one shorter, and the calibration knots and fitted values get
    their ends swapped. Lists are mutated at their first and last entry. config
    and the entries of feature_names are left out: renaming a feature makes a
    valid bundle for other columns.
    """

    def at(obj, path):
        for key in path:
            obj = obj[key]
        return obj

    def walk(node, path):
        if isinstance(node, list):
            keys = sorted({0, len(node) - 1}) if node and path != ("feature_names",) else []
            yield path, lambda b, p=path: at(b, p).append(at(b, p)[-1])
            yield path, lambda b, p=path: at(b, p).pop()
            if path[-1] in ("knots", "fitted"):
                yield path, lambda b, p=path: at(b, p).insert(0, at(b, p).pop())
        elif isinstance(node, dict):
            keys = [k for k in node if path or k != "config"]
        else:
            return
        for key in keys:
            child = (*path, key)
            yield child, lambda b, p=path, k=key: at(b, p).pop(k)
            for value in _WRONG_VALUES:
                yield child, lambda b, p=path, k=key, v=value: at(b, p).__setitem__(k, v)
            yield from walk(node[key], child)

    yield from walk(bundle, ())


@pytest.fixture(scope="module")
def probe_bundles(tmp_path_factory):
    """2-epoch bundles of three variants fitted on 600 heavy-tail rows with d=4, with their data."""
    tmp = tmp_path_factory.mktemp("probe")
    data = _simulate(tmp, n=600, d=4, scenario="heavy")
    models = ("ranknet", "gininet-softrank", "nn-mse")
    return data, {m: _fit(tmp, data, m, ("--epochs", "2")) for m in models}


@pytest.mark.parametrize("model", ["ranknet", "gininet-softrank", "nn-mse"])
def test_every_bundle_mutant_predicts_the_same_or_names_its_path(
    probe_bundles, tmp_path, capsys, model
):
    data, bundles = probe_bundles
    text = bundles[model].read_text()
    out, mutant = tmp_path / "p.csv", tmp_path / "mutant.json"
    predict = ["predict", "--model", str(mutant), "--data", str(data), "--out", str(out)]
    mutant.write_text(text)
    assert main(predict) == 0
    want = out.read_bytes()
    bad = []
    for path, edit in _mutations(json.loads(text)):
        bundle = json.loads(text)
        edit(bundle)
        mutant.write_text(json.dumps(bundle))
        out.unlink(missing_ok=True)
        capsys.readouterr()
        rc = main(predict)
        err = capsys.readouterr().err
        if rc == 0:
            if out.read_bytes() != want:
                bad.append((path, "exit 0 with different predictions"))
            continue
        # the error names the mutated entry, an object holding it, or an entry inside it
        named = err.removeprefix("error: corrupt bundle: ").split(" ")[0].rstrip(":").split(".")
        depth = min(len(named), len(path))
        on_path = err.startswith("error: corrupt bundle: ") and named[:depth] == [
            str(k) for k in path[:depth]
        ]
        version = path[-1] == "version" and "unsupported" in err
        if rc != 1 or not (on_path or version) or str(mutant) not in err:
            bad.append((path, rc, err.strip()))
    assert not bad, bad[:10]


@pytest.mark.parametrize(
    "model, flag, value",
    [
        ("gininet-softrank", "--temperature", "inf"),
        ("ranknet", "--sigma", "inf"),
        ("ranknet", "--learning-rate", "-0.01"),
        ("ranknet", "--learning-rate", "nan"),
        ("ranknet", "--learning-rate", "inf"),
        # values that the fitted variant does not use are checked too
        ("ranknet", "--temperature", "nan"),
        ("nn-mse", "--sigma", "-1"),
    ],
)
def test_non_finite_or_negative_hyperparameter_fails_naming_it(
    tmp_path, capsys, model, flag, value
):
    data = _simulate(tmp_path)
    out = tmp_path / "m.json"
    capsys.readouterr()
    args = ["fit", "--data", str(data), "--model", model, "--epochs", "1", "--out", str(out)]
    assert main([*args, flag, value]) == 1
    option = flag.removeprefix("--").replace("-", "_")
    assert capsys.readouterr().err.startswith(f"error: {option} must be finite")
    assert not out.exists()


@pytest.mark.parametrize("model", ["ranknet", "ranknet-giniw", "gininet-softrank", "nn-mse"])
def test_diverging_training_names_its_epoch_and_batch(tmp_path, capsys, model):
    data = _simulate(tmp_path)
    out = tmp_path / "m.json"
    capsys.readouterr()
    args = ["fit", "--data", str(data), "--model", model, "--epochs", "3", "--batch-size", "64"]
    with np.errstate(all="ignore"):
        assert main([*args, "--learning-rate", "1e300", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: training diverged at epoch 0, batch ")
    assert not out.exists()


# One Adam step of this learning rate on 300 rows makes the scorer overflow.
_OVERFLOW = {"epochs": 1, "batch_size": 1000, "learning_rate": 1e308}


def _fit_to_overflow(tmp_path, model, *extra):
    """Fit _OVERFLOW on 300 rows; return the exit code."""
    data = _simulate(tmp_path, n=300, d=3, seed=0)
    args = ["fit", "--data", str(data), "--model", model, "--out", str(tmp_path / "m.json")]
    for key, value in _OVERFLOW.items():
        args += ["--" + key.replace("_", "-"), str(value)]
    with np.errstate(all="ignore"):
        return main([*args, *extra])


def test_ranking_fit_that_overflows_at_its_last_step_fails_saying_so(tmp_path, capsys):
    capsys.readouterr()
    assert _fit_to_overflow(tmp_path, "ranknet") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged at its last step: non-finite score")
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("plot", [False, True])
def test_mse_fit_that_overflows_at_its_last_step_writes_nothing(tmp_path, capsys, plot):
    capsys.readouterr()
    plot_csv = tmp_path / "points.csv"
    extra = ["--emit-plot-data", str(plot_csv)] if plot else []
    assert _fit_to_overflow(tmp_path, "nn-mse", *extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged at its last step: non-finite prediction")
    assert not (tmp_path / "m.json").exists() and not plot_csv.exists()


def test_mse_fit_on_targets_whose_spread_overflows_float64_fits(tmp_path, capsys, recwarn):
    """Targets within float64 whose standard deviation is not; both kinds of fit take them."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((300, 3))
    y = 1e306 * np.tanh(X[:, 0] + 0.3 * rng.standard_normal(300))
    data = tmp_path / "huge.csv"
    rows = "".join(",".join(map(repr, [*x.tolist(), t])) + "\n" for x, t in zip(X, y.tolist()))
    data.write_text("x1,x2,x3,__target\n" + rows)
    args = ["fit", "--data", str(data), "--epochs", "2", "--out"]
    capsys.readouterr()
    assert main([*args, str(tmp_path / "r.json"), "--model", "ranknet"]) == 0
    out, preds = tmp_path / "m.json", tmp_path / "p.csv"
    assert main([*args, str(out), "--model", "nn-mse"]) == 0
    assert main(["predict", "--model", str(out), "--data", str(data), "--out", str(preds)]) == 0
    yhat = np.loadtxt(preds, delimiter=",", skiprows=1)
    assert yhat.shape == (300,) and np.isfinite(yhat).all()
    assert not recwarn.list, [str(w.message) for w in recwarn.list]


def test_ranking_fit_on_targets_whose_sum_overflows_fails_naming_them(tmp_path, capsys, recwarn):
    """Targets near 1.5e306 on rows of a few distinct feature values.

    Their mean is finite, but the sum of the targets of one tied score is not.
    """
    rng = np.random.default_rng(0)
    x = np.round(rng.standard_normal(300)).tolist()
    y = (1.5e306 * (1.0 + 0.01 * rng.random(300))).tolist()
    data = tmp_path / "huge.csv"
    data.write_text("x1,x2,__target\n" + "".join(f"{a!r},{a!r},{t!r}\n" for a, t in zip(x, y)))
    out = tmp_path / "m.json"
    capsys.readouterr()
    args = ["fit", "--data", str(data), "--model", "ranknet", "--epochs", "2", "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: targets too large to calibrate: ")
    assert not out.exists()
    assert not recwarn.list, [str(w.message) for w in recwarn.list]


def test_predict_rejects_a_scorer_that_overflows(tmp_path, capsys):
    """cairo fit writes no such bundle, but the library's mse_fit still returns the model."""
    data = _simulate(tmp_path, n=300, d=3, seed=0)
    with np.errstate(all="ignore"):
        save_model(mse_fit(load_csv(data), TrainConfig(**_OVERFLOW)), tmp_path / "m.json")
    out = tmp_path / "preds.csv"
    args = ["predict", "--model", str(tmp_path / "m.json"), "--data", str(tmp_path / "data.csv")]
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: non-finite prediction: 300 of 300 rows")
    assert not out.exists()


# What a config mutation sets a value to: every JSON kind, NaN, the edges of the
# range checks, and an integer beyond float64's range.
_CONFIG_VALUES = (None, True, "x", [1], {}, float("nan"), -1, 0, 0.5, 10**400)
# Valid mutants left out because they would make a run long.
_LONG_MUTANTS = (("epochs", 10**400),)


def test_every_config_mutant_runs_or_names_its_key(tmp_path, capsys):
    """Each value of a fit config, and each override of a bench config, set to each of
    _CONFIG_VALUES.

    A mutant exits 0, or exits 1 with an error line that names its key path.
    A message may name the key in words ("missing target column"). An
    override of the right type that the fit then rejects fails when the
    bench config is built: that message starts with the model's
    overrides path, and its cause names the key.
    """
    data = _simulate(tmp_path)
    cfg = tmp_path / "cfg.json"
    hyper = {"epochs": 1, "batch_size": 64, "learning_rate": 0.01, "sigma": 1.0, "temperature": 0.1}
    fit = {"model": "ranknet", "target_column": TARGET_COLUMN, **hyper, "seed": 0}
    bench = {"scenarios": ["normal"], "models": ["ranknet"], "n": 600, "d": 3, "repetitions": 1}
    commands = {
        "fit": ["fit", "--data", str(data), "--out", str(tmp_path / "m.json")],
        "bench": ["bench", "--out-dir", str(tmp_path / "bench")],
    }
    mutants = [("fit", fit, key, (key,)) for key in fit]
    mutants += [("bench", bench, key, ("overrides", "ranknet", key)) for key in hyper]
    bad = []
    for command, base, key, path in mutants:
        for value in _CONFIG_VALUES:
            if (key, value) in _LONG_MUTANTS:
                continue
            config = json.loads(json.dumps({**base, "overrides": {"ranknet": hyper}}))
            if command == "fit":
                del config["overrides"]
            node = config
            for k in path[:-1]:
                node = node[k]
            node[key] = value
            cfg.write_text(json.dumps(config))
            capsys.readouterr()
            with np.errstate(all="ignore"):
                rc = main([*commands[command], "--config", str(cfg)])
            err = capsys.readouterr().err
            if rc == 0:
                continue
            line = err.strip().splitlines()[-1] if err.strip() else ""
            dotted = ".".join(path)
            named = dotted in line or key.replace("_", " ") in line
            if command == "bench":
                named |= line.startswith("error: overrides.ranknet: ") and key in line
            if rc != 1 or not line.startswith("error: ") or not named:
                bad.append((command, dotted, value, rc, line))
    assert not bad, bad


@pytest.mark.parametrize("command", ["simulate", "fit", "bench"])
def test_negative_seed_fails_naming_its_option(tmp_path, capsys, command):
    data, out = _simulate(tmp_path), str(tmp_path / "out")
    args, option = {
        "simulate": (["simulate", "--seed", "-1", "--out", out], "seed"),
        "fit": (
            ["fit", "--data", str(data), "--model", "ranknet", "--seed", "-1", "--out", out],
            "seed",
        ),
        "bench": (["bench", "--base-seed", "-1", "--out-dir", out], "base_seed"),
    }[command]
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr().err.startswith(f"error: {option} must be >= 0, got -1")


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


    def test_integer_options_are_not_truncated(self, tmp_path, capsys):
        data = _simulate(tmp_path)
        fit = ["fit", "--data", str(data), "--model", "ranknet", "--out", str(tmp_path / "m.json")]
        bench = ["bench", "--scenarios", "normal", "--models", "ranknet", "--n", "200"]
        bench += ["--repetitions", "1", "--out-dir", str(tmp_path / "bench")]
        bare_bench = ["bench", "--out-dir", str(tmp_path / "bench")]  # no flag hides the config
        simulate = ["simulate", "--n", "50", "--out", str(tmp_path / "sim.csv")]
        cfg = tmp_path / "cfg.json"
        overrides_shape = "overrides must map model names to objects of FitHyper keys"
        for command, bad, message in (
            (fit, {"epochs": 2.7}, "epochs must be an integer"),
            (fit, {"seed": 1.9}, "seed must be an integer"),
            (fit, {"batch_size": True}, "batch_size must be an integer"),
            (fit, {"sigma": True}, "sigma must be a number"),
            (fit, {"learning_rate": "abc"}, "learning_rate: could not convert"),
            (simulate, {"raw_lognormal": "false"}, "raw_lognormal must be true or false"),
            (bare_bench, {"n": "abc"}, "n: invalid literal for int()"),
            (bare_bench, {"scenarios": ["bogus"]}, "scenarios: 'bogus' is not a valid Scenario"),
            (
                bench,
                {"overrides": {"ranknet": {"epochs": 1.7}}},
                "overrides.ranknet.epochs must be an integer",
            ),
            (
                bench,
                {"overrides": {"ranknet": {"epochs": "abc"}}},
                "overrides.ranknet.epochs: invalid literal for int()",
            ),
            (bench, {"overrides": {"ranknet": 5}}, overrides_shape),
            (bench, {"overrides": [1]}, overrides_shape),
        ):
            cfg.write_text(json.dumps(bad))
            capsys.readouterr()
            assert main([*command, "--config", str(cfg)]) == 1, bad
            assert message in capsys.readouterr().err
        cfg.write_text(json.dumps({"epochs": 2.0}))
        assert main([*fit, "--config", str(cfg)]) == 0
        assert json.loads((tmp_path / "m.json").read_text())["config"]["epochs"] == 2

    def test_rank_weights_full_set_is_not_an_option(self, tmp_path):
        data = _simulate(tmp_path)
        fit = ["fit", "--data", str(data), "--model", "ranknet", "--out", str(tmp_path / "m.json")]
        with pytest.raises(SystemExit) as exc:
            main([*fit, "--rank-weights-full-set"])
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rank_weights_full_set": True}))
        assert main([*fit, "--config", str(cfg)]) == 1

    def test_calibration_fraction_is_not_an_option(self, tmp_path, capsys):
        """Stage 2 always calibrates on the scorer's training rows; no flag or key splits them."""
        data = _simulate(tmp_path)
        out = tmp_path / "m.json"
        fit = ["fit", "--data", str(data), "--model", "ranknet", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main([*fit, "--calibration-fraction", "0.5"])
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"calibration_fraction": None}))
        capsys.readouterr()
        assert main([*fit, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: unknown config keys: ['calibration_fraction']\n"
        assert not out.exists()


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
        train = TrainConfig()
        assert config == {
            "model": "ranknet",
            "data": str(data),
            "target_column": TARGET_COLUMN,
            "epochs": train.epochs,
            "batch_size": train.batch_size,
            "learning_rate": train.learning_rate,
            "sigma": PairwiseSurrogate().sigma,
            "temperature": SoftGini().temperature,
            "seed": train.seed,
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
        assert f"default: {TrainConfig().learning_rate}" in text
        assert f"default: {TrainConfig().batch_size}" in text


class TestBenchCommand:
    def test_default_thread_count_is_the_usable_cpu_count(self, monkeypatch, capsys):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3, 4}, raising=False)
        assert build_parser().parse_args(["bench", "--out-dir", "b"]).threads == usable_cpus() == 3
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        assert "default: one per usable CPU (3 here)" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("threads", [0, -3])
    def test_worker_count_below_one_fails_naming_the_option(
        self, tmp_path, capsys, monkeypatch, threads
    ):
        generated = []
        monkeypatch.setattr("cairoreg.bench.generate", lambda spec: generated.append(spec))
        args = ["bench", "--scenarios", "normal", "--models", "nn-mse", "--n", "200"]
        args += ["--repetitions", "1", "--epochs", "1", "--out-dir", str(tmp_path / "bench")]
        capsys.readouterr()
        assert main([*args, "--threads", str(threads)]) == 1
        assert capsys.readouterr().err == f"error: threads must be >= 1, got {threads}\n"
        assert not generated and not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("under", ["", "sub"])
    def test_an_out_dir_that_is_or_lies_in_a_file_fails_before_the_run(
        self, tmp_path, capsys, monkeypatch, under
    ):
        generated = []
        monkeypatch.setattr("cairoreg.bench.generate", lambda spec: generated.append(spec))
        (tmp_path / "f").touch()
        out_dir = tmp_path / "f" / under
        args = ["bench", "--scenarios", "normal", "--models", "nn-mse", "--n", "200"]
        args += ["--repetitions", "1", "--epochs", "1", "--threads", "1", "--out-dir", str(out_dir)]
        capsys.readouterr()
        assert main(args) == 1
        says = f"error: out_dir {out_dir} cannot be made: {tmp_path / 'f'} is not a directory\n"
        assert capsys.readouterr().err == says
        assert not generated

    def test_smoke(self, tmp_path, capsys, monkeypatch):
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

        # a repetition that fails, as one whose predictions are constant does
        def constant(a, b):
            raise MetricError("undefined correlation: constant input")

        monkeypatch.setattr("cairoreg.bench.spearman", constant)
        failed = tmp_path / "failed"
        capsys.readouterr()
        args = ["bench", "--scenarios", "normal", "--models", "ranknet", "--n", "200"]
        args += ["--repetitions", "1", "--epochs", "1", "--threads", "1", "--out-dir", str(failed)]
        assert main(args) == 1
        assert "constant input" in capsys.readouterr().err
        assert not failed.exists(), "a failed bench leaves its --out-dir behind"


@settings(max_examples=6, deadline=None)
@given(
    model=st.sampled_from(sorted(v for v in VARIANTS if v != "nn-mse")),
    scenario=st.sampled_from([s.value for s in Scenario]),
    seed=st.integers(0, 2**16),
    batch_size=st.sampled_from([32, 64]),
    n=st.integers(100, 400),
    epochs=st.integers(2, 3),
)
def test_every_ranking_bundle_is_auto_calibrated_on_its_training_rows(
    model, scenario, seed, batch_size, n, epochs
):
    """Each calibration level of a saved bundle is the mean of its training rows' targets.

    The fit runs through the CLI and the bundle is read back with load_model;
    the residual is rounding error relative to max|y|.
    """
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "data.csv", Path(tmp) / "m.json"
        sim = ["--scenario", scenario, "--n", str(n), "--d", "3", "--seed", str(seed)]
        assert main(["simulate", *sim, "--out", str(data)]) == 0
        fit = ["--model", model, "--epochs", str(epochs), "--batch-size", str(batch_size)]
        assert main(["fit", "--data", str(data), *fit, "--seed", str(seed), "--out", str(out)]) == 0
        bundle = load_model(out)
        ds = load_csv(data)
    scores = score_rows(bundle.scorer, bundle.standardizer, ds.features)
    report = audit_autocalibration(bundle.calibration, scores, ds.targets)
    assert report.max_abs_block_residual <= 1e-9 * max(1.0, np.abs(ds.targets).max())
