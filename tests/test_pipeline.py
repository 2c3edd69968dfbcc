import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import pav_fit_unpruned

import cairoreg
from cairoreg import pipeline
from cairoreg.data import (
    DataError,
    Dataset,
    SplitSpec,
    Standardizer,
    apply_standardizer,
    column_moments,
    config_to_dict,
    fit_standardizer,
    make_rng,
    split,
)
from cairoreg.dgp import Scenario, ScenarioSpec, generate
from cairoreg.isotonic import audit_autocalibration, pav_fit
from cairoreg.isotonic import predict as calibration_predict
from cairoreg.losses import PairwiseSurrogate, PointwiseMse, SoftGini, WeightVariant
from cairoreg.pipeline import (
    SCORE_CHUNK_ROWS,
    VARIANTS,
    CairoModel,
    FitHyper,
    cairo_fit,
    fit_variant,
    load_model,
    model_from_dict,
    model_to_dict,
    mse_fit,
    predict_model,
    save_model,
    score_rows,
    variant_loss_spec,
    variant_train_config,
)
from cairoreg.scorer import TrainConfig, Workspace, forward, init_params, train


def _quick_cfg(**kw):
    base = dict(epochs=8, batch_size=64, seed=0)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def normal_model():
    ds = generate(ScenarioSpec(Scenario.NORMAL, n=400, d=4, seed=1))
    loss = PairwiseSurrogate(WeightVariant.UNIFORM, 1.0)
    return ds, cairo_fit(ds, loss, _quick_cfg())


class TestCairoFit:
    def test_training_set_is_auto_calibrated(self, normal_model):
        ds, model = normal_model
        scores, _ = forward(model.scorer, model.standardizer.transform(ds.features))
        report = audit_autocalibration(model.calibration, scores, ds.targets)
        assert report.max_abs_block_residual < 1e-9

    def test_deterministic(self):
        ds = generate(ScenarioSpec(Scenario.NORMAL, n=200, d=3, seed=2))
        loss = SoftGini(0.1)
        test_X = make_rng(3).standard_normal((20, 3))
        a = predict_model(cairo_fit(ds, loss, _quick_cfg(seed=5)), test_X)
        b = predict_model(cairo_fit(ds, loss, _quick_cfg(seed=5)), test_X)
        np.testing.assert_array_equal(a, b)

    def test_rejects_pointwise_loss(self):
        ds = generate(ScenarioSpec(Scenario.NORMAL, n=100, d=3, seed=0))
        with pytest.raises(ValueError, match="ranking objective"):
            cairo_fit(ds, PointwiseMse(), _quick_cfg())

    def test_calibration_fraction_uses_heldout_slice(self):
        ds = generate(ScenarioSpec(Scenario.NORMAL, n=300, d=3, seed=4))
        loss = PairwiseSurrogate(WeightVariant.UNIFORM, 1.0)
        full = cairo_fit(ds, loss, _quick_cfg())
        held = cairo_fit(ds, loss, _quick_cfg(), calibration_fraction=0.25)
        calib = split(ds, SplitSpec(train_fraction=1.0 - 0.25, seed=_quick_cfg().seed))[1]
        on_slice = pav_fit(score_rows(held.scorer, held.standardizer, calib.features), calib.targets)
        scores = score_rows(held.scorer, held.standardizer, ds.features)
        got = calibration_predict(held.calibration, scores)
        assert got.tobytes() == calibration_predict(on_slice, scores).tobytes()
        on_all = pav_fit(scores, ds.targets)
        assert got.tobytes() != calibration_predict(on_all, scores).tobytes()
        # scorers trained on different subsets differ
        assert not np.array_equal(held.scorer.W1, full.scorer.W1)

    @pytest.mark.parametrize(
        "fraction, message",
        [
            # 1 - 1e-17 rounds to 1.0: every row would train the scorer, none calibrate
            (1e-17, "leaves 300 of 300 rows to train the scorer and 0 to calibrate"),
            (0.995, "leaves 1 of 300 rows to train the scorer and 299 to calibrate"),
        ],
    )
    def test_calibration_fraction_too_extreme_for_the_rows(self, fraction, message):
        ds = generate(ScenarioSpec(Scenario.NORMAL, n=300, d=3, seed=4))
        full = f"^calibration_fraction={fraction} {message}; the scorer needs at least 2"
        with mock.patch.object(pipeline, "train", side_effect=AssertionError("trained")):
            with pytest.raises(ValueError, match=full):
                cairo_fit(ds, PairwiseSurrogate(), _quick_cfg(), calibration_fraction=fraction)


# strictly increasing maps of the targets
_MONOTONE = {
    "affine": lambda y: 7.0 * y - 2.0,
    "cube": lambda y: y**3,
    "log1p": np.log1p,
    "exp": lambda y: np.exp(y / 8.0),
}


@pytest.mark.parametrize("g", list(_MONOTONE))
@given(n=st.integers(2, 60), levels=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_uniform_ranknet_scorer_sees_only_the_target_order(g, n, levels, seed):
    """Order, not scale: y and g(y) give a bitwise-identical uniform-RankNet scorer.

    Its pair weights and cotangents use only the signs of target differences.
    The GiniW and soft-Gini variants use target values, so their scorers
    differ under these maps; that is expected and not asserted here.
    """
    rng = make_rng(seed)
    X = rng.standard_normal((n, 3))
    y = (rng.lognormal(size=levels) * 5.0)[rng.integers(0, levels, size=n)]  # tied targets
    gy = _MONOTONE[g](y)
    assume(np.array_equal(np.sign(np.subtract.outer(y, y)), np.sign(np.subtract.outer(gy, gy))))
    loss = PairwiseSurrogate(WeightVariant.UNIFORM, 1.0)
    cfg = _quick_cfg(epochs=3, batch_size=16, seed=seed % 1000)
    a = cairo_fit(Dataset(X, y), loss, cfg).scorer.vector
    b = cairo_fit(Dataset(X, gy), loss, cfg).scorer.vector
    assert a.tobytes() == b.tobytes()


class TestCairoPredict:
    def test_training_rows_map_to_fitted_values(self, normal_model):
        ds, model = normal_model
        preds = predict_model(model, ds.features)
        scores, _ = forward(model.scorer, model.standardizer.transform(ds.features))
        from cairoreg.isotonic import predict as cal_predict

        np.testing.assert_array_equal(preds, cal_predict(model.calibration, scores))

    def test_order_preserved_in_score(self, normal_model):
        ds, model = normal_model
        X = make_rng(7).standard_normal((200, ds.d))
        scores, _ = forward(model.scorer, model.standardizer.transform(X))
        preds = predict_model(model, X)
        order = np.argsort(scores)
        assert np.all(np.diff(preds[order]) >= 0)

    def test_equal_rows_equal_predictions(self, normal_model):
        ds, model = normal_model
        x = ds.features[:1]
        preds = predict_model(model, np.vstack([x, x]))
        assert preds[0] == preds[1]

    def test_bounded_by_fitted_range(self, normal_model):
        ds, model = normal_model
        X = 100.0 * make_rng(8).standard_normal((50, ds.d))
        preds = predict_model(model, X)
        lo, hi = model.calibration.fitted[0], model.calibration.fitted[-1]
        assert np.all(preds >= lo) and np.all(preds <= hi)

    def test_shape_mismatch(self, normal_model):
        _, model = normal_model
        with pytest.raises(ValueError):
            predict_model(model, np.zeros((3, 99)))


class TestPredictionInput:
    @pytest.fixture(scope="class")
    def models(self, normal_model):
        ds, cairo_model = normal_model
        return ds, [cairo_model, mse_fit(ds, _quick_cfg())]

    def test_wrong_column_count(self, models):
        ds, fitted = models
        for model in fitted:
            with pytest.raises(ValueError, match="model expects 4 features, data has 3"):
                predict_model(model, ds.features[:, :3])

    def test_non_finite_feature(self, models):
        ds, fitted = models
        X = ds.features[:5].copy()
        X[2, 1] = np.nan
        for model in fitted:
            with pytest.raises(ValueError, match="non-finite feature"):
                predict_model(model, X)

    def test_bundle_standardizer_must_match_scorer(self, normal_model):
        _, model = normal_model
        for section, edits, match in (
            ("standardizer", {"mean": lambda v: v[:2]}, "standardizer lengths"),
            ("scorer", {"vector": lambda v: v[:-1]}, r"scorer: parameter vector has shape"),
            ("scorer", {"dims": lambda v: v[:2]}, r"scorer: dims must be three integers"),
        ):
            obj = model_to_dict(model)
            for key, edit in edits.items():
                obj[section][key] = edit(obj[section][key])
            with pytest.raises(ValueError, match=match):
                model_from_dict(obj)

    def test_bundle_feature_names_must_match_scorer(self, normal_model):
        _, model = normal_model
        for names in (None, ["x1", "x2"], ["x1", "x2", "x3", 4], ["x1", "x2", "x3", "x1"]):
            obj = model_to_dict(model)
            obj["feature_names"] = names
            with pytest.raises(ValueError, match="feature_names"):
                model_from_dict(obj)

    @pytest.mark.parametrize("variant", ["ranknet", "nn-mse"])
    def test_fit_on_repeated_feature_names_fails_before_training(self, monkeypatch, variant):
        """A dataset whose names a saved bundle could not hold is never fitted."""
        trained = []
        monkeypatch.setattr("cairoreg.pipeline.train", lambda *args: trained.append(args))
        X = make_rng(3).standard_normal((50, 2))
        cfg = _quick_cfg(loss=variant_loss_spec(variant))
        with pytest.raises(DataError, match=r"distinct.*\('a', 'a'\)"):
            fit_variant(variant, Dataset(X, X.sum(axis=1), feature_names=["a", "a"]), cfg)
        assert not trained


class TestMseBaseline:
    def test_learns_linear_target(self):
        rng = make_rng(10)
        X = rng.standard_normal((2000, 3))
        y = 2.0 * X[:, 0] + 1.0 + 0.1 * rng.standard_normal(2000)
        ds = Dataset(features=X, targets=y)
        train_ds, test_ds = split(ds, SplitSpec(0.7, seed=0))
        model = mse_fit(train_ds, TrainConfig(epochs=60, batch_size=64, seed=0))
        yhat = predict_model(model, test_ds.features)
        assert np.sqrt(np.mean((yhat - test_ds.targets) ** 2)) < 0.15

    def test_deterministic(self):
        ds = generate(ScenarioSpec(Scenario.NORMAL, n=150, d=3, seed=6))
        X = make_rng(11).standard_normal((10, 3))
        a = predict_model(mse_fit(ds, _quick_cfg(seed=1)), X)
        b = predict_model(mse_fit(ds, _quick_cfg(seed=1)), X)
        np.testing.assert_array_equal(a, b)

    def test_prediction_shape(self):
        ds = generate(ScenarioSpec(Scenario.NORMAL, n=100, d=3, seed=7))
        model = mse_fit(ds, _quick_cfg())
        assert predict_model(model, ds.features[:17]).shape == (17,)

    @pytest.mark.parametrize("scenario", [Scenario.NORMAL, Scenario.HEAVY_TAIL])
    def test_folded_output_layer_predicts_the_unfolded_scorer_on_the_target_scale(
        self, scenario
    ):
        """Oracle: the scorer trained as mse_fit trains it, then the targets' std and mean."""
        ds = generate(ScenarioSpec(scenario, n=300, d=4, seed=12))
        cfg = _quick_cfg()
        y_mean, y_std = ds.targets.mean(), ds.targets.std()
        st = fit_standardizer(ds)
        unit = replace(apply_standardizer(st, ds), targets=(ds.targets - y_mean) / y_std)
        params, _ = train(unit, replace(cfg, loss=PointwiseMse()))
        X = np.concatenate([ds.features, make_rng(13).standard_normal((200, ds.d)) * 3.0])
        want = score_rows(params, st, X) * y_std + y_mean
        got = predict_model(mse_fit(ds, cfg), X)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestVariants:
    def test_loss_specs(self):
        assert variant_loss_spec("ranknet") == PairwiseSurrogate(WeightVariant.UNIFORM, 1.0)
        assert variant_loss_spec("ranknet-giniw") == PairwiseSurrogate(
            WeightVariant.ABSOLUTE_GAP, 1.0
        )
        assert variant_loss_spec("gininet-softrank") == SoftGini(0.1)
        assert variant_loss_spec("nn-mse") == PointwiseMse()
        with pytest.raises(ValueError, match="variant"):
            variant_loss_spec("bogus")

    @pytest.mark.parametrize("targets", ["normal", "heavy", "constant", "offset"])
    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_targets_take_the_features_column_moments(self, variant, targets):
        """Every variant's scorer trains on targets standardized by the features' rule."""
        scenario = Scenario.HEAVY_TAIL if targets == "heavy" else Scenario.NORMAL
        ds = generate(ScenarioSpec(scenario, n=300, d=3, seed=16))
        if targets == "constant":
            ds = replace(ds, targets=np.full(ds.n, 2.5))
        elif targets == "offset":
            ds = replace(ds, targets=ds.targets + 1e9)
        seen = []

        def unit_train(std_ds, cfg):
            """Records the targets; w3 = 1 and b3 = 0 fold to w3 = std and b3 = mean."""
            seen.append(std_ds.targets.copy())
            params = init_params(std_ds.d, cfg.seed)
            params.w3[...], params.b3[...] = 1.0, 0.0
            return params, []

        cfg = variant_train_config(variant, 0, FitHyper(epochs=8, batch_size=64))
        with mock.patch.object(pipeline, "train", unit_train):
            model = fit_variant(variant, ds, cfg)
        mean, std = column_moments(ds.targets[:, None])
        want = Standardizer(mean, std).transform(ds.targets[:, None])[:, 0]
        assert len(seen) == 1 and seen[0].tobytes() == want.tobytes()
        if variant == "nn-mse":
            assert model.scorer.b3.tobytes() == mean.tobytes()
            assert model.scorer.w3.tobytes() == np.full(model.scorer.w3.shape, std[0]).tobytes()
        if targets == "constant":
            assert std[0] == 1.0 and not seen[0].any()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-600, 600])
    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_targets_scaled_by_a_power_of_two_scale_the_predictions_exactly(self, variant, k):
        """Far below and above the scales where the targets' squares leave float64, and
        with no numpy warning: stage 1 sees the same standardized targets at every scale."""
        ds = generate(ScenarioSpec(Scenario.NORMAL, n=200, d=3, seed=14))
        cfg = variant_train_config(variant, 0, FitHyper(epochs=4, batch_size=64))
        X = make_rng(15).standard_normal((50, ds.d)) * 2.0
        unit = predict_model(fit_variant(variant, ds, cfg), X)
        scaled = replace(ds, targets=np.ldexp(ds.targets, k))
        got = predict_model(fit_variant(variant, scaled, cfg), X)
        assert got.tobytes() == np.ldexp(unit, k).tobytes()

    def test_fit_variant_dispatch(self):
        ds = generate(ScenarioSpec(Scenario.NORMAL, n=120, d=3, seed=8))
        for name in ("ranknet", "nn-mse"):
            cfg = _quick_cfg(loss=variant_loss_spec(name))
            model = fit_variant(name, ds, cfg)
            preds = predict_model(model, ds.features)
            assert preds.shape == (ds.n,)
            assert isinstance(model, CairoModel) == (name != "nn-mse")

    def test_fit_variant_calibration_fraction(self):
        ds = generate(ScenarioSpec(Scenario.NORMAL, n=120, d=3, seed=8))
        cfg = _quick_cfg(loss=variant_loss_spec("ranknet"))
        got = fit_variant("ranknet", ds, cfg, calibration_fraction=0.25)
        want = cairo_fit(ds, cfg.loss, cfg, calibration_fraction=0.25)
        np.testing.assert_array_equal(
            predict_model(got, ds.features), predict_model(want, ds.features)
        )
        with pytest.raises(ValueError, match="only to ranking variants"):
            fit_variant("nn-mse", ds, _quick_cfg(), calibration_fraction=0.25)
        for fraction in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match=r"calibration_fraction must lie in \(0, 1\)"):
                fit_variant("ranknet", ds, cfg, calibration_fraction=fraction)

    @pytest.mark.parametrize(
        "variant, loss",
        [
            ("ranknet", SoftGini()),
            ("ranknet", PairwiseSurrogate(WeightVariant.ABSOLUTE_GAP)),
            ("ranknet-giniw", PairwiseSurrogate(WeightVariant.RANK_GAP, 2.0)),
            ("gininet-softrank", PairwiseSurrogate()),
            ("nn-mse", SoftGini()),
            ("ranknet", PointwiseMse()),
        ],
    )
    def test_fit_variant_rejects_another_objective_before_training(
        self, monkeypatch, variant, loss
    ):
        trained = []
        monkeypatch.setattr("cairoreg.pipeline.train", lambda *args: trained.append(args))
        ds = generate(ScenarioSpec(Scenario.NORMAL, n=120, d=3, seed=8))
        names_both = rf"model '{variant}' fits .*, not the configured loss {re.escape(str(loss))}$"
        with pytest.raises(ValueError, match=names_both):
            fit_variant(variant, ds, _quick_cfg(loss=loss))
        assert not trained

    def test_fit_variant_takes_the_configured_sigma_and_temperature(self):
        ds = generate(ScenarioSpec(Scenario.NORMAL, n=120, d=3, seed=8))
        for variant, loss in [
            ("ranknet-giniw", PairwiseSurrogate(WeightVariant.ABSOLUTE_GAP, 2.0)),
            ("gininet-softrank", SoftGini(0.5)),
        ]:
            cfg = _quick_cfg(epochs=1, loss=loss)
            got = fit_variant(variant, ds, cfg)
            want = cairo_fit(ds, loss, cfg)
            np.testing.assert_array_equal(
                predict_model(got, ds.features), predict_model(want, ds.features)
            )


class TestSerialization:
    def test_cairo_round_trip(self, normal_model, tmp_path):
        ds, model = normal_model
        path = tmp_path / "model.json"
        save_model(model, path, config={"note": 1})
        back = load_model(path)
        np.testing.assert_array_equal(
            predict_model(back, ds.features), predict_model(model, ds.features)
        )
        assert back.spec == model.spec
        assert back.feature_names == model.feature_names == ("x1", "x2", "x3", "x4")
        # the scorer section is the parameter vector in its documented layout, with dims
        want = {"vector": model.scorer.vector.tolist(), "dims": [4, 32, 16]}
        assert model_to_dict(model)["scorer"] == want

    def test_mse_round_trip(self, tmp_path):
        ds = generate(ScenarioSpec(Scenario.NORMAL, n=100, d=3, seed=9))
        model = mse_fit(ds, _quick_cfg())
        obj = model_to_dict(model)
        assert obj["version"] == "cairo-model-v4"
        assert "target_mean" not in obj and "target_std" not in obj
        back = model_from_dict(obj)
        np.testing.assert_array_equal(
            predict_model(back, ds.features), predict_model(model, ds.features)
        )
        assert back.feature_names == model.feature_names == ("x1", "x2", "x3")

    def test_version_guard(self):
        with pytest.raises(ValueError, match="version"):
            model_from_dict({"version": "other"})

    def test_bundle_with_a_knot_at_every_training_score_predicts_the_same(
        self, normal_model, tmp_path
    ):
        """A map that lists every training score loads and predicts as the pruned map does."""
        ds, model = normal_model
        scores = score_rows(model.scorer, model.standardizer, ds.features)
        full = pav_fit_unpruned(scores, ds.targets)
        assert full.knots.size == np.unique(scores).size > 2 * model.calibration.knots.size
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**model_to_dict(model), "calibration": config_to_dict(full)}))
        old = load_model(path)
        assert old.calibration.knots.size == full.knots.size
        X = np.concatenate([ds.features, make_rng(8).standard_normal((300, ds.d)) * 3.0])
        assert predict_model(old, X).tobytes() == predict_model(model, X).tobytes()

    @pytest.mark.parametrize("version, kind", [("v2", "cairo"), ("v3", "cairo"), ("v3", "nn-mse")])
    def test_v2_bundle_must_be_refitted(self, normal_model, tmp_path, version, kind):
        """So must a v3 bundle: an NN-MSE one would predict on the standardized scale."""
        if kind == "cairo":
            obj = model_to_dict(normal_model[1])
        else:  # a v3 NN-MSE bundle kept the targets' mean and std beside the scorer
            ds = generate(ScenarioSpec(Scenario.NORMAL, n=100, d=3, seed=9))
            obj = model_to_dict(mse_fit(ds, _quick_cfg())) | {"target_mean": 0.5, "target_std": 2.0}
        path = tmp_path / f"{version}.json"
        path.write_text(json.dumps({**obj, "version": f"cairo-model-{version}"}))
        says = f"unsupported model version: 'cairo-model-{version}' (in {path})"
        with pytest.raises(ValueError, match=re.escape(says)):
            load_model(path)

    @pytest.mark.parametrize("variant", ["ranknet", "nn-mse"])
    def test_loaded_standardizer_is_read_only(self, tmp_path, variant):
        ds = generate(ScenarioSpec(Scenario.NORMAL, n=100, d=3, seed=9))
        path = tmp_path / "model.json"
        cfg = variant_train_config(variant, 0, FitHyper(epochs=1))
        save_model(fit_variant(variant, ds, cfg), path)
        st = load_model(path).standardizer
        assert not st.mean.flags.writeable and not st.std.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            st.std[0] = 2.0


class TestScorePath:
    """predict_model, cairo_fit and the plot data score through score_rows."""

    @pytest.fixture(scope="class")
    def wide_models(self):
        ds = generate(ScenarioSpec(Scenario.HEAVY_TAIL, n=600, d=10, seed=0))
        return {
            v: fit_variant(v, ds, variant_train_config(v, 0, FitHyper(epochs=1)))
            for v in ("ranknet", "nn-mse")
        }

    @pytest.mark.parametrize("n", [1, SCORE_CHUNK_ROWS - 1, SCORE_CHUNK_ROWS])
    def test_one_chunk_is_one_forward_call(self, wide_models, n):
        model = wide_models["ranknet"]
        X = make_rng(n).standard_normal((n, 10))
        want, _ = forward(model.scorer, model.standardizer.transform(X))
        assert score_rows(model.scorer, model.standardizer, X).tobytes() == want.tobytes()

    def test_longer_inputs_are_forwarded_chunk_by_chunk(self, wide_models):
        model = wide_models["ranknet"]
        X = make_rng(5).standard_normal((2 * SCORE_CHUNK_ROWS + 3, 10))
        chunks = [
            forward(model.scorer, model.standardizer.transform(X[r0 : r0 + SCORE_CHUNK_ROWS]))[0]
            for r0 in range(0, X.shape[0], SCORE_CHUNK_ROWS)
        ]
        got = score_rows(model.scorer, model.standardizer, X)
        assert got.tobytes() == np.concatenate(chunks).tobytes()

    @pytest.mark.parametrize("variant", ["ranknet", "nn-mse"])
    def test_predict_model_peak_memory_is_bounded_by_its_input(self, wide_models, variant):
        X = make_rng(6).standard_normal((100_000, 10))
        tracemalloc.start()
        try:
            predict_model(wide_models[variant], X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * X.nbytes, f"peak {peak / X.nbytes:.1f}x the feature matrix"

    def test_score_rows_allocates_only_the_buffers_forward_writes(self, wide_models, monkeypatch):
        model = wide_models["ranknet"]
        X = make_rng(7).standard_normal((SCORE_CHUNK_ROWS, 10))

        def peak():
            tracemalloc.start()
            try:
                scores = score_rows(model.scorer, model.standardizer, X)
                return tracemalloc.get_traced_memory()[1], scores
            finally:
                tracemalloc.stop()

        def unused(work):
            """The training rows X, y and finite, backward's buffers, the gradient and Adam's."""
            rows = [work.X, work.y, work.finite, work.dZ1, work.dZ2, work.relu1, work.relu2]
            return rows + [work.grads.vector, work.m, work.v, *work.adam_scratch]

        def allocated_up_front(rows, dims):  # every buffer at once
            work = Workspace(rows, dims)
            unused(work)
            return work

        lean, want = peak()
        monkeypatch.setattr(pipeline, "Workspace", allocated_up_front)
        full, got = peak()
        assert got.tobytes() == want.tobytes()
        unused_bytes = sum(a.nbytes for a in unused(Workspace(SCORE_CHUNK_ROWS, model.scorer.dims)))
        assert unused_bytes > 4 * 2**20  # 0.7 MB of training rows and vectors, 3.4 MB of backward's
        assert full - lean >= unused_bytes, (full, lean, unused_bytes)

    def test_prediction_bits_do_not_depend_on_the_blas_thread_count(self):
        src = str(Path(cairoreg.__path__[0]).parent)

        def predictions(threads):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(threads)}
            run = subprocess.run(
                [sys.executable, "-c", _PREDICT_BITS],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            return run.stdout.splitlines()

        one, two = predictions(1), predictions(2)
        assert len(one) == 14
        assert one == two, [(a, b) for a, b in zip(one, two) if a != b]


# Fits RankNet and NN-MSE for 3 epochs on 4200 heavy-tail rows and prints a
# hash of predict_model's bytes on prefixes of a 95350-row file. Forwarded in
# one call, the 90209- and 95350-row prefixes took other bits at 1 and at 2
# OpenBLAS threads.
_PREDICT_BITS = """
import hashlib
from cairoreg.dgp import Scenario, ScenarioSpec, generate
from cairoreg.pipeline import FitHyper, fit_variant, predict_model, variant_train_config
train = generate(ScenarioSpec(Scenario.HEAVY_TAIL, n=4200, seed=3))
X = generate(ScenarioSpec(Scenario.HEAVY_TAIL, n=95350, seed=4)).features
for variant in ("ranknet", "nn-mse"):
    model = fit_variant(variant, train, variant_train_config(variant, 0, FitHyper(epochs=3)))
    for n in (8191, 8192, 8193, 16384, 16385, 90209, 95350):
        print(variant, n, hashlib.sha256(predict_model(model, X[:n]).tobytes()).hexdigest())
"""


@settings(max_examples=4, deadline=None)
@given(
    n=st.integers(9200, 12_000),
    fraction=st.sampled_from([None, 0.9]),
    seed=st.integers(0, 2**16),
)
def test_training_rows_predict_the_map_at_the_fit_s_own_scores(n, fraction, seed):
    """Auto-calibration needs the map and the predictions to see the same score bits.

    With more calibration rows than one score chunk, predict_model on those
    rows gives, bitwise, the map at the scores cairo_fit fitted it to.
    """
    ds = generate(ScenarioSpec(Scenario.HEAVY_TAIL, n=n, d=10, seed=seed))
    cfg = _quick_cfg(epochs=1, batch_size=256, seed=seed)
    fitted_to = []

    def recording_pav_fit(scores, targets):
        fitted_to.append(scores.copy())
        return pav_fit(scores, targets)

    with mock.patch.object(pipeline, "pav_fit", recording_pav_fit):
        model = cairo_fit(ds, PairwiseSurrogate(), cfg, calibration_fraction=fraction)
    if fraction is None:
        calib = ds
    else:
        calib = split(ds, SplitSpec(train_fraction=1.0 - fraction, seed=cfg.seed))[1]
    (scores,) = fitted_to
    assert calib.n > SCORE_CHUNK_ROWS and scores.shape == (calib.n,)
    want = calibration_predict(model.calibration, scores)
    assert predict_model(model, calib.features).tobytes() == want.tobytes()
