import numpy as np
import pytest

from cairoreg.data import Dataset, SplitSpec, make_rng, split
from cairoreg.dgp import Scenario, ScenarioSpec, generate
from cairoreg.isotonic import audit_autocalibration
from cairoreg.losses import PairwiseSurrogate, PointwiseMse, SoftGini, WeightVariant
from cairoreg.pipeline import (
    CairoModel,
    cairo_fit,
    cairo_predict,
    fit_variant,
    load_model,
    model_from_dict,
    model_to_dict,
    mse_fit,
    mse_predict,
    predict_model,
    save_model,
    variant_loss_spec,
)
from cairoreg.scorer import TrainConfig, forward


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
        a = cairo_predict(cairo_fit(ds, loss, _quick_cfg(seed=5)), test_X)
        b = cairo_predict(cairo_fit(ds, loss, _quick_cfg(seed=5)), test_X)
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
        assert held.calibration.knots.size < full.calibration.knots.size
        # scorers trained on different subsets differ
        assert not np.array_equal(held.scorer.W1, full.scorer.W1)


class TestCairoPredict:
    def test_training_rows_map_to_fitted_values(self, normal_model):
        ds, model = normal_model
        preds = cairo_predict(model, ds.features)
        scores, _ = forward(model.scorer, model.standardizer.transform(ds.features))
        from cairoreg.isotonic import predict as cal_predict

        np.testing.assert_array_equal(preds, cal_predict(model.calibration, scores))

    def test_order_preserved_in_score(self, normal_model):
        ds, model = normal_model
        X = make_rng(7).standard_normal((200, ds.d))
        scores, _ = forward(model.scorer, model.standardizer.transform(X))
        preds = cairo_predict(model, X)
        order = np.argsort(scores)
        assert np.all(np.diff(preds[order]) >= 0)

    def test_equal_rows_equal_predictions(self, normal_model):
        ds, model = normal_model
        x = ds.features[:1]
        preds = cairo_predict(model, np.vstack([x, x]))
        assert preds[0] == preds[1]

    def test_bounded_by_fitted_range(self, normal_model):
        ds, model = normal_model
        X = 100.0 * make_rng(8).standard_normal((50, ds.d))
        preds = cairo_predict(model, X)
        lo, hi = model.calibration.fitted[0], model.calibration.fitted[-1]
        assert np.all(preds >= lo) and np.all(preds <= hi)

    def test_shape_mismatch(self, normal_model):
        _, model = normal_model
        with pytest.raises(ValueError):
            cairo_predict(model, np.zeros((3, 99)))


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
        for model, predict in zip(fitted, (cairo_predict, mse_predict)):
            with pytest.raises(ValueError, match="non-finite feature"):
                predict(model, X)

    def test_bundle_standardizer_must_match_scorer(self, normal_model):
        _, model = normal_model
        obj = model_to_dict(model)
        obj["standardizer"]["mean"] = obj["standardizer"]["mean"][:2]
        with pytest.raises(ValueError, match="standardizer lengths"):
            model_from_dict(obj)

    def test_bundle_feature_names_must_match_scorer(self, normal_model):
        _, model = normal_model
        for names in (None, ["x1", "x2"], ["x1", "x2", "x3", 4]):
            obj = model_to_dict(model)
            obj["feature_names"] = names
            with pytest.raises(ValueError, match="feature_names"):
                model_from_dict(obj)


class TestMseBaseline:
    def test_learns_linear_target(self):
        rng = make_rng(10)
        X = rng.standard_normal((2000, 3))
        y = 2.0 * X[:, 0] + 1.0 + 0.1 * rng.standard_normal(2000)
        ds = Dataset(features=X, targets=y)
        train_ds, test_ds = split(ds, SplitSpec(0.7, seed=0))
        model = mse_fit(train_ds, TrainConfig(epochs=60, batch_size=64, seed=0))
        yhat = mse_predict(model, test_ds.features)
        assert np.sqrt(np.mean((yhat - test_ds.targets) ** 2)) < 0.15

    def test_deterministic(self):
        ds = generate(ScenarioSpec(Scenario.NORMAL, n=150, d=3, seed=6))
        X = make_rng(11).standard_normal((10, 3))
        a = mse_predict(mse_fit(ds, _quick_cfg(seed=1)), X)
        b = mse_predict(mse_fit(ds, _quick_cfg(seed=1)), X)
        np.testing.assert_array_equal(a, b)

    def test_prediction_shape(self):
        ds = generate(ScenarioSpec(Scenario.NORMAL, n=100, d=3, seed=7))
        model = mse_fit(ds, _quick_cfg())
        assert mse_predict(model, ds.features[:17]).shape == (17,)


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


class TestSerialization:
    def test_cairo_round_trip(self, normal_model, tmp_path):
        ds, model = normal_model
        path = tmp_path / "model.json"
        save_model(model, path, config={"note": 1})
        back = load_model(path)
        np.testing.assert_array_equal(
            cairo_predict(back, ds.features), cairo_predict(model, ds.features)
        )
        assert back.spec == model.spec
        assert back.feature_names == model.feature_names == ("x1", "x2", "x3", "x4")

    def test_mse_round_trip(self, tmp_path):
        ds = generate(ScenarioSpec(Scenario.NORMAL, n=100, d=3, seed=9))
        model = mse_fit(ds, _quick_cfg())
        obj = model_to_dict(model)
        assert obj["version"] == "cairo-model-v2"
        back = model_from_dict(obj)
        np.testing.assert_array_equal(
            mse_predict(back, ds.features), mse_predict(model, ds.features)
        )
        assert back.feature_names == model.feature_names == ("x1", "x2", "x3")

    def test_version_guard(self):
        with pytest.raises(ValueError, match="version"):
            model_from_dict({"version": "other"})
