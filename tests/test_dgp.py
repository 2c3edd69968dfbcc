import re

import numpy as np
import pytest

from cairoreg.dgp import HEAVY_NOISE_SCALE, Scenario, ScenarioSpec, generate


class TestSamplers:
    """The distributions generate draws its covariates and noise from."""

    def test_gamma_moments(self):
        ds = generate(_spec(Scenario.GAMMA_TAIL, n=100_000, seed=0))
        draws = ds.targets / ds.true_mean  # Gamma(2, 1/2)
        assert np.all(draws > 0)
        assert draws.mean() == pytest.approx(1.0, abs=0.02)
        assert draws.var() == pytest.approx(0.5, abs=0.02)

    def test_lognormal_moments(self):
        ds = generate(_spec(Scenario.HEAVY_TAIL, n=100_000, seed=1))
        scaled = HEAVY_NOISE_SCALE * np.sqrt(ds.true_mean)
        draws = (ds.targets - ds.true_mean) / scaled + np.exp(0.5)  # LogNormal(0, 1)
        assert draws.mean() == pytest.approx(np.exp(0.5), abs=0.05)
        assert np.median(draws) == pytest.approx(1.0, abs=0.02)

    def test_normal_moments(self):
        draws = generate(_spec(Scenario.NORMAL, n=10_000, seed=2)).features.ravel()
        assert draws.var() == pytest.approx(1.0, abs=0.02)
        assert draws.mean() == pytest.approx(0.0, abs=0.02)


def _spec(scenario, **kw):
    base = dict(n=6000, d=10, seed=0)
    base.update(kw)
    return ScenarioSpec(scenario, **base)


class TestGenerate:
    def test_shapes_and_true_mean(self):
        for scenario in Scenario:
            ds = generate(_spec(scenario, n=500, d=4, seed=3))
            assert ds.n == 500 and ds.d == 4
            assert ds.true_mean is not None and ds.true_mean.shape == (500,)

    def test_deterministic_per_seed(self):
        a = generate(_spec(Scenario.GAMMA_TAIL, seed=9, n=100))
        b = generate(_spec(Scenario.GAMMA_TAIL, seed=9, n=100))
        c = generate(_spec(Scenario.GAMMA_TAIL, seed=10, n=100))
        np.testing.assert_array_equal(a.targets, b.targets)
        assert not np.array_equal(a.targets, c.targets)

    def test_normal_noise_moments(self):
        ds = generate(_spec(Scenario.NORMAL))
        resid = ds.targets - ds.true_mean
        n = ds.n
        assert abs(resid.mean()) < 4 / np.sqrt(n)
        assert 0.9 < resid.var() < 1.1

    def test_gamma_targets_positive(self):
        ds = generate(_spec(Scenario.GAMMA_TAIL))
        assert np.all(ds.targets > 0)

    def test_gamma_mean_ratio(self):
        ds = generate(_spec(Scenario.GAMMA_TAIL))
        assert 0.9 < np.mean(ds.targets / ds.true_mean) < 1.1

    def test_residual_mean_vanishes_for_every_scenario(self):
        for scenario in Scenario:
            for seed in (0, 1):
                ds = generate(_spec(scenario, seed=seed))
                resid = ds.targets - ds.true_mean
                bound = 5 * resid.std() / np.sqrt(ds.n)
                assert abs(resid.mean()) < bound, scenario

    def test_gamma_heteroskedastic_in_mean(self):
        ds = generate(_spec(Scenario.GAMMA_TAIL))
        mu = ds.true_mean
        top = ds.targets[mu >= np.quantile(mu, 0.9)]
        bottom = ds.targets[mu <= np.quantile(mu, 0.1)]
        assert top.var() > bottom.var()

    def test_heavy_tail_raw_variant(self):
        centered = generate(_spec(Scenario.HEAVY_TAIL, seed=4, n=4000))
        raw = generate(_spec(Scenario.HEAVY_TAIL, seed=4, n=4000, raw_lognormal=True))
        mu_raw = raw.true_mean
        # uncentered noise shifts the conditional mean above exp(eta)
        assert np.all(mu_raw > 0)
        resid = raw.targets - mu_raw
        assert abs(resid.mean()) < 5 * resid.std() / np.sqrt(raw.n)
        assert not np.array_equal(centered.targets, raw.targets)

    def test_heavy_tail_scale_knob(self):
        small = generate(_spec(Scenario.HEAVY_TAIL, seed=5, lognormal_scale=0.1))
        large = generate(_spec(Scenario.HEAVY_TAIL, seed=5, lognormal_scale=1.0))
        np.testing.assert_array_equal(small.true_mean, large.true_mean)
        assert (small.targets - small.true_mean).var() < (
            large.targets - large.true_mean
        ).var()

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            ScenarioSpec(Scenario.NORMAL, n=1)
        with pytest.raises(ValueError):
            ScenarioSpec(Scenario.NORMAL, d=0)
        for scale in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match=f"^lognormal_scale must be finite.*got {scale}"):
                ScenarioSpec(Scenario.HEAVY_TAIL, lognormal_scale=scale)
        with pytest.raises(ValueError, match="^lognormal_scale set with raw_lognormal"):
            ScenarioSpec(Scenario.HEAVY_TAIL, lognormal_scale=5.0, raw_lognormal=True)
        ScenarioSpec(Scenario.HEAVY_TAIL, lognormal_scale=HEAVY_NOISE_SCALE, raw_lognormal=True)

    @pytest.mark.parametrize("scenario", [Scenario.NORMAL, Scenario.GAMMA_TAIL])
    def test_heavy_noise_options_are_rejected_for_other_scenarios(self, scenario):
        for kw, named in (
            ({"raw_lognormal": True}, "['raw_lognormal']"),
            ({"lognormal_scale": 5.0}, "['lognormal_scale']"),
            (
                {"raw_lognormal": True, "lognormal_scale": 5.0},
                "['lognormal_scale', 'raw_lognormal']",
            ),
        ):
            says = f"{named} set for the {scenario.value} scenario; only heavy uses them"
            with pytest.raises(ValueError, match=re.escape(says)):
                ScenarioSpec(scenario, **kw)
        # their defaults, passed explicitly, are no change
        ScenarioSpec(scenario, lognormal_scale=HEAVY_NOISE_SCALE, raw_lognormal=False)
