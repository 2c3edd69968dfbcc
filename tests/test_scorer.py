import numpy as np
import pytest

from cairoreg.data import Dataset
from cairoreg.losses import (
    PairwiseSurrogate,
    PointwiseMse,
    SoftGini,
    WeightVariant,
)
from cairoreg.scorer import (
    AdamHyper,
    TrainConfig,
    adam_step,
    backward,
    flatten_params,
    forward,
    init_adam,
    init_params,
    mlp_from_dict,
    mlp_to_dict,
    train,
    unflatten_params,
)


class TestInit:
    def test_shapes(self):
        p = init_params(10, seed=0)
        assert p.W1.shape == (32, 10)
        assert p.b1.shape == (32,)
        assert p.W2.shape == (16, 32)
        assert p.b2.shape == (16,)
        assert p.w3.shape == (16,)
        assert isinstance(p.b3, float)
        assert p.dims == (10, 32, 16)

    def test_deterministic(self):
        a = init_params(5, seed=7)
        b = init_params(5, seed=7)
        np.testing.assert_array_equal(flatten_params(a), flatten_params(b))
        c = init_params(5, seed=8)
        assert not np.array_equal(flatten_params(a), flatten_params(c))

    def test_biases_zero(self):
        p = init_params(4, seed=3)
        assert not p.b1.any() and not p.b2.any() and p.b3 == 0.0

    def test_glorot_bounds(self):
        p = init_params(10, seed=1)
        assert np.abs(p.W1).max() <= np.sqrt(6 / (10 + 32))
        assert np.abs(p.W2).max() <= np.sqrt(6 / (32 + 16))
        assert np.abs(p.w3).max() <= np.sqrt(6 / (16 + 1))

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            init_params(0, seed=0)


class TestForward:
    def test_zero_weights_give_output_bias(self):
        p = init_params(3, seed=0)
        zero = unflatten_params(np.zeros(flatten_params(p).size), p)
        zero = type(zero)(W1=zero.W1, b1=zero.b1, W2=zero.W2, b2=zero.b2, w3=zero.w3, b3=4.5)
        scores, _ = forward(zero, np.random.default_rng(0).normal(size=(6, 3)))
        np.testing.assert_array_equal(scores, np.full(6, 4.5))

    def test_hand_computed_single_unit_chain(self):
        p = init_params(1, seed=0, hidden=(1, 1))
        p = type(p)(
            W1=np.array([[2.0]]),
            b1=np.array([0.5]),
            W2=np.array([[3.0]]),
            b2=np.array([-1.0]),
            w3=np.array([2.0]),
            b3=1.0,
        )
        scores, _ = forward(p, np.array([[1.0]]))
        # relu(2*1+0.5)=2.5 -> relu(3*2.5-1)=6.5 -> 2*6.5+1
        assert scores[0] == 14.0
        scores, _ = forward(p, np.array([[-1.0]]))
        # both relus clamp to 0, only the output bias survives
        assert scores[0] == 1.0

    def test_duplicated_rows_duplicated_scores(self):
        p = init_params(4, seed=2)
        x = np.random.default_rng(1).normal(size=(1, 4))
        scores, _ = forward(p, np.vstack([x, x, x]))
        assert scores[0] == scores[1] == scores[2]

    def test_shape_mismatch(self):
        p = init_params(4, seed=2)
        with pytest.raises(ValueError, match="feature columns"):
            forward(p, np.zeros((2, 3)))


class TestBackward:
    def test_zero_cotangent_zero_grads(self):
        p = init_params(3, seed=1)
        X = np.random.default_rng(2).normal(size=(5, 3))
        _, cache = forward(p, X)
        g = backward(cache, np.zeros(5))
        assert not flatten_params(g).any()

    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        p = init_params(3, seed=4, hidden=(4, 3))
        # nudge all params so no pre-activation sits on a relu kink, where
        # central differences straddle the subgradient convention
        vec0 = flatten_params(p)
        p = unflatten_params(vec0 + rng.uniform(0.05, 0.1, vec0.size), p)
        X = rng.normal(size=(5, 3))
        cot = rng.normal(size=5)
        _, cache = forward(p, X)
        assert min(np.abs(cache.Z1).min(), np.abs(cache.Z2).min()) > 1e-4
        got = flatten_params(backward(cache, cot))

        vec = flatten_params(p)
        h = 1e-6
        fd = np.empty_like(vec)
        for k in range(vec.size):
            e = np.zeros_like(vec)
            e[k] = h
            up, _ = forward(unflatten_params(vec + e, p), X)
            dn, _ = forward(unflatten_params(vec - e, p), X)
            fd[k] = cot @ (up - dn) / (2 * h)
        assert np.linalg.norm(got - fd) / np.linalg.norm(fd) < 1e-5

    def test_linear_regime_matches_closed_form(self):
        # huge positive biases keep every relu active, so the map is affine
        rng = np.random.default_rng(4)
        p = init_params(3, seed=5, hidden=(4, 2))
        p = type(p)(W1=p.W1, b1=p.b1 + 100.0, W2=p.W2, b2=p.b2 + 1000.0, w3=p.w3, b3=0.0)
        X = rng.normal(size=(7, 3))
        cot = rng.normal(size=7)
        _, cache = forward(p, X)
        grads = backward(cache, cot)
        np.testing.assert_allclose(
            grads.W1, np.outer(p.W2.T @ p.w3, cot @ X), atol=1e-10
        )
        np.testing.assert_allclose(grads.w3, cache.H2.T @ cot, atol=1e-12)

    def test_stale_cache_rejected(self):
        p = init_params(2, seed=6)
        _, cache = forward(p, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="stale cache"):
            backward(cache, np.zeros(4))


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = init_params(2, seed=7)
        zero_g = unflatten_params(np.zeros(flatten_params(p).size), p)
        state = init_adam(p)
        p2, state2 = adam_step(p, zero_g, state)
        np.testing.assert_array_equal(flatten_params(p2), flatten_params(p))
        assert state2.step == 1

    def test_first_step_is_signed_learning_rate(self):
        p = init_params(2, seed=8)
        rng = np.random.default_rng(5)
        g_vec = rng.choice([-1.0, 1.0], size=flatten_params(p).size) * rng.uniform(
            0.1, 2.0, size=flatten_params(p).size
        )
        g = unflatten_params(g_vec, p)
        lr = 1e-3
        p2, _ = adam_step(p, g, init_adam(p, AdamHyper(learning_rate=lr)))
        delta = flatten_params(p2) - flatten_params(p)
        np.testing.assert_allclose(delta, -lr * np.sign(g_vec), atol=lr * 1e-6)

    def test_deterministic(self):
        p = init_params(2, seed=9)
        g = unflatten_params(np.ones(flatten_params(p).size), p)
        s = init_adam(p)
        a1, s1 = adam_step(p, g, s)
        a2, s2 = adam_step(p, g, s)
        np.testing.assert_array_equal(flatten_params(a1), flatten_params(a2))
        assert s1.step == s2.step == 1


def _linear_ds(n=500, seed=7):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    return Dataset(features=X, targets=2.0 * X[:, 0] + 1.0)


class TestTrain:
    def test_learns_linear_target(self):
        ds = _linear_ds()
        params, hist = train(ds, TrainConfig(epochs=200, batch_size=32, seed=0))
        scores, _ = forward(params, ds.features)
        assert np.sqrt(np.mean((scores - ds.targets) ** 2)) < 0.05
        assert len(hist) == 200

    def test_zero_epochs_returns_init(self):
        ds = _linear_ds(n=50)
        params, hist = train(ds, TrainConfig(epochs=0, batch_size=16, seed=3))
        np.testing.assert_array_equal(
            flatten_params(params), flatten_params(init_params(3, seed=3))
        )
        assert hist == []

    def test_history_settles(self):
        ds = _linear_ds()
        _, hist = train(ds, TrainConfig(epochs=200, batch_size=32, seed=0))
        hist = np.asarray(hist)
        assert np.all(np.isfinite(hist))
        tail = hist[-20:]  # last 10% of epochs
        descent = hist[0] - hist.min()
        assert tail.max() <= hist.min() + 0.10 * descent

    def test_deterministic(self):
        ds = _linear_ds(n=120)
        cfg = TrainConfig(epochs=5, batch_size=32, seed=11)
        p1, h1 = train(ds, cfg)
        p2, h2 = train(ds, cfg)
        np.testing.assert_array_equal(flatten_params(p1), flatten_params(p2))
        assert h1 == h2

    def test_ranking_losses_train(self):
        ds = _linear_ds(n=80)
        for loss in (
            PairwiseSurrogate(WeightVariant.UNIFORM, 1.0),
            PairwiseSurrogate(WeightVariant.ABSOLUTE_GAP, 1.0),
            PairwiseSurrogate(WeightVariant.RANK_GAP, 1.0),
            SoftGini(0.1),
        ):
            params, hist = train(ds, TrainConfig(epochs=3, batch_size=32, seed=0, loss=loss))
            assert np.all(np.isfinite(flatten_params(params)))
            assert np.all(np.isfinite(hist))

    def test_rank_weights_full_set_changes_training(self):
        ds = _linear_ds(n=80)
        loss = PairwiseSurrogate(WeightVariant.RANK_GAP, 1.0)
        base = TrainConfig(epochs=3, batch_size=32, seed=0, loss=loss)
        full = TrainConfig(
            epochs=3, batch_size=32, seed=0, loss=loss, rank_weights_full_set=True
        )
        p1, _ = train(ds, base)
        p2, _ = train(ds, full)
        assert not np.array_equal(flatten_params(p1), flatten_params(p2))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the gap weights overflow
    def test_divergence_fails_fast(self):
        # ranknet-giniw weighs a pair by |y_i - y_j|, which is inf for targets near +-1e308
        rng = np.random.default_rng(0)
        y = np.resize([1.0, -1.0], 64) * rng.uniform(0.9, 1.0, 64) * 1e308
        ds = Dataset(features=rng.normal(size=(64, 3)), targets=y)
        loss = PairwiseSurrogate(WeightVariant.ABSOLUTE_GAP, 1.0)
        with pytest.raises(ValueError, match="diverged at epoch 0, batch 0"):
            train(ds, TrainConfig(epochs=2, batch_size=32, seed=0, loss=loss))

    def test_batch_size_guard_for_pairwise(self):
        with pytest.raises(ValueError, match="batch_size >= 2"):
            TrainConfig(batch_size=1, loss=PairwiseSurrogate())


class TestEndToEndGradients:
    """Parameter gradients through forward+loss match finite differences."""

    def test_all_loss_specs(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(8, 3))
        y = rng.normal(size=8)
        specs = [
            PairwiseSurrogate(WeightVariant.UNIFORM, 1.0),
            PairwiseSurrogate(WeightVariant.ABSOLUTE_GAP, 1.0),
            PairwiseSurrogate(WeightVariant.RANK_GAP, 1.0),
            SoftGini(0.2),
            PointwiseMse(),
        ]
        from cairoreg.losses import evaluate_loss

        p = init_params(3, seed=10, hidden=(4, 3))
        vec = flatten_params(p)
        for spec in specs:
            scores, cache = forward(p, X)
            _, grad_scores = evaluate_loss(spec, y, scores)
            got = flatten_params(backward(cache, grad_scores))

            def loss_at(v):
                s, _ = forward(unflatten_params(v, p), X)
                return evaluate_loss(spec, y, s).value

            h = 1e-5
            fd = np.empty_like(vec)
            for k in range(vec.size):
                e = np.zeros_like(vec)
                e[k] = h
                fd[k] = (loss_at(vec + e) - loss_at(vec - e)) / (2 * h)
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(got - fd) / denom < 1e-4, spec


class TestSerialization:
    def test_round_trip(self):
        p = init_params(6, seed=12)
        obj = mlp_to_dict(p)
        assert obj["version"] == "cairo-mlp-v1"
        assert obj["dims"] == [6, 32, 16]
        back = mlp_from_dict(obj)
        np.testing.assert_array_equal(flatten_params(back), flatten_params(p))

    def test_json_round_trip_exact(self):
        import json

        p = init_params(2, seed=13, hidden=(3, 2))
        back = mlp_from_dict(json.loads(json.dumps(mlp_to_dict(p))))
        np.testing.assert_array_equal(flatten_params(back), flatten_params(p))

    def test_version_check(self):
        p = init_params(2, seed=0)
        obj = mlp_to_dict(p)
        obj["version"] = "bogus"
        with pytest.raises(ValueError, match="version"):
            mlp_from_dict(obj)
