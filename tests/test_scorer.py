import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import train_oracle

import cairoreg
from cairoreg.data import (
    BATCH_CHUNK_ROWS,
    Dataset,
    _batch_sum,
    apply_standardizer,
    config_from_dict,
    config_to_dict,
    fit_standardizer,
)
from cairoreg.dgp import Scenario, ScenarioSpec, generate
from cairoreg.losses import (
    PairwiseSurrogate,
    PointwiseMse,
    SoftGini,
    WeightVariant,
)
from cairoreg.pipeline import VARIANTS, FitHyper, variant_train_config
from cairoreg.scorer import (
    MlpParams,
    TrainConfig,
    Workspace,
    adam_step,
    backward,
    forward,
    init_params,
    train,
)


class TestInit:
    def test_shapes(self):
        p = init_params(10, seed=0)
        assert p.W1.shape == (32, 10)
        assert p.b1.shape == (32,)
        assert p.W2.shape == (16, 32)
        assert p.b2.shape == (16,)
        assert p.w3.shape == (16,)
        assert p.b3.shape == (1,)
        assert p.dims == (10, 32, 16)
        # the layers are views into one vector, in this order
        layers = [p.W1, p.b1, p.W2, p.b2, p.w3, p.b3]
        np.testing.assert_array_equal(np.concatenate(layers, axis=None), p.vector)
        assert all(np.shares_memory(layer, p.vector) for layer in layers)
        with pytest.raises(ValueError, match="parameter vector"):
            MlpParams(np.append(p.vector, 0.0), p.dims)

    def test_deterministic(self):
        a = init_params(5, seed=7)
        b = init_params(5, seed=7)
        np.testing.assert_array_equal(a.vector, b.vector)
        c = init_params(5, seed=8)
        assert not np.array_equal(a.vector, c.vector)

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
        vec = np.zeros(p.vector.size)
        vec[-1] = 4.5  # b3
        zero = MlpParams(vec, p.dims)
        scores, _ = forward(zero, np.random.default_rng(0).normal(size=(6, 3)))
        np.testing.assert_array_equal(scores, np.full(6, 4.5))

    def test_hand_computed_single_unit_chain(self):
        # W1, b1, W2, b2, w3, b3
        p = MlpParams(np.array([2.0, 0.5, 3.0, -1.0, 2.0, 1.0]), (1, 1, 1))
        scores, _ = forward(p, np.array([[1.0]]))
        # relu(2*1+0.5)=2.5 -> relu(3*2.5-1)=6.5 -> 2*6.5+1
        assert scores[0] == 14.0
        scores, _ = forward(p, np.array([[-1.0]]))
        # both relus clamp to 0, only the output bias survives
        assert scores[0] == 1.0

    def test_output_bias_follows_the_vector(self):
        p = init_params(4, seed=2)
        X = np.random.default_rng(3).normal(size=(6, 4))
        before, _ = forward(p, X)  # b3 is 0.0 at init
        p.vector[-1] = 2.5
        after, _ = forward(p, X)
        assert p.b3.shape == (1,) and np.shares_memory(p.b3, p.vector) and p.b3[0] == 2.5
        np.testing.assert_array_equal(after, before + 2.5)

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
        assert not g.vector.any()

    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        p = init_params(3, seed=4, hidden=(4, 3))
        # nudge all params so no pre-activation sits on a relu kink, where
        # central differences straddle the subgradient convention
        vec0 = p.vector
        p = MlpParams(vec0 + rng.uniform(0.05, 0.1, vec0.size), p.dims)
        X = rng.normal(size=(5, 3))
        cot = rng.normal(size=5)
        _, cache = forward(p, X)
        assert min(np.abs(cache.Z1).min(), np.abs(cache.Z2).min()) > 1e-4
        got = backward(cache, cot).vector

        vec = p.vector
        h = 1e-6
        fd = np.empty_like(vec)
        for k in range(vec.size):
            e = np.zeros_like(vec)
            e[k] = h
            up, _ = forward(MlpParams(vec + e, p.dims), X)
            dn, _ = forward(MlpParams(vec - e, p.dims), X)
            fd[k] = cot @ (up - dn) / (2 * h)
        assert np.linalg.norm(got - fd) / np.linalg.norm(fd) < 1e-5

    def test_linear_regime_matches_closed_form(self):
        # huge positive biases keep every relu active, so the map is affine
        rng = np.random.default_rng(4)
        p = init_params(3, seed=5, hidden=(4, 2))
        layers = [p.W1, p.b1 + 100.0, p.W2, p.b2 + 1000.0, p.w3, 0.0]
        p = MlpParams(np.concatenate(layers, axis=None), p.dims)
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
        before = p.vector.copy()
        zero_g = MlpParams(np.zeros(p.vector.size), p.dims)
        work = Workspace(1, p.dims)
        assert not np.shares_memory(work.m, work.v)
        adam_step(p, zero_g, 1, 1e-3, work)
        np.testing.assert_array_equal(p.vector, before)
        assert not work.m.any() and not work.v.any()

    def test_first_step_is_signed_learning_rate(self):
        p = init_params(2, seed=8)
        before = p.vector.copy()
        rng = np.random.default_rng(5)
        g_vec = rng.choice([-1.0, 1.0], size=p.vector.size) * rng.uniform(
            0.1, 2.0, size=p.vector.size
        )
        g = MlpParams(g_vec, p.dims)
        lr = 1e-3
        adam_step(p, g, 1, lr, Workspace(1, p.dims))
        delta = p.vector - before
        np.testing.assert_allclose(delta, -lr * np.sign(g_vec), atol=lr * 1e-6)

    def test_deterministic(self):
        p = init_params(2, seed=9)
        g = MlpParams(np.ones(p.vector.size), p.dims)
        runs = []
        for _ in range(2):
            q, work = MlpParams(p.vector.copy(), p.dims), Workspace(1, p.dims)
            for t in (1, 2):
                adam_step(q, g, t, 1e-3, work)
            runs.append([a.tobytes() for a in (q.vector, work.m, work.v)])
        assert runs[0] == runs[1]

    def test_matches_per_layer_textbook_update(self):
        # Kingma & Ba's Adam, written out layer by layer with their default constants
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        names = ("W1", "b1", "W2", "b2", "w3", "b3")
        rng = np.random.default_rng(11)
        p = init_params(3, seed=12, hidden=(4, 3))
        p = MlpParams(rng.normal(size=p.vector.size), p.dims)
        want = {k: np.array(getattr(p, k)) for k in names}  # copies: p changes in place
        m = {k: np.zeros_like(a) for k, a in want.items()}
        v = {k: np.zeros_like(a) for k, a in want.items()}
        work = Workspace(1, p.dims)
        vec, work_m, work_v = p.vector, work.m, work.v
        for t in range(1, 6):
            g = MlpParams(rng.normal(scale=t, size=p.vector.size), p.dims)
            g_before = g.vector.copy()
            adam_step(p, g, t, lr, work)
            assert g.vector.tobytes() == g_before.tobytes()  # the gradient is only read
            for k in names:
                gk = np.asarray(getattr(g, k))
                m[k] = beta1 * m[k] + (1.0 - beta1) * gk
                v[k] = beta2 * v[k] + (1.0 - beta2) * gk**2
                m_hat = m[k] / (1.0 - beta1**t)
                v_hat = v[k] / (1.0 - beta2**t)
                want[k] = want[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for got, ref in ((p.vector, want), (work.m, m), (work.v, v)):
                ref_vec = np.concatenate([ref[k] for k in names], axis=None)
                assert got.tobytes() == ref_vec.tobytes(), t
        # updated in place: the vector and the moments are the arrays the step was given
        assert p.vector is vec and work.m is work_m and work.v is work_v


class TestWorkspace:
    """forward and backward give the same bytes in a shared, oversized workspace as in their own."""

    @pytest.mark.parametrize("rows", [7, BATCH_CHUNK_ROWS + 476])
    def test_forward_and_backward(self, rows):
        rng = np.random.default_rng(rows)
        p = MlpParams(rng.normal(size=init_params(5, seed=0).vector.size), (5, 32, 16))
        X, g = rng.normal(size=(rows, 5)), rng.normal(size=rows)
        inputs = [a.copy() for a in (p.vector, X, g)]
        work = Workspace(rows + 100, p.dims)  # a batch uses the first rows
        work.grads.vector[:] = np.nan  # every entry is written
        own_scores, own_cache = forward(p, X)
        own_grads = backward(own_cache, g)
        for got, want in zip((p.vector, X, g), inputs):  # neither call modifies an input
            assert got.tobytes() == want.tobytes()
        scores, cache = forward(p, X, work)
        grads = backward(cache, g, work)
        assert grads is work.grads and np.shares_memory(scores, work.scores)
        assert scores.tobytes() == own_scores.tobytes()
        for name in ("Z1", "H1", "Z2", "H2"):
            assert getattr(cache, name).tobytes() == getattr(own_cache, name).tobytes(), name
        assert grads.vector.tobytes() == own_grads.vector.tobytes()


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
            params.vector, init_params(3, seed=3).vector
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
        np.testing.assert_array_equal(p1.vector, p2.vector)
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
            assert np.all(np.isfinite(params.vector))
            assert np.all(np.isfinite(hist))

    def test_learning_rate_reaches_adam(self):
        ds = _linear_ds(n=80)
        cfg = TrainConfig(epochs=2, batch_size=32, seed=4, learning_rate=0.0)
        params, _ = train(ds, cfg)
        np.testing.assert_array_equal(
            params.vector, init_params(3, seed=4).vector
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the overflow is reported, not warned
    def test_divergence_fails_fast(self):
        # ranknet-giniw weighs a pair by |y_i - y_j|, which is inf for targets near +-1e308
        rng = np.random.default_rng(0)
        y = np.resize([1.0, -1.0], 64) * rng.uniform(0.9, 1.0, 64) * 1e308
        ds = Dataset(features=rng.normal(size=(64, 3)), targets=y)
        loss = PairwiseSurrogate(WeightVariant.ABSOLUTE_GAP, 1.0)
        with pytest.raises(ValueError, match="diverged at epoch 0, batch 0"):
            train(ds, TrainConfig(epochs=2, batch_size=32, seed=0, loss=loss))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("variant", list(WeightVariant))
    def test_divergence_at_an_extreme_sigma_is_read_from_the_stable_value(self, variant):
        # At sigma 1e307 the surrogate takes its stable form, whose value overflows while
        # its gradient stays finite. Batch 0 of two is not asked for its value, which the
        # stable form gives anyway, so the fit stops there and names the loss.
        ds = _linear_ds(n=64)
        cfg = TrainConfig(epochs=2, batch_size=32, seed=0, loss=PairwiseSurrogate(variant, 1e307))
        with pytest.raises(ValueError, match=r"^training diverged at epoch 0, batch 0: loss "):
            train(ds, cfg)

    def test_batch_size_guard_for_pairwise(self):
        with pytest.raises(ValueError, match="batch_size >= 2"):
            TrainConfig(batch_size=1, loss=PairwiseSurrogate())

    @pytest.mark.parametrize("batch_size", [256, BATCH_CHUNK_ROWS, 1500, 2049])
    def test_bits_match_train_oracle(self, batch_size):
        # Two epochs of 2049 rows: the moments carry over an epoch, 256 and 1024
        # leave a one-row last batch that ranking losses skip and MSE takes, 1500
        # is a full and a partial chunk in backward, and 2049 is the whole set.
        # _FIT_BITS checks one epoch of 4200 rows at 1 and 2 BLAS threads.
        ds = generate(ScenarioSpec(Scenario.HEAVY_TAIL, n=2049, seed=3))
        std = apply_standardizer(fit_standardizer(ds), ds)
        for variant in VARIANTS:
            cfg = variant_train_config(variant, 0, FitHyper(epochs=2, batch_size=batch_size))
            params, history = train(std, cfg)
            want_params, want_history = train_oracle(std, cfg)
            assert params.vector.tobytes() == want_params.vector.tobytes(), variant
            assert [h.hex() for h in history] == [h.hex() for h in want_history], variant

    def test_fit_bits_do_not_depend_on_the_blas_thread_count(self):
        path = os.pathsep.join([str(Path(cairoreg.__path__[0]).parent), str(Path(__file__).parent)])

        def fits(threads):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads)}
            run = subprocess.run(
                [sys.executable, "-c", _FIT_BITS],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            return run.stdout.splitlines()

        one, two = fits(1), fits(2)
        assert len(one) == 16
        assert all(line.endswith(" oracle") for line in one + two)  # train_oracle's bits
        assert one == two, [(a[:40], b[:40]) for a, b in zip(one, two) if a != b]


# Fits every variant for one epoch on 4200 heavy-tail rows at four batch sizes
# and prints the loss history of its scorer's training on the standardized rows
# and a hash of its bundle. A 4200-row batch is long enough for a threaded BLAS
# to split the sum over the batch of an unchunked weight-gradient product; a
# 1500-row batch is one full and one partial BATCH_CHUNK_ROWS chunk. A line
# ends in "oracle" when train_oracle gives the same parameters and history.
_FIT_BITS = """
import hashlib, json
from oracles import train_oracle
from cairoreg.data import apply_standardizer, fit_standardizer
from cairoreg.dgp import Scenario, ScenarioSpec, generate
from cairoreg.pipeline import VARIANTS, FitHyper, fit_variant, model_to_dict, variant_train_config
from cairoreg.scorer import train
ds = generate(ScenarioSpec(Scenario.HEAVY_TAIL, n=4200, seed=3))
std = apply_standardizer(fit_standardizer(ds), ds)
for batch_size in (256, 1024, 1500, 4200):
    for variant in VARIANTS:
        cfg = variant_train_config(variant, 0, FitHyper(epochs=1, batch_size=batch_size))
        params, history = train(std, cfg)
        want_params, want_history = train_oracle(std, cfg)
        same = params.vector.tobytes() == want_params.vector.tobytes() and history == want_history
        bundle = json.dumps(model_to_dict(fit_variant(variant, ds, cfg))).encode()
        line = [batch_size, variant, [h.hex() for h in history], hashlib.sha256(bundle).hexdigest()]
        print(*line, "oracle" if same else "differs")
"""


@pytest.mark.parametrize("rows", [1, BATCH_CHUNK_ROWS, BATCH_CHUNK_ROWS + 1, 2500])
@pytest.mark.parametrize("bias", [False, True])
def test_batch_sum_is_the_product(rows, bias):
    rng = np.random.default_rng(rows)
    dZ, A = rng.normal(size=(rows, 16)), rng.normal(size=(rows, 32))
    if bias:  # a bias gradient: a vector of ones times dZ, the column sums of dZ
        L, R, want = np.ones(rows), dZ, dZ.sum(axis=0)
    else:
        L, R, want = dZ, A, dZ.T @ A
    got = _batch_sum(L, R)
    if rows <= BATCH_CHUNK_ROWS:  # one chunk: the same product, bit for bit
        assert got.tobytes() == (L.T @ R).tobytes()
    bound = 2 * rows * np.finfo(np.float64).eps * (np.abs(L).T @ np.abs(R))
    assert np.all(np.abs(got - want) <= bound)


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
        vec = p.vector
        for spec in specs:
            scores, cache = forward(p, X)
            _, grad_scores = evaluate_loss(spec, y, scores)
            got = backward(cache, grad_scores).vector

            def loss_at(v):
                s, _ = forward(MlpParams(v, p.dims), X)
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
        obj = config_to_dict(p)
        assert obj == {"vector": p.vector.tolist(), "dims": [6, 32, 16]}
        back = config_from_dict(MlpParams, obj, "scorer")
        np.testing.assert_array_equal(back.vector, p.vector)

    def test_json_round_trip_exact(self):
        p = init_params(2, seed=13, hidden=(3, 2))
        obj = json.loads(json.dumps(config_to_dict(p)))
        back = config_from_dict(MlpParams, obj, "scorer")
        np.testing.assert_array_equal(back.vector, p.vector)
