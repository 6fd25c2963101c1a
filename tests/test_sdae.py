"""Autoencoder backend: pretraining, fine-tuning, gradients, determinism."""

import numpy as np
import pytest

from irzone.io_formats import FormatError
from irzone.models.sdae import (
    SDAEConfig,
    SDAEModel,
    pretrain_dae_layer,
    train_sdae,
)


def separable_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 1))
    x = x[np.abs(x[:, 0]) > 0.05]
    y = (x[:, 0] >= 0).astype(np.int64)
    return x, y


def gradient_check(model, X, y, eps=1e-5):
    """Max relative error between analytic and central-difference gradients."""
    _, gw, gb = model.loss_and_grads(X, y)
    worst = 0.0
    for params, grads in ((model.weights, gw), (model.biases, gb)):
        for arr, g in zip(params, grads):
            flat = arr.ravel()
            gflat = g.ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + eps
                lp, _, _ = model.loss_and_grads(X, y)
                flat[k] = orig - eps
                lm, _, _ = model.loss_and_grads(X, y)
                flat[k] = orig
                num = (lp - lm) / (2 * eps)
                denom = max(1e-8, abs(num) + abs(gflat[k]))
                worst = max(worst, abs(num - gflat[k]) / denom)
    return worst


class TestPretraining:
    def test_loss_decreases_on_realizable_target(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 4))
        _, _, losses = pretrain_dae_layer(x, hidden_size=6, corruption=0.0, epochs=30)
        assert losses[-1] < losses[0]

    def test_losses_finite_throughout(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(120, 5))
        _, _, losses = pretrain_dae_layer(x, hidden_size=4, corruption=0.2, epochs=10)
        assert np.all(np.isfinite(losses))

    def test_fixed_seed_gives_identical_weights(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 3))
        (w1, b1), _, _ = pretrain_dae_layer(x, 4, seed=5)
        (w2, b2), _, _ = pretrain_dae_layer(x, 4, seed=5)
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)

    def test_rejects_corruption_of_one(self):
        with pytest.raises(ValueError, match="corruption"):
            pretrain_dae_layer(np.zeros((10, 2)), 2, corruption=1.0)


class TestTrainSDAE:
    def test_separable_data_accuracy(self):
        x, y = separable_data()
        config = SDAEConfig(hidden_sizes=(8,), finetune_epochs=100)
        model = train_sdae(x, y, config, seed=0)
        xt, yt = separable_data(seed=1)
        pred = model.predict_proba(xt) >= 0.5
        assert np.mean(pred == yt.astype(bool)) >= 0.95

    def test_softmax_outputs_sum_to_one(self):
        x, y = separable_data()
        model = train_sdae(x, y, SDAEConfig(hidden_sizes=(4,), finetune_epochs=5), seed=0)
        probe = np.random.default_rng(3).normal(size=(50, 1))
        _, p = model.forward(probe)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-9

    def test_deterministic_for_fixed_seed(self):
        x, y = separable_data(seed=4)
        config = SDAEConfig(hidden_sizes=(4,), finetune_epochs=10)
        m1 = train_sdae(x, y, config, seed=9)
        m2 = train_sdae(x, y, config, seed=9)
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ValueError, match="binary"):
            train_sdae(np.zeros((4, 2)), np.array([0, 2, 1, 0]))

    def test_forward_only_loss_equals_loss_and_grads(self):
        x, y = separable_data(seed=5)
        model = train_sdae(x, y, SDAEConfig(hidden_sizes=(4, 3), finetune_epochs=3), seed=0)
        assert model.loss(x, y) == model.loss_and_grads(x, y)[0]

    def test_training_trace_recorded(self):
        x, y = separable_data(seed=5)
        model = train_sdae(x, y, SDAEConfig(hidden_sizes=(4,), finetune_epochs=5), seed=0)
        assert len(model.trace["pretrain_losses"]) == 1
        assert len(model.trace["finetune_losses"]) >= 1


class TestGradients:
    def test_analytic_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        model = SDAEModel(
            layer_sizes=[4, 3, 2],
            weights=[rng.normal(scale=0.5, size=(4, 3)), rng.normal(scale=0.5, size=(3, 2))],
            biases=[rng.normal(scale=0.1, size=3), rng.normal(scale=0.1, size=2)],
            corruption=0.0,
        )
        X = rng.normal(size=(5, 4))
        y = np.array([0, 1, 1, 0, 1])
        assert gradient_check(model, X, y) < 1e-4


class TestPersistence:
    def test_state_round_trip_preserves_predictions(self):
        x, y = separable_data(seed=6)
        model = train_sdae(x, y, SDAEConfig(hidden_sizes=(4,), finetune_epochs=10), seed=1)
        restored = SDAEModel.from_state(model.to_state())
        probe = np.random.default_rng(8).normal(size=(100, 1))
        assert np.array_equal(model.predict_proba(probe), restored.predict_proba(probe))

    def test_dimension_mismatch_rejected(self):
        x, y = separable_data(seed=6)
        model = train_sdae(x, y, SDAEConfig(hidden_sizes=(4,), finetune_epochs=2), seed=1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            model.predict_proba(np.zeros((3, 7)))


class TestFromStateValidation:
    def state(self):
        x, y = separable_data(seed=6)
        model = train_sdae(x, y, SDAEConfig(hidden_sizes=(4, 3), finetune_epochs=1), seed=1)
        return model.to_state()

    def test_valid_state_loads(self):
        assert SDAEModel.from_state(self.state()).layer_sizes == [1, 4, 3, 2]

    @pytest.mark.parametrize("corrupt", [
        lambda s: s["weights"].__setitem__(1, s["weights"][1].T),   # [3, 4] after [1, 4]
        lambda s: s["biases"].__setitem__(0, np.zeros(5)),
        lambda s: s["weights"].pop(),
        lambda s: s.__setitem__("layer_sizes", [1, 4, 3, 3]),
    ], ids=["transposed-weight", "bias-length", "missing-layer", "three-way-head"])
    def test_weight_shapes_that_do_not_chain_rejected(self, corrupt):
        state = self.state()
        corrupt(state)
        with pytest.raises(FormatError, match="chain"):
            SDAEModel.from_state(state)

    def test_missing_key_and_bad_array_rejected(self):
        state = self.state()
        del state["biases"]
        with pytest.raises(FormatError, match="lacks biases"):
            SDAEModel.from_state(state)
        state = self.state()
        state["weights"][0] = np.zeros(4)
        with pytest.raises(FormatError, match="2-d"):
            SDAEModel.from_state(state)
