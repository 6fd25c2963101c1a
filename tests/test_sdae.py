"""Autoencoder backend: pretraining, fine-tuning, gradients, determinism."""

import re

import numpy as np
import pytest

from irzone.io_formats import FormatError
from irzone.models.sdae import (
    HOLDOUT_FRAC,
    SDAEConfig,
    SDAEModel,
    TrainingDiverged,
    _sigmoid,
    _Workspace,
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
        config = SDAEConfig(corruption=0.0, pretrain_epochs=30)
        _, _, losses = pretrain_dae_layer(x, 6, config, seed=0)
        assert losses[-1] < losses[0]

    def test_losses_finite_throughout(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(120, 5))
        _, _, losses = pretrain_dae_layer(x, 4, SDAEConfig(pretrain_epochs=10), seed=0)
        assert np.all(np.isfinite(losses))

    def test_fixed_seed_gives_identical_weights(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 3))
        (w1, b1), _, _ = pretrain_dae_layer(x, 4, SDAEConfig(), seed=5)
        (w2, b2), _, _ = pretrain_dae_layer(x, 4, SDAEConfig(), seed=5)
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)

    def test_rejects_corruption_of_one(self):
        # pretrain_dae_layer reads its corruption from a config, which rejects 1.0
        with pytest.raises(ValueError, match="corruption"):
            SDAEConfig(corruption=1.0)


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

    def test_rejects_zero_finetune_epochs(self):
        # without a fine-tune epoch the softmax head keeps its random weights
        x, y = separable_data()
        with pytest.raises(ValueError, match="finetune_epochs must be >= 1, got 0"):
            train_sdae(x, y, SDAEConfig(hidden_sizes=(4,), finetune_epochs=0))

    @pytest.mark.parametrize("name, value, rule", [
        ("patience", 0, ">= 1"),
        ("patience", -3, ">= 1"),
        ("pretrain_epochs", -2, ">= 0"),
        ("corruption", 1.0, "in [0, 1)"),
    ])
    def test_config_out_of_range_names_the_field(self, name, value, rule):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be {rule}, got {value!r}")):
            SDAEConfig(**{name: value})

    @pytest.mark.parametrize("y", [[0, 2, 1, 0], [-1, 0, 1, 0], [0, 1, 0.5, 1]])
    def test_loss_rejects_nonbinary_labels(self, y):
        rng = np.random.default_rng(0)
        model = SDAEModel([3, 4, 2], [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))],
                          [np.zeros(4), np.zeros(2)], 0.0)
        x = rng.normal(size=(4, 3))
        with pytest.raises(ValueError, match="binary"):
            model.loss(x, y)
        with pytest.raises(ValueError, match="binary"):
            model.loss_and_grads(x, y)

    def test_forward_only_loss_equals_loss_and_grads(self):
        x, y = separable_data(seed=5)
        model = train_sdae(x, y, SDAEConfig(hidden_sizes=(4, 3), finetune_epochs=3), seed=0)
        assert model.loss(x, y) == model.loss_and_grads(x, y)[0]

    def test_training_trace_recorded(self):
        x, y = separable_data(seed=5)
        model = train_sdae(x, y, SDAEConfig(hidden_sizes=(4,), finetune_epochs=5), seed=0)
        assert len(model.trace["pretrain_losses"]) == 1
        assert len(model.trace["finetune_losses"]) >= 1


def oracle_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))


def oracle_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def oracle_cross_entropy(p, y):
    return float(-np.mean(np.log(p[np.arange(len(y)), y] + 1e-12)))


class OracleSDAE(SDAEModel):
    """The forward pass, loss and gradients the current ones replaced, kept
    verbatim as their oracle."""

    def forward(self, X):
        X = np.asarray(X, dtype=np.float64)
        acts = [X]
        h = X
        for i in range(len(self.weights) - 1):
            h = oracle_sigmoid(h @ self.weights[i] + self.biases[i])
            acts.append(h)
        logits = h @ self.weights[-1] + self.biases[-1]
        return acts, oracle_softmax(logits)

    def loss(self, X, y) -> float:
        _, p = self.forward(X)
        return oracle_cross_entropy(p, np.asarray(y, dtype=np.int64))

    def loss_and_grads(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n = X.shape[0]
        acts, p = self.forward(X)
        loss = oracle_cross_entropy(p, y)
        delta = p.copy()
        delta[np.arange(n), y] -= 1.0
        delta /= n
        gw = [None] * len(self.weights)
        gb = [None] * len(self.biases)
        for i in range(len(self.weights) - 1, -1, -1):
            gw[i] = acts[i].T @ delta
            gb[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * acts[i] * (1 - acts[i])
        return loss, gw, gb


def oracle_pretrain_dae_layer(X, hidden_size, corruption=0.2, epochs=15, lr=0.05,
                              seed=0, batch_size=64):
    """The loop pretrain_dae_layer replaced, kept verbatim as its oracle: one
    corruption draw per batch and out-of-place updates."""
    if not 0.0 <= corruption < 1.0:
        raise ValueError("corruption must be in [0, 1)")
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(d)
    W = rng.uniform(-scale, scale, size=(d, hidden_size))
    b = np.zeros(hidden_size)
    Wd = rng.uniform(-1.0 / np.sqrt(hidden_size), 1.0 / np.sqrt(hidden_size),
                     size=(hidden_size, d))
    bd = np.zeros(d)
    losses = []
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for s in range(0, n, batch_size):
            idx = order[s : s + batch_size]
            xb = X[idx]
            keep = (rng.random(xb.shape) >= corruption) if corruption > 0 else None
            xc = xb * keep if keep is not None else xb
            h = oracle_sigmoid(xc @ W + b)
            xr = h @ Wd + bd
            err = xr - xb
            total += float((err**2).sum())
            m = len(idx)
            g_xr = 2.0 * err / m
            g_Wd = h.T @ g_xr
            g_bd = g_xr.sum(axis=0)
            g_h = g_xr @ Wd.T
            g_z = g_h * h * (1 - h)
            g_W = xc.T @ g_z
            g_b = g_z.sum(axis=0)
            W -= lr * g_W
            b -= lr * g_b
            Wd -= lr * g_Wd
            bd -= lr * g_bd
        loss = total / n
        if not np.isfinite(loss):
            raise TrainingDiverged("pretraining loss diverged", losses + [loss])
        losses.append(loss)
    return (W, b), (Wd, bd), losses


def oracle_train_sdae(X, y, config=SDAEConfig(), seed=0):
    """The train_sdae loop the current one replaced, kept verbatim as its
    oracle: a forward pass over the whole training split after every
    fine-tune epoch. It also records (loss, rows) of every minibatch, per
    epoch, in trace["batch_losses"]."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if not np.isin(y, [0, 1]).all():
        raise ValueError("labels must be binary 0/1")
    n, d = X.shape
    rng = np.random.default_rng(seed)

    weights, biases = [], []
    codes = X
    pre_losses = []
    for li, h in enumerate(config.hidden_sizes):
        (W, b), _, losses = oracle_pretrain_dae_layer(
            codes,
            h,
            corruption=config.corruption,
            epochs=config.pretrain_epochs,
            lr=config.lr,
            seed=seed + 1000 * (li + 1),
            batch_size=config.batch_size,
        )
        weights.append(W)
        biases.append(b)
        codes = oracle_sigmoid(codes @ W + b)
        pre_losses.append(losses)

    h_last = config.hidden_sizes[-1] if config.hidden_sizes else d
    scale = 1.0 / np.sqrt(h_last)
    weights.append(rng.uniform(-scale, scale, size=(h_last, 2)))
    biases.append(np.zeros(2))
    model = OracleSDAE(
        layer_sizes=[d, *config.hidden_sizes, 2],
        weights=weights,
        biases=biases,
        corruption=config.corruption,
    )

    order = rng.permutation(n)
    n_hold = max(1, int(round(HOLDOUT_FRAC * n))) if n > 10 else 0
    hold, train = order[:n_hold], order[n_hold:]
    if len(train) == 0:
        train, hold = order, order[:0]
    Xt, yt = X[train], y[train]
    ft_losses = []
    batch_losses = []
    best_hold = np.inf
    best = None
    since_best = 0
    for _ in range(config.finetune_epochs):
        perm = rng.permutation(len(Xt))
        batch_losses.append([])
        for s in range(0, len(Xt), config.batch_size):
            idx = perm[s : s + config.batch_size]
            loss, gw, gb = model.loss_and_grads(Xt[idx], yt[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged("fine-tune loss diverged", ft_losses + [loss])
            batch_losses[-1].append((loss, len(idx)))
            for i in range(len(model.weights)):
                model.weights[i] -= config.lr * gw[i]
                model.biases[i] -= config.lr * gb[i]
        ft_losses.append(model.loss(Xt, yt))
        if len(hold) > 0:
            hold_loss = model.loss(X[hold], y[hold])
            if hold_loss < best_hold - 1e-9:
                best_hold = hold_loss
                best = ([w.copy() for w in model.weights], [b.copy() for b in model.biases])
                since_best = 0
            else:
                since_best += 1
                if since_best >= config.patience:
                    break
    if best is not None:
        model.weights, model.biases = best
    model.trace = {"pretrain_losses": pre_losses, "finetune_losses": ft_losses,
                   "batch_losses": batch_losses}
    return model


def noisy_data(n, d=3, seed=0, flip=0.2):
    """Linearly separable labels with a fraction `flip` of them flipped."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = (x @ np.linspace(1.0, -0.5, d) > 0).astype(np.int64)
    y[rng.random(n) < flip] ^= 1
    return x, y


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


ORACLE_CASES = {
    "corruption-0": (noisy_data(300, seed=1),
                     SDAEConfig(hidden_sizes=(6, 4), corruption=0.0, pretrain_epochs=4,
                                finetune_epochs=15, batch_size=32)),
    "corruption-0.2": (noisy_data(300, seed=2),
                       SDAEConfig(hidden_sizes=(6, 4), corruption=0.2, pretrain_epochs=4,
                                  finetune_epochs=15, batch_size=32)),
    "ragged-batches": (noisy_data(203, d=5, seed=3),
                       SDAEConfig(hidden_sizes=(7,), pretrain_epochs=3, finetune_epochs=12,
                                  batch_size=24)),
    "patience-stop": (noisy_data(240, seed=4, flip=0.5),
                      SDAEConfig(hidden_sizes=(5,), pretrain_epochs=2, finetune_epochs=200,
                                 lr=0.3, batch_size=16, patience=3)),
    "no-holdout": (noisy_data(9, seed=5),
                   SDAEConfig(hidden_sizes=(4, 3), pretrain_epochs=5, finetune_epochs=20,
                              batch_size=4)),
    "no-hidden-layer": (noisy_data(150, seed=6),
                        SDAEConfig(hidden_sizes=(), finetune_epochs=25, batch_size=20)),
}


class TestTrainingMatchesOracle:
    """Same weights, biases, epochs and pretraining losses as the old loops,
    without their full training-set loss pass."""

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_train_sdae(self, case):
        (x, y), config = ORACLE_CASES[case]
        for seed in (0, 11):
            want = oracle_train_sdae(x, y, config, seed=seed)
            got = train_sdae(x, y, config, seed=seed)
            assert_same_bytes(got.weights, want.weights)
            assert_same_bytes(got.biases, want.biases)
            assert got.trace["pretrain_losses"] == want.trace["pretrain_losses"]
            epochs = len(want.trace["finetune_losses"])
            assert len(got.trace["finetune_losses"]) == epochs
            if case == "patience-stop":
                assert epochs < config.finetune_epochs
            else:
                assert epochs == config.finetune_epochs
            weighted = [sum(loss * m for loss, m in batches) / sum(m for _, m in batches)
                        for batches in want.trace["batch_losses"]]
            assert got.trace["finetune_losses"] == weighted

    @pytest.mark.parametrize("corruption", [0.0, 0.2, 0.5])
    @pytest.mark.parametrize("n", [64, 100])
    def test_pretrain_dae_layer(self, corruption, n):
        x, _ = noisy_data(n, d=4, seed=n)
        config = SDAEConfig(corruption=corruption, pretrain_epochs=5, lr=0.1, batch_size=32)
        got = pretrain_dae_layer(x, 6, config, seed=3)
        want = oracle_pretrain_dae_layer(x, 6, corruption=corruption, epochs=5, lr=0.1,
                                         seed=3, batch_size=32)
        assert_same_bytes([*got[0], *got[1]], [*want[0], *want[1]])
        assert got[2] == want[2]

    @pytest.mark.parametrize("scale", [3.0, 100.0])  # 100: sigmoid inputs beyond +-60
    def test_loss_and_grads(self, scale):
        rng = np.random.default_rng(12)
        for sizes in ([4, 2], [4, 5, 2], [3, 6, 4, 2]):
            weights = [rng.normal(size=io) for io in zip(sizes[:-1], sizes[1:])]
            biases = [rng.normal(size=o) for o in sizes[1:]]
            x = rng.normal(scale=scale, size=(17, sizes[0]))
            x[0, 0] = np.nan
            y = rng.integers(0, 2, size=17)
            got = SDAEModel(sizes, weights, biases, 0.0)
            want = OracleSDAE(sizes, weights, biases, 0.0)
            assert_same_bytes([got.predict_proba(x)], [want.predict_proba(x)])
            x = x[1:]
            y = y[1:]
            loss, gw, gb = got.loss_and_grads(x, y)
            want_loss, want_gw, want_gb = want.loss_and_grads(x, y)
            assert loss == want_loss == got.loss(x, y) == want.loss(x, y)
            assert_same_bytes(gw, want_gw)
            assert_same_bytes(gb, want_gb)
            work = nan_workspace(got, len(x))
            got_loss, got_gw, got_gb = got.loss_and_grads(x, y, work)
            assert got_loss == loss
            assert_same_bytes(got_gw, want_gw)
            assert_same_bytes(got_gb, want_gb)
            assert got_gw[0].base is work.grad  # the views an SGD step reads


def nan_workspace(model, rows, backward=True):
    """A workspace whose every float buffer holds NaN, so that a value the
    pass does not write shows up in its result."""
    work = _Workspace(model, rows, backward)
    bufs = work.acts + [work.pair]
    if backward:
        bufs += work.deltas + [work.grad]
    for buf in bufs:
        buf.fill(np.nan)
    return work


class TestWorkspace:
    """A pass into a reused workspace, built for more rows than it gets,
    gives the bytes of a pass into a fresh one and of the oracle."""

    @pytest.mark.parametrize("sizes", [[4, 2], [4, 5, 2], [3, 6, 4, 2]],
                             ids=["no-hidden-layer", "one-hidden-layer", "two-hidden-layers"])
    def test_ragged_passes_match_fresh_ones(self, sizes):
        rng = np.random.default_rng(len(sizes))
        weights = [rng.normal(size=io) for io in zip(sizes[:-1], sizes[1:])]
        biases = [rng.normal(size=o) for o in sizes[1:]]
        model = SDAEModel(sizes, weights, biases, 0.0)
        oracle = OracleSDAE(sizes, weights, biases, 0.0)
        work = nan_workspace(model, 24)
        for rows, scale in ((24, 1.0), (17, 100.0), (1, 3.0), (24, 100.0), (5, 1.0)):
            x = rng.normal(scale=scale, size=(rows, sizes[0]))  # 100: beyond +-60
            if rows == 5:
                x[0, -1] = np.inf  # a non-finite loss and gradients
                x[1] = np.nan
            y = rng.integers(0, 2, size=rows)
            with np.errstate(invalid="ignore"):  # inf - inf in the rows = 5 pass
                want = oracle.loss_and_grads(x, y)
                fresh = model.loss_and_grads(x, y)
                got = model.loss_and_grads(x, y, work)
            assert_same_bytes([np.array([got[0], fresh[0]])], [np.array([want[0]] * 2)])
            for grads in (1, 2):
                assert_same_bytes(got[grads], want[grads])
                assert_same_bytes(fresh[grads], want[grads])

    def test_forward_with_and_without_workspace(self):
        rng = np.random.default_rng(5)
        sizes = [3, 6, 4, 2]
        model = SDAEModel(sizes, [rng.normal(size=io) for io in zip(sizes[:-1], sizes[1:])],
                          [rng.normal(size=o) for o in sizes[1:]], 0.0)
        for backward in (False, True):
            work = nan_workspace(model, 30, backward)
            for rows in (30, 11):
                x = rng.normal(scale=100.0, size=(rows, 3))
                x[1] = np.nan
                acts, p = model.forward(x, work)
                want_acts, want_p = model.forward(x)
                assert_same_bytes(acts, want_acts)
                assert_same_bytes([p], [want_p])
                assert np.isnan(p[1]).all() and not np.isnan(np.delete(p, 1, axis=0)).any()

    def test_sigmoid_without_upper_clip(self):
        x = np.array([-np.inf, -1e308, -745.2, -60.5, -60.0, -59.9, -1e-300, -0.0, 0.0,
                      1e-300, 36.7, 37.5, 59.9, 60.0, 60.5, 745.2, 1e308, np.inf, np.nan])
        want = oracle_sigmoid(x)
        assert_same_bytes([_sigmoid(x.copy())], [want])
        assert (want[x >= 60] == 1.0).all()


def test_fine_tuning_never_runs_a_full_training_set_pass(monkeypatch):
    x, y = noisy_data(1000, seed=7)
    config = SDAEConfig(hidden_sizes=(4,), pretrain_epochs=1, finetune_epochs=5,
                        batch_size=32)
    rows = []
    forward = SDAEModel.forward

    def recording_forward(self, X, work=None):
        rows.append(len(X))
        return forward(self, X, work)

    monkeypatch.setattr(SDAEModel, "forward", recording_forward)
    train_sdae(x, y, config, seed=0)
    n_hold = round(HOLDOUT_FRAC * len(x))
    assert rows and max(rows) == max(config.batch_size, n_hold)


def test_every_fine_tune_step_is_one_loss_and_grads_call(monkeypatch):
    """Training updates the weights only from the gradients that
    SDAEModel.loss_and_grads returns, one call per minibatch, so criterion 3
    and the finite-difference test check the gradient code training runs."""
    x, y = noisy_data(203, d=5, seed=3)
    config = SDAEConfig(hidden_sizes=(7,), pretrain_epochs=1, finetune_epochs=4,
                        batch_size=24)
    rows = []
    untrained = []  # the parameters as the first fine-tune step finds them
    loss_and_grads = SDAEModel.loss_and_grads

    def zeroing_loss_and_grads(self, X, y, work=None):
        if not untrained:
            untrained.extend(a.copy() for a in self.weights + self.biases)
        loss, gw, gb = loss_and_grads(self, X, y, work)
        rows.append(len(X))
        for g in gw + gb:
            g[...] = 0.0
        return loss, gw, gb

    monkeypatch.setattr(SDAEModel, "loss_and_grads", zeroing_loss_and_grads)
    frozen = train_sdae(x, y, config, seed=0)
    # 203 rows less 20 held out leave 183 = 7 * 24 + 15 per epoch
    assert rows == ([24] * 7 + [15]) * config.finetune_epochs
    assert len(frozen.trace["finetune_losses"]) == config.finetune_epochs
    assert_same_bytes(frozen.weights + frozen.biases, untrained)


def test_every_pretraining_step_is_one_backward_call(monkeypatch):
    """Pretraining takes its gradients from SDAEModel.backward, the pass
    fine-tuning's loss_and_grads runs, one call per minibatch of every layer,
    so the oracle and finite-difference tests check the code both stages run."""
    x, y = noisy_data(203, d=5, seed=3)
    config = SDAEConfig(hidden_sizes=(7, 3), pretrain_epochs=2, finetune_epochs=1,
                        batch_size=24)
    calls = []  # (layer sizes, rows) of every backward call
    backward = SDAEModel.backward

    def recording_backward(self, acts, delta, work):
        calls.append((tuple(self.layer_sizes), len(delta)))
        return backward(self, acts, delta, work)

    monkeypatch.setattr(SDAEModel, "backward", recording_backward)
    train_sdae(x, y, config, seed=0)
    # each layer pretrains on all 203 rows = 8 * 24 + 11 per epoch; fine-tuning
    # on the 183 left after the hold-out, 7 * 24 + 15
    pretrain = [24] * 8 + [11]
    assert calls == ([((5, 7, 5), m) for m in pretrain * 2]
                     + [((7, 3, 7), m) for m in pretrain * 2]
                     + [((5, 7, 3, 2), m) for m in [24] * 7 + [15]])


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
        for shape in ((3, 7), (1,), (), (2, 1, 1)):  # [N, 1] rows only
            with pytest.raises(ValueError, match="dimension mismatch"):
                model.predict_proba(np.zeros(shape))


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
