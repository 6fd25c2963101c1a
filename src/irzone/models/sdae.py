"""Stacked denoising autoencoder: layerwise pretraining on masking-corrupted
inputs, then supervised fine-tuning with a softmax head.

Pure-numpy SGD. Hidden units are sigmoid; decoders are affine with squared
reconstruction error (inputs are standardized real values); the classifier
head is a 2-way softmax trained with cross-entropy and early stopping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..io_formats import FormatError, state_array, state_fields


class TrainingDiverged(RuntimeError):
    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SDAEConfig:
    hidden_sizes: tuple[int, ...] = (32, 16)
    corruption: float = 0.2
    pretrain_epochs: int = 15
    finetune_epochs: int = 200
    lr: float = 0.05
    batch_size: int = 64
    patience: int = 20
    holdout_frac: float = 0.1


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _cross_entropy(p, y):
    """Mean cross-entropy of softmax outputs p [N, 2] at integer labels y."""
    return float(-np.mean(np.log(p[np.arange(len(y)), y] + 1e-12)))


def pretrain_dae_layer(X, hidden_size, corruption=0.2, epochs=15, lr=0.05,
                       seed=0, batch_size=64):
    """One denoising autoencoder layer.

    Each input coordinate is zeroed with probability `corruption`; the layer
    learns to reconstruct the clean input. Returns ((W, b) encoder,
    (W_dec, b_dec) decoder, losses per epoch).
    """
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
            h = _sigmoid(xc @ W + b)
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


@dataclass
class SDAEModel:
    layer_sizes: list[int]          # [D, h1, ..., 2]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    corruption: float
    trace: dict = field(default_factory=dict)

    def forward(self, X):
        """Returns (activations per layer, softmax output [N, 2])."""
        X = np.asarray(X, dtype=np.float64)
        acts = [X]
        h = X
        for i in range(len(self.weights) - 1):
            h = _sigmoid(h @ self.weights[i] + self.biases[i])
            acts.append(h)
        logits = h @ self.weights[-1] + self.biases[-1]
        return acts, _softmax(logits)

    def predict_proba(self, X) -> np.ndarray:
        """P(class 1) per row."""
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.shape[1] != self.layer_sizes[0]:
            raise ValueError(
                f"dimension mismatch: got {X.shape[1]}, expected {self.layer_sizes[0]}"
            )
        _, p = self.forward(X)
        return float(p[0, 1]) if single else p[:, 1]

    def loss(self, X, y) -> float:
        """Mean cross-entropy, from a forward pass only."""
        _, p = self.forward(X)
        return _cross_entropy(p, np.asarray(y, dtype=np.int64))

    def loss_and_grads(self, X, y):
        """Mean cross-entropy and analytic gradients for every parameter."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n = X.shape[0]
        acts, p = self.forward(X)
        loss = _cross_entropy(p, y)
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

    def to_state(self) -> dict:
        return {
            "kind": "sdae",
            "layer_sizes": list(self.layer_sizes),
            "corruption": self.corruption,
            "weights": list(self.weights),
            "biases": list(self.biases),
        }

    @classmethod
    def from_state(cls, state: dict) -> "SDAEModel":
        matrix, vector = state_array(np.float64, 2), state_array(np.float64, 1)
        sizes, weights, biases, corruption = state_fields(
            state,
            layer_sizes=lambda v: [int(n) for n in v],
            weights=lambda v: [matrix(w) for w in v],
            biases=lambda v: [vector(b) for b in v],
            corruption=float,
        )
        pairs = list(zip(sizes[:-1], sizes[1:]))
        if (
            len(sizes) < 2
            or sizes[-1] != 2
            or [w.shape for w in weights] != pairs
            or [b.shape for b in biases] != [(n_out,) for _, n_out in pairs]
        ):
            raise FormatError(f"SDAE weight shapes do not chain through layer sizes {sizes}")
        return cls(layer_sizes=sizes, weights=weights, biases=biases, corruption=corruption)


def train_sdae(X, y, config: SDAEConfig = SDAEConfig(), seed: int = 0) -> SDAEModel:
    """Layerwise pretraining followed by supervised fine-tuning."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if not np.isin(y, [0, 1]).all():
        raise ValueError("labels must be binary 0/1")
    n, d = X.shape
    rng = np.random.default_rng(seed)

    # unsupervised stack: each layer is a DAE on the previous layer's codes
    weights, biases = [], []
    codes = X
    pre_losses = []
    for li, h in enumerate(config.hidden_sizes):
        (W, b), _, losses = pretrain_dae_layer(
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
        codes = _sigmoid(codes @ W + b)
        pre_losses.append(losses)

    h_last = config.hidden_sizes[-1] if config.hidden_sizes else d
    scale = 1.0 / np.sqrt(h_last)
    weights.append(rng.uniform(-scale, scale, size=(h_last, 2)))
    biases.append(np.zeros(2))
    model = SDAEModel(
        layer_sizes=[d, *config.hidden_sizes, 2],
        weights=weights,
        biases=biases,
        corruption=config.corruption,
    )

    # supervised fine-tune with a 10% held-out split and patience early stop
    order = rng.permutation(n)
    n_hold = max(1, int(round(config.holdout_frac * n))) if n > 10 else 0
    hold, train = order[:n_hold], order[n_hold:]
    if len(train) == 0:
        train, hold = order, order[:0]
    Xt, yt = X[train], y[train]
    ft_losses = []
    best_hold = np.inf
    best = None
    since_best = 0
    for _ in range(config.finetune_epochs):
        perm = rng.permutation(len(Xt))
        for s in range(0, len(Xt), config.batch_size):
            idx = perm[s : s + config.batch_size]
            loss, gw, gb = model.loss_and_grads(Xt[idx], yt[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged("fine-tune loss diverged", ft_losses + [loss])
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
    model.trace = {"pretrain_losses": pre_losses, "finetune_losses": ft_losses}
    return model
