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
    """1 / (1 + exp(-x)) with x clipped to [-60, 60], built in the clipped
    copy. np.maximum and np.minimum give np.clip's values (NaN included) for
    a fraction of its call overhead."""
    s = np.maximum(x, -60.0)
    np.minimum(s, 60.0, out=s)
    np.exp(np.negative(s, out=s), out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def _softmax(z):
    """Row softmax of z, computed in z."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _cross_entropy(p_true):
    """Mean cross-entropy from the softmax probabilities of the true labels."""
    return -float(np.log(p_true + 1e-12).sum()) / len(p_true)  # np.mean's sum / n


def _flat_views(arrays):
    """A flat copy of `arrays` and views of it in their shapes."""
    flat = np.concatenate([a.ravel() for a in arrays])
    parts = np.split(flat, np.cumsum([a.size for a in arrays])[:-1])
    return flat, [v.reshape(a.shape) for v, a in zip(parts, arrays)]


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
        # the epoch's rows in visiting order, and one mask draw for all of
        # them: the same random stream as one draw per batch
        Xo = X[rng.permutation(n)]
        Xc = Xo * (rng.random((n, d)) >= corruption) if corruption > 0 else Xo
        total = 0.0
        for s in range(0, n, batch_size):
            xb, xc = Xo[s : s + batch_size], Xc[s : s + batch_size]
            h = _sigmoid(xc @ W + b)
            err = h @ Wd + bd - xb
            total += float((err**2).sum())
            g_xr = 2.0 * err / len(xb)
            g_Wd = h.T @ g_xr
            g_bd = g_xr.sum(axis=0)
            g_z = (g_xr @ Wd.T) * h * (1 - h)
            g_W = xc.T @ g_z
            g_b = g_z.sum(axis=0)
            for p, g in ((W, g_W), (b, g_b), (Wd, g_Wd), (bd, g_bd)):
                g *= lr
                p -= g
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
        h = np.asarray(X, dtype=np.float64)
        acts = [h]
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = _sigmoid(h @ W + b)
            acts.append(h)
        return acts, _softmax(h @ self.weights[-1] + self.biases[-1])

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
        return _cross_entropy(p[np.arange(len(p)), np.asarray(y, dtype=np.int64)])

    def loss_and_grads(self, X, y, out=None):
        """Mean cross-entropy and analytic gradients for every parameter, as
        (loss, weight gradients, bias gradients). If given, `out` is a pair of
        lists of arrays shaped like the weights and the biases; the gradients
        are written into them."""
        y = np.asarray(y, dtype=np.int64)
        acts, delta = self.forward(X)
        n = len(delta)
        rows = np.arange(n)
        loss = _cross_entropy(delta[rows, y])
        delta[rows, y] -= 1.0
        delta /= n
        gw, gb = out or ([None] * len(self.weights), [None] * len(self.biases))
        for i in range(len(self.weights) - 1, -1, -1):
            gw[i] = np.matmul(acts[i].T, delta, out=gw[i])
            gb[i] = delta.sum(axis=0, out=gb[i])
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
    """Layerwise pretraining followed by supervised fine-tuning.

    Fine-tuning holds out `holdout_frac` of the rows and stops once the
    hold-out loss has not improved for `patience` epochs; the weights with
    the best hold-out loss are kept. `trace["finetune_losses"]` holds one
    entry per epoch: the mean of that epoch's minibatch losses, weighted by
    batch size, each taken before its batch's update. Training never runs a
    forward pass over the whole training split: on thousands of rows the
    product is large enough for OpenBLAS to wake its second thread, which
    then busy-waits through the small minibatch products that follow."""
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
    Xh, yh = X[hold], y[hold]
    bs = config.batch_size
    # the parameters are views into one flat array and their gradients into
    # another, so that an SGD step is two numpy calls
    k = len(model.weights)
    theta, views = _flat_views(model.weights + model.biases)
    model.weights, model.biases = views[:k], views[k:]
    grad, views = _flat_views(views)
    grads = (views[:k], views[k:])
    ft_losses = []
    best_hold = np.inf
    best = None
    since_best = 0
    for _ in range(config.finetune_epochs):
        perm = rng.permutation(len(Xt))
        Xp, yp = Xt[perm], yt[perm]
        total = 0.0
        for s in range(0, len(Xp), bs):
            yb = yp[s : s + bs]
            loss = model.loss_and_grads(Xp[s : s + bs], yb, out=grads)[0]
            if not np.isfinite(loss):
                raise TrainingDiverged("fine-tune loss diverged", ft_losses + [loss])
            total += loss * len(yb)
            grad *= config.lr
            theta -= grad
        ft_losses.append(total / len(Xp))
        if len(hold) > 0:
            hold_loss = model.loss(Xh, yh)
            if hold_loss < best_hold - 1e-9:
                best_hold = hold_loss
                best = theta.copy()
                since_best = 0
            else:
                since_best += 1
                if since_best >= config.patience:
                    break
    if best is not None:
        theta[:] = best
    model.trace = {"pretrain_losses": pre_losses, "finetune_losses": ft_losses}
    return model
