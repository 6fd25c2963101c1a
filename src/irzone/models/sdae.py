"""Stacked denoising autoencoder: layerwise pretraining on masking-corrupted
inputs, then supervised fine-tuning with a softmax head.

Pure-numpy SGD. Hidden units are sigmoid; decoders are affine with squared
reconstruction error (inputs are standardized real values); the classifier
head is a 2-way softmax trained with cross-entropy and early stopping.

Training makes tens of thousands of minibatch steps of 64 rows. Each step is
a few dozen numpy calls on arrays of a few kilobytes, so the calls' fixed
cost, not their arithmetic, sets the time. A step therefore writes every
result into buffers allocated once per training call (`_Workspace`), and
every product is `np.dot(a, b, out=buf)`: the same `cblas_dgemm` call as
`a @ b`, with less dispatch. The floats are those of the out-of-place
expressions, which the tests keep as the oracle. (`np.dot` and `@` part ways
only on a non-contiguous input times a one-column matrix; no layer here is
one column wide unless configured so, and the pipeline's inputs are
contiguous.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..io_formats import FormatError, state_array, state_fields


HOLDOUT_FRAC = 0.1  # share of the rows held out for early stopping


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

    def __post_init__(self):
        for name, ok, rule in (
            ("hidden_sizes", all(h >= 1 for h in self.hidden_sizes), ">= 1 each"),
            ("corruption", 0.0 <= self.corruption < 1.0, "in [0, 1)"),
            ("pretrain_epochs", self.pretrain_epochs >= 0, ">= 0"),
            # without a fine-tune epoch the softmax head keeps its random weights
            ("finetune_epochs", self.finetune_epochs >= 1, ">= 1"),
            ("lr", self.lr > 0.0, "> 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("patience", self.patience >= 1, ">= 1"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


def _sigmoid(z):
    """1 / (1 + exp(-z)), computed in z. z is clipped below at -60, so
    exp(-z) cannot overflow. An upper clip would change nothing: for every
    z >= 60, +inf included, 1 + exp(-z) rounds to exactly 1.0, as it does at
    z = 60. NaN propagates."""
    np.maximum(z, -60.0, out=z)
    np.exp(np.negative(z, out=z), out=z)
    z += 1.0
    return np.reciprocal(z, out=z)  # 1.0 / z, rounded once


def _softmax(z, pair):
    """Row softmax of the two-column z, computed in z, with `pair` [N, 1] as
    scratch. The row max and row sum are the elementwise max and sum of the
    two columns: the floats of the axis=1 reductions, at a fraction of their
    call cost."""
    a, b = z[:, :1], z[:, 1:]
    z -= np.maximum(a, b, out=pair)
    np.exp(z, out=z)
    z /= np.add(a, b, out=pair)
    return z


def _affine(x, W, b, out):
    """x @ W + b, written into `out`."""
    np.dot(x, W, out=out)
    out += b
    return out


def _flat_views(arrays):
    """A flat copy of `arrays` and views of it in their shapes."""
    flat = np.concatenate([a.ravel() for a in arrays])
    parts = np.split(flat, np.cumsum([a.size for a in arrays])[:-1])
    return flat, [v.reshape(a.shape) for v, a in zip(parts, arrays)]


class _Workspace:
    """Buffers for the passes of an `SDAEModel` over up to `rows` rows, so
    that a training step allocates nothing. It holds:

    - `acts`: each layer's output, the softmax probabilities last;
    - `pair`: [rows, 1] scratch for the softmax's row max and row sum;
    - `first`: the flat index of each row's first class in the [rows, 2]
      softmax output;
    - with `backward`: `deltas`, each hidden layer's back-propagated error,
      and `grad`, one flat gradient array, with `gw` and `gb` its views
      shaped like the weights and the biases.

    A pass over fewer rows, such as the ragged last batch of an epoch, uses
    the leading rows of each buffer; they are C-contiguous, as `np.dot`'s
    `out` must be."""

    def __init__(self, model, rows, backward=True):
        widths = model.layer_sizes[1:]
        self.acts = [np.empty((rows, w)) for w in widths]
        self.pair = np.empty((rows, 1))
        self.first = np.arange(0, 2 * rows, 2)
        if backward:
            self.deltas = [np.empty((rows, w)) for w in widths[:-1]]
            k = len(model.weights)
            self.grad, views = _flat_views(model.weights + model.biases)
            self.gw, self.gb = views[:k], views[k:]


def _binary_labels(y):
    """y as an int64 array; raises unless every label is 0 or 1."""
    y = np.asarray(y)
    if not np.isin(y, [0, 1]).all():
        raise ValueError("labels must be binary 0/1")
    return y.astype(np.int64)


def _cross_entropy(p, true):
    """Mean cross-entropy of the softmax output p [N, 2], given the flat
    index of each row's true class in p."""
    p_true = p.reshape(-1).take(true)
    p_true += 1e-12
    np.log(p_true, out=p_true)
    return -float(p_true.sum()) / len(p_true)  # np.mean's sum / n


def pretrain_dae_layer(X, hidden_size, corruption=0.2, epochs=15, lr=0.05,
                       seed=0, batch_size=64):
    """One denoising autoencoder layer.

    Each input coordinate is zeroed with probability `corruption`; the layer
    learns to reconstruct the clean input. Returns ((W, b) encoder,
    (W_dec, b_dec) decoder, losses per epoch).

    As in fine-tuning, the parameters are views into one flat array and their
    gradients into another, and every batch writes into the same buffers.
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
    theta, (W, b, Wd, bd) = _flat_views([W, b, Wd, bd])
    grad, (g_W, g_b, g_Wd, g_bd) = _flat_views([W, b, Wd, bd])
    rows = min(batch_size, n)
    h_buf, g_z_buf = np.empty((rows, hidden_size)), np.empty((rows, hidden_size))
    err_buf, sq_buf = np.empty((rows, d)), np.empty((rows, d))
    losses = []
    for _ in range(epochs):
        # the epoch's rows in visiting order, and one mask draw for all of
        # them: the same random stream as one draw per batch
        Xo = X[rng.permutation(n)]
        Xc = Xo * (rng.random((n, d)) >= corruption) if corruption > 0 else Xo
        total = 0.0
        for s in range(0, n, batch_size):
            xb, xc = Xo[s : s + batch_size], Xc[s : s + batch_size]
            m = len(xb)
            h = _sigmoid(_affine(xc, W, b, h_buf[:m]))
            err = _affine(h, Wd, bd, err_buf[:m])
            err -= xb
            total += float(np.square(err, out=sq_buf[:m]).sum())
            err *= 2.0
            err /= m  # the reconstruction's gradient
            np.dot(h.T, err, out=g_Wd)
            np.add.reduce(err, axis=0, out=g_bd)
            g_z = np.dot(err, Wd.T, out=g_z_buf[:m])
            g_z *= h
            g_z *= np.subtract(1.0, h, out=h)  # h is not read again
            np.dot(xc.T, g_z, out=g_W)
            np.add.reduce(g_z, axis=0, out=g_b)
            grad *= lr
            theta -= grad
        loss = total / n
        if not math.isfinite(loss):
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

    def forward(self, X, work=None):
        """Returns (activations per layer, softmax output [N, 2]), written
        into the workspace `work`, or into a new one without the backward
        buffers if it is None."""
        h = np.asarray(X, dtype=np.float64)
        n = len(h)
        if work is None:
            work = _Workspace(self, n, backward=False)
        acts = [h]
        for W, b, buf in zip(self.weights[:-1], self.biases[:-1], work.acts):
            h = _sigmoid(_affine(h, W, b, buf[:n]))
            acts.append(h)
        z = _affine(h, self.weights[-1], self.biases[-1], work.acts[-1][:n])
        return acts, _softmax(z, work.pair[:n])

    def predict_proba(self, X) -> np.ndarray:
        """P(class 1) per row."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.layer_sizes[0]:
            raise ValueError(
                f"dimension mismatch: got {X.shape}, expected [N, {self.layer_sizes[0]}]"
            )
        _, p = self.forward(X)
        return p[:, 1]

    def loss(self, X, y) -> float:
        """Mean cross-entropy against the labels y in {0, 1}, from a forward
        pass only."""
        y = _binary_labels(y)
        work = _Workspace(self, len(X), backward=False)
        _, p = self.forward(X, work)
        return _cross_entropy(p, work.first[:len(p)] + y)

    def loss_and_grads(self, X, y, work=None):
        """Mean cross-entropy against the labels y in {0, 1} and analytic
        gradients for every parameter, as (loss, weight gradients, bias
        gradients). The pass writes into the workspace `work`, built for at
        least len(X) rows, and returns its gradient views; if `work` is None,
        into a new workspace. The labels are checked only then: with a
        workspace, as in `train_sdae`, they were checked once before
        training. The hidden activations are overwritten on the way back."""
        if work is None:
            work = _Workspace(self, len(X))
            y = _binary_labels(y)
        acts, delta = self.forward(X, work)
        n = len(delta)
        true = work.first[:n] + y
        loss = _cross_entropy(delta, true)
        delta.reshape(-1)[true] -= 1.0
        delta /= n
        for i in range(len(self.weights) - 1, -1, -1):
            np.dot(acts[i].T, delta, out=work.gw[i])
            np.add.reduce(delta, axis=0, out=work.gb[i])
            if i > 0:
                a = acts[i]
                delta = np.dot(delta, self.weights[i].T, out=work.deltas[i - 1][:n])
                delta *= a
                delta *= np.subtract(1.0, a, out=a)  # a is not read again
        return loss, work.gw, work.gb

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

    Fine-tuning holds out `HOLDOUT_FRAC` of the rows and stops once the
    hold-out loss has not improved for `patience` epochs; the weights with
    the best hold-out loss are kept. `trace["finetune_losses"]` holds one
    entry per epoch: the mean of that epoch's minibatch losses, weighted by
    batch size, each taken before its batch's update. Training never runs a
    forward pass over the whole training split: on thousands of rows the
    product is large enough for OpenBLAS to wake its second thread, which
    then busy-waits through the small minibatch products that follow.

    Every fine-tune step is one `SDAEModel.loss_and_grads` call into a
    workspace built once for `batch_size` rows, followed by one in-place SGD
    update of the flat parameter array from the workspace's flat gradient."""
    X = np.asarray(X, dtype=np.float64)
    y = _binary_labels(y)
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
    n_hold = max(1, int(round(HOLDOUT_FRAC * n))) if n > 10 else 0
    hold, train = order[:n_hold], order[n_hold:]
    if len(train) == 0:
        train, hold = order, order[:0]
    Xt, yt = X[train], y[train]
    Xh, yh = X[hold], y[hold]
    bs = config.batch_size
    # the parameters are views into one flat array and their gradients, in
    # the workspace, into another, so that an SGD step is two numpy calls
    k = len(model.weights)
    theta, views = _flat_views(model.weights + model.biases)
    model.weights, model.biases = views[:k], views[k:]
    work = _Workspace(model, min(bs, len(Xt)))
    grad = work.grad
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
            loss = model.loss_and_grads(Xp[s : s + bs], yb, work)[0]
            if not math.isfinite(loss):
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
