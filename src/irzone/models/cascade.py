"""Cascade of binary classifiers over the zone taxonomy.

The wiring is one table, `CASCADE`: each stage's routed leaves and the leaves
of its positive class.
  C1: WA vs NWA          on all usable pixels
  C2: DM vs BC           within WA (In mode only; On forces DM, Off forces BC)
  C3: HA vs NA           within BC
  C4: HA vs NA           within DM

A mode trains the stages whose two classes can both appear in it; the others
are forced and contribute nothing. A leaf's probability is the product of the
branch probabilities along its path, in table order. Pixels without usable
dynamics (degenerate flag set) are hard-assigned NWA.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..features import FEATURE_DIM, Standardizer, as_parts, fit_standardizer
from ..forked import forked_map
from ..io_formats import FormatError, state_fields
from ..zones import BC_LEAVES, DM_LEAVES, HA_LEAVES, LEAF_LABELS, WA_LEAVES, Mode, ZoneLabel
from .rf import RFConfig, RFModel, rf_predict_proba, train_rf
from .sdae import SDAEConfig, SDAEModel, train_sdae

MIN_SAMPLES_PER_CLASS = 100

# stage -> (leaves routed to it, leaves of its positive class). The order sets
# the stage seeds, the subsample draws and the order of the leaf products.
CASCADE = {
    "C1": (LEAF_LABELS, WA_LEAVES),
    "C2": (WA_LEAVES, DM_LEAVES),
    "C3": (BC_LEAVES, HA_LEAVES),
    "C4": (DM_LEAVES, HA_LEAVES),
}


def stages_for_mode(mode: Mode) -> tuple[str, ...]:
    """The stages whose two classes can both appear in `mode`, in table order."""
    return tuple(
        name for name, (routed, positive) in CASCADE.items()
        if {leaf in positive for leaf in mode.legal_leaves.intersection(routed)} == {False, True}
    )


@dataclass(frozen=True)
class CascadeConfig:
    backend: str = "rf"
    rf: RFConfig = field(default_factory=RFConfig)
    sdae: SDAEConfig = field(default_factory=SDAEConfig)
    max_train_pixels: int = 20_000  # per-stage subsample cap

    def __post_init__(self):
        if self.backend not in ("rf", "sdae"):
            raise ValueError(f"unknown backend {self.backend!r}; expected 'rf' or 'sdae'")
        if self.max_train_pixels < 2:  # a balanced draw takes half of it per class
            raise ValueError(f"max_train_pixels must be >= 2, got {self.max_train_pixels}")


@dataclass
class CascadeModel:
    mode: Mode
    backend: str
    standardizer: Standardizer
    stages: dict  # stage name -> RFModel | SDAEModel
    seed: int = 0

    def to_state(self) -> dict:
        return {
            "kind": "cascade",
            "mode": self.mode.value,
            "backend": self.backend,
            "seed": self.seed,
            "standardizer": self.standardizer.to_state(),
            "stages": {name: m.to_state() for name, m in self.stages.items()},
        }

    @classmethod
    def from_state(cls, state: dict) -> "CascadeModel":
        mode, backend, standardizer, stages, seed = state_fields(
            state,
            mode=lambda v: Mode.parse(str(v)),
            backend=str,
            standardizer=Standardizer.from_state,
            stages=dict,
            seed=int,
        )
        loaders = {"rf": RFModel.from_state, "sdae": SDAEModel.from_state}
        if backend not in loaders:
            raise FormatError(f"unknown backend {backend!r}")
        if set(stages) != set(stages_for_mode(mode)):
            raise FormatError(
                f"mode {mode.value} needs stages {list(stages_for_mode(mode))}, "
                f"got {list(stages)}"
            )
        if standardizer.mean.shape != (FEATURE_DIM,):
            raise FormatError(
                f"standardizer has {standardizer.mean.shape[0]} features, not {FEATURE_DIM}"
            )
        models = {}
        for name in stages_for_mode(mode):  # in table order, as cascade_train builds them
            if state_fields(stages[name], kind=str) != [backend]:
                raise FormatError(f"stage {name} is not a {backend} model")
            loaded = models[name] = loaders[backend](stages[name])
            width = loaded.n_features if backend == "rf" else loaded.layer_sizes[0]
            if width != FEATURE_DIM:
                raise FormatError(f"stage {name} takes {width} features, not {FEATURE_DIM}")
        return cls(mode=mode, backend=backend, standardizer=standardizer, stages=models,
                   seed=seed)


def _subsample(y, cap, balanced, rng):
    """Indices into `y` of the rows a stage trains on. RF keeps the natural
    class mix; the SDAE trains on balanced classes (minibatch SGD under heavy
    imbalance starves the minority class)."""
    n = len(y)
    if balanced:
        idx0 = np.flatnonzero(y == 0)
        idx1 = np.flatnonzero(y == 1)
        per = min(len(idx0), len(idx1), cap // 2)
        pick = np.concatenate([
            rng.choice(idx0, size=per, replace=False),
            rng.choice(idx1, size=per, replace=False),
        ])
        return rng.permutation(pick)
    if n <= cap:
        return np.arange(n)
    return rng.choice(n, size=cap, replace=False)


def _gather(parts, rows):
    """A copy of the pooled rows `rows` of `parts` (`features.as_parts`)."""
    out = np.empty((len(rows), FEATURE_DIM))
    start = 0
    for m, r in parts:
        hit = (rows >= start) & (rows < start + len(r))
        out[hit] = m[r[rows[hit] - start]]
        start += len(r)
    return out


def cascade_train(features, labels, mode: Mode,
                  config: CascadeConfig = CascadeConfig(), seed: int = 0) -> CascadeModel:
    """Train each stage on the pixels its parent would route to it (teacher
    forcing with ground-truth labels). `features` (`features.as_parts`) are
    read in place: each stage copies only the rows it draws.

    Every stage's rows are drawn here first, in table order; the stages then
    train on the usable CPUs (`forked.forked_map`), each from its own rows
    and seed, so the models are those of training them one after another."""
    parts = as_parts(features)
    y = np.asarray(labels)
    if any(m.shape[1:] != (FEATURE_DIM,) for m, _ in parts):
        raise ValueError(f"features must be [N, {FEATURE_DIM}]")
    if sum(len(r) for _, r in parts) != y.shape[0]:
        raise ValueError("features/labels length mismatch")
    mode.check_labels(y)

    # degenerate pixels are hard-ruled NWA
    usable = np.concatenate([m[r, FEATURE_DIM - 1] < 0.5 for m, r in parts])
    std = fit_standardizer(parts, usable if usable.any() else None)
    rng = np.random.default_rng(seed)

    # the draws, in table order from one generator; each stage's training
    # gathers and standardises only the rows it drew
    draws, counts = [], {}
    for si, name in enumerate(stages_for_mode(mode)):
        routed, positive = CASCADE[name]
        rows = np.flatnonzero(np.isin(y, routed) & usable)
        ys = np.isin(y[rows], positive).astype(np.int64)
        n1 = int(np.count_nonzero(ys))
        counts[name] = (len(ys) - n1, n1)
        if min(counts[name]) < MIN_SAMPLES_PER_CLASS:
            raise ValueError(f"stage {name}: insufficient samples per class {counts}; "
                             f"need >= {MIN_SAMPLES_PER_CLASS}")
        pick = _subsample(ys, config.max_train_pixels,
                          balanced=(config.backend == "sdae"), rng=rng)
        draws.append((rows[pick], ys[pick], seed + 7919 * (si + 1)))

    def train(draw):
        rows, ys, stage_seed = draw
        Xs = std.apply(_gather(parts, rows))
        if config.backend == "rf":
            return train_rf(Xs, ys, config.rf, seed=stage_seed)
        return train_sdae(Xs, ys, config.sdae, seed=stage_seed)

    stages = dict(zip(stages_for_mode(mode), forked_map(train, draws)))
    return CascadeModel(mode=mode, backend=config.backend, standardizer=std,
                        stages=stages, seed=seed)


def cascade_predict(model: CascadeModel, features) -> dict[ZoneLabel, np.ndarray]:
    """Per-pixel probabilities over the mode's legal leaves (others zero).

    Probabilities over the legal set sum to 1. Leaf probability is the product
    of the branch probabilities along the cascade path.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != FEATURE_DIM:
        raise ValueError(f"features must be [N, {FEATURE_DIM}]")
    n = X.shape[0]
    mode = model.mode
    degen = X[:, FEATURE_DIM - 1] >= 0.5
    usable = ~degen
    Xs = model.standardizer.apply(X[usable])

    def proba(name):
        out = np.zeros(n)
        if usable.any():
            stage = model.stages[name]
            out[usable] = (rf_predict_proba(stage, Xs) if isinstance(stage, RFModel)
                           else stage.predict_proba(Xs))
        return out

    branch = {name: proba(name) for name in stages_for_mode(mode)}  # in table order
    probs = {}
    for leaf in LEAF_LABELS:
        p = np.zeros(n)
        if leaf in mode.legal_leaves:
            p = np.ones(n)
            for name, p_stage in branch.items():
                routed, positive = CASCADE[name]
                if leaf in routed:
                    p = p * (p_stage if leaf in positive else 1 - p_stage)
        # degenerate pixels carry no diagnostic dynamics: hard NWA
        p[degen] = 1.0 if leaf is ZoneLabel.NWA else 0.0
        probs[leaf] = p
    return probs
