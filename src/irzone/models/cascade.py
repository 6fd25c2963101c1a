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

from ..features import FEATURE_DIM, Standardizer, fit_standardizer
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

    def stage_proba(self, name: str, Xs: np.ndarray) -> np.ndarray:
        model = self.stages[name]
        if isinstance(model, RFModel):
            return rf_predict_proba(model, Xs)
        return model.predict_proba(Xs)

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
        for name, stage in stages.items():
            if state_fields(stage, kind=str) != [backend]:
                raise FormatError(f"stage {name} is not a {backend} model")
            stages[name] = loaders[backend](stage)
            width = (stages[name].n_features if backend == "rf"
                     else stages[name].layer_sizes[0])
            if width != FEATURE_DIM:
                raise FormatError(f"stage {name} takes {width} features, not {FEATURE_DIM}")
        return cls(mode=mode, backend=backend, standardizer=standardizer, stages=stages,
                   seed=seed)


def stage_targets(labels: np.ndarray):
    """Ground-truth routing: stage -> (selector, binary target) over pixels."""
    return {name: (np.isin(labels, routed), np.isin(labels, positive).astype(np.int64))
            for name, (routed, positive) in CASCADE.items()}


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


def cascade_train(features, labels, mode: Mode,
                  config: CascadeConfig = CascadeConfig(), seed: int = 0) -> CascadeModel:
    """Train each stage on the pixels its parent would route to it (teacher
    forcing with ground-truth labels)."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if X.ndim != 2 or X.shape[1] != FEATURE_DIM:
        raise ValueError(f"features must be [N, {FEATURE_DIM}]")
    if X.shape[0] != y.shape[0]:
        raise ValueError("features/labels length mismatch")
    mode.check_labels(y)

    usable = X[:, FEATURE_DIM - 1] < 0.5  # degenerate pixels are hard-ruled NWA
    std = fit_standardizer(X, usable if usable.any() else None)
    rng = np.random.default_rng(seed)

    stages = {}
    counts = {}
    targets = stage_targets(y)
    for si, name in enumerate(stages_for_mode(mode)):
        sel, target = targets[name]
        sel = sel & usable
        ys = target[sel]
        n0 = int(np.count_nonzero(ys == 0))
        n1 = int(np.count_nonzero(ys == 1))
        counts[name] = (n0, n1)
        if min(n0, n1) < MIN_SAMPLES_PER_CLASS:
            raise ValueError(
                f"stage {name}: insufficient samples per class {counts}; "
                f"need >= {MIN_SAMPLES_PER_CLASS}"
            )
        # pick the rows first: standardising works row by row, so only the
        # picked ones are copied
        pick = _subsample(ys, config.max_train_pixels,
                          balanced=(config.backend == "sdae"), rng=rng)
        Xs, ys = std.apply(X[np.flatnonzero(sel)[pick]]), ys[pick]
        stage_seed = seed + 7919 * (si + 1)
        if config.backend == "rf":
            stages[name] = train_rf(Xs, ys, config.rf, seed=stage_seed)
        else:
            stages[name] = train_sdae(Xs, ys, config.sdae, seed=stage_seed)
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
        if usable.any() and name in model.stages:
            out[usable] = model.stage_proba(name, Xs)
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
