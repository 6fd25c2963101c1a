"""Random forest of binary CART trees: Gini splits, bootstrap bagging,
random subsets of ceil(sqrt(D)) features per split, deterministic under a
fixed seed."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..io_formats import FormatError, state_array, state_fields


@dataclass(frozen=True)
class RFConfig:
    n_trees: int = 100
    max_depth: int = 12
    min_leaf: int = 5

    def __post_init__(self):
        for name in ("n_trees", "max_depth", "min_leaf"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass
class Tree:
    """Flat array representation. Leaves have feature == -1; leaf_frac is the
    class-1 fraction at the node."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_frac: np.ndarray

    @classmethod
    def from_state(cls, state: dict, n_features: int) -> "Tree":
        """A tree from its decoded state. Raises FormatError unless every
        split feature is below `n_features` and every internal node's
        children point forward within the tree, so prediction terminates."""
        ints, floats = state_array(np.int64, 1), state_array(np.float64, 1)
        tree = cls(*state_fields(state, feature=ints, threshold=floats, left=ints,
                                 right=ints, leaf_frac=floats))
        k = len(tree.feature)
        if k == 0 or any(len(v) != k for v in (tree.threshold, tree.left, tree.right,
                                                 tree.leaf_frac)):
            raise FormatError("tree arrays are empty or differ in length")
        inner = np.flatnonzero(tree.feature >= 0)
        if np.any(tree.feature[inner] >= n_features):
            raise FormatError(f"tree splits on a feature index >= n_features ({n_features})")
        for child in (tree.left[inner], tree.right[inner]):
            if np.any(child <= inner) or np.any(child >= k):
                raise FormatError("tree child does not point forward within the tree")
        return tree

    def predict_proba(self, XT: np.ndarray) -> np.ndarray:
        """Class-1 leaf fraction of each column of the feature-major XT [D, N].

        Only the rows still at an internal node are walked. Each level steps
        them down one split, writes out the `leaf_frac` of the rows that
        reached a leaf and drops those rows. A walk of every row at every
        level makes the same comparisons (`x <= threshold` goes left, NaN
        goes right) and stops each row at the same leaf, so the result has
        the same bytes.
        """
        n = XT.shape[1]
        out = np.empty(n)
        is_leaf = self.feature < 0
        if is_leaf[0]:
            out.fill(self.leaf_frac[0])
            return out
        # child slot 2k + 1 holds node k's left child, slot 2k its right one
        kids = np.empty(2 * len(is_leaf), dtype=np.int64)
        kids[0::2], kids[1::2] = self.right, self.left
        offset = self.feature * n  # where each split's feature row starts in x
        x = XT.reshape(-1)
        rows = np.arange(n)
        node = np.zeros(n, dtype=np.int64)
        while len(rows):
            go_left = x.take(offset.take(node) + rows) <= self.threshold.take(node)
            node = kids.take(2 * node + go_left)
            leaf = is_leaf.take(node)
            if leaf.any():
                done = np.flatnonzero(leaf)
                out[rows.take(done)] = self.leaf_frac.take(node.take(done))
                live = np.flatnonzero(~leaf)
                rows, node = rows.take(live), node.take(live)
        return out


@dataclass
class RFModel:
    config: RFConfig
    trees: list[Tree]
    n_features: int
    seed: int
    single_class: bool = False  # degenerate training set flag

    def to_state(self) -> dict:
        return {
            "kind": "rf",
            "n_trees": self.config.n_trees,
            "max_depth": self.config.max_depth,
            "min_leaf": self.config.min_leaf,
            "features_per_split": 0,  # the ceil(sqrt(D)) rule, kept in the format
            "n_features": self.n_features,
            "seed": self.seed,
            "single_class": int(self.single_class),
            "trees": [
                {
                    "feature": t.feature,
                    "threshold": t.threshold,
                    "left": t.left,
                    "right": t.right,
                    "leaf_frac": t.leaf_frac,
                }
                for t in self.trees
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "RFModel":
        n_trees, max_depth, min_leaf, per_split, n_features, seed, single_class, trees = (
            state_fields(state, n_trees=int, max_depth=int, min_leaf=int,
                         features_per_split=int, n_features=int, seed=int,
                         single_class=bool, trees=list)
        )
        if not trees:
            raise FormatError("forest has no trees")
        if per_split != 0:
            raise FormatError(f"forest config: features_per_split must be 0, got {per_split}")
        try:
            config = RFConfig(n_trees=n_trees, max_depth=max_depth, min_leaf=min_leaf)
        except ValueError as e:
            raise FormatError(f"forest config: {e}") from None
        return cls(
            config=config,
            trees=[Tree.from_state(t, n_features) for t in trees],
            n_features=n_features,
            seed=seed,
            single_class=single_class,
        )


def _best_split(X, y, idx, k, min_leaf, rng):
    """(feature, threshold, left rows, right rows) of the lowest-Gini split of
    the rows `idx` over k features drawn from `rng`, or None when no split
    lowers the node's impurity."""
    Xi, yi = X[idx], y[idx]
    n = len(idx)
    feats = rng.choice(X.shape[1], size=k, replace=False)
    best = None
    best_gini = np.inf
    for f in feats:
        order = np.argsort(Xi[:, f], kind="stable")
        xs = Xi[order, f]
        ys = yi[order]
        # valid split positions: between distinct values, honoring min_leaf
        c1 = np.cumsum(ys)[:-1]          # class-1 counts left of each cut
        nl = np.arange(1, n)
        nr = n - nl
        distinct = xs[1:] != xs[:-1]
        ok = distinct & (nl >= min_leaf) & (nr >= min_leaf)
        if not ok.any():
            continue
        p1l = c1 / nl
        p1r = (c1[-1] + ys[-1] - c1) / nr
        gini = nl * 2 * p1l * (1 - p1l) + nr * 2 * p1r * (1 - p1r)
        gini = gini / n
        gini = np.where(ok, gini, np.inf)
        pos = int(np.argmin(gini))
        if gini[pos] < best_gini - 1e-15:
            best_gini = gini[pos]
            thr = 0.5 * (xs[pos] + xs[pos + 1])
            best = (int(f), float(thr), idx[order[: pos + 1]], idx[order[pos + 1 :]])
    # reject splits that do not improve impurity
    if best is not None:
        p = yi.mean()
        parent_gini = 2 * p * (1 - p)
        if best_gini >= parent_gini - 1e-12:
            return None
    return best


def _grow(X, y, idx, depth, k, config, rng, rows) -> int:
    """Append the subtree of the rows `idx` to `rows`, one row
    [feature, threshold, left, right, leaf_frac] per node in pre-order (a
    leaf keeps feature -1), and return the index of its root."""
    node = len(rows)
    frac = float(y[idx].mean())
    rows.append([-1, 0.0, -1, -1, frac])
    if depth >= config.max_depth or len(idx) < 2 * config.min_leaf or frac in (0.0, 1.0):
        return node
    split = _best_split(X, y, idx, k, config.min_leaf, rng)
    if split is not None:
        f, thr, left, right = split
        left = _grow(X, y, left, depth + 1, k, config, rng, rows)  # the left subtree draws first
        rows[node][:4] = f, thr, left, _grow(X, y, right, depth + 1, k, config, rng, rows)
    return node


def train_rf(X, y, config: RFConfig = RFConfig(), seed: int = 0) -> RFModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be [N, D] with matching labels")
    if not np.isin(y, [0, 1]).all():
        raise ValueError("labels must be binary 0/1")
    y = y.astype(np.float64)
    d = X.shape[1]
    k = math.ceil(math.sqrt(d))  # never above d
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    trees = []
    for _ in range(config.n_trees):
        rows = []
        _grow(X, y, rng.integers(0, n, size=n), 0, k, config, rng, rows)
        feature, threshold, left, right, leaf_frac = np.array(rows).T.copy()
        trees.append(Tree(feature.astype(np.int64), threshold, left.astype(np.int64),
                          right.astype(np.int64), leaf_frac))
    return RFModel(
        config=config,
        trees=trees,
        n_features=d,
        seed=seed,
        single_class=bool(y.min() == y.max()),
    )


def rf_predict_proba(model: RFModel, X) -> np.ndarray:
    """Mean class-1 leaf fraction over the forest; [N] in [0, 1]."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"dimension mismatch: got {X.shape}, expected [N, {model.n_features}]")
    if not model.trees:
        raise ValueError("empty forest")
    XT = np.ascontiguousarray(X.T)  # one copy, read by every tree
    p = np.zeros(X.shape[0])
    for t in model.trees:
        p += t.predict_proba(XT)
    p /= len(model.trees)
    return p

