"""Random-forest backend: CART splits, bagging, determinism."""

import itertools
import math

import numpy as np
import pytest

from irzone import io_formats as io
from irzone.io_formats import FormatError, _pack
from irzone.models.rf import (
    RFConfig,
    RFModel,
    Tree,
    rf_predict_proba,
    train_rf,
)


def separable_1d(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 1))
    x = x[np.abs(x[:, 0]) > 0.05]  # keep a margin around the boundary
    y = (x[:, 0] >= 0).astype(np.int64)
    return x, y


class TestTrainRF:
    def test_single_class_training_set_predicts_that_class(self):
        x = np.random.default_rng(0).normal(size=(50, 3))
        y = np.ones(50, dtype=np.int64)
        model = train_rf(x, y, RFConfig(n_trees=5))
        assert model.single_class
        assert np.all(rf_predict_proba(model, x) == 1.0)

    def test_separable_data_fit_perfectly(self):
        x, y = separable_1d()
        model = train_rf(x, y, RFConfig(n_trees=20, min_leaf=1))
        pred = rf_predict_proba(model, x) >= 0.5
        assert np.mean(pred == y.astype(bool)) == 1.0

    def test_same_seed_gives_identical_serialized_forest(self):
        x, y = separable_1d(seed=1)
        m1 = train_rf(x, y, RFConfig(n_trees=10), seed=7)
        m2 = train_rf(x, y, RFConfig(n_trees=10), seed=7)
        assert _pack(m1.to_state()) == _pack(m2.to_state())

    def test_different_seeds_give_different_forests(self):
        x, y = separable_1d(seed=1)
        m1 = train_rf(x, y, RFConfig(n_trees=10), seed=7)
        m2 = train_rf(x, y, RFConfig(n_trees=10), seed=8)
        assert _pack(m1.to_state()) != _pack(m2.to_state())

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ValueError, match="binary"):
            train_rf(np.zeros((4, 2)), np.array([0, 1, 2, 1]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="matching"):
            train_rf(np.zeros((4, 2)), np.array([0, 1]))


class TestPredictProba:
    def test_hand_traced_stump(self):
        # root splits feature 0 at 0.0; left leaf pure class 0, right pure class 1
        stump = Tree(
            feature=np.array([0, -1, -1]),
            threshold=np.array([0.0, 0.0, 0.0]),
            left=np.array([1, -1, -1]),
            right=np.array([2, -1, -1]),
            leaf_frac=np.array([0.5, 0.0, 1.0]),
        )
        model = RFModel(config=RFConfig(n_trees=1), trees=[stump], n_features=2, seed=0)
        assert rf_predict_proba(model, np.array([[-1.0, 9.9], [1.0, -9.9]])).tolist() == [0.0, 1.0]

    def test_zero_trees_rejected(self):
        x, y = separable_1d()
        with pytest.raises(ValueError, match="n_trees must be >= 1"):
            train_rf(x, y, RFConfig(n_trees=0))

    def test_empty_forest_rejected(self):
        model = RFModel(config=RFConfig(), trees=[], n_features=2, seed=0)
        with pytest.raises(ValueError, match="empty forest"):
            rf_predict_proba(model, np.zeros((1, 2)))

    def test_dimension_mismatch_rejected(self):
        x, y = separable_1d()
        model = train_rf(x, y, RFConfig(n_trees=3))
        for shape in ((5, 4), (1,), (), (2, 1, 1)):  # [N, 1] rows only
            with pytest.raises(ValueError, match="dimension mismatch"):
                rf_predict_proba(model, np.zeros(shape))

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(300, 5))
        y = (x[:, 0] + 0.3 * rng.normal(size=300) > 0).astype(np.int64)
        model = train_rf(x, y, RFConfig(n_trees=15), seed=1)
        p = rf_predict_proba(model, rng.normal(size=(100, 5)))
        assert np.all((p >= 0.0) & (p <= 1.0))


class TestPersistence:
    def test_state_round_trip_preserves_predictions(self):
        x, y = separable_1d(seed=5)
        model = train_rf(x, y, RFConfig(n_trees=8), seed=2)
        restored = RFModel.from_state(model.to_state())
        probe = np.random.default_rng(6).normal(size=(200, 1))
        assert np.array_equal(
            rf_predict_proba(model, probe), rf_predict_proba(restored, probe)
        )


def reference_predict_proba(model, X):
    """The per-level traversal `Tree.predict_proba` replaced, kept verbatim
    as its oracle: every row is re-read at every level, leaves included,
    and the trees are summed in order."""
    X = np.asarray(X, dtype=np.float64)
    p = np.zeros(X.shape[0])
    for t in model.trees:
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feat = t.feature[node]
            internal = feat >= 0
            if not internal.any():
                break
            idx = np.flatnonzero(internal)
            f = feat[idx]
            go_left = X[idx, f] <= t.threshold[node[idx]]
            node[idx] = np.where(go_left, t.left[node[idx]], t.right[node[idx]])
        p += t.leaf_frac[node]
    p /= len(model.trees)
    return p


def noisy_forest(n_trees=12, max_depth=12, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1500, 6))
    y = (x[:, 0] + x[:, 1] * x[:, 2] + rng.normal(size=1500) > 0).astype(np.int64)
    return train_rf(x, y, RFConfig(n_trees=n_trees, max_depth=max_depth, min_leaf=1), seed=3)


class TestTraversalMatchesOracle:
    """Walking only the rows still at an internal node gives the bytes of
    walking every row at every level."""

    def assert_same_bytes(self, model, x):
        got = rf_predict_proba(model, x)
        assert got.dtype == np.float64 and got.shape == (len(x),)
        assert got.tobytes() == reference_predict_proba(model, x).tobytes()

    def test_deep_forest_on_noisy_data(self):
        model = noisy_forest()
        assert max(len(t.feature) for t in model.trees) > 200
        self.assert_same_bytes(model, np.random.default_rng(1).normal(size=(5000, 6)))

    def test_nan_and_infinities(self):
        model = noisy_forest(n_trees=6)
        x = np.random.default_rng(2).normal(size=(600, 6))
        x[::3, 0] = np.nan
        x[1::5, 2] = np.inf
        x[2::7, 1] = -np.inf
        x[:27, :3] = list(itertools.product([np.nan, np.inf, -np.inf], repeat=3))
        self.assert_same_bytes(model, x)

    def test_one_row_and_zero_rows(self):
        model = noisy_forest(n_trees=6)
        x = np.random.default_rng(3).normal(size=(1, 6))
        self.assert_same_bytes(model, x)
        self.assert_same_bytes(model, np.empty((0, 6)))

    def test_single_leaf_tree(self):
        x = np.random.default_rng(4).normal(size=(40, 3))
        model = train_rf(x, np.ones(40, dtype=np.int64), RFConfig(n_trees=2))
        assert all(len(t.feature) == 1 for t in model.trees)
        self.assert_same_bytes(model, x)

    def test_round_tripped_model_file(self, tmp_path):
        model = noisy_forest(n_trees=8, max_depth=9)
        path = tmp_path / "rf.izm"
        io.write_model(path, model)
        restored = RFModel.from_state(io.read_model_state(path)[1])
        x = np.random.default_rng(5).normal(size=(3000, 6))
        self.assert_same_bytes(restored, x)
        assert rf_predict_proba(restored, x).tobytes() == rf_predict_proba(model, x).tobytes()


# The class `train_rf` grew each tree with before `_grow`, kept verbatim as
# its oracle.
class _TreeBuilder:
    def __init__(self, X, y, config, n_feat_split, rng):
        self.X = X
        self.y = y.astype(np.float64)
        self.cfg = config
        self.k = n_feat_split
        self.rng = rng
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.leaf_frac = []

    def _new_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.leaf_frac.append(0.0)
        return len(self.feature) - 1

    def build(self, idx, depth) -> int:
        node = self._new_node()
        y = self.y[idx]
        frac = float(y.mean())
        self.leaf_frac[node] = frac
        if (
            depth >= self.cfg.max_depth
            or len(idx) < 2 * self.cfg.min_leaf
            or frac == 0.0
            or frac == 1.0
        ):
            return node
        split = self._best_split(idx)
        if split is None:
            return node
        f, thr, left_idx, right_idx = split
        self.feature[node] = f
        self.threshold[node] = thr
        self.left[node] = self.build(left_idx, depth + 1)
        self.right[node] = self.build(right_idx, depth + 1)
        return node

    def _best_split(self, idx):
        X, y = self.X[idx], self.y[idx]
        n = len(idx)
        feats = self.rng.choice(self.X.shape[1], size=self.k, replace=False)
        best = None
        best_gini = np.inf
        for f in feats:
            order = np.argsort(X[:, f], kind="stable")
            xs = X[order, f]
            ys = y[order]
            # valid split positions: between distinct values, honoring min_leaf
            c1 = np.cumsum(ys)[:-1]          # class-1 counts left of each cut
            nl = np.arange(1, n)
            nr = n - nl
            distinct = xs[1:] != xs[:-1]
            ok = distinct & (nl >= self.cfg.min_leaf) & (nr >= self.cfg.min_leaf)
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
            p = y.mean()
            parent_gini = 2 * p * (1 - p)
            if best_gini >= parent_gini - 1e-12:
                return None
        return best

    def to_tree(self) -> Tree:
        return Tree(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            leaf_frac=np.asarray(self.leaf_frac, dtype=np.float64),
        )


def oracle_train_rf(X, y, config, seed):
    """`train_rf`'s tree loop as it drove `_TreeBuilder`."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
    k = math.ceil(math.sqrt(X.shape[1]))
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    trees = []
    for _ in range(config.n_trees):
        boot = rng.integers(0, n, size=n)
        builder = _TreeBuilder(X, y, config, k, rng)
        builder.build(boot, 0)
        trees.append(builder.to_tree())
    return RFModel(config=config, trees=trees, n_features=X.shape[1], seed=seed,
                   single_class=bool(y.min() == y.max()))


def oracle_datasets():
    """(name, X, y, config) of the cases the grower must match the oracle on."""
    rng = np.random.default_rng(11)
    x = rng.normal(size=(600, 7))
    y = (x[:, 0] + x[:, 1] * x[:, 2] + rng.normal(size=600) > 0).astype(np.int64)
    tied = np.round(rng.normal(size=(800, 16)), 1)  # few distinct values per feature
    tied[:, 3] = 0.0  # one feature that never splits
    tied_y = (tied[:, 0] - tied[:, 5] + 0.5 * rng.normal(size=800) > 0).astype(np.int64)
    special = x.copy()
    special[::3, 0] = np.nan
    special[1::5, 2] = np.inf
    special[2::7, 1] = -np.inf
    special[:27, :3] = list(itertools.product([np.nan, np.inf, -np.inf], repeat=3))
    deep = RFConfig(n_trees=6, max_depth=12, min_leaf=1)
    return [
        ("noisy", x, y, RFConfig(n_trees=6, max_depth=9, min_leaf=2)),
        ("tied values", tied, tied_y, RFConfig(n_trees=5)),
        ("single class", x, np.ones(600, dtype=np.int64), deep),
        ("min_leaf blocks every split", x, y, RFConfig(n_trees=4, min_leaf=400)),
        ("max_depth 1", x, y, RFConfig(n_trees=6, max_depth=1)),
        ("NaN and infinities", special, y, deep),
        ("one row", x[:1], y[:1], deep),
        ("labels as bools", x[:200], y[:200].astype(bool), deep),
    ]


class TestGrowerMatchesOracle:
    """`_grow` reads the generator in the builder's order, so every forest
    packs to the builder's bytes."""

    @pytest.mark.parametrize("seed", [0, 5, 42])
    @pytest.mark.parametrize("case", oracle_datasets(), ids=lambda case: case[0])
    def test_same_bytes_as_the_builder(self, case, seed):
        _, x, y, config = case
        got = train_rf(x, y, config, seed=seed)
        assert _pack(got.to_state()) == _pack(oracle_train_rf(x, y, config, seed).to_state())
        for tree in got.trees:
            assert tree.feature.dtype == tree.left.dtype == tree.right.dtype == np.int64
            assert tree.threshold.dtype == tree.leaf_frac.dtype == np.float64

    def test_the_cases_reach_every_kind_of_tree(self):
        """Each case grows the trees it is named for, so the oracle is
        compared on splits, single leaves and stumps."""
        sizes = {name: [len(t.feature) for t in train_rf(x, y, config, seed=0).trees]
                 for name, x, y, config in oracle_datasets()}
        assert min(sizes["noisy"]) > 20 and min(sizes["NaN and infinities"]) > 20
        for name in ("single class", "min_leaf blocks every split", "one row"):
            assert set(sizes[name]) == {1}, name
        assert set(sizes["max_depth 1"]) == {3}


def two_split_state():
    """A valid forest state with two splits: node 0 -> (1, 2), node 2 -> (3, 4)."""
    tree = Tree(
        feature=np.array([0, -1, 1, -1, -1]),
        threshold=np.zeros(5),
        left=np.array([1, -1, 3, -1, -1]),
        right=np.array([2, -1, 4, -1, -1]),
        leaf_frac=np.array([0.5, 0.0, 0.5, 0.0, 1.0]),
    )
    return RFModel(config=RFConfig(n_trees=1), trees=[tree], n_features=2, seed=0).to_state()


class TestFromStateValidation:
    def test_valid_state_loads(self):
        model = RFModel.from_state(two_split_state())
        assert rf_predict_proba(model, np.array([[1.0, 1.0]])) == 1.0

    @pytest.mark.parametrize("key, node, value, match", [
        ("left", 0, 0, "forward"),         # self-loop: prediction would never end
        ("left", 2, 0, "forward"),         # cycle back to the root
        ("right", 2, 5, "forward"),        # past the last node
        ("feature", 2, 2, "n_features"),   # only features 0 and 1 exist
    ])
    def test_bad_tree_rejected(self, key, node, value, match):
        state = two_split_state()
        state["trees"][0][key][node] = value
        with pytest.raises(FormatError, match=match):
            RFModel.from_state(state)

    @pytest.mark.parametrize("key, value", [
        ("n_trees", 0), ("max_depth", 0), ("min_leaf", 0), ("features_per_split", -1),
    ])
    def test_config_out_of_range_rejected(self, key, value):
        state = two_split_state()
        state[key] = value
        # every forest draws ceil(sqrt(D)) features per split, written as 0
        rule = "0" if key == "features_per_split" else ">= 1"
        with pytest.raises(FormatError, match=f"{key} must be {rule}"):
            RFModel.from_state(state)

    def test_forest_without_trees_rejected(self):
        state = two_split_state()
        state["trees"] = []
        with pytest.raises(FormatError, match="no trees"):
            RFModel.from_state(state)

    def test_tree_arrays_of_different_length_rejected(self):
        state = two_split_state()
        state["trees"][0]["threshold"] = np.zeros(4)
        with pytest.raises(FormatError, match="differ in length"):
            RFModel.from_state(state)

    def test_missing_keys_rejected(self):
        state = two_split_state()
        del state["n_features"]
        with pytest.raises(FormatError, match="lacks n_features"):
            RFModel.from_state(state)
        state = two_split_state()
        del state["trees"][0]["leaf_frac"]
        with pytest.raises(FormatError, match="lacks leaf_frac"):
            RFModel.from_state(state)

    def test_wrong_value_types_rejected(self):
        for key, value in (("trees", None), ("n_trees", [1]), ("seed", "x")):
            state = two_split_state()
            state[key] = value
            with pytest.raises(FormatError, match=key):
                RFModel.from_state(state)
