"""Random-forest backend: CART splits, bagging, determinism."""

import itertools

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
