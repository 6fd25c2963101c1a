"""Binary-classifier cascade: stage wiring, product rule, legality."""

import numpy as np
import pytest

from irzone import io_formats as io
from irzone.features import FEATURE_DIM, Standardizer
from irzone.io_formats import FormatError
from irzone.models.cascade import (
    CASCADE,
    MIN_SAMPLES_PER_CLASS,
    CascadeConfig,
    CascadeModel,
    cascade_predict,
    cascade_train,
    stages_for_mode,
)
from irzone.models.rf import RFConfig, RFModel, Tree, train_rf
from irzone.models.sdae import SDAEConfig, SDAEModel, train_sdae
from irzone.zones import BC_LEAVES, DM_LEAVES, LAYERS, LEAF_LABELS, Mode, ZoneLabel


def prob_matrix(probs) -> np.ndarray:
    """[N, 5] leaf probabilities in LEAF_LABELS order."""
    return np.stack([probs[l] for l in LEAF_LABELS], axis=1)


def synthetic_dataset(mode: Mode, n_per_class=150, seed=0):
    """Feature clusters separable by label, restricted to the mode's leaves."""
    rng = np.random.default_rng(seed)
    leaves = sorted(mode.legal_leaves, key=int)
    xs, ys = [], []
    for i, leaf in enumerate(leaves):
        x = rng.normal(loc=3.0 * i, scale=0.3, size=(n_per_class, FEATURE_DIM))
        x[:, -1] = 0.0  # all pixels carry usable dynamics
        xs.append(x)
        ys.append(np.full(n_per_class, int(leaf), dtype=np.uint8))
    return np.concatenate(xs), np.concatenate(ys)


def constant_forest(p: float) -> RFModel:
    """Single-leaf forest that outputs a fixed class-1 probability."""
    leaf = Tree(
        feature=np.array([-1]),
        threshold=np.array([0.0]),
        left=np.array([-1]),
        right=np.array([-1]),
        leaf_frac=np.array([p]),
    )
    return RFModel(config=RFConfig(n_trees=1), trees=[leaf], n_features=FEATURE_DIM, seed=0)


def identity_standardizer() -> Standardizer:
    return Standardizer(mean=np.zeros(FEATURE_DIM), scale=np.ones(FEATURE_DIM))


FAST_RF = CascadeConfig(backend="rf", rf=RFConfig(n_trees=5, min_leaf=2))


class TestStageWiring:
    def test_on_mode_trains_wa_and_dura_stages_only(self):
        x, y = synthetic_dataset(Mode.ON)
        model = cascade_train(x, y, Mode.ON, FAST_RF)
        assert set(model.stages) == {"C1", "C4"}

    def test_off_mode_trains_wa_and_cortex_stages_only(self):
        x, y = synthetic_dataset(Mode.OFF)
        model = cascade_train(x, y, Mode.OFF, FAST_RF)
        assert set(model.stages) == {"C1", "C3"}

    def test_in_mode_trains_all_four_stages(self):
        x, y = synthetic_dataset(Mode.IN)
        model = cascade_train(x, y, Mode.IN, FAST_RF)
        assert set(model.stages) == {"C1", "C2", "C3", "C4"}

    def test_stages_for_mode_matches_trained_models(self):
        for mode in Mode:
            x, y = synthetic_dataset(mode)
            model = cascade_train(x, y, mode, FAST_RF)
            assert set(model.stages) == set(stages_for_mode(mode))

    def test_stage_targets_route_by_taxonomy(self):
        labels = np.array([0, 50, 100, 150, 200], dtype=np.uint8)
        routes = {name: (np.isin(labels, routed), np.isin(labels, positive))
                  for name, (routed, positive) in CASCADE.items()}
        np.testing.assert_array_equal(routes["C1"][1], [False, True, True, True, True])
        np.testing.assert_array_equal(routes["C2"][0], [False, True, True, True, True])
        np.testing.assert_array_equal(routes["C3"][0], [False, False, False, True, True])
        np.testing.assert_array_equal(routes["C4"][0], [False, True, True, False, False])

    @pytest.mark.parametrize("mode", list(Mode))
    def test_stages_layers_and_legal_leaves_agree(self, mode):
        assert list(mode.layers) == [layer for layer in LAYERS if layer in mode.layers]
        assert mode.legal_leaves == {ZoneLabel.NWA}.union(*mode.layers)
        # C1 always; C2 when both layers can appear; C3 with cortex; C4 with dura
        expected = ["C1"]
        if len(mode.layers) == 2:
            expected.append("C2")
        if BC_LEAVES in mode.layers:
            expected.append("C3")
        if DM_LEAVES in mode.layers:
            expected.append("C4")
        assert stages_for_mode(mode) == tuple(expected)


class TestTrainingErrors:
    def test_illegal_labels_rejected(self):
        x, y = synthetic_dataset(Mode.IN)
        with pytest.raises(ValueError, match="illegal in mode On"):
            cascade_train(x, y, Mode.ON, FAST_RF)

    def test_insufficient_per_class_samples_reported_with_counts(self):
        x, y = synthetic_dataset(Mode.ON, n_per_class=20)
        with pytest.raises(ValueError, match="insufficient samples per class"):
            cascade_train(x, y, Mode.ON, FAST_RF)

    def test_unknown_backend_rejected(self):
        x, y = synthetic_dataset(Mode.ON)
        with pytest.raises(ValueError, match="unknown backend"):
            cascade_train(x, y, Mode.ON, CascadeConfig(backend="svm"))

    def test_wrong_feature_dimension_rejected(self):
        with pytest.raises(ValueError, match="features must be"):
            cascade_train(np.zeros((10, 3)), np.zeros(10, dtype=np.uint8), Mode.ON, FAST_RF)

    @pytest.mark.parametrize("backend", ["rf", "sdae"])
    def test_sample_cap_below_two_rejected(self, backend):
        # a cap of one leaves the balanced (SDAE) draw no rows of either class
        x, y = synthetic_dataset(Mode.ON)
        with pytest.raises(ValueError, match="max_train_pixels must be >= 2, got 1"):
            cascade_train(x, y, Mode.ON, CascadeConfig(backend=backend, max_train_pixels=1))


class TestPredict:
    def test_product_rule_by_hand(self):
        # P(WA)=0.8, P(HA|DM)=0.5, dura-only mode forces P(DM|WA)=1
        model = CascadeModel(
            mode=Mode.ON,
            backend="rf",
            standardizer=identity_standardizer(),
            stages={"C1": constant_forest(0.8), "C4": constant_forest(0.5)},
        )
        x = np.zeros((1, FEATURE_DIM))
        probs = cascade_predict(model, x)
        assert probs[ZoneLabel.NWA][0] == pytest.approx(0.2)
        assert probs[ZoneLabel.NA_DM][0] == pytest.approx(0.4)
        assert probs[ZoneLabel.HA_DM][0] == pytest.approx(0.4)

    def test_product_rule_in_both_layer_mode_is_exact(self):
        p_wa, p_dm, p_ha_bc, p_ha_dm = 0.8, 0.3, 0.6, 0.25
        model = CascadeModel(
            mode=Mode.IN, backend="rf", standardizer=identity_standardizer(),
            stages={"C1": constant_forest(p_wa), "C2": constant_forest(p_dm),
                    "C3": constant_forest(p_ha_bc), "C4": constant_forest(p_ha_dm)},
        )
        probs = cascade_predict(model, np.zeros((2, FEATURE_DIM)))
        expected = {
            ZoneLabel.NWA: 1.0 - p_wa,
            ZoneLabel.NA_BC: p_wa * (1 - p_dm) * (1 - p_ha_bc),
            ZoneLabel.HA_BC: p_wa * (1 - p_dm) * p_ha_bc,
            ZoneLabel.NA_DM: p_wa * p_dm * (1 - p_ha_dm),
            ZoneLabel.HA_DM: p_wa * p_dm * p_ha_dm,
        }
        for leaf in LEAF_LABELS:
            assert np.all(probs[leaf] == expected[leaf]), leaf

    def test_product_rule_in_cortex_mode_is_exact(self):
        # cortex-only mode forces P(DM|WA)=0; C2 and C4 are not trained
        p_wa, p_dm, p_ha_bc = 0.7, 0.0, 0.35
        model = CascadeModel(
            mode=Mode.OFF, backend="rf", standardizer=identity_standardizer(),
            stages={"C1": constant_forest(p_wa), "C3": constant_forest(p_ha_bc)},
        )
        probs = cascade_predict(model, np.zeros((2, FEATURE_DIM)))
        expected = {
            ZoneLabel.NWA: 1.0 - p_wa,
            ZoneLabel.NA_BC: p_wa * (1 - p_dm) * (1 - p_ha_bc),
            ZoneLabel.HA_BC: p_wa * (1 - p_dm) * p_ha_bc,
            ZoneLabel.NA_DM: 0.0,
            ZoneLabel.HA_DM: 0.0,
        }
        for leaf in LEAF_LABELS:
            assert np.all(probs[leaf] == expected[leaf]), leaf

    def test_degenerate_pixel_hard_assigned_nwa(self):
        x, y = synthetic_dataset(Mode.ON)
        model = cascade_train(x, y, Mode.ON, FAST_RF)
        probe = np.zeros((1, FEATURE_DIM))
        probe[0, -1] = 1.0  # degenerate sentinel
        probs = cascade_predict(model, probe)
        assert probs[ZoneLabel.NWA][0] == 1.0
        for leaf in LEAF_LABELS:
            if leaf is not ZoneLabel.NWA:
                assert probs[leaf][0] == 0.0

    def test_probabilities_sum_to_one(self):
        for mode in Mode:
            x, y = synthetic_dataset(mode, seed=3)
            model = cascade_train(x, y, mode, FAST_RF)
            probe = np.random.default_rng(4).normal(size=(200, FEATURE_DIM))
            probe[:, -1] = 0.0
            total = prob_matrix(cascade_predict(model, probe)).sum(axis=1)
            assert np.max(np.abs(total - 1.0)) < 1e-9

    def test_illegal_leaves_have_zero_probability(self):
        for mode in (Mode.ON, Mode.OFF):
            x, y = synthetic_dataset(mode, seed=5)
            model = cascade_train(x, y, mode, FAST_RF)
            probe = np.random.default_rng(6).normal(size=(100, FEATURE_DIM))
            probe[:, -1] = 0.0
            probs = cascade_predict(model, probe)
            for leaf in LEAF_LABELS:
                if leaf not in mode.legal_leaves:
                    assert np.all(probs[leaf] == 0.0)


class TestBackendSymmetry:
    def test_sdae_backend_is_drop_in(self):
        from irzone.models.sdae import SDAEConfig

        x, y = synthetic_dataset(Mode.ON, seed=7)
        config = CascadeConfig(
            backend="sdae",
            sdae=SDAEConfig(hidden_sizes=(8,), finetune_epochs=20),
        )
        model = cascade_train(x, y, Mode.ON, config)
        probe = x[::10]
        total = prob_matrix(cascade_predict(model, probe)).sum(axis=1)
        assert np.max(np.abs(total - 1.0)) < 1e-9


class TestPersistence:
    def test_state_round_trip_preserves_predictions(self):
        x, y = synthetic_dataset(Mode.IN, seed=8)
        model = cascade_train(x, y, Mode.IN, FAST_RF)
        restored = CascadeModel.from_state(model.to_state())
        probe = x[::5]
        p1 = prob_matrix(cascade_predict(model, probe))
        p2 = prob_matrix(cascade_predict(restored, probe))
        assert np.array_equal(p1, p2)


class TestFromStateValidation:
    def state(self):
        model = CascadeModel(
            mode=Mode.ON, backend="rf", standardizer=identity_standardizer(),
            stages={"C1": constant_forest(0.5), "C4": constant_forest(0.5)},
        )
        return model.to_state()

    def test_valid_state_loads(self):
        assert set(CascadeModel.from_state(self.state()).stages) == {"C1", "C4"}

    @pytest.mark.parametrize("corrupt, match", [
        (lambda s: s.pop("stages"), "lacks stages"),
        (lambda s: s["stages"].pop("C4"), "needs stages"),
        (lambda s: s["stages"].__setitem__("C2", s["stages"]["C1"]), "needs stages"),
        (lambda s: s.__setitem__("backend", "sdae"), "not a sdae model"),
        (lambda s: s.__setitem__("backend", "svm"), "unknown backend"),
        (lambda s: s.__setitem__("mode", "Sideways"), "unknown mode"),
        (lambda s: s["standardizer"].__setitem__("scale", np.ones(3)), "differ"),
        (lambda s: s["stages"]["C1"].pop("kind"), "lacks kind"),
        (lambda s: s["stages"]["C4"]["trees"][0].pop("left"), "lacks left"),
    ], ids=["no-stages", "missing-stage", "extra-stage", "stage-kind", "unknown-backend",
            "unknown-mode", "standardizer-shape", "stage-without-kind", "tree-without-left"])
    def test_malformed_state_rejected(self, corrupt, match):
        state = self.state()
        corrupt(state)
        with pytest.raises(FormatError, match=match):
            CascadeModel.from_state(state)

    def test_bare_kind_rejected(self):
        with pytest.raises(FormatError, match="lacks"):
            CascadeModel.from_state({"kind": "cascade"})

    @pytest.mark.parametrize("corrupt, match", [
        (lambda s: s.__setitem__("standardizer", Standardizer(np.zeros(3), np.ones(3)).to_state()),
         "standardizer has 3 features"),
        (lambda s: s["stages"]["C4"].__setitem__("n_features", FEATURE_DIM - 1),
         f"stage C4 takes {FEATURE_DIM - 1} features"),
    ], ids=["standardizer-width", "rf-stage-width"])
    def test_input_width_other_than_feature_dim_rejected(self, corrupt, match):
        state = self.state()
        corrupt(state)
        with pytest.raises(FormatError, match=match):
            CascadeModel.from_state(state)

    def test_sdae_stage_width_other_than_feature_dim_rejected(self):
        def sdae(width):
            return SDAEModel(layer_sizes=[width, 3, 2], biases=[np.zeros(3), np.zeros(2)],
                             weights=[np.zeros((width, 3)), np.zeros((3, 2))], corruption=0.1)

        def state(width):
            return CascadeModel(mode=Mode.ON, backend="sdae", standardizer=identity_standardizer(),
                                stages={"C1": sdae(FEATURE_DIM), "C4": sdae(width)}).to_state()

        assert CascadeModel.from_state(state(FEATURE_DIM)).stages["C4"].layer_sizes[0] == FEATURE_DIM
        with pytest.raises(FormatError, match=f"stage C4 takes {FEATURE_DIM + 1} features"):
            CascadeModel.from_state(state(FEATURE_DIM + 1))


def whole_matrix_standardizer(train_matrix) -> Standardizer:
    """`fit_standardizer` before it summed the rows in blocks."""
    x = np.asarray(train_matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("train matrix must be non-empty 2D")
    mean = x.mean(axis=0)
    scale = np.maximum(x.std(axis=0), 1e-12)
    return Standardizer(mean=mean, scale=scale)


def whole_matrix_subsample(Xs, y, cap, balanced, rng):
    """`_subsample` before it drew indices, kept as its oracle."""
    n = len(y)
    if balanced:
        idx0 = np.flatnonzero(y == 0)
        idx1 = np.flatnonzero(y == 1)
        per = min(len(idx0), len(idx1), cap // 2)
        pick = np.concatenate([
            rng.choice(idx0, size=per, replace=False),
            rng.choice(idx1, size=per, replace=False),
        ])
        pick = rng.permutation(pick)
        return Xs[pick], y[pick]
    if n <= cap:
        return Xs, y
    pick = rng.choice(n, size=cap, replace=False)
    return Xs[pick], y[pick]


def whole_matrix_cascade_train(features, labels, mode: Mode,
                               config: CascadeConfig = CascadeConfig(), seed: int = 0):
    """`cascade_train` before it subsampled ahead of standardising, kept as
    its oracle: it standardises every routed row of a stage, then draws."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if X.ndim != 2 or X.shape[1] != FEATURE_DIM:
        raise ValueError(f"features must be [N, {FEATURE_DIM}]")
    if X.shape[0] != y.shape[0]:
        raise ValueError("features/labels length mismatch")
    mode.check_labels(y)

    usable = X[:, FEATURE_DIM - 1] < 0.5  # degenerate pixels are hard-ruled NWA
    std = (whole_matrix_standardizer(X[usable]) if usable.any()
           else whole_matrix_standardizer(X))
    rng = np.random.default_rng(seed)

    stages = {}
    counts = {}
    for si, name in enumerate(stages_for_mode(mode)):
        routed, positive = CASCADE[name]
        sel = np.isin(y, routed) & usable
        ys = np.isin(y, positive).astype(np.int64)[sel]
        n0 = int(np.count_nonzero(ys == 0))
        n1 = int(np.count_nonzero(ys == 1))
        counts[name] = (n0, n1)
        if min(n0, n1) < MIN_SAMPLES_PER_CLASS:
            raise ValueError(
                f"stage {name}: insufficient samples per class {counts}; "
                f"need >= {MIN_SAMPLES_PER_CLASS}"
            )
        Xs = std.apply(X[sel])
        Xs, ys = whole_matrix_subsample(Xs, ys, config.max_train_pixels,
                                        balanced=(config.backend == "sdae"), rng=rng)
        stage_seed = seed + 7919 * (si + 1)
        if config.backend == "rf":
            stages[name] = train_rf(Xs, ys, config.rf, seed=stage_seed)
        else:
            stages[name] = train_sdae(Xs, ys, config.sdae, seed=stage_seed)
    return CascadeModel(mode=mode, backend=config.backend, standardizer=std,
                        stages=stages, seed=seed)


@pytest.mark.parametrize("cap", [200, 500])
@pytest.mark.parametrize("backend", ["rf", "sdae"])
def test_training_matches_the_standardise_then_draw_path(backend, cap, tmp_path):
    # In mode In, 150 rows per leaf less every 37th, made degenerate, route
    # 729 usable rows to C1, 584 to C2 and 292 each to C3 and C4. A cap of 500
    # leaves C3 and C4 whole for the forest and limits the SDAE's balanced
    # draws by their classes; a cap of 200 draws from every stage.
    x, y = synthetic_dataset(Mode.IN, seed=5)
    x[::37, :] = 0.0
    x[::37, -1] = 1.0
    config = CascadeConfig(backend=backend, rf=RFConfig(n_trees=4, min_leaf=2),
                           sdae=SDAEConfig(hidden_sizes=(6,), pretrain_epochs=1,
                                           finetune_epochs=2),
                           max_train_pixels=cap)
    got, want = tmp_path / "got.izm", tmp_path / "want.izm"
    io.write_model(got, cascade_train(x, y, Mode.IN, config, seed=3))
    io.write_model(want, whole_matrix_cascade_train(x, y, Mode.IN, config, seed=3))
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("backend", ["rf", "sdae"])
def test_training_on_parts_matches_training_on_their_pooled_rows(backend, tmp_path):
    # three parts over two matrices: shuffled rows, no rows, and repeated rows
    x, y = synthetic_dataset(Mode.IN, n_per_class=300, seed=6)
    x[::41, :] = 0.0
    x[::41, -1] = 1.0
    rng = np.random.default_rng(7)
    half = len(x) // 2
    a, b = x[:half], x[half:].copy()
    rows = [rng.permutation(half)[:500], np.arange(0), rng.integers(0, len(b), size=600)]
    parts = [(a, rows[0]), (b, rows[1]), (b, rows[2])]
    labels = np.concatenate([y[:half][rows[0]], y[half:][rows[1]], y[half:][rows[2]]])
    config = CascadeConfig(backend=backend, rf=RFConfig(n_trees=4, min_leaf=2),
                           sdae=SDAEConfig(hidden_sizes=(6,), pretrain_epochs=1,
                                           finetune_epochs=2),
                           max_train_pixels=300)
    got, want = tmp_path / "got.izm", tmp_path / "want.izm"
    io.write_model(got, cascade_train(parts, labels, Mode.IN, config, seed=2))
    pooled = np.concatenate([m[r] for m, r in parts])
    io.write_model(want, cascade_train(pooled, labels, Mode.IN, config, seed=2))
    assert got.read_bytes() == want.read_bytes()
