"""Dataset generation on disk, manifests, a priori masks, per-sequence features."""

import hashlib
import os
import re

import numpy as np
import pytest

from irzone import io_formats as io
from irzone import pipeline
from irzone.features import FEATURE_DIM, Standardizer
from irzone.models.cascade import (
    CASCADE,
    CascadeConfig,
    CascadeModel,
    _subsample,
    stages_for_mode,
)
from irzone.models.rf import RFConfig, train_rf
from irzone.models.sdae import SDAEConfig, train_sdae
from irzone.phantom import default_config_sampler, generate_phantom
from irzone.pipeline import (
    ManifestEntry,
    auto_zpr,
    load_features,
    make_dataset,
    preprocess_sequence,
    read_manifest,
    write_manifest,
    zpr_from_reference,
)
from irzone.postprocess import ha_score
from irzone.zones import Mode, ZoneLabel

from conftest import small_config


def tiny_sampler(mode):
    return default_config_sampler(mode, width=48, height=36, n_frames=12, nwa_margin=6)


class TestMakeDataset:
    def test_zero_sequences_gives_empty_manifest_and_no_files(self, tmp_path):
        entries = make_dataset(tmp_path, mode_mix={"On": 0}, config_sampler=tiny_sampler(Mode.ON))
        assert entries == []
        assert (tmp_path / "manifest.txt").read_text() == ""
        assert not list(tmp_path.glob("*.irts"))

    def test_manifest_lists_the_written_file_pairs(self, tmp_path):
        entries = make_dataset(tmp_path, mode_mix={"On": 2},
                               config_sampler=tiny_sampler(Mode.ON), seed=1)
        assert (tmp_path / "manifest.txt").read_text() == "".join(
            f"{tmp_path}/seq_{i:04d}.irts\t{tmp_path}/mask_{i:04d}.pgm\n" for i in range(2))
        assert read_manifest(tmp_path / "manifest.txt") == entries
        for e in entries:
            io.read_sequence(e.seq_path)
            io.read_mask(e.mask_path)

    def test_mode_mix_produces_requested_composition(self, tmp_path):
        mix = {"On": 2, "In": 2, "Off": 1}
        all_entries = []
        for mode_name, count in mix.items():
            sub = make_dataset(tmp_path / mode_name.lower(), mode_mix={mode_name: count},
                               config_sampler=tiny_sampler(Mode.parse(mode_name)), seed=2)
            all_entries.extend(sub)
        assert len(all_entries) == 5
        modes = [io.read_mask(e.mask_path)[1].value for e in all_entries]
        assert modes == ["On", "On", "In", "In", "Off"]

    def test_deterministic_for_fixed_seed(self, tmp_path):
        make_dataset(tmp_path / "a", mode_mix={"On": 1},
                     config_sampler=tiny_sampler(Mode.ON), seed=3)
        make_dataset(tmp_path / "b", mode_mix={"On": 1},
                     config_sampler=tiny_sampler(Mode.ON), seed=3)
        assert (tmp_path / "a/seq_0000.irts").read_bytes() == (
            tmp_path / "b/seq_0000.irts"
        ).read_bytes()

    def test_rejects_negative_counts(self, tmp_path):
        with pytest.raises(ValueError, match="nonnegative"):
            make_dataset(tmp_path, mode_mix={"On": -1}, config_sampler=tiny_sampler(Mode.ON))

    def test_rejects_unknown_mode(self, tmp_path):
        with pytest.raises(ValueError, match="unknown modes in mode_mix: \\['on'\\]"):
            make_dataset(tmp_path, mode_mix={"on": 3}, config_sampler=tiny_sampler(Mode.ON))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("line", [
        "a.irts\ta.pgm\tOn\tNWA 5 NA_DM",     # the four columns of the old format
        "a.irts\ta.pgm\tOn",                   # three fields
        "a.irts\ta.pgm\tOn\tNWA five",
        "a.irts\ta.pgm\tSideways\tNWA 5",
        "a.irts",                              # one field
        "a.irts a.pgm",                        # not tab-separated
        "\ta.pgm",                             # an empty path
        "a.irts\t",
        "a.irts\t\ta.pgm",
    ])
    def test_malformed_manifest_line_names_the_line(self, line, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text(f"b.irts\tb.pgm\n\n{line}\nc.irts\tc.pgm\n")
        with pytest.raises(io.FormatError, match="malformed manifest line") as err:
            read_manifest(path)
        assert str(err.value).startswith(f"{path}:3: ")
        assert repr(line) in str(err.value)

    def test_manifest_line_round_trip(self, tmp_path):
        entries = [ManifestEntry("a.irts", "a.pgm"), ManifestEntry("b c.irts", "d/b.pgm")]
        write_manifest(tmp_path / "manifest.txt", entries)
        assert (tmp_path / "manifest.txt").read_text() == "a.irts\ta.pgm\nb c.irts\td/b.pgm\n"
        assert read_manifest(tmp_path / "manifest.txt") == entries

    def test_read_manifest_skips_blank_lines(self, tmp_path):
        entries = make_dataset(tmp_path, mode_mix={"On": 1},
                               config_sampler=tiny_sampler(Mode.ON), seed=4)
        path = tmp_path / "manifest.txt"
        path.write_text(path.read_text() + "\n\n")
        assert read_manifest(path) == entries


class TestAprioriMasks:
    def test_auto_prior_has_border_band_and_tissue_interior(self):
        z = auto_zpr((20, 30), 250e-6, Mode.ON, margin=4)
        assert np.all(z.labels[:4, :] == int(ZoneLabel.NWA))
        assert z.labels[10, 15] == int(ZoneLabel.NA_DM)
        Mode.ON.check_labels(z.labels)

    def test_auto_prior_uses_cortex_layer_for_off_mode(self):
        z = auto_zpr((20, 30), 250e-6, Mode.OFF, margin=4)
        assert z.labels[10, 15] == int(ZoneLabel.NA_BC)
        Mode.OFF.check_labels(z.labels)

    def test_auto_prior_rejects_a_two_layer_mode(self):
        # one tissue layer would label all of an In-mode working area as dura
        with pytest.raises(ValueError, match="--zpr auto draws one tissue layer, but mode In"):
            auto_zpr((20, 30), 250e-6, Mode.IN, margin=4)

    def test_reference_prior_erases_tumor_distinction_only(self):
        labels = np.array(
            [[0, int(ZoneLabel.NA_DM)], [int(ZoneLabel.HA_DM), int(ZoneLabel.HA_BC)]],
            dtype=np.uint8,
        )
        from irzone.zones import ZoneMask

        z = zpr_from_reference(ZoneMask(labels, 250e-6))
        assert z.labels[0, 0] == 0
        assert z.labels[0, 1] == int(ZoneLabel.NA_DM)
        assert z.labels[1, 0] == int(ZoneLabel.NA_DM)
        assert z.labels[1, 1] == int(ZoneLabel.NA_BC)


class TestPreprocessSequence:
    def test_feature_map_shape_and_validity(self):
        seq, _ = generate_phantom(small_config(noise_sigma=0.03), seed=5)
        sf = preprocess_sequence(seq)
        h, w = seq.frame_shape
        assert sf.features.shape == (h * w, FEATURE_DIM)
        assert sf.shape == (h, w)
        assert np.all(np.isfinite(sf.features))
        # a clean, still sequence should yield almost no degenerate pixels
        assert np.mean(sf.features[:, -1]) < 0.05


class TestLoadFeatures:
    def test_regenerated_sequence_is_preprocessed_again(self, tmp_path):
        make_dataset(tmp_path, mode_mix={"On": 1}, config_sampler=tiny_sampler(Mode.ON), seed=1)
        path = tmp_path / "seq_0000.irts"
        first = load_features(path).features
        make_dataset(tmp_path, mode_mix={"On": 1}, config_sampler=tiny_sampler(Mode.ON), seed=2)
        second = load_features(path).features
        assert np.array_equal(second, preprocess_sequence(io.read_sequence(path)).features)
        assert not np.array_equal(first, second)

    def test_unchanged_sequence_is_served_from_cache(self, tmp_path):
        make_dataset(tmp_path, mode_mix={"On": 1}, config_sampler=tiny_sampler(Mode.ON), seed=1)
        path = tmp_path / "seq_0000.irts"
        assert load_features(path) is load_features(tmp_path / "." / "seq_0000.irts")


def test_e2e_caches_the_training_features_and_maps_each_test_sequence_once(tmp_path,
                                                                          monkeypatch):
    """Training and calibration read the training features from the cache;
    each test sequence is preprocessed once, outside it, for every backend.
    The calls are logged to a file opened for appending, so that the calls
    of forked workers are counted too."""
    monkeypatch.setattr(pipeline, "_FEATURE_CACHE", {})
    log = tmp_path / "preprocessed.log"
    preprocess = pipeline.preprocess_sequence

    def logged(seq):
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, hashlib.sha256(seq.data.tobytes()).hexdigest().encode() + b"\n")
        finally:
            os.close(fd)
        return preprocess(seq)

    monkeypatch.setattr(pipeline, "preprocess_sequence", logged)
    out = pipeline.run_e2e(tmp_path, seed=7, config=pipeline.E2EConfig(n_train=2, n_test=3))
    train = read_manifest(tmp_path / "train" / "manifest.txt")
    test = read_manifest(tmp_path / "test" / "manifest.txt")
    assert sorted(path for path, _, _ in pipeline._FEATURE_CACHE) == sorted(
        str((tmp_path / "train" / f"seq_{i:04d}.irts").resolve()) for i in range(2))
    preprocessed = log.read_text().split()
    assert sorted(preprocessed) == sorted(
        hashlib.sha256(io.read_sequence(e.seq_path).data.tobytes()).hexdigest()
        for e in train + test)
    assert [len(items) for items in out["results"].values()] == [3, 3]


def test_every_default_argument_is_hashable():
    """A mutable default is one object shared by every call that omits it:
    module-level state. Defaults must be immutable, so every one is hashable
    (numbers, strings, tuples, enums, frozen dataclasses)."""
    import importlib
    import inspect
    import pkgutil

    import irzone

    unhashable = []
    for info in pkgutil.walk_packages(irzone.__path__, "irzone."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != info.name:
                continue
            if inspect.isclass(obj):
                funcs = [getattr(f, "__func__", f) for f in vars(obj).values()]
            else:
                funcs = [obj]
            for f in filter(inspect.isfunction, funcs):
                for p in inspect.signature(f).parameters.values():
                    try:
                        hash(p.default)
                    except TypeError:
                        unhashable.append(f"{f.__qualname__}({p.name})")
    assert unhashable == []


def concatenating_pooled(manifest_path, mode, seed, cap, columns):
    """`pipeline._pooled` before it wrote into preallocated arrays, kept as its
    oracle: `columns` gives the pooled rows of one sequence, and the picks
    of every sequence whose mask sidecar names `mode` are concatenated at
    the end."""
    rng = np.random.default_rng(seed)
    per_seq = []
    for e in read_manifest(manifest_path):
        mask, mask_mode = io.read_mask(e.mask_path)
        if mask_mode is not mode:
            continue
        sf = load_features(e.seq_path)
        if mask.shape != sf.shape:
            (mh, mw), (sh, sw) = mask.shape, sf.shape
            raise ValueError(f"mask {e.mask_path} is {mw}x{mh}, "
                             f"but sequence {e.seq_path} is {sw}x{sh}")
        cols = columns(mask, sf)
        n = len(cols[0])
        if cap and n > cap:
            pick = rng.choice(n, size=cap, replace=False)
            cols = [c[pick] for c in cols]
        per_seq.append(cols)
    if not per_seq:
        raise ValueError(f"manifest has no {mode.value}-mode sequences")
    return [np.concatenate(c) for c in zip(*per_seq)]


@pytest.fixture(scope="module")
def mixed_manifest(tmp_path_factory):
    """Four On-mode sequences, 96x72 and 80x48 in turn, with an Off-mode one
    after the first two, and an RF trained on the On-mode ones."""
    root = tmp_path_factory.mktemp("mixed")
    entries = []
    for (w, h), seed in (((96, 72), 1), ((80, 48), 2)):
        sampler = default_config_sampler(Mode.ON, width=w, height=h, n_frames=12,
                                         noise_sigma=0.03, nwa_margin=8)
        entries.append(make_dataset(root / f"{w}x{h}", {"On": 2}, config_sampler=sampler,
                                    seed=seed))
    off = make_dataset(root / "off", {"Off": 1}, config_sampler=tiny_sampler(Mode.OFF), seed=3)
    manifest = root / "manifest.txt"
    on = [e for pair in zip(*entries) for e in pair]
    write_manifest(manifest, on[:2] + off + on[2:])
    config = CascadeConfig(rf=RFConfig(n_trees=3), max_train_pixels=2000)
    return manifest, pipeline.train_from_manifest(manifest, Mode.ON, config, seed=4)


def wa_counts(manifest, mode):
    masks = [io.read_mask(e.mask_path) for e in read_manifest(manifest)]
    return [int(mask.wa.sum()) for mask, mask_mode in masks if mask_mode is mode]


@pytest.mark.parametrize("capped", [False, True], ids=["cap-0", "cap-above-one-wa-count"])
def test_pooled_columns_match_the_concatenating_path(mixed_manifest, capped, monkeypatch):
    manifest, model = mixed_manifest
    counts = wa_counts(manifest, Mode.ON)
    assert len(counts) == 4
    cap = min(counts) + 1 if capped else 0
    assert not capped or cap < max(counts)  # one sequence whole, the others drawn from

    seen = {}

    def capture(name):
        return lambda *args, **kwargs: seen.setdefault(name, args[:2])

    # training: the rows `train_from_manifest` hands the cascade, by reference
    # to the cached feature maps
    monkeypatch.setattr(pipeline, "cascade_train", capture("train"))
    pipeline.train_from_manifest(manifest, Mode.ON, CascadeConfig(), seed=9,
                                 max_pixels_per_seq=cap)
    want = concatenating_pooled(manifest, Mode.ON, 9, cap,
                                lambda mask, sf: (sf.features, mask.labels.ravel()))
    # calibration: the WA scores `calibrate_thresholds` fits thresholds to
    monkeypatch.setattr(pipeline, "fit_thresholds", capture("calibrate"))
    monkeypatch.setattr(pipeline, "CALIBRATION_PIXELS_PER_SEQ", cap)
    pipeline.calibrate_thresholds(model, manifest, 0.05, 0.05, seed=9)

    def wa_scores(mask, sf):
        smoothed = pipeline.smoothed_probs(model, sf, 1)
        wa = mask.wa.ravel()
        return ha_score(smoothed).ravel()[wa], mask.ha.ravel()[wa]

    want += concatenating_pooled(manifest, Mode.ON, 9, cap, wa_scores)
    parts, labels = seen["train"]
    on = [e for e in read_manifest(manifest) if io.read_mask(e.mask_path)[1] is Mode.ON]
    assert all(m is load_features(e.seq_path).features for (m, _), e in zip(parts, on, strict=True))
    got = [np.concatenate([m[r] for m, r in parts]), labels, *seen["calibrate"]]
    assert len(got[2]) == sum(min(n, cap) if cap else n for n in counts)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def pooled_matrix_train(manifest_path, mode, config, seed=0, max_pixels_per_seq=0):
    """`train_from_manifest` and `cascade_train` before training read the
    cached features by reference, kept as their oracle: every pooled row is
    copied into one [N, D] matrix, the standardizer is numpy's mean and std
    of its usable rows, and each stage draws its rows from the matrix."""
    X, y = concatenating_pooled(manifest_path, mode, seed, max_pixels_per_seq,
                                lambda mask, sf: (sf.features, mask.labels.ravel()))
    mode.check_labels(y)
    usable = X[:, FEATURE_DIM - 1] < 0.5  # degenerate pixels are hard-ruled NWA
    fitted = X[usable] if usable.any() else X
    std = Standardizer(mean=fitted.mean(axis=0), scale=np.maximum(fitted.std(axis=0), 1e-12))
    rng = np.random.default_rng(seed)
    stages = {}
    for si, name in enumerate(stages_for_mode(mode)):
        routed, positive = CASCADE[name]
        sel = np.isin(y, routed) & usable
        ys = np.isin(y, positive).astype(np.int64)[sel]
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


@pytest.mark.parametrize("cap", [0, 5000], ids=["cap-0", "cap-above-the-80x48-count"])
@pytest.mark.parametrize("backend", ["rf", "sdae"])
def test_training_by_reference_writes_the_pooled_matrix_model(mixed_manifest, backend, cap,
                                                              tmp_path):
    # the manifest mixes On- and Off-mode sequences; its On-mode 96x72 ones
    # hold 6,912 pixels and its 80x48 ones 3,840, so a cap of 5,000 draws
    # from the first and keeps the second whole
    manifest, _ = mixed_manifest
    config = CascadeConfig(backend=backend, rf=RFConfig(n_trees=3), max_train_pixels=3000,
                           sdae=SDAEConfig(hidden_sizes=(8,), pretrain_epochs=1,
                                           finetune_epochs=3))
    got, want = tmp_path / "got.izm", tmp_path / "want.izm"
    io.write_model(got, pipeline.train_from_manifest(manifest, Mode.ON, config, seed=5,
                                                     max_pixels_per_seq=cap))
    io.write_model(want, pooled_matrix_train(manifest, Mode.ON, config, seed=5,
                                             max_pixels_per_seq=cap))
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("where", [None, lambda mask: mask.wa], ids=["train", "calibrate"])
def test_pooled_mask_of_another_size_names_both_files(mixed_manifest, tmp_path, where):
    manifest, _ = mixed_manifest
    entries = read_manifest(manifest)
    big, small = entries[0], entries[1]
    small.mask_path = big.mask_path
    write_manifest(tmp_path / "manifest.txt", entries)
    with pytest.raises(ValueError, match=re.escape(
            f"mask {big.mask_path} is 96x72, but sequence {small.seq_path} is 80x48")):
        pipeline._pooled(tmp_path / "manifest.txt", Mode.ON, 0, 0, where=where)


def test_pooled_keeps_the_sequences_whose_sidecar_names_the_mode(mixed_manifest):
    manifest, _ = mixed_manifest
    entries = read_manifest(manifest)
    modes = [io.read_mask(e.mask_path)[1] for e in entries]
    assert modes == [Mode.ON, Mode.ON, Mode.OFF, Mode.ON, Mode.ON]
    [(mask, sf, rows)] = pipeline._pooled(manifest, Mode.OFF, 0, 0)
    assert np.array_equal(mask.labels, io.read_mask(entries[2].mask_path)[0].labels)
    assert sf is load_features(entries[2].seq_path)
    assert np.array_equal(rows, np.arange(mask.labels.size))
    on = pipeline._pooled(manifest, Mode.ON, 0, 0)
    assert [sf for _, sf, _ in on] == [load_features(e.seq_path)
                                       for i, e in enumerate(entries) if i != 2]
    with pytest.raises(ValueError, match="manifest has no In-mode sequences"):
        pipeline._pooled(manifest, Mode.IN, 0, 0)
