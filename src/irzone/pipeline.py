"""End-to-end orchestration: dataset generation on disk, per-sequence
preprocessing into feature maps, cascade training from a manifest, and
inference to a final zone mask."""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import evaluation
from . import io_formats as io
from .features import extract_features_batch
from .forked import forked_map
from .models.cascade import CascadeConfig, CascadeModel, cascade_predict, cascade_train
from .models.rf import RFConfig
from .phantom import default_config_sampler, generate_phantom
from .postprocess import (
    DEFAULT_MIN_AREA_MM2,
    DecisionThresholds,
    fit_thresholds,
    ha_score,
    lps_decide,
    probabilistic_filter,
    topological_filter,
)
from .preprocess import (
    fit_recovery_batch,
    naming_sequence,
    register_sequence,
    remove_damaged_frames,
)
from .zones import LAYERS, LEAF_LABELS, Mode, ZoneMask


CALIBRATION_PIXELS_PER_SEQ = 4000  # WA scores sampled per calibration sequence
PF_RADIUS = 1  # smoothing radius: thresholds are fitted and cut at the same one


@dataclass
class ManifestEntry:
    """One manifest line: a sequence file and its mask, whose sidecar holds the mode."""

    seq_path: str
    mask_path: str


def write_manifest(path, entries: list[ManifestEntry]):
    io._atomic_write(path, [f"{e.seq_path}\t{e.mask_path}\n".encode() for e in entries])


def read_manifest(path) -> list[ManifestEntry]:
    """The file pairs of a manifest: one `seq_path<TAB>mask_path` per line,
    blank lines skipped. Any other line is a FormatError naming path:line."""
    entries = []
    for n, line in enumerate(io.read_text(path, "manifest").splitlines(), start=1):
        if not line.strip():
            continue
        paths = line.split("\t")
        if len(paths) != 2 or not all(paths):
            raise io.FormatError(f"{path}:{n}: malformed manifest line {line!r}; "
                                 "expected seq_path<TAB>mask_path")
        entries.append(ManifestEntry(*paths))
    return entries


def make_dataset(out_dir, mode_mix, config_sampler, seed=0) -> list[ManifestEntry]:
    """Generate phantoms to disk plus a manifest of their file pairs.

    `mode_mix` is {mode value ("On", "In" or "Off"): count}; any other key is
    a ValueError. `config_sampler(rng)` gives each phantom's config, whose
    mode is then set from the mix. Deterministic for a fixed seed. The
    paths are absolute, so the manifest reads the same from any directory.
    """
    out_dir = Path(out_dir).absolute()
    unknown = set(mode_mix) - {m.value for m in Mode}
    if unknown:
        raise ValueError(f"unknown modes in mode_mix: {sorted(unknown)}; expected On, In, Off")
    if any(v < 0 for v in mode_mix.values()):
        raise ValueError("mode counts must be nonnegative")

    rng = np.random.default_rng(seed)
    entries = []
    for mode in Mode:  # On, In, Off
        for _ in range(int(mode_mix.get(mode.value, 0))):
            config = config_sampler(rng)
            config.mode = mode
            seq_seed = int(rng.integers(0, 2**31 - 1))
            seq, mask = generate_phantom(config, seq_seed)
            seq_path = out_dir / f"seq_{len(entries):04d}.irts"
            mask_path = out_dir / f"mask_{len(entries):04d}.pgm"
            try:
                io.write_sequence(seq_path, seq)
                io.write_mask(mask_path, mask, mode)
            except OSError as e:
                raise OSError(f"failed writing {seq_path}: {e}") from e
            entries.append(ManifestEntry(str(seq_path), str(mask_path)))
    write_manifest(out_dir / "manifest.txt", entries)
    return entries


@dataclass
class SequenceFeatures:
    """Per-pixel feature map for one preprocessed sequence."""

    features: np.ndarray   # [H*W, D]
    shape: tuple[int, int]


# preprocessing is deterministic per file; training, calibration, and
# inference all need the same features, so cache by path. Size and mtime are
# part of the key so that a file rewritten in place is preprocessed again.
_FEATURE_CACHE: dict[tuple[str, int, int], SequenceFeatures] = {}


def _cache_key(seq_path) -> tuple[str, int, int]:
    path = Path(seq_path).resolve()
    st = path.stat()
    return str(path), st.st_size, st.st_mtime_ns


def read_features(seq_path) -> SequenceFeatures:
    """The features of the sequence file `seq_path`; a PipelineAbort names the file."""
    with naming_sequence(seq_path):
        return preprocess_sequence(io.read_sequence(seq_path))


def _cache_features(seq_paths):
    """Preprocess into the cache each of `seq_paths` it lacks, on the usable
    CPUs (`forked.forked_map`). The cache is emptied first when the new
    entries would take it past 256."""
    paths = {_cache_key(p): p for p in seq_paths}
    missing = [key for key in paths if key not in _FEATURE_CACHE]
    if missing and len(_FEATURE_CACHE) + len(missing) > 256:
        _FEATURE_CACHE.clear()
        missing = list(paths)
    _FEATURE_CACHE.update(zip(missing, forked_map(read_features, [paths[k] for k in missing])))


def load_features(seq_path) -> SequenceFeatures:
    key = _cache_key(seq_path)
    if key not in _FEATURE_CACHE:
        _cache_features([seq_path])
    return _FEATURE_CACHE[key]


def preprocess_sequence(seq: io.ThermalSequence) -> SequenceFeatures:
    """EDR + RDF + per-pixel fit + feature extraction for one sequence."""
    registered, rep = register_sequence(seq)
    cleaned, rep = remove_damaged_frames(registered, rep)
    del registered  # after a deletion, `cleaned` has its own copy of the kept frames
    h, w = cleaned.frame_shape
    # [N, T] view of the float32 frames: the fit and the features convert
    # them to float64 block by block, never the whole series at once
    series = cleaned.data.reshape(cleaned.n_frames, -1).T
    fits = fit_recovery_batch(series, cleaned.timestamps)
    # pixels exposed by registration carry no trustworthy dynamics
    fits["degenerate"] = fits["degenerate"] | ~rep.valid_mask.ravel()
    feats = extract_features_batch(fits, series, cleaned.timestamps)
    return SequenceFeatures(features=feats, shape=(h, w))


def check_frame_size(mask_path, mask: ZoneMask, other_path, shape, other="sequence"):
    """A ValueError naming both files unless mask `mask_path` has the frame size `shape`."""
    (mh, mw), (h, w) = mask.shape, shape
    if (mh, mw) != (h, w):
        raise ValueError(f"mask {mask_path} is {mw}x{mh}, but {other} {other_path} is {w}x{h}")


def _pooled(manifest_path, mode: Mode, seed: int, cap: int, where=None) -> list:
    """(mask, features, rows) of each of the manifest's sequences whose mask
    sidecar names `mode`: the one place that loads a manifest's features.

    `rows` are the flat indices of the pixels to pool: those `where(mask)`
    selects ([H, W] bool), if given, or all of them. When `cap` is set and a
    sequence has more than `cap` such pixels, it contributes `cap` of them
    drawn without replacement from one generator seeded by `seed`. A mask of
    another frame size than its sequence is a ValueError.

    The sequences the feature cache lacks are preprocessed into it first, on
    the usable CPUs (`_cache_features`)."""
    lines = [(e, *io.read_mask(e.mask_path)) for e in read_manifest(manifest_path)]
    pairs = [(e, mask) for e, mask, mask_mode in lines if mask_mode is mode]
    if not pairs:
        raise ValueError(f"manifest has no {mode.value}-mode sequences")
    _cache_features([e.seq_path for e, _ in pairs])
    rng = np.random.default_rng(seed)
    pooled = []
    for e, mask in pairs:
        sf = load_features(e.seq_path)
        check_frame_size(e.mask_path, mask, e.seq_path, sf.shape)
        rows = np.arange(mask.labels.size) if where is None else np.flatnonzero(where(mask))
        if cap and len(rows) > cap:
            rows = rows[rng.choice(len(rows), size=cap, replace=False)]
        pooled.append((mask, sf, rows))
    return pooled


def train_from_manifest(manifest_path, mode: Mode, config: CascadeConfig,
                        seed: int = 0, max_pixels_per_seq: int = 0) -> CascadeModel:
    """Train on the features and ground-truth labels pooled over the manifest,
    passing each cached feature map by reference with the rows it gives."""
    if max_pixels_per_seq < 0:
        raise ValueError(f"max_pixels_per_seq must be >= 0, got {max_pixels_per_seq}")
    pooled = _pooled(manifest_path, mode, seed, max_pixels_per_seq)
    labels = np.concatenate([mask.labels.ravel()[rows] for mask, _, rows in pooled])
    return cascade_train([(sf.features, rows) for _, sf, rows in pooled], labels, mode,
                         config, seed=seed)


def auto_zpr(shape, pixel_size, mode: Mode, margin: int = 16) -> ZoneMask:
    """Trivial a priori mask (`--zpr auto`): NWA border band, single tissue layer inside."""
    if len(mode.layers) > 1:  # the dura/cortex split cannot be guessed
        raise ValueError(f"--zpr auto draws one tissue layer, but mode {mode.value} has two")
    h, w = shape
    labels = np.zeros((h, w), dtype=np.uint8)
    labels[margin : h - margin, margin : w - margin] = mode.layers[0][0]  # its NA leaf
    return ZoneMask(labels, pixel_size)


def zpr_from_reference(mask: ZoneMask) -> ZoneMask:
    """A priori mask from a reference delineation: keeps the WA/NWA and BC/DM
    splits, erases the NA/HA distinction (that is the classifier's job)."""
    labels = mask.labels.copy()
    for na, ha in LAYERS:
        labels[labels == ha] = na
    return ZoneMask(labels, mask.pixel_size)


def smoothed_probs(model: CascadeModel, sf: SequenceFeatures, radius: int) -> dict:
    """Cascade leaf probabilities as (h, w) maps after probabilistic smoothing:
    the distribution that threshold calibration fits and the decision cuts.
    `cascade_predict` stops a non-finite feature or probability before the
    smoothing's running sums spread it over its row and column."""
    probs = cascade_predict(model, sf.features)
    h, w = sf.shape
    maps = {l: probs[l].reshape(h, w) for l in LEAF_LABELS}
    return probabilistic_filter(maps, radius=radius)


@dataclass
class InferenceResult:
    z_ps: ZoneMask
    prob_maps: dict


def infer_sequence(model: CascadeModel, seq: io.ThermalSequence, z_pr: ZoneMask,
                   thresholds: DecisionThresholds, pf_radius: int = PF_RADIUS,
                   min_area_mm2: float = DEFAULT_MIN_AREA_MM2,
                   features: SequenceFeatures | None = None) -> InferenceResult:
    """Full per-sequence inference: features -> cascade -> PF -> LPS -> TF."""
    sf = features if features is not None else preprocess_sequence(seq)
    smoothed = smoothed_probs(model, sf, pf_radius)
    z_ps = lps_decide(smoothed, z_pr, model.mode, thresholds)
    filtered, _ = topological_filter(z_ps.labels, z_ps.pixel_size,
                                     min_area_mm2=min_area_mm2)
    z_final = ZoneMask(filtered, z_ps.pixel_size)
    model.mode.check_labels(z_final.labels)
    return InferenceResult(z_ps=z_final, prob_maps=smoothed)


@dataclass(frozen=True)
class E2EConfig:
    n_train: int = 8
    n_test: int = 4
    n_frames: int = 40
    backends: tuple[str, ...] = ("rf", "sdae")
    # the same for every run: no caller sets them
    mode: ClassVar[Mode] = Mode.ON
    width: ClassVar[int] = 96
    height: ClassVar[int] = 72
    nwa_margin: ClassVar[int] = 10
    noise_sigma: ClassVar[float] = 0.03
    alpha: ClassVar[float] = 0.05
    beta: ClassVar[float] = 0.05
    rf_trees: ClassVar[int] = 30
    max_train_pixels: ClassVar[int] = 8000
    pixels_per_seq: ClassVar[int] = 6000
    pf_radius: ClassVar[int] = PF_RADIUS
    min_area_mm2: ClassVar[float] = DEFAULT_MIN_AREA_MM2

    def __post_init__(self):
        for name in ("n_train", "n_test"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.backends:
            raise ValueError("backends must name at least one backend")
        if len(set(self.backends)) < len(self.backends):
            raise ValueError(f"backends must not repeat, got {','.join(self.backends)}")
        for backend in self.backends:
            CascadeConfig(backend=backend)  # raises for an unknown one


def run_e2e(out_dir, seed: int, config: E2EConfig = E2EConfig()) -> dict:
    """Full pipeline: generate train/test phantoms, train and write every
    backend, calibrate every backend's thresholds, then map the test set in
    one pass and write a quality report.

    Training and calibration read the training features through
    `load_features`. Each test sequence is read and preprocessed once,
    outside that cache, mapped by every backend in config order as it
    arrives and then dropped, so no test feature map is held while another
    backend trains. The training sequences, the test sequences and each
    cascade's stages are computed on the usable CPUs (`forked.forked_map`).
    Every step is seeded on its own, so neither the order nor the process
    changes a byte.

    Everything on disk (datasets, models, predicted masks, report) is a pure
    function of (seed, config)."""
    out_dir = Path(out_dir)
    sampler = default_config_sampler(
        config.mode, width=config.width, height=config.height, n_frames=config.n_frames,
        noise_sigma=config.noise_sigma, nwa_margin=config.nwa_margin,
    )
    make_dataset(out_dir / "train", mode_mix={config.mode.value: config.n_train},
                 config_sampler=sampler, seed=seed)
    make_dataset(out_dir / "test", mode_mix={config.mode.value: config.n_test},
                 config_sampler=sampler, seed=seed + 1)
    train_manifest = out_dir / "train" / "manifest.txt"

    models = {}
    for backend in config.backends:
        cconfig = CascadeConfig(
            backend=backend,
            rf=RFConfig(n_trees=config.rf_trees),
            max_train_pixels=config.max_train_pixels,
        )
        models[backend] = train_from_manifest(train_manifest, config.mode, cconfig, seed=seed,
                                              max_pixels_per_seq=config.pixels_per_seq)
        io.write_model(out_dir / f"model_{backend}.izm", models[backend])
    thresholds = {backend: calibrate_thresholds(model, train_manifest, config.alpha,
                                                config.beta, seed=seed,
                                                pf_radius=config.pf_radius)
                  for backend, model in models.items()}

    results = {backend.upper(): [] for backend in config.backends}
    tests = read_manifest(out_dir / "test" / "manifest.txt")
    with closing(forked_map(read_features, [e.seq_path for e in tests])) as maps:
        for i, (e, sf) in enumerate(zip(tests, maps)):
            ref, _ = io.read_mask(e.mask_path)
            z_pr = zpr_from_reference(ref)
            for backend, model in models.items():
                res = infer_sequence(model, None, z_pr, thresholds[backend],
                                     pf_radius=config.pf_radius,
                                     min_area_mm2=config.min_area_mm2, features=sf)
                io.write_mask(out_dir / f"pred_{backend}_{i:04d}.pgm", res.z_ps, config.mode)
                results[backend.upper()].append((f"seq_{i:04d}", res.z_ps, ref))
            del sf  # not held while the next sequence is preprocessed

    text = evaluation.report(results)
    io._atomic_write(out_dir / "report.txt", [text.encode()])
    return {"report": text, "results": results}


def calibrate_thresholds(model: CascadeModel, manifest_path, alpha: float,
                         beta: float, seed: int = 0,
                         pf_radius: int = PF_RADIUS) -> DecisionThresholds:
    """Fit the HA decision threshold on labeled calibration sequences.

    Probabilities are smoothed exactly as at decision time, otherwise the
    fitted threshold is calibrated against a different distribution than the
    one it will cut; both go through `smoothed_probs` and `ha_score`."""
    pooled = _pooled(manifest_path, model.mode, seed, CALIBRATION_PIXELS_PER_SEQ,
                     where=lambda mask: mask.wa)
    p_ha = np.concatenate([ha_score(smoothed_probs(model, sf, pf_radius)).ravel()[rows]
                           for _, sf, rows in pooled])
    is_ha = np.concatenate([mask.ha.ravel()[rows] for mask, _, rows in pooled])
    return fit_thresholds(p_ha, is_ha, alpha, beta)
