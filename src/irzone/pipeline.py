"""End-to-end orchestration: dataset generation on disk, per-sequence
preprocessing into feature maps, cascade training from a manifest, and
inference to a final zone mask."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import io_formats as io
from .features import extract_features_batch
from .models.cascade import CascadeConfig, CascadeModel, cascade_predict, cascade_train
from .models.rf import RFConfig
from .phantom import ThermalSequence, default_config_sampler, generate_phantom
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
    register_sequence,
    remove_damaged_frames,
)
from .zones import LAYERS, LEAF_LABELS, Mode, ZoneMask


CALIBRATION_PIXELS_PER_SEQ = 4000  # WA scores sampled per calibration sequence


@dataclass
class ManifestEntry:
    seq_path: str
    mask_path: str
    mode: Mode
    class_counts: dict[str, int]

    def line(self) -> str:
        counts = " ".join(f"{k} {v}" for k, v in sorted(self.class_counts.items()))
        return f"{self.seq_path}\t{self.mask_path}\t{self.mode.value}\t{counts}"

    @classmethod
    def parse(cls, line: str) -> "ManifestEntry":
        try:
            seq_path, mask_path, mode, counts_str = line.rstrip("\n").split("\t")
            toks = counts_str.split()
            counts = {k: int(v) for k, v in zip(toks[::2], toks[1::2], strict=True)}
            return cls(seq_path, mask_path, Mode.parse(mode), counts)
        except ValueError as e:
            raise ValueError(f"malformed manifest line {line!r}: {e}") from None


def write_manifest(path, entries: list[ManifestEntry]):
    io._atomic_write(path, ("".join(e.line() + "\n" for e in entries)).encode())


def read_manifest(path) -> list[ManifestEntry]:
    entries = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            entries.append(ManifestEntry.parse(line))
    return entries


def make_dataset(out_dir, mode_mix, config_sampler=None, seed=0) -> list[ManifestEntry]:
    """Generate phantoms to disk plus a manifest of per-class pixel counts.

    `mode_mix` is {mode value ("On", "In" or "Off"): count}; any other key is
    a ValueError. Deterministic for a fixed seed.
    """
    out_dir = Path(out_dir)
    unknown = set(mode_mix) - {m.value for m in Mode}
    if unknown:
        raise ValueError(f"unknown modes in mode_mix: {sorted(unknown)}; expected On, In, Off")
    if any(v < 0 for v in mode_mix.values()):
        raise ValueError("mode counts must be nonnegative")

    rng = np.random.default_rng(seed)
    entries = []
    idx = 0
    for mode in Mode:  # On, In, Off
        count = int(mode_mix.get(mode.value, 0))
        if count == 0:
            continue
        sampler = config_sampler or default_config_sampler(mode)
        for _ in range(count):
            config = sampler(rng)
            config.mode = mode
            seq_seed = int(rng.integers(0, 2**31 - 1))
            seq, mask = generate_phantom(config, seq_seed)
            seq_path = out_dir / f"seq_{idx:04d}.irts"
            mask_path = out_dir / f"mask_{idx:04d}.pgm"
            try:
                io.write_sequence(seq_path, seq)
                io.write_mask(mask_path, mask, mode)
            except OSError as e:
                raise OSError(f"failed writing {seq_path}: {e}") from e
            entries.append(
                ManifestEntry(str(seq_path), str(mask_path), mode, mask.class_counts())
            )
            idx += 1
    write_manifest(out_dir / "manifest.txt", entries)
    return entries


@dataclass
class SequenceFeatures:
    """Per-pixel feature map for one preprocessed sequence."""

    features: np.ndarray   # [H*W, D]
    shape: tuple[int, int]
    report: object


# preprocessing is deterministic per file; training, calibration, and
# inference all need the same features, so cache by path. Size and mtime are
# part of the key so that a file rewritten in place is preprocessed again.
_FEATURE_CACHE: dict[tuple[str, int, int], SequenceFeatures] = {}


def load_features(seq_path) -> SequenceFeatures:
    path = Path(seq_path).resolve()
    st = path.stat()
    key = (str(path), st.st_size, st.st_mtime_ns)
    if key not in _FEATURE_CACHE:
        if len(_FEATURE_CACHE) > 256:
            _FEATURE_CACHE.clear()
        _FEATURE_CACHE[key] = preprocess_sequence(io.read_sequence(seq_path))
    return _FEATURE_CACHE[key]


def preprocess_sequence(seq: ThermalSequence) -> SequenceFeatures:
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
    return SequenceFeatures(features=feats, shape=(h, w), report=rep)


def _pooled(manifest_path, mode: Mode, seed: int, cap: int, columns) -> list[np.ndarray]:
    """Per-pixel arrays pooled over the manifest's `mode` sequences: the one
    place that loads a manifest's features.

    `columns(mask, features)` gives one sequence's arrays, all of one length
    n. When `cap` is set and n exceeds it, the sequence contributes `cap`
    rows drawn without replacement from one generator seeded by `seed`. A
    mask of another frame size than its sequence is a ValueError."""
    entries = [e for e in read_manifest(manifest_path) if e.mode is mode]
    if not entries:
        raise ValueError(f"manifest has no {mode.value}-mode sequences")
    rng = np.random.default_rng(seed)
    per_seq = []
    for e in entries:
        mask, _ = io.read_mask(e.mask_path)
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
    return [np.concatenate(c) for c in zip(*per_seq)]


def train_from_manifest(manifest_path, mode: Mode, config: CascadeConfig,
                        seed: int = 0, max_pixels_per_seq: int = 0) -> CascadeModel:
    """Pool features and ground-truth labels over the manifest and train."""
    if max_pixels_per_seq < 0:
        raise ValueError(f"max_pixels_per_seq must be >= 0, got {max_pixels_per_seq}")
    X, y = _pooled(manifest_path, mode, seed, max_pixels_per_seq,
                   lambda mask, sf: (sf.features, mask.labels.ravel()))
    return cascade_train(X, y, mode, config, seed=seed)


def auto_zpr(shape, pixel_size, mode: Mode, margin: int = 16) -> ZoneMask:
    """Trivial a priori mask: NWA border band, single tissue layer inside."""
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
    the distribution that threshold calibration fits and the decision cuts."""
    probs = cascade_predict(model, sf.features)
    h, w = sf.shape
    maps = {l: probs[l].reshape(h, w) for l in LEAF_LABELS}
    return probabilistic_filter(maps, radius=radius)


@dataclass
class InferenceResult:
    z_ps: ZoneMask
    prob_maps: dict


def infer_sequence(model: CascadeModel, seq: ThermalSequence, z_pr: ZoneMask,
                   thresholds: DecisionThresholds, pf_radius: int = 1,
                   min_area_mm2: float = DEFAULT_MIN_AREA_MM2,
                   features: SequenceFeatures | None = None) -> InferenceResult:
    """Full per-sequence inference: features -> cascade -> PF -> LPS -> TF."""
    sf = features if features is not None else preprocess_sequence(seq)
    smoothed = smoothed_probs(model, sf, pf_radius)
    z_ps = lps_decide(smoothed, z_pr, model.mode, thresholds)
    filtered, _ = topological_filter(z_ps.labels, z_ps.pixel_size,
                                     min_area_mm2=min_area_mm2)
    z_final = ZoneMask(filtered, z_ps.pixel_size)
    z_final.check_mode(model.mode)
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
    pf_radius: ClassVar[int] = 1
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
    """Full pipeline: generate train/test phantoms, train every backend,
    calibrate thresholds, infer the test set, and write a quality report.

    Everything on disk (datasets, models, predicted masks, report) is a pure
    function of (seed, config)."""
    from .evaluation import report as make_report

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
    test_entries = read_manifest(out_dir / "test" / "manifest.txt")

    results = {}
    for backend in config.backends:
        cconfig = CascadeConfig(
            backend=backend,
            rf=RFConfig(n_trees=config.rf_trees),
            max_train_pixels=config.max_train_pixels,
        )
        model = train_from_manifest(train_manifest, config.mode, cconfig,
                                    seed=seed, max_pixels_per_seq=config.pixels_per_seq)
        io.write_model(out_dir / f"model_{backend}.izm", model,
                       header_extra={"mode": config.mode.value, "seed": seed})
        thresholds = calibrate_thresholds(model, train_manifest,
                                          config.alpha, config.beta, seed=seed,
                                          pf_radius=config.pf_radius)
        items = []
        for i, e in enumerate(test_entries):
            ref, _ = io.read_mask(e.mask_path)
            z_pr = zpr_from_reference(ref)
            res = infer_sequence(model, None, z_pr, thresholds,
                                 pf_radius=config.pf_radius,
                                 min_area_mm2=config.min_area_mm2,
                                 features=load_features(e.seq_path))
            io.write_mask(out_dir / f"pred_{backend}_{i:04d}.pgm", res.z_ps, config.mode)
            items.append((f"seq_{i:04d}", res.z_ps, ref))
        results[backend.upper()] = items

    text = make_report(results)
    io._atomic_write(out_dir / "report.txt", text.encode())
    return {"report": text, "results": results}


def calibrate_thresholds(model: CascadeModel, manifest_path, alpha: float,
                         beta: float, seed: int = 0,
                         pf_radius: int = 1) -> DecisionThresholds:
    """Fit the HA decision threshold on labeled calibration sequences.

    Probabilities are smoothed exactly as at decision time, otherwise the
    fitted threshold is calibrated against a different distribution than the
    one it will cut; both go through `smoothed_probs` and `ha_score`."""
    def wa_scores(mask, sf):
        smoothed = smoothed_probs(model, sf, pf_radius)  # once per sequence
        wa = mask.wa.ravel()
        return ha_score(smoothed).ravel()[wa], mask.ha.ravel()[wa]

    p_ha, is_ha = _pooled(manifest_path, model.mode, seed, CALIBRATION_PIXELS_PER_SEQ,
                          wa_scores)
    return fit_thresholds(p_ha, is_ha, alpha, beta)
