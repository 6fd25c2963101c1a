"""The benchmark's three workloads.

Each workload has a one-time set-up, a measured repetition and the facts its
checks need. All are closed loops: one caller in one process, the next call
starts when the previous one returns. The functions call the pipeline through
its module attributes (``pipeline.run_e2e``, ``io.read_sequence``) so that the
traced run sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import irzone.evaluation as evaluation
import irzone.io_formats as io
import irzone.pipeline as pipeline
from irzone.models.cascade import CascadeConfig
from irzone.models.rf import RFConfig
from irzone.phantom import default_config_sampler
from irzone.zones import Mode

BACKENDS = ("rf", "sdae")

# Criterion 1 (40 train / 10 test, seed 42): pooled Sn NWA, NA, HA per
# backend, to four decimals as the evaluation report prints them.
ACCEPT_SEED42_SN = {
    "rf": {"nwa": 1.0, "na": 1.0, "ha": 0.9507},
    "sdae": {"nwa": 1.0, "na": 1.0, "ha": 0.9559},
}


@dataclass
class RepOutput:
    """What one measured repetition produced."""

    # backend -> [(sequence id, predicted labels, reference labels)]
    masks: dict
    mode: Mode
    out_dir: Path
    seq_latencies: list = field(default_factory=list)


def clear_feature_cache():
    """Drop the features a previous repetition left in the process, so every
    repetition preprocesses what a fresh process would."""
    cache = getattr(pipeline, "_FEATURE_CACHE", None)
    if cache is not None:
        cache.clear()


def _masks(results) -> dict:
    return {name.lower(): [(sid, p.labels, r.labels) for sid, p, r in items]
            for name, items in results.items()}


class E2E:
    """`irzone e2e`: generate phantoms, train both backends, calibrate, map
    the test set and write the report, all in one `run_e2e` call."""

    unused = frozenset({"io_formats.load_cascade"})
    setup_artifacts = ()

    def __init__(self, config: pipeline.E2EConfig, golden: dict | None = None):
        self.config = config
        self.golden = golden or {}
        self.n_seqs = config.n_train + config.n_test  # processed per repetition
        self.n_mapped = config.n_test  # mapped by each backend per repetition

    def setup(self, seed: int, work: Path):
        self.seed = seed

    def rep(self, out_dir: Path) -> RepOutput:
        out = pipeline.run_e2e(out_dir, self.seed, self.config)
        return RepOutput(_masks(out["results"]), self.config.mode, out_dir)


class Infer320:
    """`irzone infer` on full-size 320x240x60 sequences with a reference
    model trained and calibrated in set-up.

    Each sequence is read, preprocessed once, mapped by both backends
    (cascade, smoothing, decision, topological filter) and written; the
    repetition ends with the evaluation report."""

    unused = frozenset({"pipeline.run_e2e"})
    golden = {}
    n_maps = 3

    def __init__(self):
        # training phantoms must have as many frames as the mapped sequences
        self.config = pipeline.E2EConfig(n_train=8, n_frames=60)
        self.n_seqs = self.n_mapped = self.n_maps

    def setup(self, seed: int, work: Path):
        c = self.config
        train_sampler = default_config_sampler(
            c.mode, width=c.width, height=c.height, n_frames=c.n_frames,
            noise_sigma=c.noise_sigma, nwa_margin=c.nwa_margin)
        map_sampler = default_config_sampler(c.mode, n_frames=c.n_frames,
                                             noise_sigma=c.noise_sigma)
        pipeline.make_dataset(work / "train", mode_mix={c.mode.value: c.n_train},
                              config_sampler=train_sampler, seed=seed)
        self.maps = pipeline.make_dataset(
            work / "maps", mode_mix={c.mode.value: self.n_maps},
            config_sampler=map_sampler, seed=seed + 1)
        manifest = work / "train" / "manifest.txt"
        self.models = {}
        self.setup_artifacts = []
        for backend in BACKENDS:
            cconfig = CascadeConfig(backend=backend, rf=RFConfig(n_trees=c.rf_trees),
                                    max_train_pixels=c.max_train_pixels)
            model = pipeline.train_from_manifest(manifest, c.mode, cconfig, seed=seed,
                                                 max_pixels_per_seq=c.pixels_per_seq)
            path = work / f"model_{backend}.izm"
            io.write_model(path, model, header_extra={"mode": c.mode.value, "seed": seed})
            self.setup_artifacts.append(path)
            model = io.load_cascade(path)
            thresholds = pipeline.calibrate_thresholds(
                model, manifest, c.alpha, c.beta, seed=seed, pf_radius=c.pf_radius)
            self.models[backend] = (model, thresholds)

    def rep(self, out_dir: Path) -> RepOutput:
        c = self.config
        results = {b.upper(): [] for b in BACKENDS}
        latencies = []
        for i, e in enumerate(self.maps):
            t = perf_counter()
            seq = io.read_sequence(e.seq_path)
            ref, _ = io.read_mask(e.mask_path)
            z_pr = pipeline.zpr_from_reference(ref)
            features = pipeline.preprocess_sequence(seq)
            for backend, (model, thresholds) in self.models.items():
                res = pipeline.infer_sequence(model, seq, z_pr, thresholds,
                                              pf_radius=c.pf_radius,
                                              min_area_mm2=c.min_area_mm2,
                                              features=features)
                io.write_mask(out_dir / f"pred_{backend}_{i:04d}.pgm", res.z_ps, model.mode)
                results[backend.upper()].append((f"seq_{i:04d}", res.z_ps, ref))
            latencies.append(perf_counter() - t)
        (out_dir / "report.txt").write_text(evaluation.report(results))
        return RepOutput(_masks(results), c.mode, out_dir, latencies)


def make(name: str):
    if name == "e2e_default":
        return E2E(pipeline.E2EConfig())
    if name == "e2e_accept":
        return E2E(replace(pipeline.E2EConfig(), n_train=40, n_test=10),
                   golden={42: ACCEPT_SEED42_SN})
    if name == "infer_320":
        return Infer320()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("e2e_default", "e2e_accept", "infer_320")
