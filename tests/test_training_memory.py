"""Training from a manifest holds about one pooled training matrix.

`train_from_manifest` pools the sequences' feature rows into one array sized
from the masks, fits the standardizer over it block by block, and
standardises only the rows each stage draws. Before, the per-sequence rows
and their concatenation were alive together, and the cascade copied the
whole matrix three more times (the usable rows, numpy's `x - mean`, and each
stage's rows before the draw): its allocations peaked at about 4.4 times the
pooled matrix here.
"""

import tracemalloc

import pytest

from irzone import pipeline
from irzone.features import FEATURE_DIM
from irzone.models.cascade import CascadeConfig
from irzone.models.rf import RFConfig
from irzone.models.sdae import SDAEConfig
from irzone.phantom import default_config_sampler
from irzone.zones import Mode

CONFIGS = {
    "rf": CascadeConfig(backend="rf", rf=RFConfig(n_trees=30), max_train_pixels=8000),
    "sdae": CascadeConfig(backend="sdae", max_train_pixels=8000,
                          sdae=SDAEConfig(pretrain_epochs=1, finetune_epochs=1)),
}


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("memory")
    sampler = default_config_sampler(Mode.ON, width=96, height=72, n_frames=20,
                                     noise_sigma=0.03, nwa_margin=10)
    pipeline.make_dataset(root, {"On": 8}, config_sampler=sampler, seed=3)
    return root / "manifest.txt"


@pytest.mark.parametrize("backend", list(CONFIGS))
def test_training_allocates_at_most_three_pooled_matrices(manifest, backend, monkeypatch):
    # the features are cached first, so the peak is the training's own
    monkeypatch.setattr(pipeline, "_FEATURE_CACHE", {})
    entries = pipeline.read_manifest(manifest)
    pooled = sum(pipeline.load_features(e.seq_path).features.nbytes for e in entries)
    assert pooled == len(entries) * 96 * 72 * FEATURE_DIM * 8
    tracemalloc.start()
    try:
        pipeline.train_from_manifest(manifest, Mode.ON, CONFIGS[backend], seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * pooled, peak / pooled
