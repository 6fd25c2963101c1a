"""Training from a manifest reads the cached feature maps in place.

`train_from_manifest` hands the cascade each sequence's cached feature map
by reference, together with the rows it contributes. The standardizer sums
the usable rows a block at a time, and each stage copies only the rows it
draws. With the features cached, the allocations of training on eight
96×72 sequences peak at about 0.8 times the [N, 16] matrix the pooled rows
would fill for the forest, and at 1.2–1.4 times for a one-epoch SDAE, whose
stage training is most of the peak. When the rows were copied into that
matrix first, they peaked at 1.9–2.6 times; before that, when the cascade
copied the matrix three more times, at 4.4 times.
"""

import tracemalloc

import pytest

from irzone import forked, pipeline
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


# pixels_per_seq 6,000 draws from each 6,912-pixel sequence, as criterion 1 does.
# On one CPU the whole training runs in this process; on two, a forked worker
# trains every other stage, and this process's share is bounded too.
@pytest.mark.parametrize("cap, cpus", [(0, 1), (6000, 1), (0, 2), (6000, 2)],
                         ids=["cap-0", "cap-6000", "cap-0-2-cpus", "cap-6000-2-cpus"])
@pytest.mark.parametrize("backend", list(CONFIGS))
def test_training_allocates_at_most_one_and_a_half_pooled_matrices(manifest, backend, cap,
                                                                   cpus, monkeypatch):
    # the features are cached first, so the peak is the training's own
    monkeypatch.setattr(forked, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(pipeline, "_FEATURE_CACHE", {})
    entries = pipeline.read_manifest(manifest)
    cached = sum(pipeline.load_features(e.seq_path).features.nbytes for e in entries)
    assert cached == len(entries) * 96 * 72 * FEATURE_DIM * 8
    pooled = len(entries) * (cap or 96 * 72) * FEATURE_DIM * 8
    tracemalloc.start()
    try:
        pipeline.train_from_manifest(manifest, Mode.ON, CONFIGS[backend], seed=1,
                                     max_pixels_per_seq=cap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * pooled, peak / pooled
