"""Mapping a full-size sequence holds one copy of its frames.

The allocations of each layer of the mapping path, measured with
tracemalloc on a 320×240×20 phantom (6.1 MB of float32 frames) and on the
[76,800, 16] feature matrix of a 320×240 map:

- `write_sequence` streams the header and each frame from the caller's
  array: about 0.001× the frames, where filling one record array, then its
  bytes, then the header plus those bytes took 3.0×;
- `read_sequence` reads each frame straight into the one [T, H, W] array:
  1.01× (the array, and one frame's finiteness mask at a time), where a
  finiteness mask of the whole sequence took 1.25× and holding the file's
  bytes beside their float32 copy 2.25×;
- `register_sequence` returns the input frames while no frame moves: 1.76×
  (the prepared frames), where a copy of every frame took 2.76×;
- `cascade_predict` with the forest standardises into one new matrix:
  about 2.5× the features, where two temporaries took 2.9×.
"""

import tracemalloc

import numpy as np
import pytest

import irzone.preprocess as preprocess
from irzone import io_formats as io
from irzone.features import FEATURE_DIM
from irzone.models.cascade import CascadeConfig, cascade_predict, cascade_train
from irzone.models.rf import RFConfig
from irzone.phantom import PhantomConfig, generate_phantom
from irzone.zones import Mode


def peak_of(call, *args):
    """The peak of the allocations `call(*args)` makes, in bytes."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def sequence():
    seq, _ = generate_phantom(PhantomConfig(n_frames=20), seed=0)  # 320x240x20, still
    return seq


def test_writing_holds_no_copy_of_the_frames(sequence, tmp_path):
    peak = peak_of(io.write_sequence, tmp_path / "a.irts", sequence)
    assert peak <= 0.1 * sequence.data.nbytes, peak / sequence.data.nbytes


def test_reading_holds_one_copy_of_the_frames(sequence, tmp_path):
    io.write_sequence(tmp_path / "a.irts", sequence)
    peak = peak_of(io.read_sequence, tmp_path / "a.irts")
    assert peak <= 1.1 * sequence.data.nbytes, peak / sequence.data.nbytes


def test_registering_unmoved_frames_copies_none(sequence, monkeypatch):
    # two CPUs: the caller scores its own run of frames, a worker the other
    monkeypatch.setattr(preprocess, "_cpu_count", lambda: 2)
    peak = peak_of(preprocess.register_sequence, sequence)
    assert peak <= 2.0 * sequence.data.nbytes, peak / sequence.data.nbytes


def test_predicting_a_full_size_map_allocates_at_most_2_75_feature_matrices():
    rng = np.random.default_rng(0)
    leaves = sorted(Mode.ON.legal_leaves, key=int)
    x = np.concatenate([rng.normal(3.0 * i, 1.0, size=(400, FEATURE_DIM))
                        for i in range(len(leaves))])
    x[:, -1] = 0.0
    y = np.repeat(np.array(leaves, dtype=np.uint8), 400)
    model = cascade_train(x, y, Mode.ON, CascadeConfig(backend="rf", rf=RFConfig(n_trees=30)),
                          seed=1)
    features = rng.normal(0.0, 4.0, size=(320 * 240, FEATURE_DIM))
    features[:, -1] = rng.random(len(features)) < 0.05  # some degenerate pixels
    peak = peak_of(cascade_predict, model, features)
    assert peak <= 2.75 * features.nbytes, peak / features.nbytes
