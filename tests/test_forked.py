"""Fan-out over forked workers (`irzone.forked.forked_map`).

The caller computes items 0, W, 2W, … and each of W − 1 workers its own
stride; the results come back in input order, with the bytes of the serial
loop. A worker's failure reaches the caller, and no worker outlives the map.
"""

import os
import signal
from contextlib import closing, contextmanager

import pytest

from irzone import forked, pipeline
from irzone import io_formats as io
from irzone.cli import main
from irzone.models.cascade import CascadeConfig
from irzone.models.rf import RFConfig
from irzone.models.sdae import SDAEConfig
from irzone.phantom import default_config_sampler
from irzone.preprocess import PipelineAbort
from irzone.zones import Mode

REAL_CPU_COUNT = forked._cpu_count


def use_cpus(monkeypatch, n):
    """Make forked_map see `n` usable CPUs, whatever this machine has."""
    monkeypatch.setattr(forked, "_cpu_count", lambda: n)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def deadline(seconds):
    """A TimeoutError instead of a hang."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("per_cpu", [0, 1, 2])
@pytest.mark.parametrize("extra", [0, 1])
def test_results_come_back_in_input_order(monkeypatch, cpus, per_cpu, extra):
    # item counts 0, 1, W and 2W + 1 among others
    use_cpus(monkeypatch, cpus)
    n = cpus * per_cpu + extra
    got = list(forked.forked_map(lambda x: (x * x, os.getpid()), range(n)))
    assert [value for value, _ in got] == [x * x for x in range(n)]
    # the caller computes items 0, W, 2W, …: every other item is a worker's
    workers = min(cpus, n)
    assert [pid == os.getpid() for _, pid in got] == [i % workers == 0 for i in range(n)]
    assert_no_child_left()


def test_a_worker_sees_one_cpu(monkeypatch):
    use_cpus(monkeypatch, 2)
    here, there = forked.forked_map(lambda _: REAL_CPU_COUNT(), range(2))
    assert (here, there) == (REAL_CPU_COUNT(), 1)


def test_a_worker_exception_keeps_its_type_and_message(monkeypatch):
    use_cpus(monkeypatch, 2)

    def fail(x):
        raise KeyError(f"item {x}")

    with pytest.raises(KeyError, match="item 1"):
        list(forked.forked_map(lambda x: x if x == 0 else fail(x), range(4)))
    assert_no_child_left()


def test_the_first_failing_item_in_input_order_wins(monkeypatch):
    # item 1 fails in the worker while the caller's item 2 fails too
    use_cpus(monkeypatch, 2)

    def fail(x):
        raise ValueError(f"item {x}")

    with pytest.raises(ValueError, match="item 1"):
        list(forked.forked_map(lambda x: x if x == 0 else fail(x), range(3)))
    assert_no_child_left()


def test_an_exception_that_does_not_pickle_keeps_its_type_name_and_message(monkeypatch):
    use_cpus(monkeypatch, 2)

    class Local(Exception):  # a local class does not pickle
        pass

    def fail(x):
        raise Local(f"item {x}")

    with pytest.raises(RuntimeError, match="Local: item 1"):
        list(forked.forked_map(lambda x: x if x == 0 else fail(x), range(2)))
    assert_no_child_left()


def test_a_worker_that_exits_without_a_result_names_its_status(monkeypatch):
    use_cpus(monkeypatch, 2)
    with deadline(30), pytest.raises(RuntimeError, match="exited with status 3"):
        list(forked.forked_map(lambda x: x if x == 0 else os._exit(3), range(2)))
    assert_no_child_left()


def test_a_consumer_that_stops_early_leaves_no_child(monkeypatch):
    use_cpus(monkeypatch, 2)
    with closing(forked.forked_map(lambda x: x, range(10))) as results:
        assert next(results) == 0
    assert_no_child_left()


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("forked")
    sampler = default_config_sampler(Mode.ON, width=96, height=72, n_frames=20,
                                     noise_sigma=0.03, nwa_margin=10)
    pipeline.make_dataset(root, {"On": 3}, config_sampler=sampler, seed=4)
    return root / "manifest.txt"


@pytest.mark.parametrize("backend", ["rf", "sdae"])
def test_training_from_a_manifest_gives_the_one_cpu_bytes(manifest, tmp_path, monkeypatch,
                                                          backend):
    """The features preprocessed and the stages trained by workers are the
    bytes of the one-CPU run."""
    config = CascadeConfig(backend=backend, rf=RFConfig(n_trees=5), max_train_pixels=2000,
                           sdae=SDAEConfig(hidden_sizes=(8,), pretrain_epochs=1,
                                           finetune_epochs=3))
    features = {}
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(pipeline, "_FEATURE_CACHE", {})
        model = pipeline.train_from_manifest(manifest, Mode.ON, config, seed=2)
        io.write_model(tmp_path / f"{cpus}.izm", model)
        features[cpus] = {key: sf.features.tobytes()
                          for key, sf in pipeline._FEATURE_CACHE.items()}
    assert len(features[1]) == 3 and features[2] == features[1]
    assert (tmp_path / "2.izm").read_bytes() == (tmp_path / "1.izm").read_bytes()
    assert_no_child_left()


def short_manifest(manifest, tmp_path):
    """The fixture's manifest with its second sequence cut to one frame."""
    entries = pipeline.read_manifest(manifest)
    seq = io.read_sequence(entries[1].seq_path)
    short = tmp_path / "short.irts"
    io.write_sequence(short, io.ThermalSequence(seq.data[:1], seq.timestamps[:1],
                                                seq.pixel_size))
    entries[1].seq_path = str(short)
    pipeline.write_manifest(tmp_path / "manifest.txt", entries)
    return tmp_path / "manifest.txt", short


def test_a_worker_pipeline_abort_names_its_sequence(manifest, tmp_path, monkeypatch):
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "_FEATURE_CACHE", {})
    path, short = short_manifest(manifest, tmp_path)
    paths = [e.seq_path for e in pipeline.read_manifest(path)]
    with pytest.raises(PipelineAbort, match=f"^sequence {short}: need at least 2 frames"):
        list(forked.forked_map(pipeline.read_features, paths))
    assert_no_child_left()


def test_train_on_a_manifest_with_a_one_frame_second_sequence_exits_2_naming_it(
        manifest, tmp_path, monkeypatch, capsys):
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "_FEATURE_CACHE", {})
    path, short = short_manifest(manifest, tmp_path)
    out = tmp_path / "model.izm"
    assert main(["train", "--manifest", str(path), "--model-out", str(out)]) == 2
    assert f"sequence {short}: need at least 2 frames to register" in capsys.readouterr().err
    assert not out.exists()
    assert_no_child_left()


def test_an_exception_in_the_test_pass_leaves_no_child(tmp_path, monkeypatch):
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "_FEATURE_CACHE", {})

    def infer(*args, **kwargs):
        raise ArithmeticError("mapping failed")

    monkeypatch.setattr(pipeline, "infer_sequence", infer)
    config = pipeline.E2EConfig(n_train=2, n_test=3, backends=("rf",))
    with pytest.raises(ArithmeticError, match="mapping failed"):
        pipeline.run_e2e(tmp_path, seed=7, config=config)
    assert_no_child_left()
