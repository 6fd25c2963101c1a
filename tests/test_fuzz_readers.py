"""Fuzz gates for the file readers.

Every truncation and single-byte flip of a valid `.irts`, `.pgm` + `.meta`
or `.izm` file either loads or raises FormatError, and each example has a
deadline, so a reader that hangs fails too. What the `.irts` reader and the
`.izm` parameter-block decoder accept is canonical: it writes back to the
bytes it was read from.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irzone import io_formats as io
from irzone.features import FEATURE_DIM, Standardizer
from irzone.models import CascadeModel, RFConfig, RFModel
from irzone.models.rf import Tree
from irzone.models.sdae import SDAEModel
from irzone.phantom import ThermalSequence
from irzone.zones import Mode, ZoneLabel, ZoneMask

FUZZ = settings(max_examples=300, deadline=2000, derandomize=True, database=None)


def mutations(size):
    """("truncate", n) keeps the first n bytes; ("flip", i, x) xors byte i with x."""
    return st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, size - 1)),
        st.tuples(st.just("flip"), st.integers(0, size - 1), st.integers(1, 255)),
    )


def mutate(raw: bytes, mutation) -> bytes:
    if mutation[0] == "truncate":
        return raw[: mutation[1]]
    _, i, x = mutation
    out = bytearray(raw)
    out[i] ^= x
    return bytes(out)


def loads_or_format_error(read, path):
    """What `read(path)` returns, or None on FormatError."""
    try:
        return read(path)
    except io.FormatError:
        return None


def valid_files(write, name):
    """{suffix: bytes} of the files `write(path)` leaves for a file `name`."""
    with tempfile.TemporaryDirectory() as d:
        write(Path(d) / name)
        return {p.name[len(name):]: p.read_bytes() for p in Path(d).iterdir()}


def fuzz_case(files, name, read, which, mutation):
    """Write `files` with `which` mutated, then read them back; what
    `loads_or_format_error` returns."""
    with tempfile.TemporaryDirectory() as d:
        for suffix, raw in files.items():
            (Path(d) / (name + suffix)).write_bytes(mutate(raw, mutation) if suffix == which
                                                    else raw)
        return loads_or_format_error(read, Path(d) / name)


def sequence():
    rng = np.random.default_rng(0)
    data = (30.0 + rng.normal(size=(3, 6, 5))).astype(np.float32)
    return ThermalSequence(data, np.array([0.0, 1.5, 4.0]), 250e-6)


def mask():
    labels = np.full((6, 8), int(ZoneLabel.NWA), dtype=np.uint8)
    labels[1:5, 2:6] = int(ZoneLabel.NA_DM)
    labels[2:4, 3:5] = int(ZoneLabel.HA_DM)
    return ZoneMask(labels, 250e-6)


def cascade(backend):
    if backend == "rf":
        split = Tree(feature=np.array([3, -1, -1]), threshold=np.array([0.25, 0.0, 0.0]),
                     left=np.array([1, -1, -1]), right=np.array([2, -1, -1]),
                     leaf_frac=np.array([0.5, 0.1, 0.9]))
        stage = RFModel(config=RFConfig(n_trees=1), trees=[split], n_features=FEATURE_DIM,
                        seed=0)
    else:
        rng = np.random.default_rng(1)
        stage = SDAEModel(layer_sizes=[FEATURE_DIM, 3, 2], corruption=0.1,
                          weights=[rng.normal(size=(FEATURE_DIM, 3)), rng.normal(size=(3, 2))],
                          biases=[np.zeros(3), np.zeros(2)])
    return CascadeModel(mode=Mode.ON, backend=backend,
                        standardizer=Standardizer(np.zeros(FEATURE_DIM), np.ones(FEATURE_DIM)),
                        stages={"C1": stage, "C4": stage})


SEQUENCE = valid_files(lambda p: io.write_sequence(p, sequence()), "seq.irts")
MASK = valid_files(lambda p: io.write_mask(p, mask(), Mode.ON), "mask.pgm")
MODELS = {b: valid_files(lambda p, b=b: io.write_model(p, cascade(b), {"mode": "On"}),
                         "model.izm")
          for b in ("rf", "sdae")}


def test_unmutated_files_load():
    with tempfile.TemporaryDirectory() as d:
        for files, name in ((SEQUENCE, "seq.irts"), (MASK, "mask.pgm"),
                            (MODELS["rf"], "rf.izm"), (MODELS["sdae"], "sdae.izm")):
            for suffix, raw in files.items():
                (Path(d) / (name + suffix)).write_bytes(raw)
        assert np.array_equal(io.read_sequence(Path(d) / "seq.irts").data, sequence().data)
        assert np.array_equal(io.read_mask(Path(d) / "mask.pgm")[0].labels, mask().labels)
        for backend in ("rf", "sdae"):
            assert io.load_cascade(Path(d) / f"{backend}.izm").backend == backend


@FUZZ
@given(mutations(len(SEQUENCE[""])))
def test_sequence_reader(mutation):
    seq = fuzz_case(SEQUENCE, "seq.irts", io.read_sequence, "", mutation)
    if seq is not None:
        written = valid_files(lambda p: io.write_sequence(p, seq), "seq.irts")
        assert written[""] == mutate(SEQUENCE[""], mutation)


@FUZZ
@given(st.sampled_from(["", ".meta"]).flatmap(
    lambda which: st.tuples(st.just(which), mutations(len(MASK[which])))))
def test_mask_reader(case):
    which, mutation = case
    fuzz_case(MASK, "mask.pgm", io.read_mask, which, mutation)


@pytest.mark.parametrize("backend", ["rf", "sdae"])
@FUZZ
@given(data=st.data())
def test_model_reader(backend, data):
    files = MODELS[backend]
    mutation = data.draw(mutations(len(files[""])))
    fuzz_case(files, "model.izm", io.load_cascade, "", mutation)


def param_block(backend):
    for line in MODELS[backend][""].decode().splitlines():
        key, _, val = line.partition(" ")
        if key == "params":
            return bytes.fromhex(val)
    raise AssertionError("no params line")


@pytest.mark.parametrize("backend", ["rf", "sdae"])
@FUZZ
@given(data=st.data())
def test_model_reader_behind_a_matching_checksum(backend, data):
    # the checksum rejects nearly every flip of the file itself; re-sealing
    # the mutated parameter block reaches the decoder and the state checks
    block = param_block(backend)
    mutated = mutate(block, data.draw(mutations(len(block))))
    text = (f"irzone-model 1\nkind cascade\nchecksum {hashlib.sha256(mutated).hexdigest()}\n"
            f"params {mutated.hex()}\n")
    fuzz_case({"": text.encode()}, "model.izm", io.load_cascade, None, None)


@pytest.mark.parametrize("backend", ["rf", "sdae"])
@FUZZ
@given(data=st.data())
def test_decoded_parameter_block_packs_to_its_bytes(backend, data):
    block = param_block(backend)
    block = mutate(block, data.draw(mutations(len(block))))
    try:
        state, end = io._unpack(block)
    except io.FormatError:
        return
    assert io._pack(state) == block[:end]


def test_every_flip_of_a_small_block_packs_back_or_is_format_error():
    # every tag, length, key, bool, dtype and shape byte, flipped every way
    block = io._pack({"b": True, "a": np.zeros(1)})
    for i in range(len(block)):
        for x in range(1, 256):
            mutated = mutate(block, ("flip", i, x))
            try:
                state, end = io._unpack(mutated)
            except io.FormatError:
                continue
            assert io._pack(state) == mutated[:end], (i, x)
