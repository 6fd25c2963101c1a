"""File formats: sequence container, mask files, model persistence, overlays."""

import dataclasses
import os
import re
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from irzone import io_formats as io
from irzone.features import FEATURE_DIM
from irzone.io_formats import ThermalSequence
from irzone.zones import LEAF_LABELS, Mode, ZoneLabel, ZoneMask

from conftest import write_model_block


def random_sequence(seed=0, shape=(3, 6, 5)):
    rng = np.random.default_rng(seed)
    data = rng.normal(30.0, 2.0, size=shape).astype(np.float32)
    times = np.arange(shape[0], dtype=np.float64) * 0.5
    return ThermalSequence(data, times, 250e-6)


def loop_sequence_bytes(seq):
    """The per-frame writer the record dtype replaced, kept as its reference."""
    h, w = seq.frame_shape
    chunks = [io.MAGIC + struct.pack("<HIIId", io.VERSION, w, h, seq.n_frames, seq.pixel_size)]
    for i in range(seq.n_frames):
        chunks.append(struct.pack("<d", float(seq.timestamps[i])))
        chunks.append(np.ascontiguousarray(seq.data[i], dtype="<f4").tobytes())
    return b"".join(chunks)


def read_bytes_sequence(path) -> ThermalSequence:
    """The reader that held the file's bytes beside their float32 copy, kept
    verbatim as its oracle."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise io.FormatError(f"{path}: file shorter than magic")
    if raw[:4] != io.MAGIC:
        raise io.FormatError(f"{path}: bad magic {raw[:4]!r}")
    head_size = 4 + struct.calcsize("<HIIId")
    if len(raw) < head_size:
        raise io.FormatError(f"{path}: truncated header")
    version, w, h, n, px = struct.unpack("<HIIId", raw[4:head_size])
    if version != io.VERSION:
        raise io.FormatError(f"{path}: unsupported version {version}")
    if not 0 < px < float("inf"):
        raise io.FormatError(f"{path}: pixel size {px} is not a positive length")
    frame_bytes = 8 + 4 * w * h
    expect = head_size + n * frame_bytes
    if len(raw) < expect:
        raise io.FormatError(f"{path}: payload truncated ({len(raw)} < {expect} bytes)")
    if len(raw) != expect:
        raise io.FormatError(f"{path}: payload size {len(raw)} != declared {expect}")
    try:  # frame too large for a dtype, non-finite temperatures, timestamps out of order
        records = np.frombuffer(raw, dtype=io._frame_record(h, w), count=n, offset=head_size)
        return ThermalSequence(data=records["frame"].astype(np.float32),
                               timestamps=records["t"].astype(np.float64), pixel_size=px)
    except ValueError as e:
        raise io.FormatError(f"{path}: {e}") from e


def read_outcome(read, path):
    """(data bytes, dtype and shape, timestamp bytes and dtype, pixel size)
    of `read(path)`, or the FormatError's message."""
    try:
        seq = read(path)
    except io.FormatError as e:
        return str(e)
    return (seq.data.tobytes(), seq.data.dtype, seq.data.shape, seq.timestamps.tobytes(),
            seq.timestamps.dtype, seq.pixel_size)


class TestStreamedSequenceIO:
    """The streamed writer writes the per-frame writer's bytes, and the streamed
    reader reads what the whole-file reader read, or fails with its message."""

    @pytest.mark.parametrize("layout", ["c-order", "transposed", "every-other-column"])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 6, 5), (3, 6, 5), (4, 9, 2)])
    def test_written_and_read_as_the_oracles_do(self, tmp_path, shape, layout):
        t, h, w = shape
        rng = np.random.default_rng(sum(shape))
        if layout == "c-order":
            data = rng.normal(30.0, 2.0, size=shape).astype(np.float32)
        elif layout == "transposed":
            data = rng.normal(30.0, 2.0, size=(t, w, h)).astype(np.float32).transpose(0, 2, 1)
        else:
            data = rng.normal(30.0, 2.0, size=(t, h, 2 * w)).astype(np.float32)[:, :, ::2]
        seq = ThermalSequence(data, np.arange(t) * 0.5 - 1.0, 250e-6)
        assert seq.data.flags.c_contiguous == (layout == "c-order" or 1 in (h, w))
        path = tmp_path / "a.irts"
        io.write_sequence(path, seq)
        assert path.read_bytes() == loop_sequence_bytes(seq)
        back = read_outcome(io.read_sequence, path)
        assert back == read_outcome(read_bytes_sequence, path)
        assert back[0] == np.ascontiguousarray(seq.data).tobytes()

    def test_every_truncation_reads_as_the_oracle_does(self, tmp_path):
        raw = loop_sequence_bytes(random_sequence(shape=(3, 4, 2)))
        path = tmp_path / "a.irts"
        for n in range(len(raw) + 1):
            path.write_bytes(raw[:n])
            assert read_outcome(io.read_sequence, path) == read_outcome(read_bytes_sequence, path)

    def test_every_flipped_byte_reads_as_the_oracle_does(self, tmp_path):
        seq = random_sequence(shape=(2, 3, 2))
        raw = loop_sequence_bytes(seq)
        path = tmp_path / "a.irts"
        for i in range(len(raw)):
            for x in (0x01, 0x80, 0xFF):
                flipped = bytearray(raw)
                flipped[i] ^= x
                path.write_bytes(bytes(flipped))
                assert (read_outcome(io.read_sequence, path)
                        == read_outcome(read_bytes_sequence, path)), (i, x)

    def test_file_ending_before_its_size_is_format_error(self, tmp_path, monkeypatch):
        # a file that shrinks between the size check and the last frame's read
        path = tmp_path / "a.irts"
        io.write_sequence(path, random_sequence())
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-10])
        monkeypatch.setattr(io.os, "fstat", lambda fd: SimpleNamespace(st_size=size))
        with pytest.raises(io.FormatError, match="file ends inside frame 2"):
            io.read_sequence(path)


class TestSequenceContainer:
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 6, 5), (2, 1, 7), (4, 9, 1)])
    def test_bytes_match_the_per_frame_layout(self, tmp_path, shape):
        seq = random_sequence(seed=sum(shape), shape=shape)
        path = tmp_path / "a.irts"
        io.write_sequence(path, seq)
        assert path.read_bytes() == loop_sequence_bytes(seq)
        back = io.read_sequence(path)
        assert back.data.flags.writeable and back.data.flags.c_contiguous
        assert back.data.dtype == np.float32 and back.timestamps.dtype == np.float64

    def test_frame_too_large_for_a_record_is_format_error(self, tmp_path):
        path = tmp_path / "a.irts"
        path.write_bytes(io.MAGIC + struct.pack("<HIIId", io.VERSION, 70000, 70000, 0, 250e-6))
        with pytest.raises(io.FormatError):
            io.read_sequence(path)

    def test_largest_declared_frame_of_no_frames_is_format_error(self, tmp_path):
        # no frame, so the size check cannot bound w and h: no array may be made first
        path = tmp_path / "a.irts"
        path.write_bytes(io.MAGIC + struct.pack("<HIIId", io.VERSION, 2**32 - 1, 2**32 - 1, 0,
                                                250e-6))
        with pytest.raises(io.FormatError, match="a.irts: "):
            io.read_sequence(path)
        assert read_outcome(io.read_sequence, path) == read_outcome(read_bytes_sequence, path)

    def test_round_trip_is_bit_exact(self, tmp_path):
        seq = random_sequence()
        path = tmp_path / "a.irts"
        io.write_sequence(path, seq)
        back = io.read_sequence(path)
        assert np.array_equal(back.data, seq.data)
        assert np.array_equal(back.timestamps, seq.timestamps)
        assert back.pixel_size == seq.pixel_size

    def test_bad_magic_is_distinct_error(self, tmp_path):
        path = tmp_path / "a.irts"
        io.write_sequence(path, random_sequence())
        raw = path.read_bytes()
        path.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(io.FormatError, match="bad magic"):
            io.read_sequence(path)

    def test_truncated_payload_is_distinct_error(self, tmp_path):
        path = tmp_path / "a.irts"
        io.write_sequence(path, random_sequence())
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(io.FormatError, match="payload truncated"):
            io.read_sequence(path)

    def test_oversized_payload_is_distinct_error(self, tmp_path):
        path = tmp_path / "a.irts"
        io.write_sequence(path, random_sequence())
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(io.FormatError, match="payload size"):
            io.read_sequence(path)

    @pytest.mark.parametrize("pixel_size", [0.0, -250e-6, float("nan"), float("inf")])
    def test_pixel_size_must_be_a_positive_length(self, tmp_path, pixel_size):
        path = tmp_path / "a.irts"
        io.write_sequence(path, random_sequence())
        raw = bytearray(path.read_bytes())
        raw[18:26] = struct.pack("<d", pixel_size)
        path.write_bytes(bytes(raw))
        with pytest.raises(io.FormatError, match="pixel size"):
            io.read_sequence(path)

    @pytest.mark.parametrize("offset, packed, match", [
        (26, struct.pack("<d", float("nan")), "strictly increasing"),  # first timestamp
        (34, struct.pack("<f", float("inf")), "non-finite"),           # first temperature
    ])
    def test_invalid_contents_are_format_errors(self, tmp_path, offset, packed, match):
        path = tmp_path / "a.irts"
        io.write_sequence(path, random_sequence())
        raw = bytearray(path.read_bytes())
        raw[offset : offset + len(packed)] = packed
        path.write_bytes(bytes(raw))
        with pytest.raises(io.FormatError, match=match):
            io.read_sequence(path)


class TestMaskFile:
    def mask(self):
        labels = np.zeros((5, 4), dtype=np.uint8)
        labels[1:4, 1:3] = int(ZoneLabel.NA_DM)
        labels[2, 2] = int(ZoneLabel.HA_DM)
        return ZoneMask(labels, 261e-6)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.pgm"
        io.write_mask(path, self.mask(), Mode.ON)
        back, mode = io.read_mask(path)
        assert np.array_equal(back.labels, self.mask().labels)
        assert back.pixel_size == pytest.approx(261e-6)
        assert mode is Mode.ON

    def test_blank_sidecar_lines_are_skipped(self, tmp_path):
        path = tmp_path / "m.pgm"
        io.write_mask(path, self.mask(), Mode.ON)
        meta = tmp_path / "m.pgm.meta"
        meta.write_text("\n" + meta.read_text() + "  \n")
        back, mode = io.read_mask(path)
        assert back.pixel_size == pytest.approx(261e-6) and mode is Mode.ON

    def test_undefined_codes_rejected_on_read(self, tmp_path):
        path = tmp_path / "m.pgm"
        io.write_mask(path, self.mask(), Mode.ON)
        raw = bytearray(path.read_bytes())
        raw[-1] = 37
        path.write_bytes(bytes(raw))
        with pytest.raises(io.FormatError, match="undefined label codes"):
            io.read_mask(path)

    def test_missing_sidecar_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        io.write_mask(path, self.mask(), Mode.ON)
        (tmp_path / "m.pgm.meta").unlink()
        with pytest.raises(io.FormatError, match="sidecar"):
            io.read_mask(path)

    @pytest.mark.parametrize("key", ["mode", "pixel_size_m"])
    def test_sidecar_without_key_rejected(self, tmp_path, key):
        path = tmp_path / "m.pgm"
        io.write_mask(path, self.mask(), Mode.ON)
        meta = tmp_path / "m.pgm.meta"
        kept = [l for l in meta.read_text().splitlines() if not l.startswith(key + " ")]
        meta.write_text("\n".join(kept) + "\n")
        with pytest.raises(io.FormatError, match=f"missing {key}"):
            io.read_mask(path)

    def test_binary_sidecar_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        io.write_mask(path, self.mask(), Mode.ON)
        (tmp_path / "m.pgm.meta").write_bytes(b"\xff\xfe")
        with pytest.raises(io.FormatError, match="not text"):
            io.read_mask(path)

    def test_mode_legality_enforced_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="illegal"):
            io.write_mask(tmp_path / "m.pgm", self.mask(), Mode.OFF)

    def test_non_pgm_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(io.FormatError, match="not a P5 PGM"):
            io.read_mask(path)

    @pytest.mark.parametrize("header, match", [
        (b"P5\n0 5\n255\n", "empty"),
        (b"P5\n4 x5\n255\n", "not a number"),
        # numbers are ASCII digits as written: no sign, `_`, or other digits
        pytest.param(b"P5\n+4 1_0\n255\n" + bytes(40), "not a number", id="sign-underscore"),
        pytest.param(b"P5\n4 +5\n255\n" + bytes(20), "not a number", id="signed-height"),
        pytest.param(b"P5\n4 5\n+255\n" + bytes(20), "not a number", id="signed-maxval"),
        pytest.param(b"P5\n4 5\n2_55\n" + bytes(20), "not a number", id="underscore-maxval"),
    ])
    def test_bad_pgm_size_rejected(self, tmp_path, header, match):
        path = tmp_path / "m.pgm"
        io.write_mask(path, self.mask(), Mode.ON)
        path.write_bytes(header)
        with pytest.raises(io.FormatError, match=match):
            io.read_mask(path)

    @pytest.mark.parametrize("sidecar, match", [
        ("pixel_size_m 0\nmode On\n", "positive"),
        ("pixel_size_m nan\nmode On\n", "not a numeral"),
        ("pixel_size_m inf\nmode On\n", "not a numeral"),
        # a plain decimal or exponent numeral, read as written
        ("pixel_size_m 2_5e-4\nmode On\n", r"pixel_size_m '2_5e-4' is not a numeral"),
        ("pixel_size_m +2.5e-4\nmode On\n", "not a numeral"),
        ("pixel_size_m  2.5e-4\nmode On\n", "not a numeral"),
        ("pixel_size_m 2.5e-4 \nmode On\n", "not a numeral"),
        ("pixel_size_m \uff12.5e-4\nmode On\n", "not a numeral"),
        ("pixel_size_m 2.5e-0_4\nmode On\n", "not a numeral"),
        ("pixel_size_m 2.61e-04\nmode Off\n", "illegal in mode Off"),
        # every key once, and no other: a later line never overrides an earlier one
        ("pixel_size_m 1e-4\nmode Off\nfrobnicate 7\npixel_size_m 2.5e-4\nmode On\n",
         r"m\.pgm\.meta: unknown key 'frobnicate'"),
        ("pixel_size_m 1e-4\nmode Off\npixel_size_m 2.5e-4\nmode On\n",
         r"m\.pgm\.meta: repeated key 'pixel_size_m'"),
        ("pixel_size_m 2.61e-04\nmode On\nmode On\n", r"m\.pgm\.meta: repeated key 'mode'"),
        ("pixel_size_m 2.61e-04\nmode On\nPixel_size_m 3e-4\n",
         r"m\.pgm\.meta: unknown key 'Pixel_size_m'"),
    ])
    def test_sidecar_values_checked(self, tmp_path, sidecar, match):
        path = tmp_path / "m.pgm"
        io.write_mask(path, self.mask(), Mode.ON)
        (tmp_path / "m.pgm.meta").write_text(sidecar)
        with pytest.raises(io.FormatError, match=match):
            io.read_mask(path)


class TestParameterBlock:
    def test_nested_state_round_trip(self):
        state = {
            "name": "x",
            "n": 42,
            "v": 1.5,
            "arr": np.arange(6, dtype=np.float64).reshape(2, 3),
            "list": [1, "two", 3.0, np.array([1, 2], dtype=np.int64)],
            "nested": {"a": {"b": [0.5]}},
        }
        back, _ = io._unpack(io._pack(state))
        assert back["name"] == "x"
        assert back["n"] == 42 and back["v"] == 1.5
        assert np.array_equal(back["arr"], state["arr"])
        assert np.array_equal(back["list"][3], [1, 2])
        assert back["nested"]["a"]["b"] == [0.5]

    def test_packing_is_deterministic(self):
        state = {"a": np.ones(4), "b": [1, 2.0, "x"]}
        assert io._pack(state) == io._pack(state)

    @pytest.mark.parametrize("block", [b"F\x01", b"I\x01", b"A\x05"])
    def test_block_ending_inside_a_value_is_format_error(self, block):
        with pytest.raises(io.FormatError, match="ends inside a value"):
            io._unpack(block)

    @pytest.mark.parametrize("block", [
        b"S" + struct.pack("<I", 1) + b"\xff",
        b"D" + struct.pack("<I", 1) + io._pack(1) + io._pack(2),
        b"A" + struct.pack("<I", 2) + b"|O" + struct.pack("<Iq", 1, 1) + bytes(8),
        b"A" + struct.pack("<I", 3) + b"<f8" + struct.pack("<Iqq", 2, -1, -1) + bytes(8),
        b"L\x01\x00\x00\x00" * 5000 + io._pack(0),
        b"A" + struct.pack("<I", 3) + b",f8" + struct.pack("<Iq", 1, 1) + bytes(8),
        b"B\x02",  # the bool tag, which no model writes
        # non-canonical: each would decode to a state that packs to other bytes
        b"A" + struct.pack("<I", 3) + b"=f8" + struct.pack("<Iq", 1, 1) + bytes(8),
        b"D" + struct.pack("<I", 2) + io._pack("k") + io._pack(0) + io._pack("k") + io._pack(1),
    ], ids=["string-not-utf8", "key-not-string", "object-array", "negative-shape",
            "nested-too-deeply", "dtype-not-python-syntax", "bool-byte-2",
            "native-order-dtype", "repeated-key"])
    def test_malformed_block_is_format_error(self, block, tmp_path):
        path = write_model_block(tmp_path / "model.izm", block)
        with pytest.raises(io.FormatError):
            io.read_model_state(path)

    @pytest.mark.parametrize("block, tag", [
        (b"N", b"N"), (b"B\x01", b"B"), (b"B\x00", b"B"), (b"L\x01\x00\x00\x00N", b"N"),
    ], ids=["none", "true", "false", "none-in-a-list"])
    def test_none_and_bool_tags_are_unknown(self, block, tag, tmp_path):
        # no model's state holds None or a bool: RFModel writes single_class as an int
        path = write_model_block(tmp_path / "model.izm", block)
        with pytest.raises(io.FormatError, match=f"unknown tag {tag!r} at offset"):
            io.read_model_state(path)

    def test_every_truncation_is_format_error(self):
        block = io._pack({"a": np.arange(3), "b": [1, 2, 3.0, "x", []]})
        for n in range(len(block)):
            with pytest.raises(io.FormatError):
                io._unpack(block[:n])


def tiny_cascade(seed=0):
    from irzone.models.cascade import CascadeConfig, cascade_train
    from irzone.models.rf import RFConfig

    rng = np.random.default_rng(seed)
    leaves = (0, 50, 100)
    xs, ys = [], []
    for i, leaf in enumerate(leaves):
        x = rng.normal(loc=2.0 * i, scale=0.3, size=(150, FEATURE_DIM))
        x[:, -1] = 0.0
        xs.append(x)
        ys.append(np.full(150, leaf, dtype=np.uint8))
    config = CascadeConfig(backend="rf", rf=RFConfig(n_trees=5, min_leaf=2))
    return cascade_train(np.concatenate(xs), np.concatenate(ys), Mode.ON, config)


LAYOUT = "not laid out as write_model writes it"


class TestModelFile:
    def test_reload_reproduces_predictions_bit_exactly(self, tmp_path):
        from irzone.models.cascade import cascade_predict

        model = tiny_cascade()
        path = tmp_path / "model.izm"
        io.write_model(path, model, header_extra={"mode": "On"})
        restored = io.load_cascade(path)
        probe = np.random.default_rng(1).normal(size=(1000, FEATURE_DIM))
        probe[:, -1] = 0.0
        p1, p2 = cascade_predict(model, probe), cascade_predict(restored, probe)
        for leaf in LEAF_LABELS:
            assert np.array_equal(p1[leaf], p2[leaf])

    def test_corrupted_params_fail_checksum(self, tmp_path):
        model = tiny_cascade()
        path = tmp_path / "model.izm"
        io.write_model(path, model)
        text = path.read_text()
        idx = text.index("params ") + len("params ") + 10
        flipped = "0" if text[idx] != "0" else "1"
        path.write_text(text[:idx] + flipped + text[idx + 1 :])
        with pytest.raises(io.FormatError, match="checksum mismatch"):
            io.read_model_state(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = write_model_block(tmp_path / "model.izm", io._pack({"kind": "cascade"}) + b"N")
        with pytest.raises(io.FormatError, match="1 bytes after the parameter block"):
            io.read_model_state(path)

    def test_non_dict_state_rejected(self, tmp_path):
        path = write_model_block(tmp_path / "model.izm", io._pack(0))
        with pytest.raises(io.FormatError, match="not a cascade"):
            io.load_cascade(path)

    def test_missing_sections_rejected(self, tmp_path):
        path = tmp_path / "model.izm"
        path.write_text("irzone-model 1\nkind cascade\n")
        with pytest.raises(io.FormatError, match="missing params"):
            io.read_model_state(path)

    def test_cascade_with_an_empty_forest_rejected(self, tmp_path):
        model = tiny_cascade()
        next(iter(model.stages.values())).trees = []
        path = tmp_path / "model.izm"
        io.write_model(path, model, header_extra={"mode": "On"})
        with pytest.raises(io.FormatError, match="no trees"):
            io.load_cascade(path)

    def test_non_cascade_kind_rejected(self, tmp_path):
        from irzone.models.rf import RFConfig, train_rf

        rf = train_rf(np.random.default_rng(0).normal(size=(20, 2)),
                      np.tile([0, 1], 10), RFConfig(n_trees=2, min_leaf=1))
        path = tmp_path / "rf.izm"
        io.write_model(path, rf)
        with pytest.raises(io.FormatError, match="not a cascade"):
            io.load_cascade(path)

    def edited_model(self, tmp_path, edit):
        path = tmp_path / "model.izm"
        io.write_model(path, tiny_cascade(), header_extra={"mode": "On"})
        path.write_text(edit(path.read_text()))
        return path

    @pytest.mark.parametrize("edit, match", [
        (lambda t: t.replace("irzone-model 1", "Irzone-model 1"), "first line"),
        (lambda t: t.replace("kind cascade", "jind cascade"), "missing kind"),
        (lambda t: t.replace("irzone-model 1", "Irzone-model 1")
                    .replace("kind cascade", "jind cascade"), "first line"),
        (lambda t: "\n".join(t.splitlines()[1:]) + "\n", "first line"),
        (lambda t: t + t.splitlines()[-1] + "\n", "more than one params"),
        (lambda t: t.replace("checksum", "kind cascade\nchecksum"), "more than one kind"),
        (lambda t: t.replace("checksum", "checksum 00\nchecksum"), "more than one checksum"),
        (lambda t: t.replace("kind cascade", "kind rf"), "header kind 'rf'"),
        (lambda t: t.replace("mode On", "mode Off"), "header mode 'Off'"),
        # a file that loads is the text write_model writes
        (lambda t: re.sub(r"params (\w+)", lambda m: "params " + m[1].upper(), t), LAYOUT),
        (lambda t: t.replace("\n", "\r\n"), LAYOUT),
        (lambda t: t[:-1], LAYOUT),
        (lambda t: t + "\n", LAYOUT),
        (lambda t: re.sub(r"params (\w+)", r"params  \1 ", t), LAYOUT),
        (lambda t: t.replace("checksum ", "checksum  "), "checksum mismatch"),
        (lambda t: t.replace("kind cascade", "note 0\nkind cascade"), LAYOUT),
        (lambda t: t.replace("mode On\n", "mode On\f"), LAYOUT),
        # every header line write_model writes, and no other
        (lambda t: t.replace("mode On\n", ""),
         "header has a seed line where write_model writes mode"),
        (lambda t: t.replace("seed 0\n", "seed 0\nnote 0\n"),
         "header has a note line where write_model writes checksum"),
    ], ids=["magic-flip", "kind-flip", "magic-and-kind-flip", "no-magic", "params-twice",
            "kind-twice", "checksum-twice", "other-kind", "other-mode", "upper-case-hex",
            "crlf", "no-final-newline", "trailing-blank-line", "padded-params",
            "padded-checksum", "extra-line-before-kind", "form-feed-in-a-line", "no-mode-line",
            "extra-line-after-seed"])
    def test_header_deviation_is_format_error(self, tmp_path, edit, match):
        with pytest.raises(io.FormatError, match=match):
            io.load_cascade(self.edited_model(tmp_path, edit))

    @pytest.mark.parametrize("edit", [
        lambda s: s.__setitem__("extra", 0),
        lambda s: s["stages"]["C1"].__setitem__("extra", 0),
        lambda s: s["stages"]["C1"]["trees"][0].__setitem__("extra", 0),
        lambda s: s["standardizer"].__setitem__("extra", 0),
        lambda s: s.__setitem__("seed", 1.0),
        lambda s: s["standardizer"].__setitem__("mean", s["standardizer"]["mean"].astype("<f4")),
        lambda s: s["standardizer"].__setitem__("scale", s["standardizer"]["scale"].astype(">f8")),
        lambda s: s["stages"]["C4"]["trees"][0].__setitem__(
            "feature", s["stages"]["C4"]["trees"][0]["feature"].astype("<i4")),
        lambda s: s["stages"]["C1"].__setitem__("single_class", 5),
        lambda s: s.__setitem__("mode", "on"),
        lambda s: s.__setitem__("stages", dict(reversed(s["stages"].items()))),
    ], ids=["extra-key", "extra-stage-key", "extra-tree-key", "extra-standardizer-key",
            "float-seed", "f4-mean", "big-endian-scale", "i4-feature", "single-class-5",
            "lower-case-mode", "stages-reversed"])
    def test_state_that_write_model_would_not_write_is_format_error(self, tmp_path, edit):
        # each decodes to a valid model, which write_model would write as other bytes;
        # the header is the one write_model writes for that model
        from irzone.models.cascade import CascadeModel

        state = tiny_cascade().to_state()
        edit(state)
        fields = io._header_fields(CascadeModel.from_state(state).to_state())
        path = tmp_path / "model.izm"
        path.write_text(io._model_text(io._model_header("cascade", fields, io._pack(state))))
        with pytest.raises(io.FormatError, match=r"model\.izm: parameter block is not what"):
            io.load_cascade(path)

    def test_header_fields_are_returned(self, tmp_path):
        header, state = io.read_model_state(self.edited_model(tmp_path, lambda t: t))
        assert (header["kind"], header["mode"]) == ("cascade", "On")
        assert state["mode"] == "On"

    def test_header_comes_from_the_model(self, tmp_path):
        # a header_extra that repeats the model's mode and seed changes no byte
        model = dataclasses.replace(tiny_cascade(), seed=5)
        io.write_model(tmp_path / "plain.izm", model)
        io.write_model(tmp_path / "named.izm", model, header_extra={"mode": "On", "seed": 5})
        plain = (tmp_path / "plain.izm").read_bytes()
        assert plain == (tmp_path / "named.izm").read_bytes()
        assert plain.decode().splitlines()[1:4] == ["kind cascade", "mode On", "seed 5"]
        assert io.load_cascade(tmp_path / "plain.izm").seed == 5

    @pytest.mark.parametrize("extra", [
        {"mode": "Off"}, {"seed": 1}, {"mode": "On", "seed": "00"}, {"kind": "rf"}, {"note": 0},
    ], ids=["other-mode", "other-seed", "seed-spelt-otherwise", "kind", "unknown-key"])
    def test_header_extra_other_than_the_model_is_value_error(self, tmp_path, extra):
        with pytest.raises(ValueError, match="is not the model's"):
            io.write_model(tmp_path / "model.izm", tiny_cascade(), header_extra=extra)
        assert list(tmp_path.iterdir()) == []

    def test_edited_seed_line_is_format_error_naming_the_file(self, tmp_path):
        path = tmp_path / "model.izm"
        io.write_model(path, tiny_cascade(), header_extra={"mode": "On", "seed": 0})
        path.write_text(path.read_text().replace("\nseed 0\n", "\nseed 999\n"))
        assert io.read_model_state(path)[0]["seed"] == "999"
        with pytest.raises(io.FormatError,
                           match=f"^{re.escape(str(path))}: header seed '999' is not the "
                                 f"model's '0'$"):
            io.load_cascade(path)

    def test_writes_are_atomic(self, tmp_path):
        path = tmp_path / "model.izm"
        io.write_model(path, tiny_cascade())
        leftovers = [p for p in tmp_path.iterdir() if p.name != "model.izm"]
        assert leftovers == []


# writes a model, a mask, a sequence and a stage report under the umask argv[2]
UMASK_CHILD = """
import os, sys
from pathlib import Path
os.umask(int(sys.argv[2], 8))
from conftest import small_config
from test_io_formats import tiny_cascade
from irzone import io_formats as io
from irzone.cli import main
from irzone.phantom import generate_phantom
out = Path(sys.argv[1])
seq, mask = generate_phantom(small_config(), seed=0)
io.write_sequence(out / "seq.irts", seq)
io.write_mask(out / "mask.pgm", mask, small_config().mode)
io.write_model(out / "model.izm", tiny_cascade())
assert main(["preprocess", "--in", str(out / "seq.irts"), "--report", str(out / "report.txt")]) == 0
"""


@pytest.mark.parametrize("umask, mode", [("022", 0o644), ("077", 0o600)])
def test_written_files_take_their_mode_from_the_umask(tmp_path, umask, mode):
    # in a child process, so that this one's umask stays as it is
    paths = [str(Path(io.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [*paths, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", UMASK_CHILD, str(tmp_path), umask], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    modes = {p.name: oct(p.stat().st_mode & 0o777) for p in tmp_path.iterdir()}
    names = ["mask.pgm", "mask.pgm.meta", "model.izm", "report.txt", "seq.irts"]
    assert modes == dict.fromkeys(names, oct(mode))


def loop_region_boundary(region):
    """The 4-shift loop _region_boundary replaced, kept as its reference."""
    r = region.astype(bool)
    edge = np.zeros(r.shape, dtype=bool)
    for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        shifted = np.zeros_like(r)
        ys = slice(max(dy, 0), r.shape[0] + min(dy, 0))
        xs = slice(max(dx, 0), r.shape[1] + min(dx, 0))
        ys2 = slice(max(-dy, 0), r.shape[0] + min(-dy, 0))
        xs2 = slice(max(-dx, 0), r.shape[1] + min(-dx, 0))
        shifted[ys, xs] = r[ys2, xs2]
        edge |= r & ~shifted
    return edge


class TestOverlay:
    def background(self):
        return np.linspace(20.0, 40.0, 100).reshape(10, 10)

    def test_region_boundary_matches_shift_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            h, w = rng.integers(1, 14, size=2)
            region = rng.random((h, w)) < rng.random()
            assert np.array_equal(io._region_boundary(region), loop_region_boundary(region))

    def test_empty_masks_give_grayscale_interior(self):
        img = io.render_overlay(self.background(), None, None)
        interior = img[1:-1, 1:-1]
        assert np.array_equal(interior[..., 0], interior[..., 1])
        assert np.array_equal(interior[..., 1], interior[..., 2])

    def test_frame_border_is_white(self):
        img = io.render_overlay(self.background(), None, None)
        assert np.all(img[0] == 255) and np.all(img[:, -1] == 255)

    def test_single_pixel_region_boundary_is_itself(self):
        labels = np.zeros((10, 10), dtype=np.uint8)
        labels[5, 5] = int(ZoneLabel.HA_DM)
        alg = ZoneMask(labels, 250e-6)
        img = io.render_overlay(self.background(), None, alg)
        assert tuple(img[5, 5]) == io.COLOR_HA_ALG

    def test_algorithm_boundary_draws_over_reference(self):
        labels = np.zeros((10, 10), dtype=np.uint8)
        labels[3:7, 3:7] = int(ZoneLabel.HA_DM)
        mask = ZoneMask(labels, 250e-6)
        img = io.render_overlay(self.background(), mask, mask)
        assert tuple(img[3, 3]) == io.COLOR_HA_ALG  # alg color wins where equal

    def test_shape_mismatch_rejected(self):
        mask = ZoneMask(np.zeros((4, 4), dtype=np.uint8), 250e-6)
        with pytest.raises(ValueError, match="mismatch"):
            io.render_overlay(self.background(), mask, None)

    def test_ppm_header(self, tmp_path):
        img = io.render_overlay(self.background(), None, None)
        path = tmp_path / "o.ppm"
        io.write_ppm(path, img)
        assert path.read_bytes().startswith(b"P6\n10 10\n255\n")
