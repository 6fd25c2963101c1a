"""File formats: sequence container, mask files, model persistence, overlays."""

import struct

import numpy as np
import pytest

from irzone import io_formats as io
from irzone.features import FEATURE_DIM
from irzone.phantom import ThermalSequence
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
        with pytest.raises(io.BadMagic):
            io.read_sequence(path)

    def test_truncated_payload_is_distinct_error(self, tmp_path):
        path = tmp_path / "a.irts"
        io.write_sequence(path, random_sequence())
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(io.Truncated):
            io.read_sequence(path)

    def test_oversized_payload_is_distinct_error(self, tmp_path):
        path = tmp_path / "a.irts"
        io.write_sequence(path, random_sequence())
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(io.SizeMismatch):
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
        with pytest.raises(io.BadMagic):
            io.read_mask(path)

    @pytest.mark.parametrize("header, match", [
        (b"P5\n0 5\n255\n", "empty"),
        (b"P5\n4 x5\n255\n", "not a number"),
    ])
    def test_bad_pgm_size_rejected(self, tmp_path, header, match):
        path = tmp_path / "m.pgm"
        io.write_mask(path, self.mask(), Mode.ON)
        path.write_bytes(header)
        with pytest.raises(io.FormatError, match=match):
            io.read_mask(path)

    @pytest.mark.parametrize("sidecar, match", [
        ("pixel_size_m 0\nmode On\n", "positive"),
        ("pixel_size_m nan\nmode On\n", "positive and finite"),
        ("pixel_size_m inf\nmode On\n", "positive and finite"),
        ("pixel_size_m 2.61e-04\nmode Off\n", "illegal in mode Off"),
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
            "flag": True,
            "none": None,
            "n": 42,
            "v": 1.5,
            "arr": np.arange(6, dtype=np.float64).reshape(2, 3),
            "list": [1, "two", 3.0, np.array([1, 2], dtype=np.int64)],
            "nested": {"a": {"b": [0.5]}},
        }
        back, _ = io._unpack(io._pack(state))
        assert back["name"] == "x" and back["flag"] is True and back["none"] is None
        assert back["n"] == 42 and back["v"] == 1.5
        assert np.array_equal(back["arr"], state["arr"])
        assert np.array_equal(back["list"][3], [1, 2])
        assert back["nested"]["a"]["b"] == [0.5]

    def test_packing_is_deterministic(self):
        state = {"a": np.ones(4), "b": [1, 2.0, "x"]}
        assert io._pack(state) == io._pack(state)

    @pytest.mark.parametrize("block", [b"B", b"I\x01", b"A\x05"])
    def test_block_ending_inside_a_value_is_format_error(self, block):
        with pytest.raises(io.FormatError, match="ends inside a value"):
            io._unpack(block)

    @pytest.mark.parametrize("block", [
        b"S" + struct.pack("<I", 1) + b"\xff",
        b"D" + struct.pack("<I", 1) + b"NN",
        b"A" + struct.pack("<I", 2) + b"|O" + struct.pack("<Iq", 1, 1) + bytes(8),
        b"A" + struct.pack("<I", 3) + b"<f8" + struct.pack("<Iqq", 2, -1, -1) + bytes(8),
        b"L\x01\x00\x00\x00" * 5000 + b"N",
        b"A" + struct.pack("<I", 3) + b",f8" + struct.pack("<Iq", 1, 1) + bytes(8),
        # non-canonical: each would decode to a state that packs to other bytes
        b"B\x02",
        b"A" + struct.pack("<I", 3) + b"=f8" + struct.pack("<Iq", 1, 1) + bytes(8),
        b"D" + struct.pack("<I", 2) + io._pack("k") + b"N" + io._pack("k") + b"I" + bytes(8),
    ], ids=["string-not-utf8", "key-not-string", "object-array", "negative-shape",
            "nested-too-deeply", "dtype-not-python-syntax", "bool-byte-2",
            "native-order-dtype", "repeated-key"])
    def test_malformed_block_is_format_error(self, block, tmp_path):
        path = write_model_block(tmp_path / "model.izm", block)
        with pytest.raises(io.FormatError):
            io.read_model_state(path)

    def test_every_truncation_is_format_error(self):
        block = io._pack({"a": np.arange(3), "b": [True, 2, 3.0, "x", None]})
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
        with pytest.raises(io.ChecksumError):
            io.read_model_state(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = write_model_block(tmp_path / "model.izm", io._pack({"kind": "cascade"}) + b"N")
        with pytest.raises(io.FormatError, match="1 bytes after the parameter block"):
            io.read_model_state(path)

    def test_non_dict_state_rejected(self, tmp_path):
        path = write_model_block(tmp_path / "model.izm", b"N")
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
    ], ids=["magic-flip", "kind-flip", "magic-and-kind-flip", "no-magic", "params-twice",
            "kind-twice", "checksum-twice", "other-kind", "other-mode"])
    def test_header_deviation_is_format_error(self, tmp_path, edit, match):
        with pytest.raises(io.FormatError, match=match):
            io.load_cascade(self.edited_model(tmp_path, edit))

    def test_header_fields_are_returned(self, tmp_path):
        header, state = io.read_model_state(self.edited_model(tmp_path, lambda t: t))
        assert (header["kind"], header["mode"]) == ("cascade", "On")
        assert state["mode"] == "On"

    def test_header_without_mode_loads(self, tmp_path):
        path = tmp_path / "model.izm"
        io.write_model(path, tiny_cascade())
        assert io.load_cascade(path).mode is Mode.ON

    def test_writes_are_atomic(self, tmp_path):
        path = tmp_path / "model.izm"
        io.write_model(path, tiny_cascade())
        leftovers = [p for p in tmp_path.iterdir() if p.name != "model.izm"]
        assert leftovers == []


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
