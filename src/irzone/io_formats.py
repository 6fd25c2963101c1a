"""File formats: binary sequence container, PGM zone masks with sidecar,
model persistence, and PPM overlay rendering. All writes are atomic
(temp file + rename); all formats round-trip bit-exactly."""

from __future__ import annotations

import hashlib
import math
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .zones import Mode, ZoneMask

MAGIC = b"IRTS"
VERSION = 1


class FormatError(ValueError):
    """A file that is not as its writer writes it."""


def _atomic_write(path, chunks):
    """Write `chunks` to a new file beside `path`, then rename it over `path`.

    The temporary is created with mode 0666 less the umask, as `open(path,
    "wb")` would create it (`tempfile.mkstemp` gives 0600), and the rename
    keeps that mode."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- sequence container -----------------------------------------------------
# magic "IRTS", version u16, width u32, height u32, n_frames u32,
# pixel_size_m f64, then per frame: timestamp f64 + H*W float32; little-endian.

def _frame_record(h, w):
    """One frame of the container: its timestamp, then its temperatures."""
    return np.dtype([("t", "<f8"), ("frame", "<f4", (h, w))])


def write_sequence(path, seq: ThermalSequence):
    """Writes `seq` frame by frame from its own arrays, copying no frame."""
    h, w = seq.frame_shape
    times = np.ascontiguousarray(seq.timestamps, dtype="<f8")

    def chunks():
        yield MAGIC + struct.pack("<HIIId", VERSION, w, h, seq.n_frames, seq.pixel_size)
        for i in range(seq.n_frames):
            yield times[i : i + 1]
            yield np.ascontiguousarray(seq.data[i], dtype="<f4")

    _atomic_write(path, chunks())


@dataclass
class ThermalSequence:
    """Dense [T, H, W] temperature stack with timestamps (s) since coolant removal."""

    data: np.ndarray
    timestamps: np.ndarray
    pixel_size: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        if self.data.ndim != 3:
            raise ValueError("data must be [T, H, W]")
        if len(self.timestamps) != self.data.shape[0]:
            raise ValueError("timestamps/frames length mismatch")
        if len(self.timestamps) > 1 and not np.all(np.diff(self.timestamps) > 0):
            raise ValueError("timestamps must be strictly increasing")
        if not all(np.isfinite(frame).all() for frame in self.data):  # one frame's mask at a time
            raise ValueError("non-finite temperatures")

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def frame_shape(self) -> tuple[int, int]:
        return self.data.shape[1:]


def read_sequence(path) -> ThermalSequence:
    """Reads the frames straight into one [T, H, W] float32 array."""
    head_size = 4 + struct.calcsize("<HIIId")
    with open(path, "rb") as f:
        raw, size = f.read(head_size), os.fstat(f.fileno()).st_size
        if len(raw) < 4:
            raise FormatError(f"{path}: file shorter than magic")
        if raw[:4] != MAGIC:
            raise FormatError(f"{path}: bad magic {raw[:4]!r}")
        if len(raw) < head_size:
            raise FormatError(f"{path}: truncated header")
        version, w, h, n, px = struct.unpack("<HIIId", raw[4:])
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if not 0 < px < math.inf:
            raise FormatError(f"{path}: pixel size {px} is not a positive length")
        frame_bytes = 8 + 4 * w * h
        expect = head_size + n * frame_bytes
        if size < expect:
            raise FormatError(f"{path}: payload truncated ({size} < {expect} bytes)")
        if size != expect:
            raise FormatError(f"{path}: payload size {size} != declared {expect}")
        # a frame too large for a record (checked before any array is made, as
        # a file of no frames does not bound w and h), a short read,
        # non-finite temperatures, timestamps out of order
        try:
            _frame_record(h, w)
            data, times = np.empty((n, h, w), dtype="<f4"), np.empty(n, dtype="<f8")
            for i in range(n):
                if f.readinto(times[i : i + 1]) + f.readinto(data[i]) != frame_bytes:
                    raise ValueError(f"file ends inside frame {i}")
            return ThermalSequence(data=data, timestamps=times, pixel_size=px)
        except ValueError as e:
            raise FormatError(f"{path}: {e}") from e


# --- zone masks (PGM P5 + text sidecar) --------------------------------------

def write_mask(path, mask: ZoneMask, mode: Mode):
    mode.check_labels(mask.labels)
    h, w = mask.shape
    header = f"P5\n{w} {h}\n255\n".encode()
    _atomic_write(path, [header, mask.labels.tobytes()])
    sidecar = f"pixel_size_m {mask.pixel_size:.9e}\nmode {mode.value}\n"
    _atomic_write(str(path) + ".meta", [sidecar.encode()])


def _parse_pgm(raw: bytes, path):
    # P5 header: three whitespace-separated tokens, comments allowed
    tokens = []
    i = 0
    while len(tokens) < 4:
        if i >= len(raw):
            raise FormatError(f"{path}: truncated PGM header")
        c = raw[i : i + 1]
        if c == b"#":
            while i < len(raw) and raw[i : i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(raw) and not raw[j : j + 1].isspace():
                j += 1
            tokens.append(raw[i:j])
            i = j
    if tokens[0] != b"P5":
        raise FormatError(f"{path}: not a P5 PGM")
    if not all(tok.isdigit() for tok in tokens[1:]):  # bytes.isdigit: ASCII digits only
        raise FormatError(f"{path}: PGM header field is not a number")
    w, h, maxval = (int(tok) for tok in tokens[1:])
    if w <= 0 or h <= 0:
        raise FormatError(f"{path}: PGM size {w}x{h} is empty")
    if maxval != 255:
        raise FormatError(f"{path}: maxval must be 255")
    i += 1  # single whitespace after maxval
    body = raw[i:]
    if len(body) < w * h:
        raise FormatError(f"{path}: PGM payload truncated")
    if len(body) != w * h:
        raise FormatError(f"{path}: PGM payload size {len(body)} != {w * h}")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w), w, h


# an unsigned decimal, optionally with an exponent: no sign, `_`, space or inf
_NUMERAL = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", re.ASCII)


def read_text(path, what: str) -> str:
    """The text of file `path`; a FormatError naming it if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: {what} is not text: {e}") from e


def read_mask(path) -> tuple[ZoneMask, Mode]:
    raw = Path(path).read_bytes()
    labels, _, _ = _parse_pgm(raw, path)
    meta_path = str(path) + ".meta"
    keys = ("pixel_size_m", "mode")
    meta = {}
    try:
        lines = read_text(meta_path, "sidecar").splitlines()
    except FileNotFoundError:
        raise FormatError(f"{path}: missing sidecar {meta_path}")
    for line in filter(str.strip, lines):
        key, _, val = line.partition(" ")
        if key not in keys:
            raise FormatError(f"{meta_path}: unknown key {key!r}")
        if key in meta:
            raise FormatError(f"{meta_path}: repeated key {key!r}")
        meta[key] = val
    for key in keys:
        if key not in meta:
            raise FormatError(f"{meta_path}: missing {key}")
    if not _NUMERAL.fullmatch(meta["pixel_size_m"]):
        raise FormatError(f"{meta_path}: pixel_size_m {meta['pixel_size_m']!r} is not a numeral")
    try:
        mode = Mode.parse(meta["mode"])
    except ValueError as e:
        raise FormatError(f"{meta_path}: {e}") from e
    pixel_size = float(meta["pixel_size_m"])
    try:
        mask = ZoneMask(labels.copy(), pixel_size)
        mode.check_labels(mask.labels)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from e
    return mask, mode


# --- model persistence --------------------------------------------------------
# Self-describing text header, then a base-16 parameter block with a sha256
# checksum. The parameter block is a deterministic tagged binary encoding of
# the model's nested state: dicts, lists, ints, floats, strings and ndarrays.

def _pack(obj) -> bytes:
    if isinstance(obj, int):
        return b"I" + struct.pack("<q", obj)
    if isinstance(obj, float):
        return b"F" + struct.pack("<d", obj)
    if isinstance(obj, str):
        raw = obj.encode()
        return b"S" + struct.pack("<I", len(raw)) + raw
    if isinstance(obj, np.ndarray):
        dt = obj.dtype.str.encode()
        shape = obj.shape
        head = struct.pack("<I", len(dt)) + dt + struct.pack("<I", len(shape))
        head += b"".join(struct.pack("<q", s) for s in shape)
        return b"A" + head + np.ascontiguousarray(obj).tobytes()
    if isinstance(obj, list):
        body = b"".join(_pack(v) for v in obj)
        return b"L" + struct.pack("<I", len(obj)) + body
    if isinstance(obj, dict):
        body = b""
        for k in obj:  # insertion order is part of the format
            body += _pack(str(k)) + _pack(obj[k])
        return b"D" + struct.pack("<I", len(obj)) + body
    raise TypeError(f"cannot serialize {type(obj)}")


def _take(raw: bytes, off: int, n: int):
    """The n bytes at `off` and the offset after them; FormatError past the end."""
    if n < 0 or off + n > len(raw):
        raise FormatError(f"parameter block ends inside a value at offset {off}")
    return raw[off : off + n], off + n


def _scalar(fmt: str, raw: bytes, off: int):
    chunk, off = _take(raw, off, struct.calcsize(fmt))
    return struct.unpack(fmt, chunk)[0], off


_DTYPE_STR = re.compile(r"[<>|][biufcmMOSUV]\d*(\[\w+\])?")  # the form of `np.dtype.str`


def _unpack(raw: bytes, off: int = 0):
    tag, off = _take(raw, off, 1)
    if tag == b"I":
        return _scalar("<q", raw, off)
    if tag == b"F":
        return _scalar("<d", raw, off)
    if tag == b"S":
        n, off = _scalar("<I", raw, off)
        text, off = _take(raw, off, n)
        try:
            return text.decode(), off
        except UnicodeDecodeError as e:
            raise FormatError(f"bad string at offset {off - n}") from e
    if tag == b"A":
        n, off = _scalar("<I", raw, off)
        dt, off = _take(raw, off, n)
        ndim, off = _scalar("<I", raw, off)
        shape = []
        for _ in range(ndim):
            size, off = _scalar("<q", raw, off)
            shape.append(size)
        try:  # a dtype or shape numpy rejects; FormatError is a ValueError
            text = dt.decode()
            # numpy would parse a string with a comma as Python literals
            dt = np.dtype(text) if _DTYPE_STR.fullmatch(text) else None
            if dt is None or dt.str != text:  # `_pack` writes one spelling per dtype
                raise ValueError(f"dtype {text!r} is not spelt as numpy writes it")
            body, off = _take(raw, off, dt.itemsize * math.prod(shape))
            return np.frombuffer(body, dtype=dt).reshape(shape).copy(), off
        except (TypeError, ValueError) as e:
            raise FormatError(f"bad array at offset {off}: {e}") from e
    if tag == b"L":
        n, off = _scalar("<I", raw, off)
        out = []
        for _ in range(n):
            v, off = _unpack(raw, off)
            out.append(v)
        return out, off
    if tag == b"D":
        n, off = _scalar("<I", raw, off)
        out = {}
        for _ in range(n):
            k, off = _unpack(raw, off)
            if not isinstance(k, str):
                raise FormatError(f"non-string key before offset {off}")
            if k in out:
                raise FormatError(f"repeated key {k!r} before offset {off}")
            v, off = _unpack(raw, off)
            out[k] = v
        return out, off
    raise FormatError(f"unknown tag {tag!r} at offset {off - 1}")


def state_fields(state, **fields):
    """The values of a decoded model state's fields, in the order given.

    `fields` maps each required key to a converter for its value. Raises
    FormatError when `state` is not a dict, lacks a key, or a converter
    raises TypeError or ValueError.
    """
    if not isinstance(state, dict):
        raise FormatError(f"model state is a {type(state).__name__}, not a dict")
    missing = [key for key in fields if key not in state]
    if missing:
        raise FormatError(f"model state lacks {', '.join(missing)}")
    values = []
    for key, convert in fields.items():
        try:
            values.append(convert(state[key]))
        except (TypeError, ValueError) as e:  # FormatError from a nested state too
            raise FormatError(f"model state {key}: {e}") from e
    return values


def state_array(dtype, ndim):
    """Converter for `state_fields`: an ndarray of `dtype` with `ndim` dimensions."""
    def convert(value):
        arr = np.asarray(value, dtype=dtype)
        if arr.ndim != ndim:
            raise ValueError(f"expected a {ndim}-d array, got {arr.ndim}-d")
        return arr
    return convert


def _model_header(kind, fields: dict, block: bytes) -> dict:
    """The lines of a model file after its first, {key: value}: kind, the
    fields, then the parameter block's checksum and lower-case hex."""
    return {"kind": kind, **fields, "checksum": hashlib.sha256(block).hexdigest(),
            "params": block.hex()}


def _model_text(header: dict) -> str:
    """The text of a model file: its first line, then one line per header field."""
    return "\n".join(["irzone-model 1"] + [f"{k} {v}" for k, v in header.items()]) + "\n"


def _header_fields(state) -> dict:
    """The state's mode and seed, when it has them, as a model file's header repeats them."""
    return {key: str(state[key]) for key in ("mode", "seed") if key in state}


def write_model(path, model, header_extra: dict | None = None):
    """Write `model`; its header repeats the state's kind, mode and seed. A
    `header_extra` value other than the model's is a ValueError, and nothing is written."""
    state = model.to_state()
    fields = _header_fields(state)
    for key, value in (header_extra or {}).items():
        if str(value) != fields.get(key):
            raise ValueError(f"header_extra {key} {value!r} is not the model's "
                             f"{fields.get(key)!r}")
    _atomic_write(path, [_model_text(_model_header(state["kind"], fields, _pack(state))).encode()])


def read_model_state(path) -> tuple[dict, object]:
    """The header fields of a model file ({key: value}) and its decoded state.

    A file that is not byte for byte the text `write_model` writes for its
    kind, extra header lines and parameter block is a FormatError.
    """
    try:
        text = Path(path).read_bytes().decode()
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: model file is not text") from e
    lines = text.splitlines()
    if lines[:1] != ["irzone-model 1"]:
        raise FormatError(f"{path}: first line is not 'irzone-model 1'")
    header = {}
    for line in lines[1:]:
        key, _, val = line.partition(" ")
        if key in header:
            raise FormatError(f"{path}: more than one {key} line")
        header[key] = val
    missing = [key for key in ("kind", "params", "checksum") if key not in header]
    if missing:
        raise FormatError(f"{path}: missing {' and '.join(missing)}")
    try:
        block = bytes.fromhex(header["params"])
    except ValueError as e:
        raise FormatError(f"{path}: params are not hexadecimal") from e
    if hashlib.sha256(block).hexdigest() != header["checksum"]:
        raise FormatError(f"{path}: checksum mismatch")
    extra = {k: v for k, v in header.items() if k not in ("kind", "checksum", "params")}
    if text != _model_text(_model_header(header["kind"], extra, block)):
        raise FormatError(f"{path}: header is not laid out as write_model writes it")
    try:
        state, end = _unpack(block)
    except RecursionError as e:
        raise FormatError(f"{path}: parameter block nested too deeply") from e
    if end != len(block):
        raise FormatError(f"{path}: {len(block) - end} bytes after the parameter block")
    return header, state


def load_cascade(path):
    """The cascade in a model file that is byte for byte what `write_model`
    writes for it; otherwise a FormatError naming the first line that differs."""
    from .models.cascade import CascadeModel  # here, as the models import this module

    header, state = read_model_state(path)
    if not isinstance(state, dict) or state.get("kind") != "cascade":
        raise FormatError(f"{path}: not a cascade model file")
    model = CascadeModel.from_state(state)
    state = model.to_state()
    want = _model_header(state["kind"], _header_fields(state), _pack(state))
    # read_model_state checked that the file holds its header's lines in order
    for (key, value), (want_key, want_value) in zip(header.items(), want.items()):
        if key != want_key:
            raise FormatError(f"{path}: header has a {key} line where write_model "
                              f"writes {want_key}")
        if value == want_value:
            continue
        if key in ("checksum", "params"):
            raise FormatError(f"{path}: parameter block is not what write_model writes "
                              f"for its model")
        raise FormatError(f"{path}: header {key} {value!r} is not the model's {want_value!r}")
    return model


# --- overlay rendering (PPM P6) ----------------------------------------------

COLOR_WA_REF = (0, 0, 255)     # blue
COLOR_WA_ALG = (0, 255, 255)   # cyan
COLOR_HA_REF = (255, 0, 0)     # red
COLOR_HA_ALG = (255, 165, 0)   # orange
COLOR_FRAME = (255, 255, 255)  # white


def _region_boundary(region: np.ndarray) -> np.ndarray:
    """Region pixels with a 4-neighbor outside the region or the frame."""
    r = region.astype(bool)
    return r & ~ndimage.binary_erosion(r)  # scipy's default structure: the 4-neighbour cross


def render_overlay(background, ref_mask: ZoneMask | None, alg_mask: ZoneMask | None):
    """RGB overlay: grayscale temperature background, region boundaries drawn
    Ref beneath Alg (WA blue/cyan, HA red/orange), frame border white."""
    bg = np.asarray(background, dtype=np.float64)
    lo, hi = bg.min(), bg.max()
    gray = np.zeros_like(bg) if hi <= lo else (bg - lo) / (hi - lo)
    img = np.repeat((gray * 255).astype(np.uint8)[:, :, None], 3, axis=2)

    def draw(region, color):
        edge = _region_boundary(region)
        img[edge] = color

    # z-order: Ref first so Alg draws on top where they coincide
    if ref_mask is not None:
        if ref_mask.shape != bg.shape:
            raise ValueError("reference mask shape mismatch")
        draw(ref_mask.wa, COLOR_WA_REF)
        draw(ref_mask.ha, COLOR_HA_REF)
    if alg_mask is not None:
        if alg_mask.shape != bg.shape:
            raise ValueError("algorithm mask shape mismatch")
        draw(alg_mask.wa, COLOR_WA_ALG)
        draw(alg_mask.ha, COLOR_HA_ALG)
    img[0, :] = COLOR_FRAME
    img[-1, :] = COLOR_FRAME
    img[:, 0] = COLOR_FRAME
    img[:, -1] = COLOR_FRAME
    return img


def write_ppm(path, img: np.ndarray):
    h, w, c = img.shape
    if c != 3 or img.dtype != np.uint8:
        raise ValueError("image must be uint8 RGB")
    _atomic_write(path, [f"P6\n{w} {h}\n255\n".encode(), img.tobytes()])
