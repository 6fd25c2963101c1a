"""File formats: binary sequence container, PGM zone masks with sidecar,
model persistence, and PPM overlay rendering. All writes are atomic
(temp file + rename); all formats round-trip bit-exactly."""

from __future__ import annotations

import hashlib
import math
import os
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
from scipy import ndimage

from .phantom import ThermalSequence
from .postprocess import STRUCTURE_4
from .zones import Mode, ZoneMask

MAGIC = b"IRTS"
VERSION = 1


class FormatError(ValueError):
    pass


class BadMagic(FormatError):
    pass


class SizeMismatch(FormatError):
    pass


class Truncated(FormatError):
    pass


class ChecksumError(FormatError):
    pass


def _atomic_write(path, data: bytes):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
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
    h, w = seq.frame_shape
    header = MAGIC + struct.pack("<HIIId", VERSION, w, h, seq.n_frames, seq.pixel_size)
    records = np.empty(seq.n_frames, dtype=_frame_record(h, w))
    records["t"], records["frame"] = seq.timestamps, seq.data
    _atomic_write(path, header + records.tobytes())


def read_sequence(path) -> ThermalSequence:
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise Truncated(f"{path}: file shorter than magic")
    if raw[:4] != MAGIC:
        raise BadMagic(f"{path}: bad magic {raw[:4]!r}")
    head_size = 4 + struct.calcsize("<HIIId")
    if len(raw) < head_size:
        raise Truncated(f"{path}: truncated header")
    version, w, h, n, px = struct.unpack("<HIIId", raw[4:head_size])
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if not 0 < px < math.inf:
        raise FormatError(f"{path}: pixel size {px} is not a positive length")
    frame_bytes = 8 + 4 * w * h
    expect = head_size + n * frame_bytes
    if len(raw) < expect:
        raise Truncated(f"{path}: payload truncated ({len(raw)} < {expect} bytes)")
    if len(raw) != expect:
        raise SizeMismatch(f"{path}: payload size {len(raw)} != declared {expect}")
    try:  # frame too large for a dtype, non-finite temperatures, timestamps out of order
        records = np.frombuffer(raw, dtype=_frame_record(h, w), count=n, offset=head_size)
        return ThermalSequence(data=records["frame"].astype(np.float32),
                               timestamps=records["t"].astype(np.float64), pixel_size=px)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from e


# --- zone masks (PGM P5 + text sidecar) --------------------------------------

def write_mask(path, mask: ZoneMask, mode: Mode):
    mask.check_mode(mode)
    h, w = mask.shape
    header = f"P5\n{w} {h}\n255\n".encode()
    _atomic_write(path, header + mask.labels.tobytes())
    sidecar = f"pixel_size_m {mask.pixel_size:.9e}\nmode {mode.value}\n"
    _atomic_write(str(path) + ".meta", sidecar.encode())


def _parse_pgm(raw: bytes, path):
    # P5 header: three whitespace-separated tokens, comments allowed
    tokens = []
    i = 0
    while len(tokens) < 4:
        if i >= len(raw):
            raise Truncated(f"{path}: truncated PGM header")
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
        raise BadMagic(f"{path}: not a P5 PGM")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as e:
        raise FormatError(f"{path}: PGM header field is not a number") from e
    if w <= 0 or h <= 0:
        raise FormatError(f"{path}: PGM size {w}x{h} is empty")
    if maxval != 255:
        raise FormatError(f"{path}: maxval must be 255")
    i += 1  # single whitespace after maxval
    body = raw[i:]
    if len(body) < w * h:
        raise Truncated(f"{path}: PGM payload truncated")
    if len(body) != w * h:
        raise SizeMismatch(f"{path}: PGM payload size {len(body)} != {w * h}")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w), w, h


def read_mask(path) -> tuple[ZoneMask, Mode]:
    raw = Path(path).read_bytes()
    labels, _, _ = _parse_pgm(raw, path)
    meta_path = str(path) + ".meta"
    meta = {}
    try:
        for line in Path(meta_path).read_text().splitlines():
            key, _, val = line.partition(" ")
            meta[key] = val
    except FileNotFoundError:
        raise FormatError(f"{path}: missing sidecar {meta_path}")
    except UnicodeDecodeError as e:
        raise FormatError(f"{meta_path}: sidecar is not text") from e
    for key in ("pixel_size_m", "mode"):
        if key not in meta:
            raise FormatError(f"{meta_path}: missing {key}")
    try:
        pixel_size = float(meta["pixel_size_m"])
        mode = Mode.parse(meta["mode"])
    except ValueError as e:
        raise FormatError(f"{meta_path}: {e}") from e
    try:
        mask = ZoneMask(labels.copy(), pixel_size)
        mask.check_mode(mode)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from e
    return mask, mode


# --- model persistence --------------------------------------------------------
# Self-describing text header, then a base-16 parameter block with a sha256
# checksum. The parameter block is a deterministic tagged binary encoding of
# the model's nested state (dicts, lists, scalars, ndarrays).

def _pack(obj) -> bytes:
    if obj is None:
        return b"N"
    if isinstance(obj, bool):
        return b"B" + (b"\x01" if obj else b"\x00")
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
    if isinstance(obj, (list, tuple)):
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
    if tag == b"N":
        return None, off
    if tag == b"B":
        flag, off = _take(raw, off, 1)
        if flag not in (b"\x00", b"\x01"):
            raise FormatError(f"bad bool byte {flag!r} at offset {off - 1}")
        return flag == b"\x01", off
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


def write_model(path, model, header_extra: dict | None = None):
    state = model.to_state()
    block = _pack(state)
    digest = hashlib.sha256(block).hexdigest()
    lines = ["irzone-model 1"]
    lines.append(f"kind {state.get('kind', 'unknown')}")
    for k, v in (header_extra or {}).items():
        lines.append(f"{k} {v}")
    lines.append(f"checksum {digest}")
    lines.append(f"params {block.hex()}")
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def read_model_state(path) -> tuple[dict, object]:
    """The header fields of a model file ({key: value}) and its decoded state."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: model file is not text") from e
    lines = text.splitlines()
    if lines[:1] != ["irzone-model 1"]:
        raise BadMagic(f"{path}: first line is not 'irzone-model 1'")
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
        block = bytes.fromhex(header["params"].strip())
    except ValueError as e:
        raise FormatError(f"{path}: params are not hexadecimal") from e
    if hashlib.sha256(block).hexdigest() != header["checksum"].strip():
        raise ChecksumError(f"{path}: checksum mismatch")
    try:
        state, end = _unpack(block)
    except RecursionError as e:
        raise FormatError(f"{path}: parameter block nested too deeply") from e
    if end != len(block):
        raise FormatError(f"{path}: {len(block) - end} bytes after the parameter block")
    return header, state


def load_cascade(path):
    from .models.cascade import CascadeModel

    header, state = read_model_state(path)
    if not isinstance(state, dict) or state.get("kind") != "cascade":
        raise FormatError(f"{path}: not a cascade model file")
    if header["kind"] != "cascade":
        raise FormatError(f"{path}: header kind {header['kind']!r} is not the state's 'cascade'")
    model = CascadeModel.from_state(state)
    if header.get("mode", model.mode.value) != model.mode.value:
        raise FormatError(f"{path}: header mode {header['mode']!r} is not the model's "
                          f"{model.mode.value!r}")
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
    return r & ~ndimage.binary_erosion(r, structure=STRUCTURE_4)


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
    _atomic_write(path, f"P6\n{w} {h}\n255\n".encode() + img.tobytes())
