"""Sequence preprocessing: shift registration, damaged-frame removal, and
per-pixel recovery-curve fitting."""

from __future__ import annotations

from contextlib import closing, contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import gaussian_filter

from .forked import _cpu_count, forked_map
from .io_formats import ThermalSequence

DEFAULT_MAX_SHIFT = 5          # px; larger drifts are treated as fatal
MIN_FRAME_SIDE = 16            # px; smaller frames cannot be registered
DEFAULT_OUTLIER_FRAC = 0.1
DEFAULT_OUTLIER_TEMP_DEV = 1.0  # °C
NOISE_FLOOR_C = 0.03           # imager sensitivity
DEGENERATE_RANGE_C = 2 * NOISE_FLOOR_C
TAU_MIN, TAU_MAX = 0.1, 10_000.0
MAX_ITER = 50  # Gauss-Newton iterations of the recovery-curve fit
GN_TOL = 1e-9  # a pixel whose step is shorter has converged


class PipelineAbort(RuntimeError):
    """Unrecoverable preprocessing failure (e.g. no usable frames left)."""


@contextmanager
def naming_sequence(seq_path):
    """Re-raise a PipelineAbort of the block with the sequence file's path in its message."""
    try:
        yield
    except PipelineAbort as e:
        raise PipelineAbort(f"sequence {seq_path}: {e}") from None


@dataclass
class ShiftEstimate:
    dx: float
    dy: float
    peak_score: float
    fatal: bool = False


@dataclass
class PreprocessReport:
    shifts: list[ShiftEstimate] = field(default_factory=list)
    deleted: list[tuple[int, str]] = field(default_factory=list)  # (frame idx, reason)
    kept: list[int] = field(default_factory=list)
    valid_mask: np.ndarray | None = None  # 2D bool; False where shifting exposed borders

    def lines(self) -> list[str]:
        out = [f"kept {len(self.kept)} deleted {len(self.deleted)}"]
        for i, s in enumerate(self.shifts):
            out.append(
                f"frame {i} dx {s.dx:+.3f} dy {s.dy:+.3f} score {s.peak_score:.4f}"
                + (" FATAL" if s.fatal else "")
            )
        for idx, reason in self.deleted:
            out.append(f"deleted {idx} {reason}")
        return out


def _parabolic_refine(scores, peak):
    """3-point parabola vertex offset in [-0.5, 0.5] around an interior peak."""
    a, b, c = scores[peak - 1], scores[peak], scores[peak + 1]
    denom = a - 2 * b + c
    if denom >= -1e-12:  # flat or non-concave; no refinement
        return 0.0
    return float(np.clip(0.5 * (a - c) / denom, -0.5, 0.5))


def _ncc_at(ref, tgt, ly, lx):
    """NCC of `ref` and `tgt` over their overlap at lag (ly, lx); the exact score."""
    h, w = ref.shape
    # target content moved by (+lx, +ly): ref[y, x] ~ target[y+ly, x+lx]
    ry0, ry1 = max(0, -ly), min(h, h - ly)
    rx0, rx1 = max(0, -lx), min(w, w - lx)
    a = ref[ry0:ry1, rx0:rx1]
    b = tgt[ry0 + ly : ry1 + ly, rx0 + lx : rx1 + lx]
    a0 = a - a.mean()
    b0 = b - b.mean()
    denom = np.sqrt((a0 * a0).sum() * (b0 * b0).sum())
    return (a0 * b0).sum() / denom if denom > 0 else 0.0


HIGHPASS_SIGMA = 4.0  # px
RESCORE_MARGIN = 1e-8
TRUST_VAR_FRAC = 1e-3


@dataclass(frozen=True)
class _PreparedFrame:
    """A high-pass filtered frame and what the fast NCC surface reads of it."""

    frame: np.ndarray     # filtered, float64; the exact scores (`_ncc_at`) read this
    spectrum: np.ndarray  # rfft2 of the mean-centred frame at `_padded_shape`
    sat: np.ndarray       # summed-area table of the centred frame, zero-bordered
    sat_sq: np.ndarray    # summed-area table of its square
    energy: float         # sum of the centred frame's squares


def _padded_shape(shape, m):
    """FFT shape at which lags up to m in each direction do not wrap around."""
    from scipy import fft  # on first use: importing scipy.fft takes 0.02-0.06 s

    h, w = shape
    return fft.next_fast_len(h + m, real=True), fft.next_fast_len(w + m, real=True)


def _summed_area(frame):
    h, w = frame.shape
    sat = np.zeros((h + 1, w + 1))
    sat[1:, 1:] = frame.cumsum(axis=0).cumsum(axis=1)
    return sat


def _prepare(frame, sigma, m):
    """`frame` high-pass filtered to float64, prepared for lags in [-m, m]^2.

    The filter subtracts the frame's Gaussian blur at `sigma` (none at 0).
    Centring on the filtered frame's own mean leaves every NCC score
    unchanged and keeps the variance subtraction of the fast surface well
    conditioned.
    """
    from scipy import fft  # on first use: importing scipy.fft takes 0.02-0.06 s

    frame = np.asarray(frame, dtype=np.float64)
    h, w = frame.shape
    if min(h, w) < MIN_FRAME_SIDE:
        raise ValueError(f"frames must be at least {MIN_FRAME_SIDE}x{MIN_FRAME_SIDE}")
    if sigma > 0:
        frame = frame - gaussian_filter(frame, sigma, mode="nearest")
    a = frame - frame.mean()
    a2 = a * a
    return _PreparedFrame(frame, fft.rfft2(a, _padded_shape(frame.shape, m)),
                          _summed_area(a), _summed_area(a2), a2.sum())


def _fast_ncc_surface(ref, tgt, m):
    """Approximate NCC at every lag in [-m, m]^2, and which lags to trust.

    `ref` and `tgt` are `_PreparedFrame`s. Sum(ab) for all lags comes from
    one zero-padded FFT cross-correlation; Sum(a), Sum(a^2), Sum(b), Sum(b^2)
    over each overlap rectangle come from summed-area tables (Lewis 1995,
    "Fast Normalized Cross-Correlation").
    """
    from scipy import fft  # on first use: importing scipy.fft takes 0.02-0.06 s

    h, w = ref.frame.shape
    shape = _padded_shape(ref.frame.shape, m)
    xcorr = fft.irfft2(np.conj(ref.spectrum) * tgt.spectrum, shape)
    lags = np.arange(-m, m + 1)
    sab = xcorr[np.ix_(lags % shape[0], lags % shape[1])]

    # overlap rows of ref are [max(0, -ly), min(h, h - ly)), of tgt shifted by ly
    ry0, ry1 = np.maximum(0, -lags), np.minimum(h, h - lags)
    rx0, rx1 = np.maximum(0, -lags), np.minimum(w, w - lags)

    def overlap_sums(sat, dy, dx):
        y0, y1 = (ry0 + dy)[:, None], (ry1 + dy)[:, None]
        x0, x1 = (rx0 + dx)[None, :], (rx1 + dx)[None, :]
        return sat[y1, x1] - sat[y0, x1] - sat[y1, x0] + sat[y0, x0]

    n = (ry1 - ry0)[:, None] * (rx1 - rx0)[None, :]
    sa, saa = overlap_sums(ref.sat, 0, 0), overlap_sums(ref.sat_sq, 0, 0)
    sb, sbb = overlap_sums(tgt.sat, lags, lags), overlap_sums(tgt.sat_sq, lags, lags)
    var_a = saa - sa * sa / n
    var_b = sbb - sb * sb / n
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        scores = (sab - sa * sb / n) / np.sqrt(var_a * var_b)
        trusted = (
            (var_a > TRUST_VAR_FRAC * ref.energy)
            & (var_b > TRUST_VAR_FRAC * tgt.energy)
            & np.isfinite(scores)
        )
    return scores, trusted


def estimate_shift(reference, target, max_shift=DEFAULT_MAX_SHIFT,
                   highpass_sigma=HIGHPASS_SIGMA):
    """Translation of `target` content relative to `reference`.

    Integer-lag normalized cross-correlation over a (2m+1)^2 window, refined
    per axis by 3-point parabolic interpolation. A peak pinned to the window
    boundary is flagged fatal.

    Frames are high-pass filtered before correlating: the recovery inverts
    the large-scale warm/cold contrast between tissue regions over time,
    which anticorrelates raw frames taken far apart, while the fine texture
    keeps its sign throughout.

    Every score this returns or refines with is the exact per-lag score of
    `_ncc_at`; a fast surface for all lags at once (`_fast_ncc_surface`)
    only decides which lags need it. Rescored are every lag within
    RESCORE_MARGIN of the fast maximum, every lag the fast surface cannot
    trust (overlap variance at most TRUST_VAR_FRAC of the frame energy, or a
    non-finite score), and the 4 neighbours the refinement reads. On a
    trusted lag the fast score differs from the exact one by rounding only:
    about 1e-15 in practice, and to first order at most ~30 (h + w) eps /
    TRUST_VAR_FRAC (about 4e-9 at 320x240) from the summed-area tables. So
    every lag left out scores below the rescored maximum, and the peak, its
    raster-order tie-break (np.argmax's), the fatal flag, the refinement and
    `peak_score` are the same floats as scoring all lags exactly.
    """
    if np.shape(reference) != np.shape(target):
        raise ValueError("frame shapes differ")
    m = int(max_shift)
    return _shift_of_prepared(
        _prepare(reference, highpass_sigma, m), _prepare(target, highpass_sigma, m), m
    )


def _shift_of_prepared(reference, target, m):
    """`estimate_shift` on two `_PreparedFrame`s."""
    fast, trusted = _fast_ncc_surface(reference, target, m)
    rescore = ~trusted
    if trusted.any():
        rescore |= fast >= fast[trusted].max() - RESCORE_MARGIN
    ref, tgt = reference.frame, target.frame
    scores = np.full((2 * m + 1, 2 * m + 1), -np.inf)
    for iy, ix in zip(*np.nonzero(rescore)):
        scores[iy, ix] = _ncc_at(ref, tgt, iy - m, ix - m)
    py, px = np.unravel_index(np.argmax(scores), scores.shape)
    fatal = py in (0, 2 * m) or px in (0, 2 * m)
    dy = float(py - m)
    dx = float(px - m)
    if not fatal and scores[py, px] < 1.0 - 1e-9:  # a perfect peak is already exact
        for iy, ix in ((py, px - 1), (py, px + 1), (py - 1, px), (py + 1, px)):
            scores[iy, ix] = _ncc_at(ref, tgt, iy - m, ix - m)
        dx += _parabolic_refine(scores[py, :], px)
        dy += _parabolic_refine(scores[:, px], py)
    peak = float(np.clip(scores[py, px], 0.0, 1.0))
    return ShiftEstimate(dx=dx, dy=dy, peak_score=peak, fatal=fatal)


def bilinear_sample(frame, dx, dy):
    """Edge-clamped bilinear sample of frame at (y + dy, x + dx).

    Returns (values, valid); valid is False where the sample point falls
    outside the frame. Sampling at (-dx, -dy) translates content by (+dx, +dy).
    """
    h, w = frame.shape
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    xs = xx + dx
    ys = yy + dy
    valid = (xs >= 0) & (xs <= w - 1) & (ys >= 0) & (ys <= h - 1)
    xs = np.clip(xs, 0, w - 1)
    ys = np.clip(ys, 0, h - 1)
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    f = frame.astype(np.float64)
    out = (
        f[y0, x0] * (1 - fx) * (1 - fy)
        + f[y0, x1] * fx * (1 - fy)
        + f[y1, x0] * (1 - fx) * fy
        + f[y1, x1] * fx * fy
    )
    return out, valid


SNAP_EPS = 0.15  # px; sub-snap estimates are treated as zero (idempotence)
# Smallest frame, in pixels, from which registration and the curve fit split
# a sequence across forked workers (`forked.forked_map`). Below it the fit's
# second worker saves nothing (see `register_sequence` and
# `fit_recovery_batch` for the measured crossovers).
FORK_MIN_PIXELS = 128 * 96


def _snapped(est):
    """`est`, or a zero shift with its score if it is not fatal and moves
    less than SNAP_EPS in both axes."""
    if not est.fatal and max(abs(est.dx), abs(est.dy)) < SNAP_EPS:
        return ShiftEstimate(0.0, 0.0, est.peak_score)
    return est


def _still(est):
    return not est.fatal and est.dx == 0.0 and est.dy == 0.0


def _runs(n, k):
    """k contiguous slices covering range(n) in order, their sizes differing
    by at most one."""
    edges = [n * i // k for i in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def _unmoved_run(data, frames, m):
    """Snapped shifts of the frames `frames` (a range from 1), each against
    the unmoved frame before it, up to the first that is fatal or moves; and
    after a fatal frame that is not the sequence's last, the prepared
    reference of the frames after it (else None)."""
    prev = _prepare(data[frames.start - 1], HIGHPASS_SIGMA, m)
    shifts = []
    for i in frames:
        cur = _prepare(data[i], HIGHPASS_SIGMA, m)
        shifts.append(_snapped(_shift_of_prepared(prev, cur, m)))
        if not _still(shifts[-1]):
            break
        prev = cur
    return shifts, prev if shifts[-1].fatal and i < len(data) - 1 else None


def register_sequence(seq):
    """Align every frame onto the first frame's grid (translation only).

    Each frame is estimated against the previously aligned frame rather than
    frame 0: the recovery decorrelates frames far apart in time, while
    adjacent frames stay strongly correlated. The previously aligned frame is
    already on frame 0's grid, so the estimate is the absolute shift. A
    shift below SNAP_EPS snaps to zero.

    Each frame is filtered and prepared for the fast NCC surface once, as a
    target; after a zero or fatal shift the reference stays prepared, and
    only a frame that was moved is filtered and prepared again.

    Until the first frame that is fatal or moves, every reference is the
    unmoved frame before the target, so those shifts do not depend on one
    another. Frames 1 … n − 1 are split (`_runs`) into contiguous runs of
    `_unmoved_run`, one per usable CPU for frames of at least
    FORK_MIN_PIXELS pixels and else one, which `forked.forked_map` computes
    at once; each run prepares the frame before its first as its reference.
    The runs are walked in order up to the first frame that is fatal or
    moves, and from there on the rest is the serial loop in this process.
    A run that stops at a fatal frame hands back the reference it holds, so
    no frame is prepared twice here. Every shift is the same
    `_shift_of_prepared` call on the same prepared frames as in the serial
    loop, so every float is unchanged. What follows a run's stop is never
    read.

    Medians of 9 alternating runs on 2 cores, one process against forked
    runs, with the same bytes either way. Registration gains even at 96x72,
    but FORK_MIN_PIXELS is set by the curve fit's crossover, which lies
    above it:

        pixels x frames   1 process   2 processes
        96x72 x 40           59 ms        43 ms
        128x96 x 40          87 ms        54 ms
        160x120 x 40         91 ms        66 ms
        224x168 x 60        279 ms       155 ms
        320x240 x 60        475 ms       308 ms

    Rotations and super-threshold shifts are not corrected: those frames are
    flagged fatal for the damaged-frame stage to delete.

    `seq` is never written: the result shares its frame array until a frame
    moves, which makes one copy.
    """
    if seq.n_frames < 2:
        raise PipelineAbort("need at least 2 frames to register")
    h, w = seq.frame_shape
    if min(h, w) < MIN_FRAME_SIDE:
        raise PipelineAbort(f"frames must be at least {MIN_FRAME_SIDE}x{MIN_FRAME_SIDE}")
    report = PreprocessReport()
    valid = np.ones((h, w), dtype=bool)
    out = seq.data  # shared until a frame moves
    m = DEFAULT_MAX_SHIFT

    def align(i, est):
        """Frame i moved by `est` into `out`, prepared as the next reference."""
        nonlocal out
        out = seq.data.copy() if out is seq.data else out
        aligned, v = bilinear_sample(seq.data[i].astype(np.float64), est.dx, est.dy)
        out[i] = aligned.astype(np.float32)
        np.logical_and(valid, v, out=valid)
        return _prepare(out[i], HIGHPASS_SIGMA, m)

    workers = min(_cpu_count() if h * w >= FORK_MIN_PIXELS else 1, seq.n_frames - 1)
    runs = [range(1, seq.n_frames)[s] for s in _runs(seq.n_frames - 1, workers)]
    report.shifts = [ShiftEstimate(0.0, 0.0, 1.0)]
    with closing(forked_map(lambda frames: _unmoved_run(seq.data, frames, m), runs)) as walk:
        for shifts, prev in walk:
            report.shifts += shifts
            if not _still(shifts[-1]):
                break
    last = len(report.shifts) - 1  # the first frame that is fatal or moves, or the last
    if not report.shifts[last].fatal and not _still(report.shifts[last]):
        prev = align(last, report.shifts[last])
    for i in range(last + 1, seq.n_frames):
        cur = _prepare(seq.data[i], HIGHPASS_SIGMA, m)
        est = _snapped(_shift_of_prepared(prev, cur, m))
        report.shifts.append(est)
        if not est.fatal:  # a fatal frame leaves the reference; it is deleted downstream
            prev = cur if _still(est) else align(i, est)
    if all(s.fatal for s in report.shifts[1:]):
        raise PipelineAbort("all frames flagged fatal during registration")
    report.valid_mask = valid
    report.kept = list(range(seq.n_frames))
    return ThermalSequence(out, seq.timestamps.copy(), seq.pixel_size), report


def _window_median(frames):
    """Per-pixel median of 1 to 4 same-shape frames, by min/max networks.

    The same floats as `np.median(np.stack(frames), axis=0)`, which takes
    the mean of the two middle values in the frames' dtype: of four values
    the middle two are max(min(a, b), min(c, d)) and min(max(a, b), max(c, d))
    in some order, and their sum does not depend on which comes first. A NaN
    anywhere propagates, as it does in `np.median`. Zeros of opposite sign
    may come out with the other sign.
    """
    if len(frames) == 1:
        return frames[0]
    if len(frames) == 2:
        a, b = frames
        return (a + b) / 2
    if len(frames) == 3:
        a, b, c = frames
        return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
    a, b, c, d = frames
    low = np.maximum(np.minimum(a, b), np.minimum(c, d))
    high = np.minimum(np.maximum(a, b), np.maximum(c, d))
    return (low + high) / 2


def remove_damaged_frames(seq, report):
    """Drop frames flagged fatal by registration plus foreign-object frames.

    A frame is a foreign-object frame when more than DEFAULT_OUTLIER_FRAC of
    its pixels deviate from the per-pixel temporal median of its neighboring
    frames (window of up to 4, the frame itself excluded) by more than
    DEFAULT_OUTLIER_TEMP_DEV. The window keeps the detector blind to the recovery
    trend itself: against a whole-sequence median, normal recovery dynamics
    (several °C over the sequence) would flag every frame. Single pass;
    timestamps of kept frames are preserved. When no frame is deleted, the
    returned sequence shares `seq`'s frame array instead of copying it.
    """
    n = seq.n_frames
    fatal = {i for i, s in enumerate(report.shifts) if s.fatal} if report.shifts else set()
    candidates = [i for i in range(n) if i not in fatal]
    if not candidates:
        raise PipelineAbort("all frames fatal")
    deleted = []
    kept = []
    for i in range(n):
        if i in fatal:
            deleted.append((i, "fatal shift"))
            continue
        others = [j for j in candidates if j != i]
        others.sort(key=lambda j: (abs(j - i), j))
        window = sorted(others[:4])
        if not window:
            kept.append(i)
            continue
        median = _window_median([seq.data[j] for j in window])
        frac = float(np.mean(np.abs(seq.data[i] - median) > DEFAULT_OUTLIER_TEMP_DEV))
        if frac > DEFAULT_OUTLIER_FRAC:
            deleted.append((i, "foreign object"))
        else:
            kept.append(i)
    if len(kept) < 3:
        raise PipelineAbort(f"only {len(kept)} frames remain after damage removal")
    out_report = PreprocessReport(
        shifts=report.shifts,
        deleted=deleted,
        kept=kept,
        valid_mask=report.valid_mask,
    )
    data = seq.data if len(kept) == n else seq.data[kept]
    return ThermalSequence(data, seq.timestamps[kept], seq.pixel_size), out_report


BLOCK = 4096  # most pixels per block of the per-pixel passes; keeps each [T, block] array in cache


def _blocks(n):
    """Slices covering range(n) (`_runs`): one if n fits BLOCK, else
    ceil(n / BLOCK) of sizes that differ by at most one.

    There are at most n // 2 blocks, so no block is a single row unless n
    is 1: numpy reduces a [1, T] block along another loop than a row of a
    taller array that is not C-ordered, with other rounding.
    """
    return _runs(n, max(1, min(-(-n // BLOCK), n // 2)))


def _time_sum(x):
    """Sum of a C-ordered x [T, M] over time, adding the rows in order from zero.

    numpy reduces the outer axis of such an array row by row into the
    initial value. A single column would collapse to a 1-D reduction, which
    numpy sums pairwise with other rounding, so that case loops here.
    """
    if x.shape[1] > 1:
        return np.add.reduce(x, axis=0, initial=0.0)
    acc = np.zeros(1)
    for row in x:
        acc += row
    return acc


def _init_rows(y, t):
    """Initial (T_base, dT, tau) and the degenerate flag of the rows y [B, T]."""
    y = np.asarray(y, dtype=np.float64)
    a = y.max(axis=1)
    b = a - y[:, 0]
    degenerate = a - y.min(axis=1) < DEGENERATE_RANGE_C

    # log-linear tau init: log(a + eps - y) ~ log b - t / tau, in one [B, T]
    # array of y's memory layout
    eps = 1e-6
    z = np.subtract(a[:, None] + eps, y)
    np.log(np.maximum(z, 1e-12, out=z), out=z)
    t_mean = t.mean()
    denom = np.sum((t - t_mean) ** 2)
    slope = np.multiply(z, t - t_mean, out=z).sum(axis=1) / denom
    with np.errstate(divide="ignore"):
        tau = np.where(slope < -1e-12, -1.0 / slope, 30.0)
    tau = np.clip(tau, 1e-3, 1e7)
    b = np.maximum(b, 1e-9)
    return a, b, tau, degenerate


def _rmse_rows(y, t, a, b, tau):
    """Root-mean-square residual of the fitted curves to the rows y [B, T]."""
    y = np.asarray(y, dtype=np.float64)
    # [B, T], C-ordered: the layout numpy gives y - (a - b r), so the mean adds in its order
    r = np.exp(-t[None, :] / np.clip(tau, 1e-3, 1e7)[:, None])
    np.subtract(y, np.subtract(a[:, None], np.multiply(b[:, None], r, out=r), out=r), out=r)
    return np.sqrt(np.square(r, out=r).mean(axis=1))


def _gauss_newton_step(yT, a, b, tau, t, scratch):
    """Normal equations (JtJ [M, 3, 3], Jtr [M, 3]) of the Gauss-Newton step
    in (T_base, dT, tau) for the series yT [T, M].

    The [T, M] temporaries go into `scratch`, four caller-owned flat arrays
    of at least T * M floats, which every block of every iteration reuses.
    """
    tc = t[:, None]
    e, r, j_tau, tmp = (buf[: yT.size].reshape(yT.shape) for buf in scratch)
    np.exp(np.divide(-tc, tau, out=e), out=e)                    # exp(-t / tau)
    np.subtract(yT, np.subtract(a, np.multiply(b, e, out=r), out=r), out=r)
    # Jacobian columns of the model: j_a = 1, j_b = -e, j_tau = -b e (t / tau^2)
    np.multiply(np.multiply(-b, e, out=j_tau), np.divide(tc, tau**2, out=tmp), out=j_tau)
    j_b = np.negative(e, out=e)
    JtJ = np.empty((len(a), 3, 3))
    JtJ[:, 0, 0] = len(t)
    JtJ[:, 0, 1] = JtJ[:, 1, 0] = _time_sum(j_b)
    JtJ[:, 0, 2] = JtJ[:, 2, 0] = _time_sum(j_tau)
    JtJ[:, 1, 1] = _time_sum(np.multiply(j_b, j_b, out=tmp))
    JtJ[:, 1, 2] = JtJ[:, 2, 1] = _time_sum(np.multiply(j_b, j_tau, out=tmp))
    JtJ[:, 2, 2] = _time_sum(np.multiply(j_tau, j_tau, out=tmp))
    Jtr = np.stack([_time_sum(r), _time_sum(np.multiply(j_b, r, out=tmp)),
                    _time_sum(np.multiply(j_tau, r, out=tmp))], axis=1)
    JtJ += 1e-12 * np.eye(3)[None, :, :]
    return JtJ, Jtr


def _step_columns(yT, cols, a, b, tau, t, bufs, gather):
    """The Gauss-Newton step of the columns `cols` of yT [T, N].

    The scratch is five float64 arrays `bufs` and `gather`, one of yT's
    dtype to gather into; for a float64 yT that one is bufs[0]. np.take
    cannot cast into `out`, so float32 columns are gathered as they are and
    then converted, which changes no value."""
    shape, size = (len(t), len(cols)), len(t) * len(cols)
    y = bufs[0][:size].reshape(shape)
    g = gather[:size].reshape(shape)
    np.take(yT, cols, axis=1, out=g, mode="clip")  # "clip": no copy before `out`
    if g.dtype != y.dtype:
        np.copyto(y, g)
    JtJ, Jtr = _gauss_newton_step(y, a, b, tau, t, bufs[1:])
    return np.linalg.solve(JtJ, Jtr[:, :, None])[:, :, 0]


def _fit_part(y, yT, t, lo):
    """`fit_recovery_batch`'s fit of the rows y [M, T], in this process: the
    columns lo, …, lo + M - 1 of yT [T, N] are the same pixels, time-major."""
    rows = _blocks(len(y))
    init = [_init_rows(y[s], t) for s in rows]
    a, b, tau, degenerate = (np.concatenate(part) for part in zip(*init))
    size = len(t) * min(len(y), BLOCK)
    bufs = np.empty((5, size))
    gather = bufs[0] if yT.dtype == bufs.dtype else np.empty(size, yT.dtype)
    idx = np.flatnonzero(~degenerate)  # the pixels still moving
    for _ in range(MAX_ITER):
        if not len(idx):
            break
        ai, bi, taui = a[idx], b[idx], tau[idx]
        step = np.concatenate([_step_columns(yT, lo + idx[s], ai[s], bi[s], taui[s], t, bufs,
                                             gather) for s in _blocks(len(idx))])
        a[idx] = ai + step[:, 0]
        b[idx] = bi + step[:, 1]
        tau[idx] = np.clip(taui + step[:, 2], 1e-3, 1e7)
        idx = idx[np.linalg.norm(step, axis=1) >= GN_TOL]

    rmse = np.concatenate([_rmse_rows(y[s], t, a[s], b[s], tau[s]) for s in rows])
    converged = np.ones(len(y), dtype=bool)
    converged[idx] = False
    return {
        "t_base": a,
        "dt": b,
        "tau": tau,
        "rmse": np.where(np.isfinite(rmse), rmse, 0.0),
        "degenerate": degenerate | (tau < TAU_MIN) | (tau > TAU_MAX) | ~np.isfinite(rmse),
        "converged": converged,
    }


def fit_recovery_batch(series, times):
    """Vectorized least-squares fit of T(t) = T_base - dT exp(-t/tau).

    series: [N, T] array, times: [T]. Returns dict of [N] arrays
    (t_base, dt, tau, rmse, degenerate, converged). Init: T_base = max,
    dT = max - first sample, tau from log-linear regression; refined by
    Gauss-Newton on the pixels still moving. `converged` is False where a
    pixel was still moving when `MAX_ITER` ran out. A pixel whose range is
    below `DEGENERATE_RANGE_C` is degenerate and never iterates.

    The normal equations are built time-major from the Jacobian columns
    (1, -exp(-t/tau), d f/d tau) without stacking them. Each of their sums
    adds its products in strict time order starting from zero, whatever the
    number of active pixels, which is the order of an einsum contraction of
    the stacked [M, T, 3] Jacobian; the tests hold the two to the same bytes.

    The work runs in pixel blocks (`_blocks`). Every quantity is per pixel,
    so the blocks change no float: a Gauss-Newton block computes each
    pixel's step from that pixel's column alone, and the initialisation and
    the rmse pass reduce each pixel's row with the same numpy call on a
    block of the same memory layout as the whole series, so numpy adds in
    the same order. No block is a single row of several (`_blocks`).

    For a series of at least FORK_MIN_PIXELS pixels, the rows are split
    (`_runs`) into one contiguous part per usable CPU, but no more parts
    than `_blocks(N)` has blocks, and each part is fitted whole, solves
    included, by its own process (`forked.forked_map`); the parts are
    concatenated in order. So no part is a single row of several, and each
    pixel iterates as often as in one fit. Medians of 9 alternating runs on
    2 cores, with the same bytes either way:

        pixels x frames   1 process   2 processes
        96x72 x 40           85 ms        86 ms
        128x96 x 40         151 ms       116 ms
        160x120 x 40        175 ms       135 ms
        224x168 x 60        443 ms       252 ms
        320x240 x 60        790 ms       473 ms

    So FORK_MIN_PIXELS is 128x96; below it a fit is one part, here.

    A float32 series is read as it is, and no float64 copy of it is made:
    each block converts its own pixels to float64, which gives the values
    and, for the initialisation and rmse blocks, the memory layout (numpy
    keeps the axis order) of a whole-series conversion. The pipeline passes the transposed view
    of the frames, [N, T] over a C-ordered [T, N], so the time-major series
    the Gauss-Newton blocks gather from is the frames themselves.
    """
    y = np.asarray(series)
    t = np.asarray(times, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != t.shape[0]:
        raise ValueError("series must be [N, T] matching times")
    if t.shape[0] < 3:
        raise ValueError("need at least 3 samples")
    if not np.all(np.diff(t) > 0):
        raise ValueError("times must be strictly increasing")

    yT = np.ascontiguousarray(y.T)  # [T, N]; no copy of the pipeline's frames
    workers = _cpu_count() if len(y) >= FORK_MIN_PIXELS else 1
    parts = _runs(len(y), min(workers, len(_blocks(len(y)))))
    fits = list(forked_map(lambda s: _fit_part(y[s], yT, t, s.start), parts))
    return {key: np.concatenate([fit[key] for fit in fits]) for key in fits[0]}
