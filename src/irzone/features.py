"""Per-pixel predictor vectors and z-score standardization.

Feature layout (D = 16):
  0  T_base        fitted asymptote (°C)
  1  dT            fitted recovery depth (°C)
  2  tau           fitted time constant (s)
  3  rmse          fit residual (°C)
  4  T_at_t0       first kept sample (°C)
  5  slope_initial least-squares slope over the first 3 samples (°C/s)
  6  t63           time to recover 63.2% of dT (s)
  7-14 curve       series resampled at 8 uniform times, min-max normalized
  15 degenerate    1.0 for pixels without usable dynamics, else 0.0

Degenerate pixels carry all-zero dynamics features with the flag set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .io_formats import FormatError, state_array, state_fields
from .preprocess import _blocks

N_CURVE_SAMPLES = 8
FEATURE_DIM = 16
FEATURE_NAMES = (
    ["T_base", "dT", "tau", "rmse", "T_at_t0", "slope_initial", "t63"]
    + [f"curve_{k}" for k in range(N_CURVE_SAMPLES)]
    + ["degenerate"]
)


def extract_features_batch(fits: dict, series, times) -> np.ndarray:
    """Vectorized feature extraction. fits: dict of [N] arrays from
    fit_recovery_batch; series [N, T]; times [T]. Returns [N, 16] float64.

    The series is read in the fit's pixel blocks (`preprocess._blocks`),
    each converted to float64 on its own, so a float32 series is never
    copied whole. Every feature is per pixel, and the reductions of a block
    run in the memory layout of a whole-series conversion, so the blocks
    change no float.
    """
    y = np.asarray(series)
    t = np.asarray(times, dtype=np.float64)
    n, T = y.shape
    out = np.zeros((n, FEATURE_DIM), dtype=np.float64)

    a = np.asarray(fits["t_base"], dtype=np.float64)
    b = np.asarray(fits["dt"], dtype=np.float64)
    degen = np.asarray(fits["degenerate"], dtype=bool)

    out[:, 0] = a
    out[:, 1] = b
    out[:, 2] = fits["tau"]
    out[:, 3] = fits["rmse"]
    for s in _blocks(n):
        _series_features(np.asarray(y[s], dtype=np.float64), t, a[s], b[s], out[s])

    out[degen, :FEATURE_DIM - 1] = 0.0
    out[:, 15] = degen.astype(np.float64)
    return out


def _series_features(y, t, a, b, out):
    """Columns 4-14 of `out` [B, 16] from the rows y [B, T] and their fitted
    T_base `a` and dT `b`."""
    n, T = y.shape
    out[:, 4] = y[:, 0]

    k = min(3, T)
    tk = t[:k]
    tkc = tk - tk.mean()
    denom = np.sum(tkc**2)
    out[:, 5] = (y[:, :k] * tkc).sum(axis=1) / denom if denom > 0 else 0.0

    # t63: first linear-interp crossing of T_base - 0.368*dT; t_end if none
    target = a - np.exp(-1.0) * b
    above = y >= target[:, None]
    first = np.argmax(above, axis=1)
    never = ~above.any(axis=1)
    t63 = np.full(n, t[-1])
    hit0 = above[:, 0]
    t63[hit0] = t[0]
    interior = ~never & ~hit0
    if np.any(interior):
        idx = first[interior]
        y1 = y[interior, idx]
        y0 = y[interior, idx - 1]
        t1 = t[idx]
        t0 = t[idx - 1]
        dy = y1 - y0
        frac = np.where(np.abs(dy) > 1e-15, (target[interior] - y0) / dy, 0.0)
        t63[interior] = t0 + np.clip(frac, 0.0, 1.0) * (t1 - t0)
    out[:, 6] = t63

    # resample to 8 uniform times, then min-max normalize per pixel
    ts = np.linspace(t[0], t[-1], N_CURVE_SAMPLES)
    idx = np.searchsorted(t, ts, side="right") - 1
    idx = np.clip(idx, 0, T - 2)
    w = (ts - t[idx]) / (t[idx + 1] - t[idx])
    samp = y[:, idx] * (1 - w)[None, :] + y[:, idx + 1] * w[None, :]
    lo = samp.min(axis=1, keepdims=True)
    hi = samp.max(axis=1, keepdims=True)
    span = hi - lo
    normed = np.where(span > 1e-15, (samp - lo) / np.where(span > 0, span, 1.0), 0.0)
    out[:, 7 : 7 + N_CURVE_SAMPLES] = normed


@dataclass
class Standardizer:
    mean: np.ndarray
    scale: np.ndarray  # population std clamped below at 1e-12

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.mean.shape[0]:
            raise ValueError(
                f"dimension mismatch: got {x.shape[-1]}, expected {self.mean.shape[0]}"
            )
        out = np.subtract(x, self.mean)  # one new array, divided in place
        return np.divide(out, self.scale, out=out)

    def to_state(self) -> dict:
        return {"mean": self.mean, "scale": self.scale}

    @classmethod
    def from_state(cls, state: dict) -> "Standardizer":
        vector = state_array(np.float64, 1)
        mean, scale = state_fields(state, mean=vector, scale=vector)
        if mean.shape != scale.shape:
            raise FormatError(f"standardizer mean {mean.shape} and scale {scale.shape} differ")
        return cls(mean=mean, scale=scale)


def as_parts(features) -> list:
    """(matrix, row indices) parts whose rows, part after part, are the pooled
    rows: an [N, D] matrix is one part of all its rows, a list is parts."""
    if isinstance(features, np.ndarray):
        return [(features.astype(np.float64, copy=False), np.arange(len(features)))]
    return features


def fit_standardizer(train_matrix, rows=None) -> Standardizer:
    """Mean and clamped population std of the pooled rows x of `train_matrix`
    (`as_parts`) that the boolean `rows` selects (all rows if None).

    numpy sums axis 0 of a C-ordered matrix of two or more columns one row at
    a time, in order, and so does `_column_sums`, so the result equals
    `x[rows].mean(axis=0)` and `np.maximum(x[rows].std(axis=0), 1e-12)` to
    the bit. (numpy sums a single column pairwise; there the two can differ
    in the last bits.)
    """
    parts = as_parts(train_matrix)
    if rows is not None:
        ends = np.cumsum([len(r) for _, r in parts])
        parts = [(m, r[rows[end - len(r):end]]) for (m, r), end in zip(parts, ends)]
    n = sum(len(r) for _, r in parts)
    if not n or any(m.ndim != 2 or not m.shape[1] for m, _ in parts):
        raise ValueError("train matrix must be non-empty 2D")
    mean = _column_sums(parts, lambda b: b) / n

    def squared_deviation(b):
        d = b - mean
        return np.square(d, out=d)

    # as numpy's var: the mean sum of squared deviations, then its root
    scale = np.maximum(np.sqrt(_column_sums(parts, squared_deviation) / n), 1e-12)
    return Standardizer(mean=mean, scale=scale)


def _column_sums(parts, f):
    """Column sums of f(block) over the rows of `parts`, part after part, in
    the curve fit's blocks (`preprocess._blocks`). Each block after the first
    is reduced with the running sum as its first row, so the rows are added
    in the order of one reduction over all of them."""
    total = None
    for b in filter(len, (f(m[r[s]]) for m, r in parts for s in _blocks(len(r)))):
        total = np.add.reduce(b if total is None else np.concatenate([total[None], b]), axis=0)
    return total
