"""The fit and the features read the float32 frames block by block.

`preprocess_sequence` hands `fit_recovery_batch` and `extract_features_batch`
an [N, T] view of the registered float32 frames, and each converts its own
blocks to float64. The reference here is the whole-series float64 path it
replaced: one float64 copy of the series, fitted at once by the Jacobian-stack
oracle of test_preprocess.py and featurised at once by the feature code as it
was. Every output must equal the reference's byte for byte. The fit's own
block and worker cases, in float32 and float64, are in test_preprocess.py.
"""

import tracemalloc

import numpy as np
import pytest

import irzone.preprocess as preprocess
from irzone.features import FEATURE_DIM, N_CURVE_SAMPLES, extract_features_batch
from irzone.phantom import OccluderSpec, PhantomConfig, generate_phantom
from irzone.pipeline import preprocess_sequence
from irzone.preprocess import register_sequence, remove_damaged_frames

from conftest import small_config
from test_preprocess import (
    assert_fit_matches_einsum,
    cleaned_phantom_series,
    drift_schedule,
    einsum_fit_recovery_batch,
)


def whole_series_features(fits, series, times):
    """`extract_features_batch` before it read the series in blocks, kept as
    its oracle."""
    y = np.asarray(series, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    n, T = y.shape
    out = np.zeros((n, FEATURE_DIM), dtype=np.float64)

    a = np.asarray(fits["t_base"], dtype=np.float64)
    b = np.asarray(fits["dt"], dtype=np.float64)
    tau = np.asarray(fits["tau"], dtype=np.float64)
    rmse = np.asarray(fits["rmse"], dtype=np.float64)
    degen = np.asarray(fits["degenerate"], dtype=bool)

    out[:, 0] = a
    out[:, 1] = b
    out[:, 2] = tau
    out[:, 3] = rmse
    out[:, 4] = y[:, 0]

    k = min(3, T)
    tk = t[:k]
    tkc = tk - tk.mean()
    denom = np.sum(tkc**2)
    out[:, 5] = (y[:, :k] * tkc).sum(axis=1) / denom if denom > 0 else 0.0

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

    out[degen, :FEATURE_DIM - 1] = 0.0
    out[:, 15] = degen.astype(np.float64)
    return out


def whole_series_preprocess(seq):
    """Features and report of `preprocess_sequence` before it passed the
    float32 frames on."""
    cleaned, rep = remove_damaged_frames(*register_sequence(seq))
    y = frames_series(cleaned).astype(np.float64)
    fits = einsum_fit_recovery_batch(y, cleaned.timestamps)
    fits["degenerate"] = fits["degenerate"] | ~rep.valid_mask.ravel()
    return whole_series_features(fits, y, cleaned.timestamps), rep


def frames_series(cleaned):
    """The [N, T] float32 view of the frames that `preprocess_sequence` fits."""
    return cleaned.data.reshape(cleaned.n_frames, -1).T


# name: (small_config overrides, seed, frames deleted, frames moved)
SEQUENCES = {
    "still": (dict(noise_sigma=0.03), 24, 0, 0),
    "drift": (dict(noise_sigma=0.03, shift_schedule=drift_schedule(30)), 21, 0, 28),
    "fatal-jump": (dict(noise_sigma=0.03, shift_schedule=drift_schedule(30, jump=9)), 22, 1, 27),
    "occluded": (dict(noise_sigma=0.03, shift_schedule=drift_schedule(30),
                      damaged_frames={4: OccluderSpec(), 17: OccluderSpec(x0=20, y0=10)}),
                 23, 2, 28),
}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("name", list(SEQUENCES))
def test_preprocessed_features_match_the_whole_series_path(name, cpus, monkeypatch):
    monkeypatch.setattr(preprocess, "_cpu_count", lambda: cpus)
    overrides, seed, deleted, moved = SEQUENCES[name]
    seq, _ = generate_phantom(small_config(**overrides), seed=seed)
    want, rep = whole_series_preprocess(seq)
    assert len(rep.deleted) == deleted
    assert sum(s.dx != 0.0 or s.dy != 0.0 for s in rep.shifts if not s.fatal) == moved
    assert preprocess_sequence(seq).features.tobytes() == want.tobytes()


@pytest.mark.parametrize("small", [True, False], ids=["block-40", "module-block"])
def test_feature_blocks_match_the_whole_series_path(small, monkeypatch):
    block = 40 if small else preprocess.BLOCK
    monkeypatch.setattr(preprocess, "BLOCK", block)
    series, times = cleaned_phantom_series(31, np.float32)
    for rows in (1, 2, block, block + 1, len(series)):
        part = series[:rows]
        fits = assert_fit_matches_einsum(part, times)
        want = whole_series_features(fits, part.astype(np.float64), times)
        for got in (part, np.ascontiguousarray(part)):
            assert extract_features_batch(fits, got, times).tobytes() == want.tobytes()


def test_undamaged_sequence_keeps_the_registered_frames():
    seq, _ = generate_phantom(small_config(noise_sigma=0.03), seed=24)
    registered, report = register_sequence(seq)
    cleaned, report = remove_damaged_frames(registered, report)
    assert report.deleted == [] and cleaned.data is registered.data

    seq, _ = generate_phantom(small_config(damaged_frames={6: OccluderSpec()}), seed=8)
    registered, report = register_sequence(seq)
    cleaned, report = remove_damaged_frames(registered, report)
    assert report.deleted and not np.shares_memory(cleaned.data, registered.data)


def test_preprocessing_allocates_at_most_three_and_a_half_frame_stacks(monkeypatch):
    # the whole-series float64 path peaked at 6.2 times the frames here; the
    # fit holds one scratch set of about 10 MiB per worker, so two are fixed
    monkeypatch.setattr(preprocess, "_cpu_count", lambda: 2)
    seq, _ = generate_phantom(PhantomConfig(), seed=0)  # 320x240x60
    tracemalloc.start()
    try:
        preprocess_sequence(seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * seq.data.nbytes, peak / seq.data.nbytes
