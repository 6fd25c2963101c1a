"""Registration, damaged-frame removal, and recovery-curve fitting."""

import hashlib
import itertools
import sys
import threading

import numpy as np
import pytest

from irzone.phantom import (
    EllipseSpec,
    OccluderSpec,
    PhantomConfig,
    ThermalSequence,
    generate_phantom,
    recovery_curve,
)
import irzone.preprocess as preprocess
from irzone.preprocess import (
    TAU_MAX,
    TAU_MIN,
    PipelineAbort,
    PreprocessReport,
    ShiftEstimate,
    _parabolic_refine,
    bilinear_sample,
    estimate_shift,
    fit_recovery,
    fit_recovery_batch,
    register_sequence,
    remove_damaged_frames,
)

from conftest import curve_sequence, small_config, smooth_texture


def shifted_pair(dx, dy, seed=0, size=50, pad=20):
    """(reference, target) where target content is reference moved by (dx, dy)."""
    big = smooth_texture((size + 2 * pad, size + 2 * pad), seed=seed)
    ref = big[pad : pad + size, pad : pad + size]
    if float(dx).is_integer() and float(dy).is_integer():
        dxi, dyi = int(dx), int(dy)
        tgt = big[pad - dyi : pad - dyi + size, pad - dxi : pad - dxi + size]
    else:
        tgt = bilinear_sample(big, -dx, -dy)[0][pad : pad + size, pad : pad + size]
    return ref, tgt


class TestBilinearSample:
    def test_integer_shift_is_exact_and_marks_exposed_border(self):
        f = smooth_texture((20, 24), seed=3)
        out, valid = bilinear_sample(f, 2.0, -1.0)  # out[y, x] = f[y - 1, x + 2]
        assert np.array_equal(out[1:, :-2], f[:-1, 2:])
        assert valid[1:, :-2].all()
        assert not valid[0].any() and not valid[:, -2:].any()


class TestEstimateShift:
    def test_identical_frames_give_zero(self):
        f = smooth_texture((40, 40), seed=1)
        est = estimate_shift(f, f)
        assert (est.dx, est.dy) == (0.0, 0.0)
        assert not est.fatal

    def test_integer_shift_recovered_to_subpixel_accuracy(self):
        # the parabolic peak refinement can move the estimate slightly off
        # the integer lattice, so allow a small sub-pixel tolerance
        ref, tgt = shifted_pair(3, -2, seed=2)
        est = estimate_shift(ref, tgt)
        assert abs(est.dx - 3.0) <= 0.1
        assert abs(est.dy - (-2.0)) <= 0.1
        assert not est.fatal

    def test_half_pixel_shift_within_quarter_pixel(self):
        ref, tgt = shifted_pair(0.5, 0.0, seed=3)
        est = estimate_shift(ref, tgt)
        assert abs(est.dx - 0.5) <= 0.25
        assert abs(est.dy) <= 0.25

    def test_shift_beyond_window_is_fatal(self):
        ref, tgt = shifted_pair(7, 0, seed=4)
        est = estimate_shift(ref, tgt, max_shift=5)
        assert est.fatal

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            estimate_shift(np.zeros((20, 20)), np.zeros((20, 21)))

    def test_rejects_tiny_frames(self):
        with pytest.raises(ValueError, match="16x16"):
            estimate_shift(np.zeros((8, 8)), np.zeros((8, 8)))


def loop_estimate_shift(reference, target, max_shift=5, highpass_sigma=4.0):
    """The direct 121-lag loop estimate_shift replaced, kept as its oracle."""
    from scipy.ndimage import gaussian_filter

    reference = np.asarray(reference, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    h, w = reference.shape
    if highpass_sigma > 0:
        reference = reference - gaussian_filter(reference, highpass_sigma, mode="nearest")
        target = target - gaussian_filter(target, highpass_sigma, mode="nearest")
    m = int(max_shift)
    scores = np.full((2 * m + 1, 2 * m + 1), -np.inf)
    for iy, ly in enumerate(range(-m, m + 1)):
        for ix, lx in enumerate(range(-m, m + 1)):
            # target content moved by (+lx, +ly): ref[y, x] ~ target[y+ly, x+lx]
            ry0, ry1 = max(0, -ly), min(h, h - ly)
            rx0, rx1 = max(0, -lx), min(w, w - lx)
            a = reference[ry0:ry1, rx0:rx1]
            b = target[ry0 + ly : ry1 + ly, rx0 + lx : rx1 + lx]
            a0 = a - a.mean()
            b0 = b - b.mean()
            denom = np.sqrt((a0 * a0).sum() * (b0 * b0).sum())
            scores[iy, ix] = (a0 * b0).sum() / denom if denom > 0 else 0.0
    py, px = np.unravel_index(np.argmax(scores), scores.shape)
    fatal = py in (0, 2 * m) or px in (0, 2 * m)
    dy = float(py - m)
    dx = float(px - m)
    if not fatal and scores[py, px] < 1.0 - 1e-9:  # a perfect peak is already exact
        dx += _parabolic_refine(scores[py, :], px)
        dy += _parabolic_refine(scores[:, px], py)
    peak = float(np.clip(scores[py, px], 0.0, 1.0))
    return ShiftEstimate(dx=dx, dy=dy, peak_score=peak, fatal=fatal)


def assert_matches_loop(reference, target, **kw):
    est = estimate_shift(reference, target, **kw)
    assert est == loop_estimate_shift(reference, target, **kw)
    return est


class TestEstimateShiftMatchesLoop:
    """The fast surface only picks which lags to score exactly, so every
    result must equal the direct loop's bit for bit."""

    @pytest.mark.parametrize("seed", [21, 22, 23])
    @pytest.mark.parametrize("highpass_sigma", [4.0, 0.0])
    def test_consecutive_phantom_frames(self, seed, highpass_sigma):
        rng = np.random.default_rng(seed)
        schedule = [tuple(v) for v in np.cumsum(rng.uniform(-0.6, 0.6, (30, 2)), axis=0)]
        config = small_config(shift_schedule=schedule, noise_sigma=0.03)
        seq, _ = generate_phantom(config, seed=seed)
        for i in range(1, seq.n_frames):
            assert_matches_loop(seq.data[i - 1], seq.data[i], highpass_sigma=highpass_sigma)

    def test_integer_shifts_including_fatal_boundary_peaks(self):
        fatal = []
        for d in range(-6, 7):
            for dx, dy in ((d, 0), (0, d), (d, -d), (d, 2)):
                ref, tgt = shifted_pair(dx, dy, seed=7, size=40, pad=8)
                fatal.append(assert_matches_loop(ref, tgt).fatal)
        assert any(fatal) and not all(fatal)

    def test_identical_frames_peak_at_one(self):
        f = smooth_texture((30, 40), seed=9)
        assert assert_matches_loop(f, f).peak_score == 1.0

    def test_constant_frames_have_no_denominator(self):
        flat = np.full((24, 24), 30.0)
        assert_matches_loop(flat, flat)
        assert_matches_loop(flat, smooth_texture((24, 24), seed=10))
        assert_matches_loop(smooth_texture((24, 24), seed=10), flat, highpass_sigma=0.0)

    def test_exact_ties_break_in_raster_order(self):
        # periodic in 4 rows and 3 columns: several lags score exactly 1.0
        periodic = np.tile(np.random.default_rng(13).normal(size=(4, 3)), (10, 14))
        for h, w in ((16, 25), (17, 37), (36, 40)):
            f = periodic[:h, :w]
            assert_matches_loop(f, f, highpass_sigma=0.0)
            assert_matches_loop(f, f)

    def test_near_constant_overlaps_are_scored_directly(self):
        # outside the textured corners every overlap is constant, and the
        # fast surface's variances there are rounding noise
        rng = np.random.default_rng(14)
        for k in range(1, 6):
            ref = np.full((36, 31), 30.0 + rng.normal())
            ref[:k, :k] += rng.normal(size=(k, k)) * 10.0 ** rng.uniform(-12, 0)
            tgt = np.full((36, 31), 30.0)
            tgt[-k:, -k:] += rng.normal(size=(k, k))
            assert_matches_loop(ref, tgt, highpass_sigma=0.0)
            assert_matches_loop(tgt, ref, highpass_sigma=0.0)

    @pytest.mark.parametrize("shape", [(16, 16), (16, 40), (45, 17)])
    def test_small_and_non_square_frames(self, shape):
        big = smooth_texture((shape[0] + 8, shape[1] + 8), seed=11)
        ref = big[4 : 4 + shape[0], 4 : 4 + shape[1]]
        tgt = big[3 : 3 + shape[0], 6 : 6 + shape[1]]  # content moved by (-2, +1)
        assert_matches_loop(ref, tgt)
        assert_matches_loop(ref, tgt, highpass_sigma=0.0)

    @pytest.mark.parametrize("max_shift", [1, 5, 7])
    def test_window_sizes(self, max_shift):
        for dx, dy in ((0, 0), (1, -1), (2.4, -0.7), (6, 3)):
            ref, tgt = shifted_pair(dx, dy, seed=12, size=36, pad=10)
            assert_matches_loop(ref, tgt, max_shift=max_shift)


class TestRegisterSequence:
    def test_seeded_run_matches_recorded_estimates(self):
        # recorded with the direct 121-lag loop; frame 5 jumps past the window
        schedule = [(0.0, 0.0), (0.4, 0.0), (0.9, -0.3), (1.3, -0.7), (1.3, -0.7),
                    (7.3, -0.7), (1.6, -1.2), (2.2, -1.5), (2.2, -1.5), (2.7, -1.1),
                    (3.1, -0.6), (3.1, -0.6)]
        config = PhantomConfig(width=96, height=72, n_frames=12, nwa_margin=8,
                               tumors=[EllipseSpec(center=(48.0, 36.0), axes=(14.0, 10.0))],
                               shift_schedule=schedule)
        seq, _ = generate_phantom(config, seed=5)
        _, report = register_sequence(seq)
        assert report.shifts == [ShiftEstimate(*v) for v in [
            (0.0, 0.0, 1.0, False),
            (0.386545274619879, 0.004345751055030993, 0.9699218976926802, False),
            (0.9053326878189764, -0.2635679027178377, 0.9686291124233798, False),
            (1.2685858007233561, -0.6841986657459824, 0.9580272353322439, False),
            (1.235539428553889, -0.7104075390504844, 0.9565343554570332, False),
            (5.0, -1.0, 0.6563755416590913, True),
            (1.5410982143188192, -1.155001119848492, 0.9048035461381934, False),
            (2.1249133846931008, -1.4503903600641668, 0.9441329663128375, False),
            (2.1247013875003455, -1.4398882065387686, 0.9495263193534803, False),
            (2.643726950792841, -1.008296426112348, 0.9624597831596089, False),
            (3.009430811563841, -0.5211734062924509, 0.9510094736266055, False),
            (2.998742731873218, -0.5203442933421123, 0.9606026485825732, False),
        ]]

    def test_zero_schedule_is_identity(self, clean_phantom):
        seq, _ = clean_phantom
        out, report = register_sequence(seq)
        assert np.array_equal(out.data, seq.data)
        assert all(not s.fatal for s in report.shifts)

    def test_registration_is_idempotent(self):
        schedule = [(0.4 * i % 2.0, 0.3 * i % 1.5) for i in range(30)]
        seq, _ = generate_phantom(small_config(shift_schedule=schedule), seed=6)
        once, _ = register_sequence(seq)
        twice, _ = register_sequence(once)
        assert float(np.max(np.abs(twice.data - once.data))) <= 1e-6

    def test_fatal_frame_listed_and_passed_through(self):
        schedule = [(0.0, 0.0)] * 30
        schedule[12] = (8.0, 0.0)  # beyond the search window
        schedule[13] = (8.0, 0.0)  # stays shifted so only the jump is fatal
        seq, _ = generate_phantom(small_config(shift_schedule=schedule), seed=6)
        _, report = register_sequence(seq)
        assert report.shifts[12].fatal

    def test_aborts_below_two_frames(self, clean_phantom):
        seq, _ = clean_phantom
        from irzone.phantom import ThermalSequence

        one = ThermalSequence(seq.data[:1], seq.timestamps[:1], seq.pixel_size)
        with pytest.raises(PipelineAbort):
            register_sequence(one)

    def test_report_serializes_to_lines(self, clean_phantom):
        seq, _ = clean_phantom
        _, report = register_sequence(seq)
        lines = report.lines()
        assert lines[0].startswith("kept ")
        assert any(line.startswith("frame 1 dx") for line in lines)


def drift_schedule(n, jump=None):
    """Sub-pixel drift on every frame, with an optional 7-px jump at `jump`."""
    schedule = [(0.45 * i % 2.4, -0.3 * i % 1.6) for i in range(n)]
    if jump is not None:
        schedule[jump] = (7.0, -1.0)
    return schedule


def sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class TestRegisterPreparedFrames:
    """Each frame's FFT and summed-area tables are built once and reused as
    the next reference after a zero or fatal shift. The shifts, the
    registered data and the valid mask are pinned to the values of filtering
    and scoring both frames afresh for every pair."""

    # name: (small_config overrides, seed, shifts sha, data+mask sha, frames moved)
    CASES = {
        "still": (dict(noise_sigma=0.03), 24, "93270bd1ff0c4edd", "6cf930b631615967", 0),
        "drift": (dict(noise_sigma=0.03, shift_schedule=drift_schedule(30)), 21,
                  "26095513aba8603e", "223d7fe846588986", 28),
        "fatal-jump": (dict(noise_sigma=0.03, shift_schedule=drift_schedule(30, jump=9)), 22,
                       "9433e594084d695e", "19466124e754c7f5", 27),
        "occluded": (dict(noise_sigma=0.03, shift_schedule=drift_schedule(30),
                          damaged_frames={4: OccluderSpec(), 17: OccluderSpec(x0=20, y0=10)}),
                     23, "5dca35c84cb3d17d", "35ee2cab1fc80817", 28),
    }

    @pytest.mark.parametrize("name, ahead", [
        pytest.param(name, ahead, id=name + ("-ahead" if ahead else ""))
        for name in CASES for ahead in (False, True)
    ])
    def test_shifts_and_data_match_pinned_hashes(self, name, ahead, monkeypatch):
        # with two CPUs, these frames are below AHEAD_MIN_PIXELS unless "-ahead"
        # lowers it to 0
        overrides, seed, shifts_sha, data_sha, moved = self.CASES[name]
        prepared, handed_out = [], []
        prepare, blurred_targets = preprocess._prepare, preprocess._blurred_targets
        monkeypatch.setattr(preprocess, "_prepare",
                            lambda *args: prepared.append(1) or prepare(*args))
        monkeypatch.setattr(preprocess, "_blurred_targets",
                            lambda *args: handed_out.append(1) or blurred_targets(*args))
        monkeypatch.setattr(preprocess, "_cpu_count", lambda: 2)
        if ahead:
            monkeypatch.setattr(preprocess, "AHEAD_MIN_PIXELS", 0)
        seq, _ = generate_phantom(small_config(**overrides), seed=seed)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6 if ahead else interval)  # frequent thread switches
        try:
            registered, report = register_sequence(seq)
        finally:
            sys.setswitchinterval(interval)
        assert len(handed_out) == ahead
        shifts = [(s.dx, s.dy, s.peak_score, s.fatal) for s in report.shifts]
        assert sha16(repr(shifts).encode()) == shifts_sha
        assert sha16(registered.data.tobytes() + report.valid_mask.tobytes()) == data_sha
        assert sum(s.dx != 0.0 or s.dy != 0.0 for s in report.shifts if not s.fatal) == moved
        # once per frame as a target, plus once more for every frame moved
        assert len(prepared) == seq.n_frames + moved

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(preprocess, "ThreadPoolExecutor", None)  # calling it fails
        monkeypatch.setattr(preprocess, "AHEAD_MIN_PIXELS", 0)
        monkeypatch.setattr(preprocess, "_cpu_count", lambda: 1)
        overrides, seed, shifts_sha, _, _ = self.CASES["drift"]
        seq, _ = generate_phantom(small_config(**overrides), seed=seed)
        _, report = register_sequence(seq)
        shifts = [(s.dx, s.dy, s.peak_score, s.fatal) for s in report.shifts]
        assert sha16(repr(shifts).encode()) == shifts_sha


class TestRemoveDamagedFrames:
    def test_occluded_frame_deleted_others_kept(self):
        config = small_config(damaged_frames={7: OccluderSpec()}, noise_sigma=0.03)
        seq, _ = generate_phantom(config, seed=8)
        registered, report = register_sequence(seq)
        cleaned, report = remove_damaged_frames(registered, report)
        assert (7, "foreign object") in report.deleted
        assert len(report.kept) == seq.n_frames - 1
        assert 7 not in report.kept

    def test_clean_sequence_keeps_everything(self, noisy_phantom):
        seq, _ = noisy_phantom
        registered, report = register_sequence(seq)
        cleaned, report = remove_damaged_frames(registered, report)
        assert report.deleted == []
        assert len(report.kept) == seq.n_frames

    def test_timestamps_of_kept_frames_preserved(self):
        config = small_config(damaged_frames={3: OccluderSpec()})
        seq, _ = generate_phantom(config, seed=8)
        registered, report = register_sequence(seq)
        cleaned, report = remove_damaged_frames(registered, report)
        assert np.array_equal(cleaned.timestamps, seq.timestamps[report.kept])

    def test_aborts_when_too_few_frames_survive(self):
        # 4 frames, 2 occluded at different corners: fewer than 3 remain
        config = small_config(
            n_frames=4,
            damaged_frames={
                1: OccluderSpec(x0=0, y0=0),
                2: OccluderSpec(x0=20, y0=10),
            },
        )
        seq, _ = generate_phantom(config, seed=8)
        registered, report = register_sequence(seq)
        with pytest.raises(PipelineAbort, match="remain"):
            remove_damaged_frames(registered, report)


def np_median_window(frames):
    """The np.median window median `_window_median` replaced, kept as its oracle."""
    return np.median(np.stack(frames), axis=0)


class TestWindowMedian:
    """The min/max networks give np.median's floats for windows of 1-4."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_combination_of_special_values(self, k, dtype):
        big = np.finfo(dtype).max
        pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 1e-7, big, -big, np.inf, -np.inf, np.nan],
                        dtype=dtype)
        frames = np.array(list(itertools.product(pool, repeat=k)), dtype=dtype).T
        with np.errstate(invalid="ignore", over="ignore"):
            got = preprocess._window_median(list(frames))
            want = np_median_window(list(frames))
        assert got.dtype == want.dtype
        # the sign of a zero within a tie is not fixed, so ±0 compare equal
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random_frames_with_ties(self, k, dtype):
        rng = np.random.default_rng(k)
        frames = (30.0 + rng.normal(size=(k, 64, 48))).astype(dtype)
        frames[:, ::3] = np.round(frames[:, ::3], 1)  # ties between frames
        got = preprocess._window_median(list(frames))
        assert got.dtype == dtype
        assert np.array_equal(got, np_median_window(list(frames)))

    @pytest.mark.parametrize("n_frames, fatal", [
        (3, ()), (4, ()), (4, (1,)), (5, (0, 3)), (6, (2,)), (12, (5,)), (30, ()),
    ])
    def test_deletions_match_np_median(self, n_frames, fatal, monkeypatch):
        # occluders and noise put many pixels near the 1 °C deviation limit
        rng = np.random.default_rng(n_frames + len(fatal))
        data = 30.0 + 0.4 * rng.normal(size=(n_frames, 24, 20))
        for i in np.flatnonzero(rng.random(n_frames) < 0.4):
            y0, x0 = rng.integers(0, 12, size=2)
            data[i, y0 : y0 + rng.integers(4, 12), x0 : x0 + 8] += rng.uniform(0.8, 3.0)
        seq = ThermalSequence(data, np.arange(n_frames, dtype=np.float64), 250e-6)
        report = PreprocessReport(
            shifts=[ShiftEstimate(0.0, 0.0, 1.0, fatal=i in fatal) for i in range(n_frames)]
        )

        def run():
            try:
                cleaned, rep = remove_damaged_frames(seq, report)
            except PipelineAbort as err:
                return str(err)
            return rep.deleted, rep.kept, cleaned.data.tobytes()

        got = run()
        monkeypatch.setattr(preprocess, "_window_median", np_median_window)
        assert got == run()


class TestFitRecovery:
    def test_noiseless_parameters_within_1e6_relative(self):
        times = np.arange(60, dtype=np.float64)
        series = recovery_curve((36.0, 10.0, 30.0), times)
        fit = fit_recovery(series, times)
        assert not fit.degenerate
        assert fit.t_base == pytest.approx(36.0, rel=1e-6)
        assert fit.dt == pytest.approx(10.0, rel=1e-6)
        assert fit.tau == pytest.approx(30.0, rel=1e-6)
        assert fit.rmse < 1e-6

    def test_constant_series_is_degenerate(self):
        times = np.arange(10, dtype=np.float64)
        fit = fit_recovery(np.full(10, 36.0), times)
        assert fit.degenerate
        assert abs(fit.dt) < 1e-6

    def test_junk_series_returns_degenerate_without_raising(self):
        rng = np.random.default_rng(0)
        times = np.arange(20, dtype=np.float64)
        series = 30.0 + 5.0 * rng.standard_normal(20)
        fit = fit_recovery(series, times)  # must not raise
        assert np.isfinite(fit.rmse)

    def test_noisy_tau_recovery_smoke(self):
        # a larger version of this check runs in the acceptance suite
        seq = curve_sequence(36.0, 10.0, 30.0, shape=(10, 20), noise=0.03, seed=5)
        series = seq.data.reshape(seq.n_frames, -1).T.astype(np.float64)
        res = fit_recovery_batch(series, seq.timestamps)
        ok = np.abs(res["tau"] - 30.0) <= 0.1 * 30.0
        assert np.mean(ok) >= 0.95

    def test_noisy_rmse_near_noise_level(self):
        seq = curve_sequence(36.0, 10.0, 30.0, shape=(10, 20), noise=0.03, seed=6)
        series = seq.data.reshape(seq.n_frames, -1).T.astype(np.float64)
        res = fit_recovery_batch(series, seq.timestamps)
        assert np.all(res["rmse"] >= 0.5 * 0.03)
        assert np.all(res["rmse"] <= 2.0 * 0.03)

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError, match="3 samples"):
            fit_recovery(np.array([1.0, 2.0]), np.array([0.0, 1.0]))

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError, match="increasing"):
            fit_recovery_batch(np.zeros((1, 3)), np.array([0.0, 2.0, 1.0]))

    def test_out_of_band_tau_flagged_degenerate(self):
        # a linear ramp drives the fitted time constant out of physical range
        times = np.arange(40, dtype=np.float64)
        series = 30.0 + 0.5 * times
        fit = fit_recovery(series, times)
        assert fit.degenerate

    def test_unconverged_pixels_reported_at_max_iter(self):
        times = np.arange(40, dtype=np.float64)
        rng = np.random.default_rng(6)
        series = curves([(36.0, 10.0, 15.0)] * 20, times)
        series += 0.03 * rng.standard_normal(series.shape)
        series[:5] = 36.0  # degenerate rows never iterate
        res = fit_recovery_batch(series, times, max_iter=1)
        assert np.count_nonzero(~res["converged"]) == 15
        assert fit_recovery_batch(series, times)["converged"].all()


def einsum_fit_recovery_batch(series, times, max_iter=50, tol=1e-9, degenerate_range=0.06):
    """The [M, T, 3] Jacobian-stack Gauss-Newton fit_recovery_batch replaced,
    kept as its oracle."""
    y = np.asarray(series, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    a = y.max(axis=1)
    b = a - y[:, 0]
    rng_y = y.max(axis=1) - y.min(axis=1)
    degenerate = rng_y < degenerate_range

    eps = 1e-6
    z = np.log(np.maximum(a[:, None] + eps - y, 1e-12))
    t_mean = t.mean()
    denom = np.sum((t - t_mean) ** 2)
    slope = (z * (t - t_mean)).sum(axis=1) / denom
    with np.errstate(divide="ignore"):
        tau = np.where(slope < -1e-12, -1.0 / slope, 30.0)
    tau = np.clip(tau, 1e-3, 1e7)
    b = np.maximum(b, 1e-9)

    active = ~degenerate
    for _ in range(max_iter):
        if not np.any(active):
            break
        ai, bi, taui = a[active], b[active], tau[active]
        e = np.exp(-t[None, :] / taui[:, None])          # [M, T]
        f = ai[:, None] - bi[:, None] * e
        r = y[active] - f
        # Jacobian of f wrt (a, b, tau)
        j_a = np.ones_like(e)
        j_b = -e
        j_tau = -bi[:, None] * e * (t[None, :] / (taui**2)[:, None])
        J = np.stack([j_a, j_b, j_tau], axis=2)          # [M, T, 3]
        JtJ = np.einsum("mti,mtj->mij", J, J)
        Jtr = np.einsum("mti,mt->mi", J, r)
        JtJ += 1e-12 * np.eye(3)[None, :, :]
        step = np.linalg.solve(JtJ, Jtr[:, :, None])[:, :, 0]
        a_new = ai + step[:, 0]
        b_new = bi + step[:, 1]
        tau_new = np.clip(taui + step[:, 2], 1e-3, 1e7)
        a[active], b[active], tau[active] = a_new, b_new, tau_new
        norms = np.linalg.norm(step, axis=1)
        still = np.zeros_like(active)
        still[np.flatnonzero(active)[norms >= tol]] = True
        active = still

    e = np.exp(-t[None, :] / np.clip(tau, 1e-3, 1e7)[:, None])
    resid = y - (a[:, None] - b[:, None] * e)
    rmse = np.sqrt(np.mean(resid**2, axis=1))
    degenerate = degenerate | (tau < TAU_MIN) | (tau > TAU_MAX) | ~np.isfinite(rmse)
    return {
        "t_base": a,
        "dt": b,
        "tau": tau,
        "rmse": np.where(np.isfinite(rmse), rmse, 0.0),
        "degenerate": degenerate,
    }


def assert_fit_matches_einsum(series, times, **kw):
    res = fit_recovery_batch(series, times, **kw)
    oracle = einsum_fit_recovery_batch(series, times, **kw)
    for key, want in oracle.items():
        assert res[key].tobytes() == want.tobytes(), key
    return res


def cleaned_phantom_series(seed, dtype=np.float64, **overrides):
    """[N, T] series and times of a 96x72x40 phantom. In float32 the series is
    the transposed view of the frames that the pipeline fits."""
    config = PhantomConfig(width=96, height=72, n_frames=40, noise_sigma=0.03, **overrides)
    seq, _ = generate_phantom(config, seed=seed)
    cleaned, _ = remove_damaged_frames(*register_sequence(seq))
    series = cleaned.data.reshape(cleaned.n_frames, -1).T.astype(dtype, copy=False)
    return series, cleaned.timestamps


def curves(params, times):
    """One recovery curve per (t_base, dt, tau) row."""
    return np.array([recovery_curve(p, times) for p in params], dtype=np.float64)


class TestFitRecoveryMatchesEinsum:
    """The time-major normal equations add every sum in the einsum's order,
    so each output array must equal the Jacobian-stack loop's byte for byte."""

    @pytest.mark.parametrize("seed", [12, 13])
    def test_consecutive_phantoms_down_to_one_active_pixel(self, seed, monkeypatch):
        sizes = []
        step = preprocess._gauss_newton_step

        def recording_step(yT, *args):
            sizes.append(yT.shape[1])
            return step(yT, *args)

        monkeypatch.setattr(preprocess, "_gauss_newton_step", recording_step)
        assert_fit_matches_einsum(*cleaned_phantom_series(seed))
        assert min(sizes) == 1  # one pixel left iterating alone

    def test_constant_and_degenerate_rows(self):
        times = np.arange(30, dtype=np.float64)
        rng = np.random.default_rng(1)
        rows = [
            np.full(30, 36.0),
            np.zeros(30),
            36.0 + 0.01 * rng.standard_normal(30),  # range below the noise floor
            np.where(times == 9, 37.0, 36.0),         # one spike
            recovery_curve((36.0, 10.0, 12.0), times),
        ]
        res = assert_fit_matches_einsum(np.array(rows), times)
        assert res["degenerate"][:3].all()

    def test_single_pixel_fit(self):
        times = np.arange(50, dtype=np.float64)
        series = recovery_curve((36.0, 8.0, 20.0), times)
        series = series + 0.03 * np.random.default_rng(2).standard_normal(50)
        fit = fit_recovery(series, times)
        oracle = einsum_fit_recovery_batch(series[None, :], times)
        for key in ("t_base", "dt", "tau", "rmse", "degenerate"):
            assert np.asarray(getattr(fit, key)).tobytes() == oracle[key][0].tobytes(), key

    @pytest.mark.parametrize("max_iter", [1, 2, 5])
    def test_max_iter_exhaustion(self, max_iter):
        series, times = cleaned_phantom_series(3)
        res = assert_fit_matches_einsum(series, times, max_iter=max_iter)
        assert not res["converged"].all()

    def test_exp_underflow_at_small_tau(self):
        # t / tau passes 745 within every series, and at tau 1e-3 on its first
        # sample, so exp(-t / tau) is 0 at every time of that pixel
        times = np.arange(8.0, 400.0, 8.0)
        params = [(36.0, 10.0, tau) for tau in (1e-3, 0.05, 0.3, 2.0)]
        series = curves(params, times)
        series[1] += 0.03 * np.random.default_rng(3).standard_normal(len(times))
        assert_fit_matches_einsum(series, times)

    def test_non_uniform_times_after_frame_deletion(self):
        series, times = cleaned_phantom_series(4, damaged_frames={7: OccluderSpec()})
        assert np.ptp(np.diff(times)) > 0
        assert_fit_matches_einsum(series, times)

    def test_three_samples(self):
        times = np.array([0.0, 4.0, 30.0])
        rng = np.random.default_rng(5)
        series = curves([(36.0, 10.0, tau) for tau in (3.0, 10.0, 40.0)], times)
        assert_fit_matches_einsum(series + 0.05 * rng.standard_normal(series.shape), times)

    def test_exact_and_inverted_curves(self):
        times = np.arange(60, dtype=np.float64)
        exact = curves([(36.0, 10.0, 30.0), (34.0, 4.0, 8.0), (37.0, 1.0, 200.0)], times)
        assert_fit_matches_einsum(exact, times)
        assert_fit_matches_einsum(72.0 - exact, times)  # cooling instead of warming


class TestFitRecoveryWorkers:
    """Pixel blocks on a thread pool: the same bytes for any worker count.
    A float32 series, converted block by block, fits to the bytes of its
    float64 copy; the oracle converts the whole series up front."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_same_bytes_for_any_worker_count(self, workers, monkeypatch):
        monkeypatch.setattr(preprocess, "_cpu_count", lambda: workers)
        for dtype in (np.float64, np.float32):
            series, times = cleaned_phantom_series(12, dtype)
            assert_fit_matches_einsum(series, times)
            assert_fit_matches_einsum(series, times, max_iter=2)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 2, 16 * 7, 16 * 7 + 1, 16 * 7 + 2, 24 * 10 + 1])
    def test_small_blocks_and_a_leftover_row(self, rows, workers, monkeypatch):
        # the series the pipeline fits is a transposed, not C-ordered array;
        # 16 * 7 + 1 and 16 * 15 + 1 are one past a multiple of the block
        monkeypatch.setattr(preprocess, "_cpu_count", lambda: workers)
        monkeypatch.setattr(preprocess, "BLOCK", 16)
        for dtype in (np.float64, np.float32):
            series, times = cleaned_phantom_series(13, dtype)
            assert not series.flags.c_contiguous
            for part in (series[:rows], np.ascontiguousarray(series[:rows])):
                assert_fit_matches_einsum(part, times)

    def test_more_workers_than_cores_with_frequent_switches(self, monkeypatch):
        # each block must have its scratch to itself; a shared one corrupts steps
        monkeypatch.setattr(preprocess, "_cpu_count", lambda: 8)
        monkeypatch.setattr(preprocess, "BLOCK", 24)
        series, times = cleaned_phantom_series(12, np.float32)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert_fit_matches_einsum(series[:1500], times)
            assert_fit_matches_einsum(series[:1500].astype(np.float64), times)
        finally:
            sys.setswitchinterval(interval)

    def test_one_worker_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(preprocess, "ThreadPoolExecutor", None)  # calling it fails
        monkeypatch.setattr(preprocess, "_cpu_count", lambda: 1)
        series, times = cleaned_phantom_series(12)
        assert_fit_matches_einsum(series[:600], times)
        monkeypatch.setattr(preprocess, "_cpu_count", lambda: 8)
        fit_recovery(series[0], times)  # one block: never more workers than blocks

    def test_worker_count_follows_the_cpus_this_process_may_use(self, monkeypatch):
        pools = []

        class RecordingPool(preprocess.ThreadPoolExecutor):
            def __init__(self, workers):
                pools.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(preprocess, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(preprocess, "_cpu_count", lambda: 3)
        series, times = cleaned_phantom_series(12)
        assert len(series) == 96 * 72
        fit_recovery_batch(series, times)  # 3 blocks of 2,304 pixels
        fit_recovery_batch(series[:preprocess.BLOCK], times)  # one block: no pool
        monkeypatch.setattr(preprocess, "_cpu_count", lambda: 2)
        fit_recovery_batch(series[:preprocess.BLOCK + 1], times)
        assert pools == [3, 2]

    @staticmethod
    def assert_blocks(n, workers):
        blocks = preprocess._blocks(n, workers)
        sizes = [s.stop - s.start for s in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert max(sizes) - min(sizes) <= 1
        return sizes

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 6912, 8192, 8193, 76800])
    def test_gauss_newton_blocks_are_balanced(self, n, workers):
        sizes = self.assert_blocks(n, workers)
        assert max(sizes) <= preprocess.BLOCK
        assert len(sizes) == 1 if n <= preprocess.BLOCK else len(sizes) % workers == 0
        if (n, workers) == (6912, 2):  # a 96x72 frame: 2 x 3456, not 4096 + 2816
            assert sizes == [3456, 3456]

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    def test_blocks_never_hold_a_single_row_of_several(self, block, monkeypatch):
        # numpy reduces a one-row block of a non-C-ordered array with other rounding
        monkeypatch.setattr(preprocess, "BLOCK", block)
        assert preprocess._blocks(0) == [slice(0, 0)]
        for n in range(1, 40):
            for workers in (1, 2, 3, 4, 7):
                sizes = self.assert_blocks(n, workers)
                assert min(sizes) >= 2 or n == 1
                if n <= block:
                    assert len(sizes) == 1
                else:  # a multiple of the workers, unless capped at n // 2 blocks
                    assert len(sizes) % workers == 0 and max(sizes) <= block \
                        or len(sizes) == n // 2

    def test_a_single_block_steps_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(preprocess, "_cpu_count", lambda: 2)
        monkeypatch.setattr(preprocess, "BLOCK", 24)
        events = []
        blocks_of, step = preprocess._blocks, preprocess._gauss_newton_step

        def recording_blocks(n, workers=1):
            blocks = blocks_of(n, workers)
            if workers > 1:  # the pool's size and each Gauss-Newton iteration
                events.append(len(blocks))
            return blocks

        def recording_step(yT, *args):
            events.append(threading.current_thread() is threading.main_thread())
            return step(yT, *args)

        monkeypatch.setattr(preprocess, "_blocks", recording_blocks)
        monkeypatch.setattr(preprocess, "_gauss_newton_step", recording_step)
        series, times = cleaned_phantom_series(12)
        assert_fit_matches_einsum(series[:300], times)
        iterations = []
        for e in events:
            if type(e) is int:
                iterations.append((e, []))
            else:
                iterations[-1][1].append(e)
        assert iterations.pop(0) == (len(blocks_of(300, 2)), [])  # sizes the pool
        assert {len(on_main) == count for count, on_main in iterations} == {True}
        assert {count > 1 for count, _ in iterations} == {False, True}
        for count, on_main in iterations:
            assert count % 2 == 0 and not any(on_main) if count > 1 else on_main == [True]

    @pytest.mark.parametrize("columns", [1, 2, 3, 17, 4096])
    def test_time_sum_adds_rows_in_order_from_zero(self, columns):
        rng = np.random.default_rng(columns)
        x = rng.normal(size=(60, columns)) * 10.0 ** rng.integers(-8, 8, size=(60, columns))
        x[:, ::2] = rng.choice([0.0, -0.0, 1e-300, 1e300, -1e300], size=x[:, ::2].shape)
        x[:, 1::3] = -0.0
        want = np.zeros(columns)
        with np.errstate(over="ignore", invalid="ignore"):
            for row in x:
                want += row
            assert preprocess._time_sum(x).tobytes() == want.tobytes()
