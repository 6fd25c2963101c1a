"""Registration, damaged-frame removal, and recovery-curve fitting."""

import numpy as np
import pytest

from irzone.phantom import OccluderSpec, generate_phantom, recovery_curve
from irzone.preprocess import (
    PipelineAbort,
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


class TestRegisterSequence:
    def test_zero_schedule_is_identity(self, clean_phantom):
        seq, _, _ = clean_phantom
        out, report = register_sequence(seq)
        assert np.array_equal(out.data, seq.data)
        assert all(not s.fatal for s in report.shifts)

    def test_registration_is_idempotent(self):
        schedule = [(0.4 * i % 2.0, 0.3 * i % 1.5) for i in range(30)]
        seq, _, _ = generate_phantom(small_config(shift_schedule=schedule), seed=6)
        once, _ = register_sequence(seq)
        twice, _ = register_sequence(once)
        assert float(np.max(np.abs(twice.data - once.data))) <= 1e-6

    def test_fatal_frame_listed_and_passed_through(self):
        schedule = [(0.0, 0.0)] * 30
        schedule[12] = (8.0, 0.0)  # beyond the search window
        schedule[13] = (8.0, 0.0)  # stays shifted so only the jump is fatal
        seq, _, _ = generate_phantom(small_config(shift_schedule=schedule), seed=6)
        _, report = register_sequence(seq)
        assert report.shifts[12].fatal

    def test_aborts_below_two_frames(self, clean_phantom):
        seq, _, _ = clean_phantom
        from irzone.phantom import ThermalSequence

        one = ThermalSequence(seq.data[:1], seq.timestamps[:1], seq.pixel_size)
        with pytest.raises(PipelineAbort):
            register_sequence(one)

    def test_report_serializes_to_lines(self, clean_phantom):
        seq, _, _ = clean_phantom
        _, report = register_sequence(seq)
        lines = report.lines()
        assert lines[0].startswith("kept ")
        assert any(line.startswith("frame 1 dx") for line in lines)


class TestRemoveDamagedFrames:
    def test_occluded_frame_deleted_others_kept(self):
        config = small_config(damaged_frames={7: OccluderSpec()}, noise_sigma=0.03)
        seq, _, _ = generate_phantom(config, seed=8)
        registered, report = register_sequence(seq)
        cleaned, report = remove_damaged_frames(registered, report)
        assert (7, "foreign object") in report.deleted
        assert len(report.kept) == seq.n_frames - 1
        assert 7 not in report.kept

    def test_clean_sequence_keeps_everything(self, noisy_phantom):
        seq, _, _ = noisy_phantom
        registered, report = register_sequence(seq)
        cleaned, report = remove_damaged_frames(registered, report)
        assert report.deleted == []
        assert len(report.kept) == seq.n_frames

    def test_timestamps_of_kept_frames_preserved(self):
        config = small_config(damaged_frames={3: OccluderSpec()})
        seq, _, _ = generate_phantom(config, seed=8)
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
        seq, _, _ = generate_phantom(config, seed=8)
        registered, report = register_sequence(seq)
        with pytest.raises(PipelineAbort, match="remain"):
            remove_damaged_frames(registered, report)


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
