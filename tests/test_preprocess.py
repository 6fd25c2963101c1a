"""Registration, damaged-frame removal, and recovery-curve fitting."""

import itertools
import threading

import numpy as np
import pytest

from irzone.io_formats import ThermalSequence
from irzone.phantom import (
    EllipseSpec,
    OccluderSpec,
    PhantomConfig,
    generate_phantom,
    recovery_curve,
)
import irzone.preprocess as preprocess
from irzone import forked
from irzone.pipeline import preprocess_sequence
from irzone.preprocess import (
    TAU_MAX,
    TAU_MIN,
    PipelineAbort,
    PreprocessReport,
    ShiftEstimate,
    _parabolic_refine,
    bilinear_sample,
    estimate_shift,
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


def loop_register_sequence(seq):
    """`register_sequence` written out with `loop_estimate_shift`, kept as its
    oracle: each frame is filtered and scored afresh against the last kept
    frame, a shift below SNAP_EPS snaps to zero, a fatal frame passes
    through and leaves the reference as it was, and a moved frame is
    aligned with `bilinear_sample`. Returns (shifts, data, valid mask)."""
    data = seq.data.copy()
    valid = np.ones(seq.frame_shape, dtype=bool)
    shifts = [ShiftEstimate(0.0, 0.0, 1.0)]
    reference = data[0]
    for i in range(1, seq.n_frames):
        est = loop_estimate_shift(reference, seq.data[i])
        if not est.fatal and max(abs(est.dx), abs(est.dy)) < preprocess.SNAP_EPS:
            est = ShiftEstimate(0.0, 0.0, est.peak_score)
        shifts.append(est)
        if est.fatal:
            continue
        if est.dx != 0.0 or est.dy != 0.0:
            aligned, v = bilinear_sample(seq.data[i].astype(np.float64), est.dx, est.dy)
            data[i] = aligned.astype(np.float32)
            valid &= v
        reference = data[i]
    return shifts, data, valid


def assert_registration_matches_loop(seq, registered, report):
    """The shifts, the data bytes and the valid mask of `register_sequence`
    equal the oracle's, computed on the machine that runs the test."""
    shifts, data, valid = loop_register_sequence(seq)
    assert report.shifts == shifts
    assert registered.data.dtype == data.dtype
    assert registered.data.tobytes() == data.tobytes()
    assert np.array_equal(report.valid_mask, valid)


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


def count_prepares(monkeypatch):
    """A list that gets one item per `_prepare` call made in this process."""
    prepared, prepare = [], preprocess._prepare
    monkeypatch.setattr(preprocess, "_prepare",
                        lambda *args: prepared.append(1) or prepare(*args))
    return prepared


class TestRegisterSequence:
    def test_seeded_run_matches_recorded_estimates(self):
        # frame 5 jumps past the window
        schedule = [(0.0, 0.0), (0.4, 0.0), (0.9, -0.3), (1.3, -0.7), (1.3, -0.7),
                    (7.3, -0.7), (1.6, -1.2), (2.2, -1.5), (2.2, -1.5), (2.7, -1.1),
                    (3.1, -0.6), (3.1, -0.6)]
        config = PhantomConfig(width=96, height=72, n_frames=12, nwa_margin=8,
                               tumors=[EllipseSpec(center=(48.0, 36.0), axes=(14.0, 10.0))],
                               shift_schedule=schedule)
        seq, _ = generate_phantom(config, seed=5)
        registered, report = register_sequence(seq)
        assert_registration_matches_loop(seq, registered, report)
        # the integer peak of a fatal frame is the same on every CPU code path
        assert [i for i, s in enumerate(report.shifts) if s.fatal] == [5]
        assert (report.shifts[5].dx, report.shifts[5].dy) == (5.0, -1.0)

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
        one = ThermalSequence(seq.data[:1], seq.timestamps[:1], seq.pixel_size)
        with pytest.raises(PipelineAbort):
            register_sequence(one)

    @pytest.mark.parametrize("shape", [(12, 12), (15, 64), (48, 15)])
    def test_aborts_below_16x16_before_preparing_a_frame(self, shape, monkeypatch):
        prepared = count_prepares(monkeypatch)
        seq = ThermalSequence(np.full((5, *shape), 30.0, np.float32), np.arange(5.0), 0.5)
        with pytest.raises(PipelineAbort, match="frames must be at least 16x16"):
            register_sequence(seq)
        assert prepared == []

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


def fork_registration(monkeypatch, workers):
    """Registration of any frame size in `workers` forked runs, whatever
    this machine has."""
    monkeypatch.setattr(preprocess, "_cpu_count", lambda: workers)
    monkeypatch.setattr(forked, "_cpu_count", lambda: workers)
    monkeypatch.setattr(preprocess, "FORK_MIN_PIXELS", 0)


def moved_and_fatal(report):
    """(frames moved, frames flagged fatal) of a registration report."""
    shifts = list(enumerate(report.shifts))
    return ([i for i, s in shifts if not s.fatal and (s.dx != 0.0 or s.dy != 0.0)],
            [i for i, s in shifts if s.fatal])


class TestRegisterPreparedFrames:
    """Each frame's FFT and summed-area tables are built once and reused as
    the next reference after a zero or fatal shift. The shifts, the
    registered data and the valid mask equal those of filtering and scoring
    both frames afresh for every pair (`loop_register_sequence`), in one
    process and with the frames scored "-ahead" in forked runs."""

    # name: (small_config overrides, seed, frames moved, fatal frames)
    CASES = {
        "still": (dict(noise_sigma=0.03), 24, 0, []),
        "drift": (dict(noise_sigma=0.03, shift_schedule=drift_schedule(30)), 21, 28, []),
        "fatal-jump": (dict(noise_sigma=0.03, shift_schedule=drift_schedule(30, jump=9)), 22,
                       27, [9]),
        "occluded": (dict(noise_sigma=0.03, shift_schedule=drift_schedule(30),
                          damaged_frames={4: OccluderSpec(), 17: OccluderSpec(x0=20, y0=10)}),
                     23, 28, []),
        # frame 9 jumps out of the window and back; no frame moves
        "fatal-only": (dict(noise_sigma=0.03, shift_schedule=[(0.0, 0.0)] * 9 + [(7.0, -1.0)]
                            + [(0.0, 0.0)] * 20), 22, 0, [9]),
    }

    @pytest.mark.parametrize("name, ahead", [
        pytest.param(name, ahead, id=name + ("-ahead" if ahead else ""))
        for name in CASES for ahead in (False, True)
    ])
    def test_shifts_and_data_match_pinned_hashes(self, name, ahead, monkeypatch):
        # with two CPUs, these frames are below FORK_MIN_PIXELS unless "-ahead"
        # lowers it to 0
        overrides, seed, moved, fatal = self.CASES[name]
        prepared = count_prepares(monkeypatch)
        monkeypatch.setattr(preprocess, "_cpu_count", lambda: 2)
        if ahead:
            fork_registration(monkeypatch, 2)
        seq, _ = generate_phantom(small_config(**overrides), seed=seed)
        registered, report = register_sequence(seq)
        assert sum(s.dx != 0.0 or s.dy != 0.0 for s in report.shifts if not s.fatal) == moved
        assert [i for i, s in enumerate(report.shifts) if s.fatal] == fatal
        if not ahead:  # a worker's calls are not seen here
            # once per frame as a target, plus once more for every frame moved
            assert len(prepared) == seq.n_frames + moved
        assert_registration_matches_loop(seq, registered, report)

    @pytest.mark.parametrize("name, ahead", [
        pytest.param(name, ahead, id=name + ("-ahead" if ahead else ""))
        for name in CASES for ahead in (False, True)
    ])
    def test_frames_are_shared_until_one_moves(self, name, ahead, monkeypatch):
        overrides, seed, moved, fatal = self.CASES[name]
        monkeypatch.setattr(preprocess, "_cpu_count", lambda: 2)
        if ahead:
            fork_registration(monkeypatch, 2)
        seq, _ = generate_phantom(small_config(**overrides), seed=seed)
        before = seq.data.tobytes()
        seq.data.flags.writeable = False  # registration never writes its input
        registered, report = register_sequence(seq)
        assert seq.data.tobytes() == before
        assert [i for i, s in enumerate(report.shifts) if s.fatal] == fatal
        assert (registered.data is seq.data) == (moved == 0)
        if moved:
            assert registered.data.flags.writeable and registered.data.flags.c_contiguous
        assert_registration_matches_loop(seq, registered, report)

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        # nor a process: the runs are the serial loop in this one
        monkeypatch.setattr(preprocess, "FORK_MIN_PIXELS", 0)
        monkeypatch.setattr(preprocess, "_cpu_count", lambda: 1)
        monkeypatch.setattr(forked.os, "fork", None)  # calling it fails
        overrides, seed, _, _ = self.CASES["drift"]
        seq, _ = generate_phantom(small_config(**overrides), seed=seed)
        threads = threading.active_count()
        registered, report = register_sequence(seq)
        assert threading.active_count() == threads
        assert_registration_matches_loop(seq, registered, report)


def step_schedule(n, steps):
    """Still frames whose content steps by (1, 1) px at each frame in
    `steps` and stays there, so that every frame from the first step on
    moves onto frame 0's grid. A frame whose negated index is in `steps`
    jumps out of the window and back."""
    dx, schedule = 0.0, []
    for i in range(n):
        if i in steps:
            dx += 1.0
        schedule.append((7.0, -1.0) if -i in steps else (dx, dx))
    return schedule


class TestRegisterInForkedRuns:
    """Frames 1 … n - 1 split into W runs scored at once, each against the
    unmoved frame before it; from the first frame that is fatal or moves the
    walk goes on with the serial loop. Every case equals the loop oracle."""

    N = 30

    @classmethod
    def worker_start(cls, workers):
        """The first frame of the last run."""
        return 1 + (cls.N - 1) * (workers - 1) // workers

    def register(self, monkeypatch, workers, schedule, seed=31):
        fork_registration(monkeypatch, workers)
        seq, _ = generate_phantom(small_config(noise_sigma=0.03, n_frames=len(schedule),
                                               shift_schedule=schedule), seed=seed)
        registered, report = register_sequence(seq)
        assert_registration_matches_loop(seq, registered, report)
        return moved_and_fatal(report)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_moved_frame_inside_a_workers_run(self, workers, monkeypatch):
        assert self.worker_start(workers) < 25
        moved = self.register(monkeypatch, workers, step_schedule(self.N, {25}))
        assert moved == (list(range(25, self.N)), [])

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("offset", [-1, 0], ids=["last-of-a-run", "first-of-the-next"])
    def test_a_moved_frame_at_a_run_boundary(self, workers, offset, monkeypatch):
        first = self.worker_start(workers) + offset
        moved = self.register(monkeypatch, workers, step_schedule(self.N, {first}))
        assert moved == (list(range(first, self.N)), [])

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_fatal_frame_at_a_run_boundary(self, workers, monkeypatch):
        lo = self.worker_start(workers)
        assert self.register(monkeypatch, workers, step_schedule(self.N, {-lo})) == ([], [lo])

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_fatal_frame_then_a_moved_one_in_the_same_run(self, workers, monkeypatch):
        lo = self.worker_start(workers)
        moved = self.register(monkeypatch, workers, step_schedule(self.N, {-(lo + 1), lo + 3}))
        assert moved == (list(range(lo + 3, self.N)), [lo + 1])

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_fatal_last_frame_prepares_no_reference_again(self, workers, monkeypatch):
        fork_registration(monkeypatch, workers)
        prepared = count_prepares(monkeypatch)
        seq, _ = generate_phantom(small_config(noise_sigma=0.03, n_frames=self.N,
                                               shift_schedule=step_schedule(self.N, {1 - self.N})),
                                  seed=31)
        registered, report = register_sequence(seq)
        # this process scores the first run itself (frames 0 … its last), and no more
        assert len(prepared) == 1 + (self.N - 1) // workers
        assert moved_and_fatal(report) == ([], [self.N - 1])
        assert_registration_matches_loop(seq, registered, report)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_fatal_frame_inside_a_workers_run_prepares_no_frame_twice(self, workers,
                                                                        monkeypatch):
        # the worker's run hands back the reference it prepared for the frames
        # after the fatal one, which this process then scores serially
        fork_registration(monkeypatch, workers)
        prepared = count_prepares(monkeypatch)
        fatal = self.worker_start(workers) + 2
        seq, _ = generate_phantom(small_config(noise_sigma=0.03, n_frames=self.N,
                                               shift_schedule=step_schedule(self.N, {-fatal})),
                                  seed=31)
        registered, report = register_sequence(seq)
        # frame 0, this process's own run, and each frame after the fatal one
        assert len(prepared) == 1 + (self.N - 1) // workers + (self.N - 1 - fatal)
        if workers == 2:
            assert len(prepared) == 27
        assert moved_and_fatal(report) == ([], [fatal])
        assert_registration_matches_loop(seq, registered, report)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_frame_1_moved(self, workers, monkeypatch):
        moved = self.register(monkeypatch, workers, step_schedule(self.N, {1}))
        assert moved == (list(range(1, self.N)), [])

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_two_frame_sequence(self, workers, monkeypatch):
        config = small_config(noise_sigma=0.03, n_frames=3, shift_schedule=step_schedule(3, {1}))
        seq, _ = generate_phantom(config, seed=31)  # phantoms have at least 3 frames
        fork_registration(monkeypatch, workers)
        for frames, moved in (([0, 1], [1]), ([0, 0], [])):  # frame 1 moves, or not
            two = ThermalSequence(seq.data[frames], seq.timestamps[:2], seq.pixel_size)
            registered, report = register_sequence(two)
            assert_registration_matches_loop(two, registered, report)
            assert moved_and_fatal(report) == (moved, [])

    @pytest.mark.parametrize("schedule", [None, drift_schedule(30)], ids=["still", "drift"])
    def test_preprocessing_starts_no_thread(self, schedule, monkeypatch):
        # the thread count is read inside each registration and fit step here
        fork_registration(monkeypatch, 2)
        counts = []
        for name in ("_prepare", "_gauss_newton_step"):
            fn = getattr(preprocess, name)
            monkeypatch.setattr(preprocess, name, lambda *args, fn=fn: counts.append(
                threading.active_count()) or fn(*args))
        seq, _ = generate_phantom(small_config(noise_sigma=0.03, shift_schedule=schedule),
                                  seed=21)
        threads = threading.active_count()
        preprocess_sequence(seq)
        assert counts and set(counts) == {threads}


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


def fit_one(series, times):
    """The batch fit of the single series `series` [T], one value per key."""
    return {key: v[0] for key, v in fit_recovery_batch(series[None, :], times).items()}


class TestFitRecovery:
    def test_noiseless_parameters_within_1e6_relative(self):
        times = np.arange(60, dtype=np.float64)
        series = recovery_curve((36.0, 10.0, 30.0), times)
        fit = fit_one(series, times)
        assert not fit["degenerate"]
        assert fit["t_base"] == pytest.approx(36.0, rel=1e-6)
        assert fit["dt"] == pytest.approx(10.0, rel=1e-6)
        assert fit["tau"] == pytest.approx(30.0, rel=1e-6)
        assert fit["rmse"] < 1e-6

    def test_constant_series_is_degenerate(self):
        times = np.arange(10, dtype=np.float64)
        fit = fit_one(np.full(10, 36.0), times)
        assert fit["degenerate"]
        assert abs(fit["dt"]) < 1e-6

    def test_junk_series_returns_degenerate_without_raising(self):
        rng = np.random.default_rng(0)
        times = np.arange(20, dtype=np.float64)
        series = 30.0 + 5.0 * rng.standard_normal(20)
        fit = fit_one(series, times)  # must not raise
        assert np.isfinite(fit["rmse"])

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
            fit_one(np.array([1.0, 2.0]), np.array([0.0, 1.0]))

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError, match="increasing"):
            fit_recovery_batch(np.zeros((1, 3)), np.array([0.0, 2.0, 1.0]))

    def test_out_of_band_tau_flagged_degenerate(self):
        # a linear ramp drives the fitted time constant out of physical range
        times = np.arange(40, dtype=np.float64)
        series = 30.0 + 0.5 * times
        assert fit_one(series, times)["degenerate"]

    def test_unconverged_pixels_reported_at_max_iter(self, monkeypatch):
        times = np.arange(40, dtype=np.float64)
        rng = np.random.default_rng(6)
        series = curves([(36.0, 10.0, 15.0)] * 20, times)
        series += 0.03 * rng.standard_normal(series.shape)
        series[:5] = 36.0  # degenerate rows never iterate
        assert fit_recovery_batch(series, times)["converged"].all()
        monkeypatch.setattr(preprocess, "MAX_ITER", 1)
        res = fit_recovery_batch(series, times)
        assert np.count_nonzero(~res["converged"]) == 15


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


def assert_fit_matches_einsum(series, times):
    res = fit_recovery_batch(series, times)
    oracle = einsum_fit_recovery_batch(series, times, max_iter=preprocess.MAX_ITER)
    for key, want in oracle.items():
        assert res[key].tobytes() == want.tobytes(), key
    return res


def cleaned_phantom_series(seed, dtype=np.float64, **overrides):
    """[N, T] series and times of a phantom, 96x72x40 unless `overrides` say
    otherwise. In float32 the series is the transposed view of the frames
    that the pipeline fits."""
    config = PhantomConfig(**{"width": 96, "height": 72, "n_frames": 40,
                              "noise_sigma": 0.03, **overrides})
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
        assert_fit_matches_einsum(series[None, :], times)

    @pytest.mark.parametrize("max_iter", [1, 2, 5])
    def test_max_iter_exhaustion(self, max_iter, monkeypatch):
        monkeypatch.setattr(preprocess, "MAX_ITER", max_iter)
        series, times = cleaned_phantom_series(3)
        res = assert_fit_matches_einsum(series, times)
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


def assert_split(slices, n):
    """The sizes of `slices`, which cover range(n) in order and differ in
    size by at most one."""
    assert [i for s in slices for i in range(n)[s]] == list(range(n))
    sizes = [s.stop - s.start for s in slices]
    assert max(sizes) - min(sizes) <= 1
    return sizes


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
def test_runs_split_a_range_in_order_into_k_balanced_slices(k):
    # registration's runs, the fit's parts and the blocks all come from here
    for n in range(40):
        runs = preprocess._runs(n, k)
        assert len(runs) == k and all(s.step is None for s in runs)
        assert_split(runs, n)


def fork_fit(monkeypatch, workers):
    """The curve fit of any series in `workers` forked parts, whatever this
    machine has."""
    monkeypatch.setattr(preprocess, "_cpu_count", lambda: workers)
    monkeypatch.setattr(forked, "_cpu_count", lambda: workers)
    monkeypatch.setattr(preprocess, "FORK_MIN_PIXELS", 0)


class TestFitRecoveryWorkers:
    """Pixel parts fitted by forked processes: the same bytes for any
    worker count. A float32 series, converted block by block, fits to the
    bytes of its float64 copy; the oracle converts the whole series up
    front. The tests that split series smaller than FORK_MIN_PIXELS lower
    it to 0."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_same_bytes_for_any_worker_count(self, workers, monkeypatch):
        fork_fit(monkeypatch, workers)
        full = preprocess.MAX_ITER
        for dtype in (np.float64, np.float32):
            series, times = cleaned_phantom_series(12, dtype)
            for max_iter in (full, 2):
                monkeypatch.setattr(preprocess, "MAX_ITER", max_iter)
                assert_fit_matches_einsum(series, times)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 2, 16 * 7, 16 * 7 + 1, 16 * 7 + 2, 24 * 10 + 1])
    def test_small_blocks_and_a_leftover_row(self, rows, workers, monkeypatch):
        # the series the pipeline fits is a transposed, not C-ordered array;
        # 16 * 7 + 1 and 16 * 15 + 1 are one past a multiple of the block
        fork_fit(monkeypatch, workers)
        monkeypatch.setattr(preprocess, "BLOCK", 16)
        for dtype in (np.float64, np.float32):
            series, times = cleaned_phantom_series(13, dtype)
            assert not series.flags.c_contiguous
            for part in (series[:rows], np.ascontiguousarray(series[:rows])):
                assert_fit_matches_einsum(part, times)

    def test_more_workers_than_cores_with_frequent_switches(self, monkeypatch):
        # eight processes share this machine's cores, each with its own scratch
        fork_fit(monkeypatch, 8)
        monkeypatch.setattr(preprocess, "BLOCK", 24)
        series, times = cleaned_phantom_series(12, np.float32)
        assert_fit_matches_einsum(series[:1500], times)
        assert_fit_matches_einsum(series[:1500].astype(np.float64), times)

    def test_one_worker_starts_no_thread(self, monkeypatch):
        # nor a process: one part is fitted here
        monkeypatch.setattr(forked.os, "fork", None)  # calling it fails
        monkeypatch.setattr(preprocess, "_cpu_count", lambda: 1)
        series, times = cleaned_phantom_series(12)
        threads = threading.active_count()
        assert_fit_matches_einsum(series[:600], times)
        fork_fit(monkeypatch, 8)
        fit_recovery_batch(series[:1], times)  # one block: never more parts than blocks
        assert threading.active_count() == threads

    @pytest.fixture
    def parts(self, monkeypatch):
        """The items of each forked map preprocessing starts, in order: the
        fit's parts, and registration's runs before them."""
        parts, forked_map = [], preprocess.forked_map

        def recording_map(fn, items):
            parts.append(list(items))
            return forked_map(fn, parts[-1])

        monkeypatch.setattr(preprocess, "forked_map", recording_map)
        return parts

    @staticmethod
    def assert_parts(parts, n, workers):
        """`parts` split range(n) (`assert_split`) into one part per worker,
        but no more than `_blocks(n)` has blocks, so none is a single row of
        several."""
        sizes = assert_split(parts, n)
        assert len(parts) == min(workers, len(preprocess._blocks(n)))
        assert min(sizes) >= 2 or n == 1

    def test_worker_count_follows_the_cpus_this_process_may_use(self, parts, monkeypatch):
        series, times = cleaned_phantom_series(12)
        parts.clear()  # registration's map
        fork_fit(monkeypatch, 3)
        assert len(series) == 96 * 72
        block = 96 * 72 // 3
        monkeypatch.setattr(preprocess, "BLOCK", block)
        fit_recovery_batch(series, times)  # 3 blocks of 2,304 pixels
        fit_recovery_batch(series[:block], times)  # one block: one part, no fork
        fork_fit(monkeypatch, 2)
        fit_recovery_batch(series[:block + 1], times)
        assert [len(p) for p in parts] == [3, 1, 2]
        for items, n, workers in zip(parts, (len(series), block, block + 1), (3, 3, 2)):
            self.assert_parts(items, n, workers)

    def test_a_fork_starts_only_from_128x96_pixels(self, parts, monkeypatch):
        assert preprocess.FORK_MIN_PIXELS == 128 * 96
        monkeypatch.setattr(forked, "_cpu_count", lambda: 2)
        for (w, h), split in [((96, 72), False), ((128, 96), True)]:
            series, times = cleaned_phantom_series(14, np.float32, width=w, height=h)
            fits = {}
            for cpus in (2, 1):
                parts.clear()
                monkeypatch.setattr(preprocess, "_cpu_count", lambda: cpus)
                fits[cpus] = fit_recovery_batch(series, times)
                workers = 2 if split and cpus == 2 else 1
                assert len(parts[0]) == workers, (w, h, cpus)
                self.assert_parts(parts[0], len(series), workers)
            for key, value in fits[1].items():
                assert fits[2][key].tobytes() == value.tobytes(), (w, h, key)

    @pytest.mark.parametrize("block", [3, 4, 5])
    def test_parts_never_hold_a_single_row_of_several(self, block, monkeypatch):
        # each part plans its own blocks, which must not be single rows either;
        # below a BLOCK of 3 a block may hold more than BLOCK pixels, which the
        # fit's scratch is not sized for
        series, times = cleaned_phantom_series(12)
        planned = []
        monkeypatch.setattr(preprocess, "forked_map",
                            lambda fn, items: planned.append(list(items)) or map(fn, planned[-1]))
        monkeypatch.setattr(preprocess, "FORK_MIN_PIXELS", 0)
        monkeypatch.setattr(preprocess, "BLOCK", block)
        for n in range(1, 24):
            for workers in (1, 2, 3, 7):
                monkeypatch.setattr(preprocess, "_cpu_count", lambda: workers)
                fit_recovery_batch(series[:n], times)
                self.assert_parts(planned[-1], n, workers)
                if n <= block:  # a one-block fit is one part
                    assert planned[-1] == [slice(0, n)]

    @staticmethod
    def assert_blocks(n):
        blocks = preprocess._blocks(n)
        sizes = assert_split(blocks, n)
        assert min(sizes) >= 2 or n == 1
        return sizes

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 6912, 8192, 8193, 76800])
    def test_gauss_newton_blocks_are_balanced(self, n):
        sizes = self.assert_blocks(n)
        assert max(sizes) <= preprocess.BLOCK
        assert len(sizes) == -(-n // preprocess.BLOCK)
        if n == 6912:  # a 96x72 frame: 2 x 3456, not 4096 + 2816
            assert sizes == [3456, 3456]

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    def test_blocks_never_hold_a_single_row_of_several(self, block, monkeypatch):
        # numpy reduces a one-row block of a non-C-ordered array with other rounding
        monkeypatch.setattr(preprocess, "BLOCK", block)
        assert preprocess._blocks(0) == [slice(0, 0)]
        for n in range(1, 40):
            sizes = self.assert_blocks(n)
            if n <= block:
                assert len(sizes) == 1
            else:  # ceil(n / block) blocks, unless capped at n // 2
                assert len(sizes) == min(-(-n // block), n // 2)
                assert max(sizes) <= block or len(sizes) == n // 2

    def test_a_320x240_fit_is_two_parts_of_ten_blocks(self):
        parts = preprocess._runs(320 * 240, min(2, len(preprocess._blocks(320 * 240))))
        assert parts == [slice(0, 38_400), slice(38_400, 76_800)]
        assert [s.stop - s.start for s in preprocess._blocks(38_400)] == [3_840] * 10

    def test_a_single_block_steps_on_the_calling_thread(self, parts, monkeypatch):
        # a plan of one block is one part, fitted here; of several, none here
        fork_fit(monkeypatch, 2)
        events = []
        step = preprocess._gauss_newton_step

        def recording_step(yT, *args):
            events.append(threading.current_thread() is threading.main_thread())
            return step(yT, *args)

        monkeypatch.setattr(preprocess, "_gauss_newton_step", recording_step)
        series, times = cleaned_phantom_series(12)
        assert len(preprocess._blocks(300)) == 1
        parts.clear()  # registration's map
        assert_fit_matches_einsum(series[:300], times)
        assert parts == [[slice(0, 300)]]
        assert events and all(events)
        monkeypatch.setattr(preprocess, "BLOCK", 24)
        events.clear()
        assert_fit_matches_einsum(series[:300], times)
        assert parts[-1] == [slice(0, 150), slice(150, 300)]
        here = list(events)
        events.clear()
        monkeypatch.setattr(preprocess, "_cpu_count", lambda: 1)
        fit_recovery_batch(series[:150], times)
        assert here == events  # the steps of the first part alone, each on this thread

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
