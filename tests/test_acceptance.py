"""System-level acceptance suite.

One test per shipping criterion; each prints a single PASS line with the
measured numbers so a log scan shows every criterion at a glance.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import beta as beta_dist

from irzone import io_formats as io
from irzone.evaluation import accuracy_ci, confusion_masks, sensitivity
from irzone.models.cascade import CascadeConfig, cascade_predict
from irzone.models.rf import RFConfig
from irzone.models.sdae import SDAEModel
from irzone.phantom import (
    REDUCED_CONTRAST_RECOVERY,
    default_config_sampler,
    generate_phantom,
    recovery_curve,
)
from irzone.pipeline import (
    E2EConfig,
    load_features,
    make_dataset,
    read_manifest,
    run_e2e,
    train_from_manifest,
)
from irzone.postprocess import connected_components, lps_decide, topological_filter
from irzone.preprocess import fit_recovery_batch, register_sequence
from irzone.zones import HA_LEAVES, LEAF_LABELS, Mode, ZoneLabel, ZoneMask

from conftest import small_config
from test_postprocess import flood_fill_components, components_as_sets, neutral_thresholds
from test_sdae import gradient_check


def test_criterion_1_end_to_end_sensitivities_and_runtime(tmp_path):
    """40 train / 10 test phantoms, default contrast, both backends:
    Sn NA, Sn HA, Sn NWA each >= 0.90 after filtering, in under 10 minutes."""
    start = time.time()
    out = run_e2e(tmp_path / "e2e", seed=42, config=E2EConfig(n_train=40, n_test=10))
    elapsed = time.time() - start

    measured = {}
    for name, items in out["results"].items():
        pooled = sum(confusion_masks(pred, ref) for _, pred, ref in items)
        sns = {g: sensitivity(pooled, i) for i, g in enumerate(("NWA", "NA", "HA"))}
        measured[name] = sns
        for g, sn in sns.items():
            assert sn is not None and sn >= 0.90, f"{name} Sn {g} = {sn}"
    assert elapsed < 600.0, f"end-to-end took {elapsed:.0f}s"
    summary = "; ".join(
        f"{name} " + " ".join(f"Sn{g}={sn:.3f}" for g, sn in sns.items())
        for name, sns in measured.items()
    )
    print(f"\nPASS criterion 1: {summary}; {elapsed:.0f}s")


def test_criterion_2_backend_ordering_on_reduced_contrast(tmp_path):
    """With overlapping recovery-time ranges, the autoencoder backend keeps at
    least the forest backend's tumor-area sensitivity (ordering, not values)."""
    sampler = default_config_sampler(
        Mode.ON, recovery=REDUCED_CONTRAST_RECOVERY,
        width=96, height=72, n_frames=40, nwa_margin=10,
    )
    make_dataset(tmp_path / "train", mode_mix={"On": 10}, config_sampler=sampler, seed=100)
    make_dataset(tmp_path / "test", mode_mix={"On": 4}, config_sampler=sampler, seed=101)

    sn_ha = {}
    for backend in ("rf", "sdae"):
        config = CascadeConfig(backend=backend, rf=RFConfig(n_trees=30),
                               max_train_pixels=8000)
        model = train_from_manifest(tmp_path / "train" / "manifest.txt", Mode.ON,
                                    config, seed=100, max_pixels_per_seq=6000)
        tp = fn = 0
        for e in read_manifest(tmp_path / "test" / "manifest.txt"):
            mask, _ = io.read_mask(e.mask_path)
            probs = cascade_predict(model, load_features(e.seq_path).features)
            pred_ha = sum(probs[l] for l in HA_LEAVES) >= 0.5
            is_ha = mask.ha.ravel()
            tp += int(np.sum(pred_ha & is_ha))
            fn += int(np.sum(~pred_ha & is_ha))
        sn_ha[backend] = tp / (tp + fn)

    assert sn_ha["sdae"] >= sn_ha["rf"], f"ordering violated: {sn_ha}"
    print(f"\nPASS criterion 2: Sn HA sdae={sn_ha['sdae']:.4f} >= rf={sn_ha['rf']:.4f}")


def test_criterion_3_gradient_check():
    """Analytic gradients match central finite differences on every parameter
    of a small network, relative error < 1e-4."""
    rng = np.random.default_rng(31)
    model = SDAEModel(
        layer_sizes=[6, 5, 3, 2],
        weights=[rng.normal(scale=0.5, size=(6, 5)),
                 rng.normal(scale=0.5, size=(5, 3)),
                 rng.normal(scale=0.5, size=(3, 2))],
        biases=[rng.normal(scale=0.1, size=5),
                rng.normal(scale=0.1, size=3),
                rng.normal(scale=0.1, size=2)],
        corruption=0.0,
    )
    X = rng.normal(size=(5, 6))
    y = np.array([0, 1, 0, 1, 1])
    worst = gradient_check(model, X, y)
    assert worst < 1e-4
    print(f"\nPASS criterion 3: max gradient relative error {worst:.2e}")


def _walk_schedule(n, seed, step=0.5, clip=3.0):
    rng = np.random.default_rng(seed)
    xy = np.cumsum(rng.uniform(-step, step, size=(n, 2)), axis=0)
    xy = np.clip(xy, -clip, clip)
    xy[0] = 0.0
    return xy


def test_criterion_4_registration_residuals():
    """Injected sub-pixel drifts up to 3 px recovered within 0.25 px on
    noiseless phantoms and within 0.5 px at sensor noise level."""
    worst = {0.0: 0.0, 0.03: 0.0}
    for sigma in worst:
        for seed in range(3):
            xy = _walk_schedule(40, seed + 1)
            config = small_config(
                width=96, height=72, n_frames=40, nwa_margin=10,
                noise_sigma=sigma, shift_schedule=[tuple(p) for p in xy],
            )
            seq, _ = generate_phantom(config, seed=seed + 50)
            _, report = register_sequence(seq)
            assert not any(s.fatal for s in report.shifts)
            est = np.array([(s.dx, s.dy) for s in report.shifts])
            worst[sigma] = max(worst[sigma], float(np.max(np.abs(est - xy))))
    assert worst[0.0] <= 0.25, f"noiseless residual {worst[0.0]}"
    assert worst[0.03] <= 0.5, f"noisy residual {worst[0.03]}"
    print(f"\nPASS criterion 4: residual noiseless {worst[0.0]:.3f} px, "
          f"noisy {worst[0.03]:.3f} px")


def test_criterion_5_curve_fit_oracle():
    """Exact parameter recovery on noiseless data; 10%-accurate recovery time
    constants for >= 95% of 1000 sensor-noise pixels."""
    times = np.arange(60, dtype=np.float64)
    fit = fit_recovery_batch(recovery_curve((36.0, 10.0, 30.0), times)[None, :], times)
    for key, want in (("t_base", 36.0), ("dt", 10.0), ("tau", 30.0)):
        assert fit[key][0] == pytest.approx(want, rel=1e-6)

    rng = np.random.default_rng(51)
    n = 1000
    clean = recovery_curve((36.0, 10.0, 30.0), times)
    series = clean[None, :] + rng.normal(0.0, 0.03, size=(n, times.size))
    res = fit_recovery_batch(series, times)
    frac = float(np.mean(np.abs(res["tau"] - 30.0) <= 3.0))
    assert frac >= 0.95
    print(f"\nPASS criterion 5: noiseless exact; tau within 10% on {frac:.1%} of "
          f"{n} noisy pixels")


def test_criterion_6_connected_components_equivalence():
    """Agreement with an independent 8-connected flood fill on 1000 random
    label maps, exact: the connectivity the topological filter labels with."""
    rng = np.random.default_rng(61)
    for trial in range(1000):
        h = int(rng.integers(1, 33))
        w = int(rng.integers(1, 33))
        lm = rng.integers(0, int(rng.integers(2, 5)), size=(h, w))
        got = components_as_sets(connected_components(lm))
        assert got == set(flood_fill_components(lm)), f"trial {trial}"
    print("\nPASS criterion 6: 1000 maps match an 8-connected flood fill")


def _binomial_tail_ci(k, n, level=0.95, tol=1e-12):
    """Interval endpoints by bisecting the binomial tail sums directly."""
    a = (1.0 - level) / 2.0
    i_up = np.arange(k, n + 1)
    c_up = np.array([math.comb(n, int(i)) for i in i_up], dtype=np.float64)
    i_lo = np.arange(0, k + 1)
    c_lo = np.array([math.comb(n, int(i)) for i in i_lo], dtype=np.float64)

    def upper_tail(p):  # P(X >= k)
        return float(np.sum(c_up * p**i_up * (1 - p) ** (n - i_up)))

    def lower_tail(p):  # P(X <= k)
        return float(np.sum(c_lo * p**i_lo * (1 - p) ** (n - i_lo)))

    def bisect(f, target, increasing):
        lo, hi = 0.0, 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if (f(mid) < target) == increasing:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    lo = 0.0 if k == 0 else bisect(upper_tail, a, increasing=True)
    hi = 1.0 if k == n else bisect(lower_tail, a, increasing=False)
    return lo, hi


def test_criterion_7_exact_interval_oracle():
    """Interval endpoints match direct binomial-tail summation within 1e-6 for
    all n <= 50; closed forms at the edges within 1e-9; Monte-Carlo coverage of
    the 95% interval in [0.94, 0.97] at p=0.7, n=1000."""
    worst = 0.0
    for n in range(1, 51):
        for k in range(0, n + 1):
            got = accuracy_ci(k, n)
            want = _binomial_tail_ci(k, n)
            worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
    assert worst < 1e-6

    for n in (1, 7, 50):
        lo, hi = accuracy_ci(0, n)
        assert lo == 0.0 and abs(hi - (1.0 - 0.025 ** (1 / n))) < 1e-9
        lo, hi = accuracy_ci(n, n)
        assert hi == 1.0 and abs(lo - 0.025 ** (1 / n)) < 1e-9

    rng = np.random.default_rng(71)
    p, n, trials = 0.7, 1000, 10_000
    k = rng.binomial(n, p, size=trials).astype(np.float64)
    lo = np.where(k == 0, 0.0, beta_dist.ppf(0.025, k, n - k + 1))
    hi = np.where(k == n, 1.0, beta_dist.ppf(0.975, k + 1, n - k))
    coverage = float(np.mean((lo <= p) & (p <= hi)))
    assert 0.94 <= coverage <= 0.97
    print(f"\nPASS criterion 7: tail-sum max diff {worst:.1e}; coverage {coverage:.4f}")


def test_criterion_8_legality_fuzzing_and_filter_fixed_point():
    """Random cascade-shaped probability fields x 3 modes never produce
    mode-illegal labels; the topological filter is a fixed point on every
    fuzzed output mask."""
    rng = np.random.default_rng(81)
    shape = (10, 12)
    n_trials = 10_000
    checked = 0
    for trial in range(n_trials):
        mode = (Mode.ON, Mode.IN, Mode.OFF)[trial % 3]
        # random branch probabilities pushed through the cascade product rule
        p_wa = rng.random(shape)
        if mode is Mode.ON:
            p_dm = np.ones(shape)
        elif mode is Mode.OFF:
            p_dm = np.zeros(shape)
        else:
            p_dm = rng.random(shape)
        p_ha_bc = rng.random(shape)
        p_ha_dm = rng.random(shape)
        maps = {
            ZoneLabel.NWA: 1.0 - p_wa,
            ZoneLabel.NA_BC: p_wa * (1 - p_dm) * (1 - p_ha_bc),
            ZoneLabel.HA_BC: p_wa * (1 - p_dm) * p_ha_bc,
            ZoneLabel.NA_DM: p_wa * p_dm * (1 - p_ha_dm),
            ZoneLabel.HA_DM: p_wa * p_dm * p_ha_dm,
        }
        legal = sorted(mode.legal_leaves, key=int)
        prior = ZoneMask(rng.choice([int(l) for l in legal], size=shape).astype(np.uint8),
                         250e-6)
        z_ps = lps_decide(maps, prior, mode, neutral_thresholds(rng.random()))
        present = {ZoneLabel(int(c)) for c in np.unique(z_ps.labels)}
        assert present <= mode.legal_leaves, f"trial {trial}: {present} in {mode}"

        once, _ = topological_filter(z_ps.labels, z_ps.pixel_size, min_area_mm2=1.0)
        twice, _ = topological_filter(once, z_ps.pixel_size, min_area_mm2=1.0)
        assert np.array_equal(once, twice), f"trial {trial}: filter not a fixed point"
        checked += 1
    print(f"\nPASS criterion 8: {checked} fuzzed outputs across 3 modes, "
          "zero illegal labels, filter idempotent")


def test_criterion_9_end_to_end_determinism(tmp_path):
    """The e2e command with a fixed seed writes byte-identical reports, masks,
    and model files across two runs."""
    from irzone.cli import main

    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        code = main(["e2e", "--seed", "7", "--out", str(d),
                     "--n-train", "3", "--n-test", "2"])
        assert code == 0

    names = sorted(
        p.name for p in dirs[0].iterdir()
        if p.name == "report.txt" or p.name.endswith(".izm")
        or (p.name.startswith("pred_") and p.name.endswith(".pgm"))
    )
    assert "report.txt" in names
    assert any(n.startswith("model_") for n in names)
    assert any(n.startswith("pred_") for n in names)
    for name in names:
        b1 = (dirs[0] / name).read_bytes()
        b2 = (dirs[1] / name).read_bytes()
        assert b1 == b2, f"{name} differs between runs"
    print(f"\nPASS criterion 9: {len(names)} artifacts byte-identical across runs")
