"""Connected components, topological filter, probability smoothing, thresholds."""

import numpy as np
import pytest
from scipy.ndimage import maximum_filter, minimum_filter

from irzone.postprocess import (
    DecisionThresholds,
    connected_components,
    fit_thresholds,
    lps_decide,
    probabilistic_filter,
    topological_filter,
)
from irzone.zones import LEAF_LABELS, Mode, ZoneLabel, ZoneMask

NA = int(ZoneLabel.NA_DM)
HA = int(ZoneLabel.HA_DM)


def flood_fill_components(lm, connectivity):
    """Independent stack-based flood fill, used as an oracle."""
    h, w = lm.shape
    if connectivity == 4:
        nbrs = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    else:
        nbrs = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)]
    seen = np.zeros((h, w), dtype=bool)
    comps = []
    for sy in range(h):
        for sx in range(w):
            if seen[sy, sx]:
                continue
            val = lm[sy, sx]
            stack = [(sy, sx)]
            seen[sy, sx] = True
            pixels = []
            while stack:
                y, x = stack.pop()
                pixels.append(y * w + x)
                for dy, dx in nbrs:
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and not seen[ny, nx] and lm[ny, nx] == val:
                        seen[ny, nx] = True
                        stack.append((ny, nx))
            comps.append((int(val), frozenset(pixels)))
    return comps


def components_as_sets(comps):
    return {(c.label, frozenset(c.pixels.tolist())) for c in comps}


class TestConnectedComponents:
    def test_single_foreign_pixel_makes_two_components(self):
        lm = np.full((4, 4), NA, dtype=np.uint8)
        lm[1, 1] = HA
        comps = connected_components(lm, connectivity=8)
        assert sorted(c.size for c in comps) == [1, 15]

    def test_uniform_map_is_one_component(self):
        comps = connected_components(np.full((5, 7), NA, dtype=np.uint8))
        assert len(comps) == 1 and comps[0].size == 35

    def test_checkerboard_under_4_connectivity_is_all_singletons(self):
        lm = np.indices((4, 4)).sum(axis=0) % 2
        comps = connected_components(lm, connectivity=4)
        assert len(comps) == 16
        assert all(c.size == 1 for c in comps)

    def test_every_pixel_in_exactly_one_component(self):
        rng = np.random.default_rng(0)
        lm = rng.integers(0, 3, size=(10, 12))
        comps = connected_components(lm, connectivity=8)
        all_pixels = np.concatenate([c.pixels for c in comps])
        assert sorted(all_pixels.tolist()) == list(range(lm.size))

    def test_matches_flood_fill_oracle_on_random_maps(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            h, w = rng.integers(2, 16, size=2)
            lm = rng.integers(0, 4, size=(h, w))
            for conn in (4, 8):
                got = components_as_sets(connected_components(lm, conn))
                want = set(flood_fill_components(lm, conn))
                assert got == want

    def test_rejects_bad_connectivity(self):
        with pytest.raises(ValueError, match="connectivity"):
            connected_components(np.zeros((3, 3)), connectivity=6)


def loop_connected_components(label_map, connectivity):
    """The per-component `cc.ravel() == k` scan connected_components replaced,
    kept as its oracle."""
    from scipy import ndimage

    from irzone.postprocess import Component, _structure

    lm = np.asarray(label_map)
    comps = []
    for value in np.unique(lm):
        cc, n = ndimage.label(lm == value, structure=_structure(connectivity))
        for k in range(1, n + 1):
            flat = np.flatnonzero(cc.ravel() == k)
            comps.append(Component(label=int(value), pixels=flat, size=len(flat)))
    return comps


class TestConnectedComponentsMatchesLoop:
    """Same Component list as the old scan: order, labels, pixel arrays, sizes."""

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_random_label_maps(self, connectivity, dtype):
        rng = np.random.default_rng(connectivity)
        for _ in range(40):
            h, w = rng.integers(1, 40, size=2)
            lm = rng.integers(0, rng.integers(1, 6), size=(h, w)).astype(dtype)
            if rng.random() < 0.5:  # blocky maps with larger regions
                lm = np.kron(lm[: h // 4 + 1, : w // 4 + 1], np.ones((4, 4), dtype=dtype))
            got = connected_components(lm, connectivity)
            want = loop_connected_components(lm, connectivity)
            assert [(c.label, c.size) for c in got] == [(c.label, c.size) for c in want]
            for g, v in zip(got, want):
                assert g.pixels.dtype == v.pixels.dtype
                assert np.array_equal(g.pixels, v.pixels)


class TestTopologicalFilter:
    def test_isolated_pixel_relabeled_to_surroundings(self):
        lm = np.full((8, 8), NA, dtype=np.uint8)
        lm[3, 3] = HA
        # 250 um pixels: a single pixel is 0.0625 mm^2, below the 2 mm^2 floor
        out, report = topological_filter(lm, pixel_size=250e-6, min_area_mm2=2.0)
        assert np.all(out == NA)
        assert any("relabeled" in e["action"] for e in report.entries)

    def test_component_exactly_at_threshold_is_kept(self):
        lm = np.full((16, 16), NA, dtype=np.uint8)
        lm[4:8, 4:12] = HA  # 32 px * 0.0625 mm^2 = 2.0 mm^2 exactly
        out, _ = topological_filter(lm, pixel_size=250e-6, min_area_mm2=2.0)
        assert np.array_equal(out, lm)

    def test_uniform_map_unchanged_with_kept_report(self):
        lm = np.full((6, 6), NA, dtype=np.uint8)
        out, report = topological_filter(lm, pixel_size=250e-6)
        assert np.array_equal(out, lm)
        kept = [e for e in report.entries if e["action"] == "kept"]
        assert len(kept) == 1 and kept[0]["count"] == 36

    def test_whole_frame_below_threshold_warns_and_returns_unchanged(self):
        lm = np.full((3, 3), HA, dtype=np.uint8)
        out, report = topological_filter(lm, pixel_size=250e-6, min_area_mm2=5.0)
        assert np.array_equal(out, lm)
        assert any("warning" in e["action"] for e in report.entries)

    def test_fixed_point_on_random_maps(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            lm = rng.choice([0, NA, HA], size=(12, 12)).astype(np.uint8)
            once, _ = topological_filter(lm, pixel_size=250e-6, min_area_mm2=1.0)
            twice, _ = topological_filter(once, pixel_size=250e-6, min_area_mm2=1.0)
            assert np.array_equal(once, twice)

    def test_never_creates_new_labels(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lm = rng.choice([NA, HA], size=(10, 10)).astype(np.uint8)
            out, _ = topological_filter(lm, pixel_size=250e-6, min_area_mm2=1.0)
            assert set(np.unique(out)) <= set(np.unique(lm))

    def test_rejects_negative_area(self):
        with pytest.raises(ValueError, match="nonnegative"):
            topological_filter(np.zeros((3, 3)), 250e-6, min_area_mm2=-1.0)


def oracle_boundary_majority(lm, comp_mask, struct, total_counts):
    """Majority label among pixels adjacent to the component. Ties: the label
    covering more total frame area, then smallest label code."""
    from scipy import ndimage

    dil = ndimage.binary_dilation(comp_mask, structure=struct) & ~comp_mask
    if not dil.any():
        return None
    vals, counts = np.unique(lm[dil], return_counts=True)
    best = None
    for v, c in zip(vals.tolist(), counts.tolist()):
        key = (c, total_counts.get(v, 0), -v)
        if best is None or key > best[0]:
            best = (key, v)
    return best[1]


def oracle_topological_filter(label_map, pixel_size, min_area_mm2=2.0,
                              connectivity=8, max_passes=10):
    """The full-frame implementation topological_filter replaced, kept as its
    oracle: a full-frame np.unique and dilation per small component, and a
    fresh labelling for every pass and for the final listing."""
    from irzone.postprocess import ComponentReport, _structure

    if min_area_mm2 < 0:
        raise ValueError("min_area_mm2 must be nonnegative")
    lm = np.asarray(label_map).copy()
    struct = _structure(connectivity)
    px_mm2 = (pixel_size * 1e3) ** 2
    report = ComponentReport()

    frame_area = lm.size * px_mm2
    if frame_area < min_area_mm2:
        report.entries.append({
            "label": -1, "count": lm.size, "area_mm2": frame_area,
            "action": "warning: whole frame below threshold, unchanged",
        })
        return lm, report

    for _ in range(max_passes):
        comps = connected_components(lm, connectivity)
        small = [c for c in comps if c.size * px_mm2 < min_area_mm2 and c.size < lm.size]
        if not small:
            break
        small.sort(key=lambda c: (c.size, int(c.pixels[0])))
        changed = False
        for c in small:
            mask = np.zeros(lm.shape, dtype=bool)
            mask.ravel()[c.pixels] = True
            # component membership may have changed earlier this pass
            if not np.all(lm[mask] == c.label):
                continue
            vals, counts = np.unique(lm, return_counts=True)
            totals = dict(zip(vals.tolist(), counts.tolist()))
            new = oracle_boundary_majority(lm, mask, struct, totals)
            if new is None or new == c.label:
                continue
            lm[mask] = new
            changed = True
            report.entries.append({
                "label": c.label, "count": c.size,
                "area_mm2": c.size * px_mm2, "action": f"relabeled to {new}",
            })
        if not changed:
            break

    for c in connected_components(lm, connectivity):
        report.entries.append({
            "label": c.label, "count": c.size,
            "area_mm2": c.size * px_mm2, "action": "kept",
        })
    return lm, report


PX = 250e-6  # 0.0625 mm^2 per pixel


def square_rings(k, labels=(0, 1, 2)):
    """A centre pixel inside k concentric one-pixel square rings, in a
    two-pixel border; the codes cycle through `labels` outward. Each pass of
    the filter moves every ring's code one ring outward and merges the
    outermost ring into the border, so the map needs k + 1 relabelling
    passes."""
    c = k + 2
    yy, xx = np.indices((2 * c + 1, 2 * c + 1))
    ring = np.minimum(np.maximum(abs(yy - c), abs(xx - c)), k + 1)
    return np.asarray(labels, dtype=np.uint8)[ring % len(labels)]


class TestTopologicalFilterMatchesOracle:
    """Same labels, dtype and report entries as the full-frame oracle run to
    its fixed point: every pass that relabels merges at least one component
    away, so `lm.size` passes always suffice."""

    def check(self, lm, min_area_mm2):
        want, want_report = oracle_topological_filter(lm, PX, min_area_mm2,
                                                      max_passes=lm.size)
        got, got_report = topological_filter(lm, PX, min_area_mm2)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got_report.entries == want_report.entries
        return got, got_report

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_speckle(self, dtype):
        rng = np.random.default_rng(11)
        for _ in range(6):
            lm = np.full((40, 48), NA, dtype=dtype)
            lm[:, 30:] = HA
            speck = rng.random(lm.shape) < 0.03
            lm[speck] = rng.choice([0, NA, HA, 7], size=int(speck.sum()))
            for area in (0.1, 0.5, 2.0):
                self.check(lm, area)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_blocky(self, dtype):
        rng = np.random.default_rng(12)
        for _ in range(20):
            h, w = rng.integers(3, 9, size=2)
            block = rng.integers(1, 4, size=2)
            lm = np.kron(rng.integers(0, 4, size=(h, w)), np.ones(block, dtype=int))
            self.check(lm.astype(dtype), float(rng.choice([0.2, 0.5, 1.0, 3.0])))

    def test_random_maps_with_several_passes(self):
        rng = np.random.default_rng(13)
        multi_pass = 0
        for _ in range(60):
            h, w = rng.integers(4, 14, size=2)
            lm = rng.integers(0, rng.integers(2, 6), size=(h, w))
            area = float(rng.integers(1, h * w)) * 0.0625
            got, _ = self.check(lm, area)
            one_pass, _ = oracle_topological_filter(lm, PX, area, max_passes=1)
            multi_pass += not np.array_equal(got, one_pass)
        assert multi_pass >= 10

    def test_components_touching_the_frame_edge(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            h, w = rng.integers(3, 16, size=2)
            lm = np.full((h, w), NA, dtype=np.uint8)
            edge = np.zeros((h, w), dtype=bool)
            edge[[0, -1], :] = edge[:, [0, -1]] = True
            speck = edge & (rng.random((h, w)) < 0.3)
            lm[speck] = rng.choice([0, HA], size=int(speck.sum()))
            lm[0, 0] = lm[-1, -1] = HA  # corners
            self.check(lm, float(rng.choice([0.1, 0.3, 1.0])))

    def test_zero_and_huge_areas(self):
        rng = np.random.default_rng(15)
        lm = rng.integers(0, 3, size=(9, 11))
        reports = {area: self.check(lm, area)[1] for area in (0.0, lm.size * 0.0625, 1e9)}
        assert all(e["action"] == "kept" for e in reports[0.0].entries)
        assert [e["action"] for e in reports[1e9].entries] == [
            "warning: whole frame below threshold, unchanged"]

    def test_one_pass_per_ring(self):
        # k rings take k + 1 passes: the last relabels the centre pixel, and
        # the result is a fixed point however many passes that takes
        for k in (9, 10, 16):
            lm = square_rings(k)
            area = 8 * (k + 2) * 0.0625
            out, report = self.check(lm, area)
            short, _ = oracle_topological_filter(lm, PX, area, max_passes=k)
            assert not np.array_equal(out, short)
            assert [e["action"] for e in report.entries].count("kept") == 1
            assert np.array_equal(topological_filter(out, PX, area)[0], out)


class TestProbabilisticFilter:
    def test_radius_zero_is_identity(self):
        rng = np.random.default_rng(4)
        maps = {l: rng.random((6, 6)) for l in LEAF_LABELS}
        out = probabilistic_filter(maps, radius=0)
        for l in LEAF_LABELS:
            assert np.array_equal(out[l], maps[l])

    def test_uniform_maps_unchanged(self):
        maps = {l: np.full((8, 8), 0.2) for l in LEAF_LABELS}
        out = probabilistic_filter(maps, radius=2)
        for l in LEAF_LABELS:
            assert np.allclose(out[l], 0.2)

    def test_interior_spike_spreads_to_one_ninth(self):
        p_ha = np.zeros((9, 9))
        p_ha[4, 4] = 1.0
        maps = {ZoneLabel.HA_DM: p_ha, ZoneLabel.NA_DM: 1.0 - p_ha}
        out = probabilistic_filter(maps, radius=1)
        assert np.allclose(out[ZoneLabel.HA_DM][3:6, 3:6], 1.0 / 9.0)
        assert np.all(out[ZoneLabel.HA_DM][0, :] == 0.0)

    def test_per_pixel_sums_preserved(self):
        rng = np.random.default_rng(5)
        raw = rng.random((5, 7, 7))
        raw /= raw.sum(axis=0, keepdims=True)
        maps = {l: raw[i] for i, l in enumerate(LEAF_LABELS)}
        out = probabilistic_filter(maps, radius=2)
        total = sum(out[l] for l in LEAF_LABELS)
        assert np.max(np.abs(total - 1.0)) < 1e-9

    def test_output_within_neighborhood_range(self):
        rng = np.random.default_rng(6)
        v = rng.random((10, 10))
        out = probabilistic_filter({ZoneLabel.HA_DM: v}, radius=1)[ZoneLabel.HA_DM]
        lo = minimum_filter(v, size=3, mode="constant", cval=np.inf)
        hi = maximum_filter(v, size=3, mode="constant", cval=-np.inf)
        assert np.all(out >= lo - 1e-12)
        assert np.all(out <= hi + 1e-12)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError, match="radius"):
            probabilistic_filter({ZoneLabel.NWA: np.zeros((3, 3))}, radius=-1)


class TestFitThresholds:
    def test_separable_calibration_achieves_zero_errors(self):
        p = np.array([0.9, 0.9, 0.9, 0.1, 0.1, 0.1])
        is_ha = np.array([1, 1, 1, 0, 0, 0], dtype=bool)
        th = fit_thresholds(p, is_ha, alpha=0.05, beta=0.05)
        assert th.achieved_alpha == 0.0
        assert th.achieved_beta == 0.0

    def test_sweep_picks_largest_qualifying_threshold(self):
        p = np.array([0.9, 0.4, 0.3])
        is_ha = np.array([True, True, False])
        th = fit_thresholds(p, is_ha, alpha=0.05, beta=0.5)
        assert 0.4 < th.theta_ha <= 0.9
        assert th.achieved_beta == pytest.approx(0.5)
        assert th.achieved_alpha == 0.0

    def test_very_loose_beta_never_exceeded(self):
        rng = np.random.default_rng(7)
        p = rng.random(100)
        is_ha = rng.random(100) < 0.5
        th = fit_thresholds(p, is_ha, alpha=0.05, beta=0.999)
        assert th.achieved_beta <= 0.999

    def test_rejects_single_class_calibration(self):
        with pytest.raises(ValueError, match="both NA and HA"):
            fit_thresholds(np.array([0.5, 0.6]), np.array([True, True]), 0.05, 0.05)

    def test_rejects_error_levels_outside_unit_interval(self):
        with pytest.raises(ValueError, match="alpha, beta"):
            fit_thresholds(np.array([0.5]), np.array([True]), 0.0, 0.05)

    def test_rejects_non_finite_scores(self):
        is_ha = np.array([True, True, False, False, True])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                fit_thresholds(np.array([0.1, 0.9, bad, 0.8, 0.2]), is_ha, 0.05, 0.05)


def loop_fit_thresholds(p_ha, is_ha, alpha, beta):
    """The per-candidate loop fit_thresholds replaced, kept as its oracle."""
    p = np.asarray(p_ha, dtype=np.float64).ravel()
    ha = np.asarray(is_ha, dtype=bool).ravel()
    cands = np.unique(p)
    best_theta = None
    for theta in cands[::-1]:  # largest first
        fnr = float(np.mean(p[ha] < theta))
        if fnr <= beta:
            best_theta = float(theta)
            break
    if best_theta is None:
        fnrs = [float(np.mean(p[ha] < th)) for th in cands]
        best_theta = float(cands[int(np.argmin(fnrs))])
    ach_beta = float(np.mean(p[ha] < best_theta))
    ach_alpha = float(np.mean(p[~ha] >= best_theta))
    return DecisionThresholds(alpha=alpha, beta=beta, theta_ha=best_theta,
                              achieved_alpha=ach_alpha, achieved_beta=ach_beta)


class TestFitThresholdsMatchesLoop:
    BETAS = (0.05, 0.5, 0.999)

    def assert_matches(self, p, is_ha, betas=BETAS):
        for beta in betas:
            th = fit_thresholds(p, is_ha, 0.05, beta)
            assert th == loop_fit_thresholds(p, is_ha, 0.05, beta)

    def test_random_scores_with_ties(self):
        rng = np.random.default_rng(8)
        for decimals in (1, 2, 6):
            p = np.round(rng.random(500), decimals)
            self.assert_matches(p, rng.random(500) < 0.4)

    def test_all_equal_scores(self):
        self.assert_matches(np.full(7, 0.25), np.array([1, 0, 1, 1, 0, 0, 1], dtype=bool))

    def test_fnr_exactly_equal_to_beta(self):
        # 4 HA scores; 0.4, 0.6 and 0.7 leave exactly 1/4, 2/4 and 3/4 below
        p = np.array([0.2, 0.4, 0.6, 0.8, 0.1, 0.5, 0.7])
        is_ha = np.array([1, 1, 1, 1, 0, 0, 0], dtype=bool)
        self.assert_matches(p, is_ha, betas=(0.25, 0.5, 0.75))
        assert fit_thresholds(p, is_ha, 0.05, 0.5).theta_ha == 0.6

    def test_calibration_scale(self):
        rng = np.random.default_rng(9)
        is_ha = rng.random(4000) < 0.3
        p = np.clip(np.where(is_ha, 0.7, 0.3) + 0.2 * rng.standard_normal(4000), 0.0, 1.0)
        self.assert_matches(np.round(p, 3), is_ha)


def neutral_thresholds(theta=0.5):
    return DecisionThresholds(alpha=0.05, beta=0.05, theta_ha=theta,
                              achieved_alpha=0.0, achieved_beta=0.0)


class TestLpsDecide:
    def test_all_nwa_prior_overrides_probabilities(self):
        shape = (4, 4)
        z_pr = ZoneMask(np.zeros(shape, dtype=np.uint8), 250e-6)
        maps = {l: np.full(shape, 0.2) for l in LEAF_LABELS}
        maps[ZoneLabel.HA_DM] = np.ones(shape)
        z_ps = lps_decide(maps, z_pr, Mode.ON, neutral_thresholds())
        assert np.all(z_ps.labels == int(ZoneLabel.NWA))

    def test_ha_probability_above_threshold_yields_tumor_label(self):
        shape = (4, 4)
        labels = np.full(shape, NA, dtype=np.uint8)
        z_pr = ZoneMask(labels, 250e-6)
        maps = {l: np.zeros(shape) for l in LEAF_LABELS}
        maps[ZoneLabel.HA_DM] = np.full(shape, 0.6)
        maps[ZoneLabel.NA_DM] = np.full(shape, 0.4)
        z_ps = lps_decide(maps, z_pr, Mode.ON, neutral_thresholds())
        assert np.all(z_ps.labels == HA)

    def test_output_never_contains_cortex_labels_in_dura_only_mode(self):
        rng = np.random.default_rng(8)
        shape = (6, 6)
        labels = np.where(rng.random(shape) < 0.3, 0, NA).astype(np.uint8)
        z_pr = ZoneMask(labels, 250e-6)
        maps = {l: rng.random(shape) for l in LEAF_LABELS}
        z_ps = lps_decide(maps, z_pr, Mode.ON, neutral_thresholds())
        z_ps.check_mode(Mode.ON)
        assert not z_ps.bc.any()

    def test_prior_layer_split_is_respected(self):
        labels = np.array([[0, NA], [int(ZoneLabel.NA_BC), int(ZoneLabel.HA_BC)]],
                          dtype=np.uint8)
        z_pr = ZoneMask(labels, 250e-6)
        maps = {l: np.zeros((2, 2)) for l in LEAF_LABELS}
        maps[ZoneLabel.HA_DM] = np.full((2, 2), 0.9)
        z_ps = lps_decide(maps, z_pr, Mode.IN, neutral_thresholds())
        assert z_ps.labels[0, 0] == 0                        # prior NWA stays
        assert z_ps.labels[0, 1] == HA                       # dura stays dura
        assert z_ps.labels[1, 0] == int(ZoneLabel.HA_BC)     # cortex stays cortex

    def test_rejects_illegal_prior(self):
        labels = np.full((3, 3), int(ZoneLabel.NA_BC), dtype=np.uint8)
        z_pr = ZoneMask(labels, 250e-6)
        maps = {l: np.zeros((3, 3)) for l in LEAF_LABELS}
        with pytest.raises(ValueError, match="illegal"):
            lps_decide(maps, z_pr, Mode.ON, neutral_thresholds())

    def test_rejects_shape_mismatch(self):
        z_pr = ZoneMask(np.zeros((3, 3), dtype=np.uint8), 250e-6)
        maps = {l: np.zeros((4, 4)) for l in LEAF_LABELS}
        with pytest.raises(ValueError, match="shape mismatch"):
            lps_decide(maps, z_pr, Mode.ON, neutral_thresholds())
