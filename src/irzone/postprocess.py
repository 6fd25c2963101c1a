"""Post-classification filtering: connected components, small-region
relabeling, probability smoothing, error-level thresholds, and the final
logical-and-probabilistic decision."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .zones import HA_LEAVES, LAYERS, Mode, ZoneMask

STRUCTURE_8 = np.ones((3, 3), dtype=bool)

DEFAULT_MIN_AREA_MM2 = 2.0


@dataclass
class Component:
    label: int
    pixels: np.ndarray  # flat indices into the label map
    size: int


@dataclass
class ComponentReport:
    entries: list[dict] = field(default_factory=list)  # label, count, area_mm2, action


def connected_components(label_map) -> list[Component]:
    """Maximal same-label 8-connected regions; every pixel in exactly one."""
    lm = np.asarray(label_map)
    if lm.ndim != 2:
        raise ValueError("label map must be 2D")
    comps = []
    for value in np.unique(lm):
        cc, n = ndimage.label(lm == value, structure=STRUCTURE_8)
        # one pass over the frame: each label's pixels in raster order
        where = ndimage.value_indices(cc, ignore_value=0)
        for k in range(1, n + 1):
            flat = np.ravel_multi_index(where[k], lm.shape)
            comps.append(Component(label=int(value), pixels=flat, size=len(flat)))
    return comps


def topological_filter(label_map, pixel_size, min_area_mm2=DEFAULT_MIN_AREA_MM2):
    """Relabel 8-connected regions smaller than `min_area_mm2` to the majority
    label of their boundary neighbors, in passes until a pass relabels
    nothing. Every relabel merges a component into a neighbor, so there are
    at most as many passes as components, and the result holds no component
    below `min_area_mm2` unless it is the whole frame.

    Each pass visits the small components of the map as it stood at the start
    of the pass, smallest first, ties by first pixel in raster order. A
    component takes the label most frequent among the pixels 8-adjacent to
    it, read from the map as earlier relabels of the pass left it. Ties go to
    the label covering more of the frame at that moment, then to the smaller
    code. A frame whose whole area is below `min_area_mm2` is returned
    unchanged. The report lists each relabel in the order made."""
    if min_area_mm2 < 0:
        raise ValueError("min_area_mm2 must be nonnegative")
    lm = np.asarray(label_map).copy()
    px_mm2 = (pixel_size * 1e3) ** 2
    report = ComponentReport()
    if lm.size * px_mm2 < min_area_mm2:
        return lm, report

    comps = connected_components(lm)
    vals, counts = np.unique(lm, return_counts=True)
    totals = dict(zip(vals.tolist(), counts.tolist()))  # kept current through relabels
    while True:
        small = sorted((c for c in comps if c.size * px_mm2 < min_area_mm2),
                       key=lambda c: (c.size, int(c.pixels[0])))
        changed = False
        for c in small:
            # the boundary lies within the component's box padded by one pixel
            rows, cols = np.divmod(c.pixels, lm.shape[1])
            r0, c0 = max(rows.min() - 1, 0), max(cols.min() - 1, 0)
            box = lm[r0:rows.max() + 2, c0:cols.max() + 2]
            # the ring is the OR of the nine shifts of the zero-padded mask,
            # taken as three column shifts, then three row shifts
            h, w = box.shape
            pad = np.zeros((h + 2, w + 2), dtype=bool)
            pad[rows - r0 + 1, cols - c0 + 1] = True
            mask = pad[1:-1, 1:-1]
            cols3 = pad[:, :w] | pad[:, 1:-1] | pad[:, 2:]
            ring = box[(cols3[:h] | cols3[1:-1] | cols3[2:]) & ~mask]
            # the vote runs over the frame's few codes, not a sort of the ring
            votes = {v: int(np.count_nonzero(ring == v)) for v in totals}
            new = max((v for v in votes if votes[v]),
                      key=lambda v: (votes[v], totals[v], -v))
            if new == c.label:  # a neighbor took this label earlier in the pass
                continue
            box[mask] = new
            totals[c.label] -= c.size
            totals[new] += c.size
            changed = True
            report.entries.append({"label": c.label, "count": c.size,
                                   "area_mm2": c.size * px_mm2, "action": f"relabeled to {new}"})
        if not changed:
            break
        comps = connected_components(lm)
    return lm, report


def probabilistic_filter(prob_maps: dict, radius: int) -> dict:
    """Per-class box mean over the (2r+1)^2 neighborhood with edge
    renormalization (in-frame neighbor count). Per-pixel sums are preserved."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    size = 2 * radius + 1
    any_map = next(iter(prob_maps.values()))
    ones = np.ones(np.asarray(any_map).shape, dtype=np.float64)
    norm = ndimage.uniform_filter(ones, size=size, mode="constant", cval=0.0)
    out = {}
    for k, v in prob_maps.items():
        v = np.asarray(v, dtype=np.float64)
        sm = ndimage.uniform_filter(v, size=size, mode="constant", cval=0.0)
        out[k] = sm / norm
    return out


@dataclass
class DecisionThresholds:
    alpha: float   # target HA false-positive rate
    beta: float    # target HA false-negative rate
    theta_ha: float
    achieved_alpha: float
    achieved_beta: float


def fit_thresholds(p_ha, is_ha, alpha, beta) -> DecisionThresholds:
    """Largest HA threshold whose calibration false-negative rate stays within
    `beta`. The candidates are the distinct scores; the smallest always
    qualifies, since no HA score lies below it."""
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise ValueError("alpha, beta must be in (0, 1)")
    p = np.asarray(p_ha, dtype=np.float64).ravel()
    ha = np.asarray(is_ha, dtype=bool).ravel()
    if not ha.any() or ha.all():
        raise ValueError("calibration set must contain both NA and HA pixels")
    if not np.all(np.isfinite(p)):
        raise ValueError("calibration scores must be finite")
    cands = np.unique(p)
    # HA scores below each candidate, over the HA count: the same float as
    # the mean of the boolean `p[ha] < theta`
    fnr = np.searchsorted(np.sort(p[ha]), cands, side="left") / np.count_nonzero(ha)
    best_theta = float(cands[np.flatnonzero(fnr <= beta)[-1]])
    ach_beta = float(np.mean(p[ha] < best_theta))
    ach_alpha = float(np.mean(p[~ha] >= best_theta))
    return DecisionThresholds(alpha=alpha, beta=beta, theta_ha=best_theta,
                              achieved_alpha=ach_alpha, achieved_beta=ach_beta)


def ha_score(prob_maps: dict) -> np.ndarray:
    """P(HA) per pixel, the sum of the HA leaf maps: the score that
    threshold calibration fits theta on and the decision cuts."""
    return sum(np.asarray(prob_maps[l], dtype=np.float64) for l in HA_LEAVES)


def lps_decide(prob_maps: dict, z_pr: ZoneMask, mode: Mode,
               thresholds: DecisionThresholds) -> ZoneMask:
    """Final decision: the a priori mask fixes NWA and the BC/DM split; within
    the remaining tissue a pixel is HA iff smoothed P(HA) >= theta. A
    non-finite score is a ValueError: it is neither HA nor NA."""
    mode.check_labels(z_pr.labels)
    shape = z_pr.labels.shape
    for v in prob_maps.values():
        if np.asarray(v).shape != shape:
            raise ValueError("probability map shape mismatch")
    score = ha_score(prob_maps)
    if not np.isfinite(score).all():
        raise ValueError(f"{np.count_nonzero(~np.isfinite(score))} pixels have a non-finite "
                         "HA score")
    is_ha = score >= thresholds.theta_ha

    out = np.zeros(shape, dtype=np.uint8)  # NWA
    for na, ha in LAYERS:
        layer = np.isin(z_pr.labels, (na, ha))
        out[layer & is_ha] = ha
        out[layer & ~is_ha] = na
    z_ps = ZoneMask(out, z_pr.pixel_size)
    mode.check_labels(z_ps.labels)
    return z_ps
