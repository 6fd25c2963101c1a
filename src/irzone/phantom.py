"""Synthetic cold-probe IR sequence generator with exact ground-truth masks.

A phantom frame is a static per-pixel recovery-parameter map evaluated at each
timestamp, plus sensor noise, optional sub-pixel scene drift, and optional
occluded (damaged) frames. The mask returned is the generating geometry on the
unshifted base grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import gaussian_filter

from .io_formats import ThermalSequence
from .preprocess import bilinear_sample
from .zones import HA_LEAVES, NA_LEAVES, Mode, ZoneLabel, ZoneMask

INSTRUMENT_TEMP_C = 25.0  # occluder temperature for damaged frames
OCCLUDER_FRAC = (0.6, 0.4)  # occluder (width, height) as fractions of the frame
BC_FRACTION = 0.5  # In mode: the left fraction of the working area that is BC
PARAM_SMOOTH_SIGMA = 1.2  # px, Gaussian smoothing of the parameter maps


@dataclass(frozen=True)
class ParamRange:
    """Uniform sampling ranges for the recovery model (T_base, dT, tau)."""

    t_base: tuple[float, float]
    dt: tuple[float, float]
    tau: tuple[float, float]

    def validate(self):
        for name, (lo, hi) in (("t_base", self.t_base), ("dt", self.dt), ("tau", self.tau)):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError(f"bad {name} range ({lo}, {hi})")
        if self.tau[0] <= 0:
            raise ValueError("tau must be positive")
        if self.dt[0] < 0:
            raise ValueError("dT must be nonnegative")


@dataclass(frozen=True)
class EllipseSpec:
    """Axis-aligned ellipse region (tumor projection)."""

    center: tuple[float, float]  # (x, y) pixels
    axes: tuple[float, float]    # semi-axes (ax, ay) pixels


@dataclass(frozen=True)
class SegmentSpec:
    """Thick line segment (vessel). Labeled NA but carries HA dynamics."""

    p0: tuple[float, float]
    p1: tuple[float, float]
    width: float  # pixels


@dataclass(frozen=True)
class OccluderSpec:
    """Rectangular foreign object at instrument temperature, `OCCLUDER_FRAC`
    of the frame in size, with its top-left corner at (x0, y0)."""

    x0: int = 0
    y0: int = 0


# Defaults give NA and HA disjoint tau ranges (the separability knob) and a
# cooler, lower-contrast NWA border. Whether HA recovers slower than NA is a
# modeling choice; both are configurable.
DEFAULT_RECOVERY = {
    "NWA": ParamRange(t_base=(29.5, 30.5), dt=(0.3, 0.8), tau=(4.0, 8.0)),
    "NA": ParamRange(t_base=(36.0, 37.0), dt=(8.0, 10.0), tau=(20.0, 30.0)),
    "HA": ParamRange(t_base=(36.0, 37.0), dt=(9.0, 12.0), tau=(45.0, 60.0)),
}

# Overlapping tau ranges: NA/HA separability degrades, exercising the
# classifier-quality ordering rather than near-perfect separation.
REDUCED_CONTRAST_RECOVERY = {
    "NWA": ParamRange(t_base=(29.5, 30.5), dt=(0.3, 0.8), tau=(4.0, 8.0)),
    "NA": ParamRange(t_base=(36.0, 37.0), dt=(8.0, 10.0), tau=(18.0, 34.0)),
    "HA": ParamRange(t_base=(36.0, 37.0), dt=(8.0, 11.0), tau=(24.0, 44.0)),
}


@dataclass
class PhantomConfig:
    width: int = 320
    height: int = 240
    n_frames: int = 60            # one frame per second
    pixel_size: float = 250e-6    # meters, in [220e-6, 289e-6]
    noise_sigma: float = 0.03     # °C, imager sensitivity band
    mode: Mode = Mode.ON
    tumors: list[EllipseSpec] = field(default_factory=list)
    vessels: list[SegmentSpec] = field(default_factory=list)
    nwa_margin: int = 16          # frame-border band labeled NWA
    shift_schedule: list[tuple[float, float]] | None = None  # per-frame (dx, dy)
    damaged_frames: dict[int, OccluderSpec] = field(default_factory=dict)
    recovery: dict[str, ParamRange] = field(default_factory=lambda: dict(DEFAULT_RECOVERY))

    def validate(self):
        if self.width < 4 or self.height < 4:
            raise ValueError("frame too small")
        if self.n_frames < 3:
            raise ValueError("n_frames must be >= 3")
        if not 0 < self.pixel_size < 1e-2:
            raise ValueError("pixel_size out of range")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.nwa_margin * 2 >= min(self.width, self.height):
            raise ValueError("nwa_margin leaves no working area")
        for key in ("NWA", "NA", "HA"):
            if key not in self.recovery:
                raise ValueError(f"missing recovery range for {key}")
            self.recovery[key].validate()
        if self.shift_schedule is not None and len(self.shift_schedule) != self.n_frames:
            raise ValueError("shift_schedule length must equal n_frames")
        for idx in self.damaged_frames:
            if not 0 <= idx < self.n_frames:
                raise ValueError(f"damaged frame index {idx} out of range")
        for t in self.tumors:
            cx, cy = t.center
            if not (0 <= cx < self.width and 0 <= cy < self.height):
                raise ValueError("tumor center outside frame")


def recovery_curve(params, t):
    """Newtonian recovery T(t) = T_base - dT * exp(-t / tau).

    `params` is (T_base, dT, tau); t may be scalar or array, seconds >= 0.
    """
    t_base, dt, tau = params
    for v in (t_base, dt, tau):
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite recovery parameters")
    if np.any(np.asarray(tau) <= 0):
        raise ValueError("tau must be positive")
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    out = t_base - dt * np.exp(-t / tau)
    return float(out) if out.ndim == 0 else out


def _sample_param_maps(labels, overrides, recovery, rng, shape):
    """Per-pixel (T_base, dT, tau) maps from zone ranges plus vessel overrides.

    Maps are smoothed spatially (tissue parameters are not i.i.d. pixel
    noise); without coherent structure the frames decorrelate over the
    recovery and registration has nothing to lock onto.
    """
    maps = {k: np.zeros(shape) for k in ("t_base", "dt", "tau")}
    zone_of_label = {ZoneLabel.NWA: "NWA", **dict.fromkeys(NA_LEAVES, "NA"),
                     **dict.fromkeys(HA_LEAVES, "HA")}  # in the order of the draws
    zones = [(labels == int(label), recovery[zone]) for label, zone in zone_of_label.items()]
    # then the overrides: vessels keep their NA label but redraw the dynamics
    for sel, pr in [*zones, *overrides]:
        if not np.any(sel):
            continue
        n = int(np.count_nonzero(sel))
        for key, (lo, hi) in (("t_base", pr.t_base), ("dt", pr.dt), ("tau", pr.tau)):
            maps[key][sel] = rng.uniform(lo, hi, size=n)
    return tuple(gaussian_filter(maps[key], sigma=PARAM_SMOOTH_SIGMA, mode="nearest")
                 for key in ("t_base", "dt", "tau"))


def _segment_mask(shape, p0, p1, width):
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    x0, y0 = p0
    x1, y1 = p1
    dx, dy = x1 - x0, y1 - y0
    L2 = dx * dx + dy * dy
    if L2 == 0:
        d2 = (xx - x0) ** 2 + (yy - y0) ** 2
    else:
        t = np.clip(((xx - x0) * dx + (yy - y0) * dy) / L2, 0.0, 1.0)
        d2 = (xx - (x0 + t * dx)) ** 2 + (yy - (y0 + t * dy)) ** 2
    return d2 <= (width / 2.0) ** 2


def _ellipse_mask(shape, center, axes):
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    cx, cy = center
    ax, ay = axes
    return ((xx - cx) / max(ax, 1e-9)) ** 2 + ((yy - cy) / max(ay, 1e-9)) ** 2 <= 1.0


def build_zone_mask(config: PhantomConfig) -> tuple[ZoneMask, list]:
    """Generating geometry: labels plus (selection, params) dynamics overrides."""
    config.validate()
    h, w = config.height, config.width
    labels = np.zeros((h, w), dtype=np.uint8)

    wa = np.zeros((h, w), dtype=bool)
    m = config.nwa_margin
    wa[m : h - m, m : w - m] = True

    # each pixel's (NA, HA) leaf pair
    layers = config.mode.layers
    pair = np.full((h, w, 2), layers[0], dtype=np.uint8)
    if len(layers) == 2:  # In: BC on the left fraction of WA, DM on the right
        split = m + int(round(BC_FRACTION * (w - 2 * m)))
        pair[:, :split] = layers[1]

    labels[wa] = pair[wa, 0]
    for tum in config.tumors:
        sel = _ellipse_mask((h, w), tum.center, tum.axes) & wa
        labels[sel] = pair[sel, 1]

    overrides = []
    for ves in config.vessels:
        sel = _segment_mask((h, w), ves.p0, ves.p1, ves.width) & wa
        # vessel stays NA-labeled (a deliberate confusion source); only params change
        overrides.append((sel & ~np.isin(labels, HA_LEAVES), config.recovery["HA"]))

    return ZoneMask(labels, config.pixel_size), overrides


def generate_phantom(config: PhantomConfig, seed: int):
    """Deterministic (config, seed) -> (ThermalSequence, ZoneMask)."""
    rng = np.random.default_rng(seed)
    mask, overrides = build_zone_mask(config)
    t_base, dt, tau = _sample_param_maps(
        mask.labels, overrides, config.recovery, rng, (config.height, config.width)
    )
    times = np.arange(config.n_frames, dtype=np.float64)
    frames = np.empty((config.n_frames, config.height, config.width), dtype=np.float32)
    schedule = config.shift_schedule or [(0.0, 0.0)] * config.n_frames

    for i, t in enumerate(times):
        ideal = t_base - dt * np.exp(-t / tau)
        sdx, sdy = schedule[i]
        if sdx != 0.0 or sdy != 0.0:
            ideal = bilinear_sample(ideal, -sdx, -sdy)[0]  # content moves by (+sdx, +sdy)
        if config.noise_sigma > 0:
            ideal = ideal + rng.normal(0.0, config.noise_sigma, size=ideal.shape)
        if i in config.damaged_frames:
            occ = config.damaged_frames[i]
            ow = int(round(OCCLUDER_FRAC[0] * config.width))
            oh = int(round(OCCLUDER_FRAC[1] * config.height))
            ideal = ideal.copy()
            ideal[occ.y0 : occ.y0 + oh, occ.x0 : occ.x0 + ow] = INSTRUMENT_TEMP_C
        frames[i] = ideal.astype(np.float32)

    return ThermalSequence(frames, times, config.pixel_size), mask


def default_config_sampler(mode: Mode, recovery=None, *, width=320, height=240,
                           n_frames=60, noise_sigma=0.03, nwa_margin=16):
    """Returns config_sampler(rng) -> PhantomConfig with randomized geometry."""
    recovery = dict(recovery or DEFAULT_RECOVERY)

    def sampler(rng: np.random.Generator) -> PhantomConfig:
        m = nwa_margin
        cx = rng.uniform(m + 0.25 * (width - 2 * m), m + 0.75 * (width - 2 * m))
        cy = rng.uniform(m + 0.25 * (height - 2 * m), m + 0.75 * (height - 2 * m))
        ax = rng.uniform(0.10, 0.22) * (width - 2 * m)
        ay = rng.uniform(0.10, 0.22) * (height - 2 * m)
        tumors = [EllipseSpec(center=(cx, cy), axes=(ax, ay))]
        vessels = []
        if rng.random() < 0.5:
            x0 = rng.uniform(m, width - m)
            y0 = rng.uniform(m, height - m)
            ang = rng.uniform(0, 2 * np.pi)
            length = rng.uniform(0.1, 0.2) * min(width, height)
            vessels.append(
                SegmentSpec(
                    p0=(x0, y0),
                    p1=(x0 + length * np.cos(ang), y0 + length * np.sin(ang)),
                    width=rng.uniform(1.5, 2.5),
                )
            )
        # a draw whose value is unused; dropping it would shift every later
        # draw and so change every phantom
        rng.random()
        return PhantomConfig(
            width=width,
            height=height,
            n_frames=n_frames,
            noise_sigma=noise_sigma,
            mode=mode,
            tumors=tumors,
            vessels=vessels,
            nwa_margin=m,
            pixel_size=rng.uniform(220e-6, 289e-6),
            recovery=recovery,
        )

    return sampler

