"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from irzone.io_formats import ThermalSequence
from irzone.phantom import (
    DEFAULT_RECOVERY,
    EllipseSpec,
    PhantomConfig,
    generate_phantom,
)
from irzone.zones import Mode


def smooth_texture(shape, seed=0, sigma=2.0, amplitude=3.0, offset=30.0):
    """Spatially coherent random field; registration needs real texture."""
    from scipy.ndimage import gaussian_filter

    rng = np.random.default_rng(seed)
    f = gaussian_filter(rng.normal(size=shape), sigma=sigma, mode="nearest")
    f = f / max(f.std(), 1e-12)
    return offset + amplitude * f


def small_config(**overrides) -> PhantomConfig:
    """A fast 64x48 On-mode phantom with one centered tumor."""
    defaults = dict(
        width=64,
        height=48,
        n_frames=30,
        nwa_margin=8,
        noise_sigma=0.0,
        mode=Mode.ON,
        tumors=[EllipseSpec(center=(32.0, 24.0), axes=(9.0, 7.0))],
        recovery=dict(DEFAULT_RECOVERY),
    )
    defaults.update(overrides)
    return PhantomConfig(**defaults)


@pytest.fixture
def clean_phantom():
    """Noiseless small phantom: (sequence, mask)."""
    return generate_phantom(small_config(), seed=11)


@pytest.fixture
def noisy_phantom():
    """Sensor-noise-level small phantom: (sequence, mask)."""
    return generate_phantom(small_config(noise_sigma=0.03), seed=12)


def curve_sequence(t_base, dt, tau, n_frames=60, shape=(4, 4), noise=0.0, seed=0):
    """Sequence where every pixel follows one recovery curve."""
    rng = np.random.default_rng(seed)
    times = np.arange(n_frames, dtype=np.float64)
    frames = np.empty((n_frames, *shape), dtype=np.float32)
    for i, t in enumerate(times):
        v = t_base - dt * np.exp(-t / tau)
        frame = np.full(shape, v)
        if noise > 0:
            frame = frame + rng.normal(0.0, noise, size=shape)
        frames[i] = frame
    return ThermalSequence(frames, times, 250e-6)


def write_model_block(path, block: bytes):
    """A model file around a raw parameter block, with a valid checksum."""
    digest = hashlib.sha256(block).hexdigest()
    path.write_text(f"irzone-model 1\nkind cascade\nchecksum {digest}\nparams {block.hex()}\n")
    return path
