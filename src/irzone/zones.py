"""Zone taxonomy: leaf labels, derived unions, and per-mode legality.

The zone tree: non-working area (NWA) or working area (WA); the working area
is dura mater (DM) or exposed cortex (BC); each layer is normal (NA) or
hyperactive (HA). The imaging mode decides which layers can appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np


class ZoneLabel(IntEnum):
    """Leaf zone labels. Values double as PGM gray codes in mask files."""

    NWA = 0      # non-working area (skull, drapes, out of field)
    NA_DM = 50   # intact dura mater
    HA_DM = 100  # tumor projection on dura mater
    NA_BC = 150  # intact exposed cortex
    HA_BC = 200  # tumor projection on exposed cortex


LEAF_LABELS = (
    ZoneLabel.NWA,
    ZoneLabel.NA_DM,
    ZoneLabel.HA_DM,
    ZoneLabel.NA_BC,
    ZoneLabel.HA_BC,
)

HA_LEAVES = (ZoneLabel.HA_DM, ZoneLabel.HA_BC)
NA_LEAVES = (ZoneLabel.NA_DM, ZoneLabel.NA_BC)
DM_LEAVES = (ZoneLabel.NA_DM, ZoneLabel.HA_DM)
BC_LEAVES = (ZoneLabel.NA_BC, ZoneLabel.HA_BC)
WA_LEAVES = DM_LEAVES + BC_LEAVES
LAYERS = (DM_LEAVES, BC_LEAVES)  # each layer is its (NA, HA) leaf pair


class Mode(Enum):
    """Acquisition mode: which tissue layers can appear in frame."""

    ON = "On"    # dura mater only, cortex not exposed
    IN = "In"    # both dura mater and exposed cortex
    OFF = "Off"  # exposed cortex only

    @property
    def layers(self) -> tuple[tuple[ZoneLabel, ZoneLabel], ...]:
        """The (NA, HA) leaf pair of each layer that can appear, dura first."""
        return {Mode.ON: LAYERS[:1], Mode.IN: LAYERS, Mode.OFF: LAYERS[1:]}[self]

    @property
    def legal_leaves(self) -> frozenset[ZoneLabel]:
        return frozenset((ZoneLabel.NWA,) + sum(self.layers, ()))

    def check_labels(self, labels) -> None:
        """ValueError naming the leaves among `labels` that cannot appear."""
        present = {ZoneLabel(int(c)) for c in np.unique(labels)}
        illegal = present - self.legal_leaves
        if illegal:
            names = sorted(l.name for l in illegal)
            raise ValueError(f"labels {names} illegal in mode {self.value}")

    @classmethod
    def parse(cls, text: str) -> "Mode":
        for m in cls:
            if m.value.lower() == text.strip().lower():
                return m
        raise ValueError(f"unknown mode {text!r}; expected one of On, In, Off")


@dataclass
class ZoneMask:
    """Per-pixel leaf labels plus physical pixel size.

    `labels` is a uint8 [H, W] array of ZoneLabel codes.
    """

    labels: np.ndarray
    pixel_size: float  # meters

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if self.labels.ndim != 2:
            raise ValueError("labels must be 2D")
        codes = set(np.unique(self.labels).tolist())
        bad = codes - set(LEAF_LABELS)
        if bad:
            raise ValueError(f"undefined label codes {sorted(bad)}")
        if not 0 < self.pixel_size < math.inf:
            raise ValueError(f"pixel_size must be positive and finite, got {self.pixel_size}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape

    def is_label(self, label: ZoneLabel) -> np.ndarray:
        return self.labels == int(label)

    @property
    def wa(self) -> np.ndarray:
        return self.labels != int(ZoneLabel.NWA)

    @property
    def nwa(self) -> np.ndarray:
        return self.labels == int(ZoneLabel.NWA)

    @property
    def na(self) -> np.ndarray:
        return np.isin(self.labels, NA_LEAVES)

    @property
    def ha(self) -> np.ndarray:
        return np.isin(self.labels, HA_LEAVES)

    @property
    def dm(self) -> np.ndarray:
        return np.isin(self.labels, DM_LEAVES)

    @property
    def bc(self) -> np.ndarray:
        return np.isin(self.labels, BC_LEAVES)

    def class_counts(self) -> dict[str, int]:
        return {l.name: int(np.count_nonzero(self.labels == int(l))) for l in LEAF_LABELS}

    def check_mode(self, mode: Mode) -> None:
        mode.check_labels(self.labels)
