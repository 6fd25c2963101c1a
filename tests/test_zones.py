"""Zone taxonomy: label codes, mode legality, and mask union algebra."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from irzone.zones import (
    BC_LEAVES,
    DM_LEAVES,
    LEAF_LABELS,
    NA_LEAVES,
    WA_LEAVES,
    Mode,
    ZoneLabel,
    ZoneMask,
)


class TestLabels:
    def test_codes_are_the_mask_file_gray_levels(self):
        assert int(ZoneLabel.NWA) == 0
        assert int(ZoneLabel.NA_DM) == 50
        assert int(ZoneLabel.HA_DM) == 100
        assert int(ZoneLabel.NA_BC) == 150
        assert int(ZoneLabel.HA_BC) == 200

    def test_five_leaf_labels(self):
        assert len(LEAF_LABELS) == 5
        assert len(set(LEAF_LABELS)) == 5


class TestModeLegality:
    def test_on_mode_allows_dura_leaves_only(self):
        assert Mode.ON.legal_leaves == frozenset(
            {ZoneLabel.NWA, ZoneLabel.NA_DM, ZoneLabel.HA_DM}
        )

    def test_in_mode_allows_all_leaves(self):
        assert Mode.IN.legal_leaves == frozenset(LEAF_LABELS)

    def test_off_mode_allows_cortex_leaves_only(self):
        assert Mode.OFF.legal_leaves == frozenset(
            {ZoneLabel.NWA, ZoneLabel.NA_BC, ZoneLabel.HA_BC}
        )

    def test_parse_is_case_insensitive(self):
        assert Mode.parse("on") is Mode.ON
        assert Mode.parse("In") is Mode.IN
        assert Mode.parse(" OFF ") is Mode.OFF

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown mode"):
            Mode.parse("sideways")


class TestZoneMask:
    def test_rejects_undefined_codes(self):
        with pytest.raises(ValueError, match="undefined label codes"):
            ZoneMask(np.full((4, 4), 37, dtype=np.uint8), 250e-6)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2D"):
            ZoneMask(np.zeros((4, 4, 2), dtype=np.uint8), 250e-6)

    def test_rejects_nonpositive_pixel_size(self):
        with pytest.raises(ValueError, match="pixel_size"):
            ZoneMask(np.zeros((4, 4), dtype=np.uint8), 0.0)

    def test_check_mode_accepts_legal(self):
        labels = np.full((4, 4), int(ZoneLabel.NA_DM), dtype=np.uint8)
        labels[0, 0] = int(ZoneLabel.NWA)
        Mode.ON.check_labels(ZoneMask(labels, 250e-6).labels)

    def test_check_mode_rejects_illegal(self):
        labels = np.full((4, 4), int(ZoneLabel.NA_BC), dtype=np.uint8)
        with pytest.raises(ValueError, match="illegal in mode On"):
            Mode.ON.check_labels(ZoneMask(labels, 250e-6).labels)


@st.composite
def random_masks(draw):
    h = draw(st.integers(2, 12))
    w = draw(st.integers(2, 12))
    codes = [int(l) for l in LEAF_LABELS]
    flat = draw(st.lists(st.sampled_from(codes), min_size=h * w, max_size=h * w))
    return ZoneMask(np.array(flat, dtype=np.uint8).reshape(h, w), 250e-6)


class TestMaskAlgebra:
    @given(random_masks())
    def test_working_area_is_complement_of_nonworking(self, mask):
        assert np.array_equal(mask.wa, mask.labels != int(ZoneLabel.NWA))
        assert np.array_equal(mask.wa, np.isin(mask.labels, WA_LEAVES))

    @given(random_masks())
    def test_tissue_unions_partition_working_area(self, mask):
        na = np.isin(mask.labels, NA_LEAVES)
        dm, bc = np.isin(mask.labels, DM_LEAVES), np.isin(mask.labels, BC_LEAVES)
        assert np.array_equal(na | mask.ha, mask.wa)
        assert not np.any(na & mask.ha)
        assert np.array_equal(dm | bc, mask.wa)
        assert not np.any(dm & bc)
