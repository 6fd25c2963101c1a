"""Confusion counts, sensitivities, balanced accuracy, exact binomial CIs."""

import numpy as np
import pytest

from irzone.evaluation import (
    accuracy_ci,
    balanced_accuracy,
    confusion_masks,
    group_labels,
    report,
    report_kv,
    sensitivity,
    table_row,
)
from irzone.zones import LEAF_LABELS, ZoneLabel, ZoneMask

NA = int(ZoneLabel.NA_DM)
HA = int(ZoneLabel.HA_DM)


def masks(pred, ref):
    """(pred, ref) ZoneMasks of one row of leaf codes each."""
    return (ZoneMask(np.array([pred], dtype=np.uint8), 250e-6),
            ZoneMask(np.array([ref], dtype=np.uint8), 250e-6))


def random_masks(seed, n):
    rng = np.random.default_rng(seed)
    return masks(*rng.choice([int(l) for l in LEAF_LABELS], size=(2, n)))


class TestConfusion:
    def test_perfect_prediction_is_diagonal(self):
        pred, ref = masks([0, NA, HA, NA, 0], [0, NA, HA, NA, 0])
        counts = confusion_masks(pred, ref)
        assert counts.shape == (3, 3)
        assert np.trace(counts) == counts.sum() == 5
        assert np.array_equal(counts, np.diag([2, 2, 1]))

    def test_hand_counted_two_pixel_example(self):
        pred, ref = masks([HA, HA], [NA, HA])
        counts = confusion_masks(pred, ref)
        assert counts[1, 2] == 1  # NA predicted as HA
        assert counts[2, 2] == 1  # HA predicted as HA
        assert counts.sum() == 2

    def test_total_equals_pixel_count(self):
        assert confusion_masks(*random_masks(0, 100)).sum() == 100

    def test_agrees_with_brute_force_recount(self):
        pred, ref = random_masks(4, 100)
        counts = confusion_masks(pred, ref)
        g_pred, g_ref = group_labels(pred.labels), group_labels(ref.labels)
        for i in range(3):
            for j in range(3):
                assert counts[i, j] == np.count_nonzero((g_ref == i) & (g_pred == j))

    def test_shape_mismatch_rejected(self):
        pred, _ = masks([0, 0, 0], [0, 0, 0])
        _, ref = masks([0] * 4, [0] * 4)
        with pytest.raises(ValueError, match="shapes differ"):
            confusion_masks(pred, ref)

    def test_merge_accumulates_counts(self):
        # reports pool sequences by adding their counts
        a = confusion_masks(*masks([0, NA], [0, NA]))
        b = confusion_masks(*masks([NA, NA], [0, NA]))
        merged = a + b
        assert merged.sum() == 4
        assert merged[0, 1] == 1
        assert np.array_equal(merged, confusion_masks(*masks([0, NA, NA, NA], [0, NA, 0, NA])))

    def test_mask_confusion_groups_leaf_labels(self):
        pred, ref = masks([0, HA], [0, int(ZoneLabel.HA_BC)])
        assert np.trace(confusion_masks(pred, ref)) == 2  # HA_DM and HA_BC are one HA group

    def test_group_labels_mapping(self):
        labels = np.array([0, 50, 100, 150, 200])
        np.testing.assert_array_equal(group_labels(labels), [0, 1, 2, 1, 2])


class TestSensitivity:
    def test_perfect_prediction_gives_one(self):
        assert sensitivity(confusion_masks(*masks([NA, NA], [NA, NA])), 1) == 1.0

    def test_eight_of_ten_gives_point_eight(self):
        counts = np.array([[5, 0, 0], [2, 8, 0], [0, 0, 0]])
        assert sensitivity(counts, 1) == pytest.approx(0.8)

    def test_absent_class_reports_none_not_zero(self):
        assert sensitivity(confusion_masks(*masks([0, 0], [0, 0])), 1) is None

    def test_agrees_with_brute_force_recount(self):
        pred, ref = random_masks(1, 200)
        counts = confusion_masks(pred, ref)
        g_pred, g_ref = group_labels(pred.labels), group_labels(ref.labels)
        for g in (0, 1, 2):
            sel = g_ref == g
            want = np.mean(g_pred[sel] == g) if sel.any() else None
            got = sensitivity(counts, g)
            assert got == pytest.approx(want) if want is not None else got is None


class TestBalancedAccuracy:
    def test_perfect_is_one(self):
        assert balanced_accuracy(confusion_masks(*masks([0, NA, HA], [0, NA, HA]))) == 1.0

    def test_hand_arithmetic_example(self):
        # NWA: 6 right / 10; NA: 8 right / 10; HA: 10 / 10 -> mean 0.8
        counts = np.array([[6, 4, 0], [2, 8, 0], [0, 0, 10]])
        assert balanced_accuracy(counts) == pytest.approx(0.8)

    def test_empty_reference_class_rejected(self):
        with pytest.raises(ValueError, match="absent"):
            balanced_accuracy(confusion_masks(*masks([0, 0], [0, 0])))


class TestAccuracyCI:
    def test_zero_successes_closed_form(self):
        lo, hi = accuracy_ci(0, 10)
        assert lo == 0.0
        assert hi == pytest.approx(1.0 - 0.025 ** (1 / 10), abs=1e-4)
        assert hi == pytest.approx(0.3085, abs=1e-4)

    def test_all_successes_closed_form(self):
        lo, hi = accuracy_ci(10, 10)
        assert hi == 1.0
        assert lo == pytest.approx(0.025 ** (1 / 10), abs=1e-4)
        assert lo == pytest.approx(0.6915, abs=1e-4)

    def test_half_successes_tabulated_value(self):
        lo, hi = accuracy_ci(5, 10)
        assert lo == pytest.approx(0.1871, abs=1e-3)
        assert hi == pytest.approx(0.8129, abs=1e-3)

    def test_interval_nesting_99_contains_95(self):
        for k, n in ((3, 17), (0, 9), (9, 9), (25, 50)):
            lo95, hi95 = accuracy_ci(k, n, level=0.95)
            lo99, hi99 = accuracy_ci(k, n, level=0.99)
            assert lo99 <= lo95 and hi95 <= hi99

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="positive"):
            accuracy_ci(0, 0)
        with pytest.raises(ValueError, match="out of range"):
            accuracy_ci(11, 10)


def perfect_results():
    labels = np.array([[0, NA], [HA, NA]], dtype=np.uint8)
    mask = ZoneMask(labels, 250e-6)
    return {"RF": [("seq_0000", mask, mask)], "SDAE": [("seq_0000", mask, mask)]}


class TestReport:
    def test_header_and_one_row_per_model(self):
        text = report(perfect_results())
        lines = text.splitlines()
        assert lines[0] == "Model  95% CI Ac         Sn NA   Sn HA   Sn NWA"
        assert lines[1].startswith("RF")
        assert lines[2].startswith("SDAE")

    def test_perfect_classifier_has_unit_sensitivities_and_ci_top(self):
        text = report(perfect_results())
        row = text.splitlines()[1]
        assert "1.0000)" in row       # CI upper bound
        assert row.count("1.0000") >= 4

    def test_report_is_deterministic(self):
        assert report(perfect_results()) == report(perfect_results())

    def test_per_sequence_balanced_accuracy_lines(self):
        text = report(perfect_results())
        assert "RF seq_0000 balanced_accuracy 100.00%" in text

    def test_key_value_report_fields(self):
        text = report_kv(perfect_results())
        for key in ("RF.ci_lo", "RF.sn_na", "SDAE.sn_ha", "SDAE.sn_nwa"):
            assert key in text

    def test_table_row_marks_absent_classes(self):
        assert "absent" in table_row("RF", np.diag([2, 0, 0]))

    def test_pooled_row_is_the_row_of_the_summed_counts(self):
        items = [("a", *random_masks(2, 50)), ("b", *random_masks(3, 70))]
        pooled = sum(confusion_masks(pred, ref) for _, pred, ref in items)
        assert pooled.sum() == 120
        assert report({"RF": items}).splitlines()[1] == table_row("RF", pooled)

    def test_model_without_sequences_rejected(self):
        for make in (report, report_kv):
            with pytest.raises(ValueError, match="no sequences"):
                make({"RF": []})
