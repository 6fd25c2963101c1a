"""Per-pixel quality reporting: confusion counts, sensitivities, balanced
accuracy, and exact binomial confidence intervals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .zones import HA_LEAVES, NA_LEAVES, ZoneMask

# reporting groups: sensitivities are over NWA / NA / HA unions
GROUPS = ("NWA", "NA", "HA")


def group_labels(labels: np.ndarray) -> np.ndarray:
    """Map leaf codes to group indices 0=NWA, 1=NA, 2=HA."""
    return np.isin(labels, NA_LEAVES) + 2 * np.isin(labels, HA_LEAVES)


@dataclass
class ConfusionMatrix:
    classes: tuple
    counts: np.ndarray  # counts[ref][pred]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def correct(self) -> int:
        return int(np.trace(self.counts))

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if self.classes != other.classes:
            raise ValueError("class lists differ")
        return ConfusionMatrix(self.classes, self.counts + other.counts)


def confusion(pred, ref, classes) -> ConfusionMatrix:
    pred = np.asarray(pred).ravel()
    ref = np.asarray(ref).ravel()
    if pred.shape != ref.shape:
        raise ValueError("shape mismatch")
    classes = tuple(classes)
    index = {c: i for i, c in enumerate(classes)}
    k = len(classes)
    counts = np.zeros((k, k), dtype=np.int64)
    for c_ref, i in index.items():
        sel = ref == c_ref
        if not sel.any():
            continue
        for c_pred, j in index.items():
            counts[i, j] = int(np.count_nonzero(pred[sel] == c_pred))
        if counts[i].sum() != int(np.count_nonzero(sel)):
            raise ValueError("predicted labels outside class list")
    if counts.sum() != pred.size:
        raise ValueError("reference labels outside class list")
    return ConfusionMatrix(classes=classes, counts=counts)


def confusion_masks(pred: ZoneMask, ref: ZoneMask) -> ConfusionMatrix:
    """Grouped NWA/NA/HA confusion between two masks."""
    if pred.shape != ref.shape:
        raise ValueError("mask shapes differ")
    return confusion(group_labels(pred.labels), group_labels(ref.labels), (0, 1, 2))


def sensitivity(cm: ConfusionMatrix, cls) -> float | None:
    """Diagonal over row total; None when the class is absent from the
    reference (undefined, reported as absent rather than zero)."""
    i = cm.classes.index(cls)
    row = cm.counts[i].sum()
    if row == 0:
        return None
    return float(cm.counts[i, i] / row)


def balanced_accuracy(cm: ConfusionMatrix) -> float:
    sns = []
    for cls in cm.classes:
        sn = sensitivity(cm, cls)
        if sn is None:
            raise ValueError(f"class {cls} absent from reference")
        sns.append(sn)
    return float(np.mean(sns))


def accuracy_ci(correct: int, total: int, level: float = 0.95) -> tuple[float, float]:
    """Exact (Clopper-Pearson) binomial confidence interval via beta inversion."""
    if total <= 0:
        raise ValueError("total must be positive")
    if not 0 <= correct <= total:
        raise ValueError("correct out of range")
    a = (1.0 - level) / 2.0
    lo = 0.0 if correct == 0 else float(betaincinv(correct, total - correct + 1, a))
    hi = 1.0 if correct == total else float(betaincinv(correct + 1, total - correct, 1 - a))
    return lo, hi


def _fmt_sn(v) -> str:
    return "absent" if v is None else f"{v:.4f}"


def table_row(name: str, cm: ConfusionMatrix) -> str:
    lo, hi = accuracy_ci(cm.correct, cm.total)
    sn = {g: sensitivity(cm, i) for i, g in enumerate(GROUPS)}
    return (
        f"{name:<6} ({lo:.4f}, {hi:.4f})  {_fmt_sn(sn['NA'])}  "
        f"{_fmt_sn(sn['HA'])}  {_fmt_sn(sn['NWA'])}"
    )


def report(results: dict[str, list[tuple[str, ZoneMask, ZoneMask]]]) -> str:
    """Evaluation report in the two-backend table layout.

    results: model name -> list of (sequence id, predicted mask, reference
    mask). Emits the pooled table plus per-sequence balanced accuracies.
    """
    lines = ["Model  95% CI Ac         Sn NA   Sn HA   Sn NWA"]
    per_seq = []
    for name, items in results.items():
        pooled = None
        for seq_id, pred, ref in items:
            cm = confusion_masks(pred, ref)
            pooled = cm if pooled is None else pooled.merge(cm)
            try:
                ba = balanced_accuracy(cm)
                per_seq.append(f"{name} {seq_id} balanced_accuracy {100 * ba:.2f}%")
            except ValueError:
                per_seq.append(f"{name} {seq_id} balanced_accuracy absent-class")
        if pooled is None:
            raise ValueError(f"no sequences for model {name}")
        lines.append(table_row(name, pooled))
    lines.append("")
    lines.extend(per_seq)
    return "\n".join(lines) + "\n"


def report_kv(results) -> str:
    """Machine-readable key-value form of the same report."""
    lines = []
    for name, items in results.items():
        pooled = None
        for _, pred, ref in items:
            cm = confusion_masks(pred, ref)
            pooled = cm if pooled is None else pooled.merge(cm)
        lo, hi = accuracy_ci(pooled.correct, pooled.total)
        lines.append(f"{name}.ci_lo {lo:.6f}")
        lines.append(f"{name}.ci_hi {hi:.6f}")
        for i, g in enumerate(GROUPS):
            sn = sensitivity(pooled, i)
            lines.append(f"{name}.sn_{g.lower()} " + ("absent" if sn is None else f"{sn:.6f}"))
    return "\n".join(lines) + "\n"
