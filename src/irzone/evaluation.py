"""Per-pixel quality reporting: confusion counts, sensitivities, balanced
accuracy, and exact binomial confidence intervals."""

from __future__ import annotations

import numpy as np
from scipy.special import betaincinv

from .zones import HA_LEAVES, NA_LEAVES, ZoneMask

# reporting groups: sensitivities are over NWA / NA / HA unions
GROUPS = ("NWA", "NA", "HA")


def group_labels(labels: np.ndarray) -> np.ndarray:
    """Map leaf codes to group indices 0=NWA, 1=NA, 2=HA."""
    return np.isin(labels, NA_LEAVES) + 2 * np.isin(labels, HA_LEAVES)


def confusion_masks(pred: ZoneMask, ref: ZoneMask) -> np.ndarray:
    """Grouped NWA/NA/HA confusion counts between two masks, a [3, 3] array
    indexed [ref group][pred group]."""
    if pred.shape != ref.shape:
        raise ValueError("mask shapes differ")
    pairs = 3 * group_labels(ref.labels) + group_labels(pred.labels)
    return np.bincount(pairs.ravel(), minlength=9).reshape(3, 3)


def sensitivity(counts: np.ndarray, group: int) -> float | None:
    """Diagonal over row total; None when the group is absent from the
    reference (undefined, reported as absent rather than zero)."""
    row = counts[group].sum()
    if row == 0:
        return None
    return float(counts[group, group] / row)


def balanced_accuracy(counts: np.ndarray) -> float:
    sns = []
    for i, g in enumerate(GROUPS):
        sn = sensitivity(counts, i)
        if sn is None:
            raise ValueError(f"group {g} absent from reference")
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


def _counts(name, items) -> list[np.ndarray]:
    """The confusion counts of each of one model's (id, pred, ref) items."""
    if not items:
        raise ValueError(f"no sequences for model {name}")
    return [confusion_masks(pred, ref) for _, pred, ref in items]


def table_row(name: str, counts: np.ndarray) -> str:
    lo, hi = accuracy_ci(int(np.trace(counts)), int(counts.sum()))
    sn = {g: sensitivity(counts, i) for i, g in enumerate(GROUPS)}
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
        counts = _counts(name, items)
        lines.append(table_row(name, sum(counts)))
        for (seq_id, _, _), cm in zip(items, counts):
            try:
                ba = balanced_accuracy(cm)
                per_seq.append(f"{name} {seq_id} balanced_accuracy {100 * ba:.2f}%")
            except ValueError:
                per_seq.append(f"{name} {seq_id} balanced_accuracy absent-class")
    lines.append("")
    lines.extend(per_seq)
    return "\n".join(lines) + "\n"


def report_kv(results) -> str:
    """Machine-readable key-value form of the same report."""
    lines = []
    for name, items in results.items():
        pooled = sum(_counts(name, items))
        lo, hi = accuracy_ci(int(np.trace(pooled)), int(pooled.sum()))
        lines.append(f"{name}.ci_lo {lo:.6f}")
        lines.append(f"{name}.ci_hi {hi:.6f}")
        for i, g in enumerate(GROUPS):
            sn = sensitivity(pooled, i)
            lines.append(f"{name}.sn_{g.lower()} " + ("absent" if sn is None else f"{sn:.6f}"))
    return "\n".join(lines) + "\n"
