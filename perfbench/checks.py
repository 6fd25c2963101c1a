"""Output checks: mode legality, pooled sensitivities and artifact digests.

The checks recompute what they test from the label arrays and the files on
disk rather than through the package's own evaluation code.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

SN_MIN = 0.90
GROUPS = {"nwa": (0,), "na": (50, 150), "ha": (100, 200)}
LEGAL = {"On": (0, 50, 100), "In": (0, 50, 100, 150, 200), "Off": (0, 150, 200)}


def illegal(pred: np.ndarray, mode_value: str) -> bool:
    return not np.isin(pred, LEGAL[mode_value]).all()


def pooled_sn(items) -> dict:
    """Per-group sensitivity pooled over (id, pred, ref) items; None when
    the group is absent from every reference."""
    hit = dict.fromkeys(GROUPS, 0)
    total = dict.fromkeys(GROUPS, 0)
    for _, pred, ref in items:
        for g, codes in GROUPS.items():
            in_ref = np.isin(ref, codes)
            total[g] += int(in_ref.sum())
            hit[g] += int((in_ref & np.isin(pred, codes)).sum())
    return {g: hit[g] / total[g] if total[g] else None for g in GROUPS}


def digests(out_dir: Path, extra=()) -> dict:
    """sha256 of the deterministic artifacts: report, models, predictions."""
    paths = [out_dir / "report.txt", *sorted(out_dir.glob("model_*.izm")),
             *sorted(out_dir.glob("pred_*.pgm")), *extra]
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def source_digest(*roots: Path) -> str:
    """Digest of the Python sources under `roots`: the program and the
    benchmark, whose settings decide what the artifacts hold."""
    h = hashlib.sha256()
    for root in roots:
        for p in sorted(root.rglob("*.py")):
            h.update(f"{root.name}/{p.relative_to(root)}".encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


class DigestStore:
    """Artifact digests from earlier runs of the same workload, seed and
    sources, so byte-identity is also checked across processes."""

    def __init__(self, path: Path):
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def check_and_record(self, key: str, found: dict) -> list[str]:
        """Names whose digest differs from an earlier run's; records `found`
        when the key is new."""
        known = self.data.get(key)
        if known is None:
            self.data[key] = found
            tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
            return []
        return sorted(n for n in known.keys() | found.keys() if known.get(n) != found.get(n))


def check_repetition(out, digest, n_mapped, backends, golden, first, stored,
                     problems) -> int:
    """Number of failed (backend, sequence) mappings in one repetition.

    A mapping fails when it is missing, its mask is illegal for the mode, or
    its backend's pooled Sn is below SN_MIN or differs from `golden`. Every
    mapping of the repetition fails when an artifact digest differs from the
    first repetition's (`first`) or from an earlier run's (`stored`). Each
    problem found is appended to `problems`."""
    failed = set()
    missing = 0
    for backend in backends:
        items = out.masks.get(backend, [])
        if len(items) != n_mapped:
            problems.append(f"{backend}: {len(items)} of {n_mapped} sequences mapped")
            missing += max(0, n_mapped - len(items))
        for sid, pred, _ in items:
            if illegal(pred, out.mode.value):
                problems.append(f"{backend} {sid}: labels illegal for mode {out.mode.value}")
                failed.add((backend, sid))
        for g, sn in pooled_sn(items).items():
            want = (golden or {}).get(backend, {}).get(g)
            if sn is None or sn < SN_MIN:
                problems.append(f"{backend}: Sn {g.upper()} = {sn}, below {SN_MIN}")
            elif want is not None and round(sn, 4) != want:
                problems.append(f"{backend}: Sn {g.upper()} = {sn:.4f}, expected {want:.4f}")
            else:
                continue
            failed |= {(backend, sid) for sid, *_ in items}
    differ = sorted({n for n in digest if digest[n] != first.get(n)} | set(stored))
    if differ:
        problems.append("artifacts differ from an earlier repetition or run: " + ", ".join(differ))
        return n_mapped * len(backends)
    return min(n_mapped * len(backends), len(failed) + missing)
