"""Span tracing for the benchmark's traced run.

Each public function the pipeline calls is replaced, at the name its caller
looks it up under, by a wrapper that records a span (name, start, end,
parent) and a few counters taken from the call's arguments and result.
Nothing in ``src/`` changes: the wrappers are installed by the benchmark and
removed again when the run ends.

A wrapped name that no longer exists is an error, and so is a wrapped name
that a workload was expected to reach but never did: a rename in the program
must not silently drop a layer from the per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import os
from collections import Counter
from statistics import median
from time import perf_counter

import numpy as np


class TraceError(RuntimeError):
    """The traced run cannot trust its wrappers."""


# counters: (bound arguments, result) -> {counter: value}
def _register_counts(b, out):
    _, rep = out
    return {"px_frames": b.arguments["seq"].data.size,
            "fatal": sum(bool(s.fatal) for s in rep.shifts)}


def _fit_counts(b, out):
    return {"pixels": len(b.arguments["series"]),
            "degenerate": int(np.count_nonzero(out["degenerate"]))}


def _rdf_counts(b, out):
    return {"deleted": len(out[1].deleted)}


def _sdae_counts(b, model):
    return {"finetune_epochs": len(model.trace["finetune_losses"])}


def _rf_counts(b, model):
    return {"nodes": sum(len(t.feature) for t in model.trees)}


def _predict_counts(b, out):
    return {"pixels": len(b.arguments["features"])}


def _thresholds_counts(b, out):
    p = np.asarray(b.arguments["p_ha"])
    return {"scores": p.size, "unique_scores": np.unique(p).size}


def _tf_counts(b, out):
    return {"relabeled": sum(e["action"].startswith("relabeled") for e in out[1].entries)}


def _model_bytes(b, out):
    return {"bytes": os.path.getsize(b.arguments["path"])}


# (module the caller looks the name up in, attribute, counter hook).
# The span is named after the module that defines the function, so moving a
# function to another module renames its metrics and the run fails loudly.
WRAPPED = (
    ("pipeline", "run_e2e", None),
    ("pipeline", "make_dataset", None),
    ("pipeline", "generate_phantom", None),
    ("pipeline", "train_from_manifest", None),
    ("pipeline", "load_features", None),
    ("pipeline", "preprocess_sequence", None),
    ("pipeline", "register_sequence", _register_counts),
    ("pipeline", "remove_damaged_frames", _rdf_counts),
    ("pipeline", "fit_recovery_batch", _fit_counts),
    ("pipeline", "extract_features_batch", None),
    ("pipeline", "cascade_train", None),
    ("pipeline", "cascade_predict", _predict_counts),
    ("pipeline", "calibrate_thresholds", None),
    ("pipeline", "fit_thresholds", _thresholds_counts),
    ("pipeline", "infer_sequence", None),
    ("pipeline", "zpr_from_reference", None),
    ("pipeline", "probabilistic_filter", None),
    ("pipeline", "lps_decide", None),
    ("pipeline", "topological_filter", _tf_counts),
    ("models.cascade", "fit_standardizer", None),
    ("models.cascade", "train_rf", _rf_counts),
    ("models.cascade", "rf_predict_proba", None),
    ("models.cascade", "train_sdae", _sdae_counts),
    ("models.sdae", "SDAEModel.predict_proba", None),
    ("io_formats", "read_sequence", None),
    ("io_formats", "write_sequence", None),
    ("io_formats", "read_mask", None),
    ("io_formats", "write_mask", None),
    ("io_formats", "write_model", _model_bytes),
    ("io_formats", "load_cascade", None),
    ("evaluation", "report", None),
)

LAYERS = ("phantom", "io_formats", "preprocess", "features", "models.cascade",
          "models.rf", "models.sdae", "postprocess", "evaluation", "pipeline")


class Tracer:
    """Spans and counters kept in memory; `take` hands over one phase."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, bookkeeping s]
        self.counts = Counter()
        self._stack = []
        self._installed = []
        self.layer_of = {}  # span name -> layer
        self.seen = set()

    def wrap(self, name, fn, hook=None):
        sig = inspect.signature(fn) if hook else None
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(span)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            if hook:
                for key, v in hook(sig.bind(*args, **kwargs), out).items():
                    counts[f"{name}.{key}"] += v
            span[1], span[2] = t0, t1
            span[4] = (t0 - t_in) + (perf_counter() - t1)
            return out

        return wrapper

    def install(self):
        """Wrap every name in WRAPPED; raise TraceError if one is missing."""
        for modname, attr, hook in WRAPPED:
            module = importlib.import_module(f"irzone.{modname}")
            owner, _, leaf = attr.rpartition(".")
            target = getattr(module, owner) if owner else module
            fn = getattr(target, leaf, None)
            if not callable(fn):
                self.uninstall()
                raise TraceError(f"irzone.{modname}.{attr} no longer exists")
            layer = fn.__module__.removeprefix("irzone.")
            span = f"{layer}.{fn.__qualname__}"
            self.layer_of[span] = layer
            setattr(target, leaf, self.wrap(span, fn, hook))
            self._installed.append((target, leaf, fn))

    def uninstall(self):
        while self._installed:
            target, leaf, fn = self._installed.pop()
            setattr(target, leaf, fn)

    def take(self) -> dict:
        """Aggregate and clear the spans and counters recorded so far."""
        out = aggregate(self.spans, self.counts, self.layer_of)
        self.seen.update(s[0] for s in self.spans)
        self.spans.clear()
        self.counts.clear()
        return out

    def check_reached(self, unused=frozenset()):
        """Raise TraceError for every wrapped name the workload should have
        reached but did not."""
        missing = sorted(set(self.layer_of) - set(unused) - self.seen)
        if missing:
            raise TraceError("wrapped but never called: " + ", ".join(missing))


def aggregate(spans, counts, layer_of) -> dict:
    """Per-span inclusive time and call count, per-layer self time, counters,
    load_features reuse, top-level time and tracing overhead."""
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    child_time = [0.0] * len(spans)
    computed = set()  # load_features calls that had to preprocess
    for name, start, end, parent, ovh in spans:
        if parent >= 0:
            child_time[parent] += end - start + ovh
            if (name == "pipeline.preprocess_sequence"
                    and spans[parent][0] == "pipeline.load_features"):
                computed.add(parent)
    top = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{layer_of[name]}.self_s"] += dur - child_time[i]
        if parent < 0:
            top += dur
    out.update(counts)
    out["pipeline.load_features.misses"] = len(computed)
    out["trace.top_s"] = top
    out["trace.spans"] = len(spans)
    out["trace.overhead_s"] = sum(s[4] for s in spans)
    return out


def combine(setup: dict, reps: list[dict]) -> dict:
    """Per-layer figures of one run: set-up totals plus the median repetition.
    The `trace.*` figures describe the median repetition alone, so that
    `trace.top_s` compares with `wall_s`."""
    keys = set(setup).union(*reps)
    out = {k: (0 if k.startswith("trace.") else setup.get(k, 0))
           + median(r.get(k, 0) for r in reps) for k in keys}
    calls = out.get("pipeline.load_features.calls", 0)
    out["pipeline.load_features.hit_ratio"] = (
        1.0 - out["pipeline.load_features.misses"] / calls if calls else 0.0)
    return out
