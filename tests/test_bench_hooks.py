"""The traced benchmark run wraps pipeline functions by name; a refactor that
drops or moves one of them must fail here as well as in the benchmark."""

import re
import sys
from pathlib import Path

import irzone.pipeline as pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from spans import Tracer  # noqa: E402
from workloads import E2E  # noqa: E402


def test_tracer_finds_every_wrapped_name():
    load_features = pipeline.load_features
    tracer = Tracer()
    try:
        tracer.install()  # raises TraceError for a missing name
    finally:
        tracer.uninstall()
    assert pipeline.load_features is load_features


def test_traced_e2e_reaches_every_wrapped_name(tmp_path, monkeypatch):
    """A small `run_e2e` under the benchmark's tracer calls every function
    the e2e workloads expect to reach, and the counter hooks, which bind each
    call's arguments by name, accept every call."""
    monkeypatch.setattr(pipeline, "_FEATURE_CACHE", {})
    tracer = Tracer()
    tracer.install()
    try:
        pipeline.run_e2e(tmp_path, seed=7, config=pipeline.E2EConfig(n_train=2, n_test=1))
        tracer.take()
    finally:
        tracer.uninstall()
    tracer.check_reached(E2E.unused)


def test_feature_cache_can_be_cleared_between_repetitions():
    assert callable(pipeline._FEATURE_CACHE.clear)


def test_e2e_config_has_every_value_the_workloads_read():
    """The workloads read the run's settings off an `E2EConfig` as
    `c.<name>` or `config.<name>`; each must still be there."""
    source = (PERFBENCH / "workloads.py").read_text()
    names = set(re.findall(r"\b(?:c|config)\.(\w+)", source))
    assert {"mode", "rf_trees", "pf_radius", "min_area_mm2"} <= names
    config = pipeline.E2EConfig()
    assert [n for n in sorted(names) if not hasattr(config, n)] == []
