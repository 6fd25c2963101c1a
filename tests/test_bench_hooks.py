"""The traced benchmark run wraps pipeline functions by name; a refactor that
drops or moves one of them must fail here as well as in the benchmark."""

import sys
from pathlib import Path

import irzone.pipeline as pipeline

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import Tracer  # noqa: E402


def test_tracer_finds_every_wrapped_name():
    load_features = pipeline.load_features
    tracer = Tracer()
    try:
        tracer.install()  # raises TraceError for a missing name
    finally:
        tracer.uninstall()
    assert pipeline.load_features is load_features


def test_feature_cache_can_be_cleared_between_repetitions():
    assert callable(pipeline._FEATURE_CACHE.clear)
