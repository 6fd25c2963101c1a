"""Feature extraction and z-score standardization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from irzone.features import (
    FEATURE_DIM,
    FEATURE_NAMES,
    Standardizer,
    extract_features_batch,
    fit_standardizer,
)
from irzone.phantom import recovery_curve
from irzone.preprocess import fit_recovery_batch


def features_of(series, times):
    """Feature vector of one pixel's series."""
    series = np.asarray(series, dtype=np.float64)[None, :]
    return extract_features_batch(fit_recovery_batch(series, times), series, times)[0]


def features_for_curve(t_base, dt, tau, n=60):
    times = np.arange(n, dtype=np.float64)
    return features_of(recovery_curve((t_base, dt, tau), times), times)


def invert(s: Standardizer, z):
    """Undo `s.apply`."""
    return np.asarray(z) * s.scale + s.mean


class TestExtractFeatures:
    def test_dimension_and_names_agree(self):
        assert FEATURE_DIM == 16
        assert len(FEATURE_NAMES) == FEATURE_DIM

    def test_tau_and_t63_on_noiseless_curve(self):
        vec = features_for_curve(36.0, 10.0, 30.0)
        assert vec[FEATURE_NAMES.index("tau")] == pytest.approx(30.0, rel=1e-6)
        # 63.2% recovery happens at one time constant, grid-limited
        assert vec[FEATURE_NAMES.index("t63")] == pytest.approx(30.0, abs=0.5)

    def test_constant_series_uses_degenerate_sentinel(self):
        times = np.arange(10, dtype=np.float64)
        vec = features_of(np.full(10, 36.0), times)
        assert vec[-1] == 1.0
        assert np.all(vec[:-1] == 0.0)

    def test_identical_series_give_identical_vectors(self):
        v1 = features_for_curve(36.0, 10.0, 30.0)
        v2 = features_for_curve(36.0, 10.0, 30.0)
        assert np.array_equal(v1, v2)

    def test_resampled_curve_is_minmax_normalized(self):
        vec = features_for_curve(36.0, 10.0, 30.0)
        curve = vec[7:15]
        assert curve.min() == pytest.approx(0.0)
        assert curve.max() == pytest.approx(1.0)
        assert np.all(np.diff(curve) >= 0)  # recovery is monotone

    def test_all_values_finite(self):
        vec = features_for_curve(30.2, 0.5, 5.0)
        assert np.all(np.isfinite(vec))


class TestStandardizer:
    def test_hand_arithmetic_example(self):
        s = fit_standardizer(np.array([[1.0], [3.0]]))
        assert s.mean[0] == pytest.approx(2.0)
        assert s.scale[0] == pytest.approx(1.0)
        assert s.apply(np.array([5.0]))[0] == pytest.approx(3.0)

    def test_transformed_training_matrix_is_centered_and_scaled(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 3.0, size=(500, 4))
        s = fit_standardizer(x)
        z = s.apply(x)
        assert np.all(np.abs(z.mean(axis=0)) < 1e-9)
        assert np.allclose(z.std(axis=0), 1.0)

    def test_constant_column_maps_to_zero(self):
        x = np.column_stack([np.full(20, 7.0), np.arange(20, dtype=float)])
        z = fit_standardizer(x).apply(x)
        assert np.all(z[:, 0] == 0.0)

    def test_round_trip_within_1e12(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 6))
        s = fit_standardizer(x)
        back = invert(s, s.apply(x))
        assert np.max(np.abs(back - x)) < 1e-12

    def test_dimension_mismatch_rejected(self):
        s = fit_standardizer(np.zeros((5, 3)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            s.apply(np.zeros((5, 4)))

    def test_rejects_empty_training_matrix(self):
        with pytest.raises(ValueError, match="non-empty"):
            fit_standardizer(np.zeros((0, 3)))

    def test_state_round_trip(self):
        s = fit_standardizer(np.random.default_rng(2).normal(size=(30, 4)))
        s2 = Standardizer.from_state(s.to_state())
        assert np.array_equal(s.mean, s2.mean)
        assert np.array_equal(s.scale, s2.scale)

    @given(
        arrays(
            np.float64,
            (20, 3),
            elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
        )
    )
    def test_affine_invertibility_property(self, x):
        s = fit_standardizer(x)
        back = invert(s, s.apply(x))
        assert np.max(np.abs(back - x)) <= 1e-6 * max(1.0, np.max(np.abs(x)))
