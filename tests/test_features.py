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
from irzone.preprocess import BLOCK, fit_recovery_batch


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

    def test_rows_outside_the_mask_are_ignored(self):
        x = np.array([[1.0, 5.0], [1e9, -1e9], [3.0, 7.0]])
        s = fit_standardizer(x, np.array([True, False, True]))
        assert np.array_equal(s.mean, [2.0, 6.0]) and np.array_equal(s.scale, [1.0, 1.0])

    def test_empty_row_mask_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            fit_standardizer(np.ones((4, 3)), np.zeros(4, dtype=bool))


def awkward_matrix(n, seed):
    """[n, 16] float64 with a -0.0 column, a column mixing -0.0 and 0.0, a
    constant column, and columns whose scales run from 1e-150 to 1e150."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, FEATURE_DIM)) * np.logspace(-150, 150, FEATURE_DIM)
    x[:, 3] += 1e3
    x[:, 0] = -0.0
    x[:, 1] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    x[:, 2] = 7.25
    return x


@pytest.mark.parametrize("n", [1, 2, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
@pytest.mark.parametrize("masked", [False, True], ids=["all-rows", "row-mask"])
def test_standardizer_equals_numpy_over_the_selected_rows(n, masked):
    # the standardizer sums the rows in blocks without copying them; numpy's
    # mean and std over a copy of the same rows are the reference, to the bit
    x = awkward_matrix(n, seed=n)
    rows = None
    picked = x
    if masked:
        rows = np.random.default_rng(n + 1).random(n) < 0.6
        rows[0] = True
        picked = x[rows]
    s = fit_standardizer(x, rows)
    assert s.mean.tobytes() == picked.mean(axis=0).tobytes()
    assert s.scale.tobytes() == np.maximum(picked.std(axis=0), 1e-12).tobytes()


def test_standardizer_over_parts_equals_numpy_over_their_pooled_rows():
    # parts over two matrices, with shuffled, repeated and no rows, pooled
    # past a block's length; numpy over a copy of the pooled rows is the reference
    x = awkward_matrix(3 * BLOCK + 7, seed=4)
    rng = np.random.default_rng(5)
    other = awkward_matrix(50, seed=6)
    parts = [(x, rng.permutation(len(x))[:BLOCK + 3]), (other, np.arange(0)),
             (other, np.array([8, 1, 1])), (x, np.arange(BLOCK, len(x)))]
    pooled = np.concatenate([m[r] for m, r in parts])
    rows = rng.random(len(pooled)) < 0.6
    s = fit_standardizer(parts, rows)
    assert s.mean.tobytes() == pooled[rows].mean(axis=0).tobytes()
    assert s.scale.tobytes() == np.maximum(pooled[rows].std(axis=0), 1e-12).tobytes()
