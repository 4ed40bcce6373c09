"""Tests for the acquisition maximizer."""

import numpy as np
import pytest

from repro.core.optimizers import maximize_acquisition

BOUNDS = np.array([[-2.0, 2.0], [-2.0, 2.0]])


def quadratic(X):
    """Peak 1.0 at (0.5, -0.5)."""
    return 1.0 - np.sum((X - np.array([0.5, -0.5])) ** 2, axis=1)


class TestMaximize:
    def test_finds_smooth_peak(self):
        x = maximize_acquisition(quadratic, BOUNDS, rng=0)
        np.testing.assert_allclose(x, [0.5, -0.5], atol=1e-3)

    def test_respects_bounds(self):
        def edge(X):
            return X[:, 0] + X[:, 1]  # maximum at the corner (2, 2)

        x = maximize_acquisition(edge, BOUNDS, rng=0)
        np.testing.assert_allclose(x, [2.0, 2.0], atol=1e-6)

    def test_no_polish_mode(self):
        x = maximize_acquisition(
            quadratic, BOUNDS, rng=0, n_candidates=4096, polish=False
        )
        assert quadratic(x.reshape(1, -1))[0] > 0.95

    def test_deterministic(self):
        a = maximize_acquisition(quadratic, BOUNDS, rng=42)
        b = maximize_acquisition(quadratic, BOUNDS, rng=42)
        np.testing.assert_array_equal(a, b)

    def test_multimodal_picks_global(self):
        def two_bumps(X):
            b1 = 1.0 * np.exp(-20 * np.sum((X - [-1, -1]) ** 2, axis=1))
            b2 = 2.0 * np.exp(-20 * np.sum((X - [1, 1]) ** 2, axis=1))
            return b1 + b2

        x = maximize_acquisition(two_bumps, BOUNDS, rng=0, n_candidates=4096)
        np.testing.assert_allclose(x, [1.0, 1.0], atol=0.05)

    def test_nonfinite_values_handled(self):
        def sometimes_nan(X):
            values = quadratic(X)
            values[X[:, 0] > 1.5] = np.nan
            return np.where(np.isnan(values), -np.inf, values)

        x = maximize_acquisition(sometimes_nan, BOUNDS, rng=0)
        assert np.all(np.isfinite(x))

    @pytest.mark.parametrize("polish", [True, False])
    def test_nan_sweep_scores_never_win(self, polish):
        """A NaN sweep score ranks below every finite one: the returned
        point scores finite, with and without polish."""
        unit = np.array([[0.0, 1.0], [0.0, 1.0]])

        def nan_near_edge(U):
            values = -np.sum((U - 0.7) ** 2, axis=1)
            values[U[:, 0] < 0.05] = np.nan
            return values

        x = maximize_acquisition(
            nan_near_edge, unit, rng=0, n_candidates=256, polish=polish
        )
        assert np.isfinite(nan_near_edge(x.reshape(1, -1))[0])

    def test_shape_validation(self):
        def bad(X):
            return np.zeros((len(X), 2))

        with pytest.raises(ValueError, match="shape"):
            maximize_acquisition(bad, BOUNDS, rng=0)

    def test_candidate_count_validation(self):
        with pytest.raises(ValueError):
            maximize_acquisition(quadratic, BOUNDS, n_candidates=0)
