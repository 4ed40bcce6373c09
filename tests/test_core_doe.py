"""Tests for initial experimental designs."""

import numpy as np
import pytest

from repro.core.doe import random_design

BOUNDS = np.array([[0.0, 1.0], [-5.0, 5.0], [100.0, 200.0]])


class TestRandomDesign:
    def test_shape_and_bounds(self):
        X = random_design(BOUNDS, 50, rng=0)
        assert X.shape == (50, 3)
        assert np.all(X >= BOUNDS[:, 0]) and np.all(X <= BOUNDS[:, 1])

    def test_deterministic(self):
        np.testing.assert_array_equal(
            random_design(BOUNDS, 5, rng=7), random_design(BOUNDS, 5, rng=7)
        )

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            random_design(BOUNDS, 0)

