"""Initial experimental designs.

The paper seeds every BO run with 20 random samples.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.validation import check_bounds

__all__ = ["random_design"]


def random_design(bounds, n: int, rng=None) -> np.ndarray:
    """``n`` i.i.d. uniform points in the box; shape ``(n, d)``."""
    bounds = check_bounds(bounds)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = as_generator(rng)
    return rng.uniform(bounds[:, 0], bounds[:, 1], size=(n, bounds.shape[0]))

