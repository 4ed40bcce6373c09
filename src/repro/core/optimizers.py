"""Acquisition-function maximization.

The inner optimization of BO: a dense random-candidate sweep (cheap, batched
GP prediction) followed by L-BFGS-B polish from the best candidates.  For the
10-12 dimensional sizing spaces in the paper this hybrid is the standard
workhorse; a pure random mode is kept for tests and very cheap loops.

The polish takes forward-difference gradients, and it scores each point
together with its ``d`` neighbours in one ``(d + 1)``-row call, so a
gradient costs one batched GP prediction instead of ``d + 1`` single-row
ones.  The scorer must therefore be row-wise: one row's score may not
depend on the other rows of the call.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from repro.utils.rng import as_generator
from repro.utils.validation import check_bounds

__all__ = ["maximize_acquisition"]

#: Forward-difference step of the polish gradient (scipy's L-BFGS-B ``eps``).
_FD_STEP = 1e-8


def maximize_acquisition(
    acq_values,
    bounds,
    *,
    rng=None,
    n_candidates: int = 2048,
    n_restarts: int = 4,
    polish: bool = True,
    maxiter: int = 60,
    obs=None,
) -> np.ndarray:
    """Return ``argmax`` of an acquisition over a box.

    Parameters
    ----------
    acq_values:
        Callable mapping a ``(n, d)`` array of candidates to ``(n,)``
        acquisition values, row by row: a row's value may not depend on the
        other rows of the call.
    bounds:
        Box bounds, shape ``(d, 2)``.
    n_candidates:
        Size of the random sweep.
    n_restarts:
        Number of top candidates polished with L-BFGS-B.
    polish:
        Disable to use the sweep result directly.
    obs:
        Optional :class:`~repro.obs.Observability`: counts maximizations,
        polish restarts, polish evaluations (one ``(d + 1)``-row scorer call
        each), and restarts that improved on the sweep.
    """
    bounds = check_bounds(bounds)
    if n_candidates < 1:
        raise ValueError("n_candidates must be >= 1")
    rng = as_generator(rng)
    d = bounds.shape[0]
    if obs is None:
        from repro.obs import NULL_OBS as obs  # noqa: N811 — facade singleton
    obs.inc("acquisition.maximizations")

    candidates = rng.uniform(bounds[:, 0], bounds[:, 1], size=(n_candidates, d))
    values = np.asarray(acq_values(candidates), dtype=float)
    if values.shape != (n_candidates,):
        raise ValueError(
            f"acquisition returned shape {values.shape}, expected ({n_candidates},)"
        )
    # Non-finite scores rank below every finite one (NaN would sort first
    # here), so a finite polish result beats a non-finite incumbent.
    values = np.where(np.isfinite(values), values, -np.inf)
    order = np.argsort(values)[::-1]

    best_x = candidates[order[0]]
    best_val = values[order[0]]
    if not polish:
        return best_x.copy()

    upper = bounds[:, 1]

    def negative_and_gradient(x: np.ndarray) -> tuple[float, np.ndarray]:
        # scipy's 2-point rule for eps=1e-8: step up, or down where the step
        # would leave the box, and divide by the step x really took.
        step = np.where(x + _FD_STEP > upper, -_FD_STEP, _FD_STEP)
        scores = np.asarray(acq_values(np.vstack([x, x + np.diag(step)])), dtype=float)
        negated = np.where(np.isfinite(scores), -scores, 1e30)
        return float(negated[0]), (negated[1:] - negated[0]) / ((x + step) - x)

    for start_idx in order[: max(1, n_restarts)]:
        obs.inc("acquisition.polish_restarts")
        result = optimize.minimize(
            negative_and_gradient,
            candidates[start_idx],
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": maxiter},
        )
        obs.inc("acquisition.polish_evals", result.nfev)
        if np.all(np.isfinite(result.x)) and -result.fun > best_val:
            best_val = -result.fun
            best_x = result.x
            obs.inc("acquisition.polish_improvements")
    return np.clip(best_x, bounds[:, 0], bounds[:, 1])
