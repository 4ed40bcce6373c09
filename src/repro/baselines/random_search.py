"""Pure random search — the sanity-check floor for every other algorithm."""

from __future__ import annotations

from repro.core.bo import BODriverBase
from repro.core.problem import Problem

__all__ = ["RandomSearch"]


class RandomSearch(BODriverBase):
    """Evaluate ``max_evals`` uniform points, ``n_workers`` at a time.

    Its campaign (label ``Random-<n_workers>``) is all initial design:
    ``n_init = max_evals``, drawn in one call up front.  The shared loop
    keeps every worker busy, so random search journals and resumes like
    every BO label.  Other keyword arguments (``failure_policy``,
    ``journal``, ``tracer``, ...) are the BO drivers'.
    """

    def __init__(
        self,
        problem: Problem,
        *,
        max_evals: int,
        rng=None,
        n_workers: int = 1,
        pool_factory=None,
        **kwargs,
    ):
        if max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        super().__init__(
            problem, f"Random-{int(n_workers)}", max_evals=max_evals, rng=rng,
            pool_factory=pool_factory, **kwargs,
        )
