"""Synchronous batch Bayesian optimization (paper §II-C and ablations).

One driver, several batch-selection strategies:

* ``"pbo"``    — pBO [Hu et al. 2018]: B weighted acquisitions on a uniform
  weight grid, each maximized independently on the same GP (Eq. 4).
* ``"phcbo"``  — pBO plus the high-coverage distance penalty (Eq. 5/6).
* ``"easybo-s"``  — EasyBO's randomized weights, selected independently
  (ablation: new acquisition, no penalization).
* ``"easybo-sp"`` — randomized weights *with* the pending-point
  hallucination applied sequentially inside the batch (ablation: new
  acquisition + new penalization, synchronous issue).
* ``"bucb"``   — GP-BUCB [Desautels et al. 2014]: hallucinated UCB (extension).
* ``"lp"``     — local penalization [Gonzalez et al. 2016] around batch
  points using a Lipschitz estimate (extension).
* ``"mace"``   — simplified MACE [Lyu et al. 2018]: sample the batch from
  the Pareto front of the (EI, PI, UCB) acquisition ensemble (extension;
  the original uses a multi-objective evolutionary solver, we use a dense
  candidate sweep + non-dominated filtering).

All strategies share the synchronous schedule: the next batch is only issued
once every member of the previous batch has finished (the barrier the paper's
asynchronous scheme removes), which is :func:`~repro.core.bo.refill`'s rule
for the family.  The driver only names its campaign (``<strategy>-<B>``); the
rules live in :class:`~repro.core.campaign.SyncBatchStrategy`, whose
``select`` is the one source of batches for drivers, standalone campaigns and
the server alike (ablations subclass it and override ``model_batch``).

The hallucinating strategies (``easybo-sp``, ``bucb``) build each batch
member's model through :meth:`SurrogateSession.model_with_pending`, so every
greedy step is a rank-k :class:`~repro.core.surrogate.HallucinatedView` over
the cached factor rather than a per-point posterior rebuild.
"""

from __future__ import annotations

from repro.core.bo import BODriverBase
from repro.core.campaign import SyncBatchStrategy, _pareto_front_mask  # noqa: F401 — re-export

__all__ = ["SynchronousBatchBO", "SYNC_STRATEGIES"]

SYNC_STRATEGIES = SyncBatchStrategy.STRATEGIES


class SynchronousBatchBO(BODriverBase):
    """Batch BO with a barrier between batches."""

    def __init__(
        self, problem, *, batch_size: int, strategy: str = "easybo-sp", **kwargs
    ):
        if strategy.lower() not in SYNC_STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; choose from {SYNC_STRATEGIES}"
            )
        super().__init__(problem, f"{strategy}-{batch_size}", **kwargs)

    @property
    def strategy(self) -> str:
        """The batch-selection rule (``"pbo"``, ``"easybo-sp"``, ...)."""
        return self.campaign.strategy.strategy
