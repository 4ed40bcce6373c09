"""Asynchronous batch Bayesian optimization — EasyBO proper (paper §III, Alg. 1).

The loop is the paper's Algorithm 1:

1. keep B workers busy; **wait for any one** to finish (line 3);
2. fold the new observation into the dataset (line 4);
3. hallucinate the B-1 still-running points at their predictive means and
   refit sigma-hat around them (lines 5-6, the penalization scheme §III-C);
4. draw ``w = kappa/(kappa+1)``, ``kappa ~ U[0, lambda]``, and maximize
   ``(1-w) mu + w sigma_hat`` (Eq. 9) for the idle worker (line 7).

``penalized=False`` gives the EasyBO-A ablation (asynchronous issue, plain
sigma).  ``batch_size=1`` degenerates to sequential EasyBO.  Step 3's
pending-point handling is pluggable via ``pending_policy=`` (see
:mod:`repro.core.pending`): ``"hallucinate"`` (the default, Eq. 9),
``"lp"`` (local penalisation), ``"pessimistic"`` (pessimistic asynchronous
sampling), or ``"none"`` (standard acquisition, same as
``penalized=False``).

Step 3 is the hot path: in the default ``surrogate_update="incremental"``
mode the hallucinated model is a factor-sharing
:class:`~repro.core.surrogate.HallucinatedView` (one rank-(B-1) append to
the cached Cholesky factor, discarded for free), and with ``refit_every=K``
the step-2 refit pays ML-II only every K-th dispatch — between those, new
observations enter by rank-k factor updates instead of O(n^3) rebuilds.
"""

from __future__ import annotations

import numpy as np

from repro.core.acquisition import EASYBO_LAMBDA
from repro.core.bo import BODriverBase
from repro.core.campaign import AsyncBatchStrategy, policy_family
from repro.core.results import RunResult

__all__ = ["AsynchronousBatchBO"]


class AsynchronousBatchBO(BODriverBase):
    """EasyBO (penalized) and EasyBO-A (unpenalized) asynchronous drivers."""

    def __init__(
        self,
        problem,
        *,
        batch_size: int,
        penalized: bool = True,
        lam: float = EASYBO_LAMBDA,
        pending_policy=None,
        **kwargs,
    ):
        super().__init__(problem, **kwargs)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = int(batch_size)
        self.lam = float(lam)
        strategy = AsyncBatchStrategy(
            penalized=penalized, lam=self.lam, pending_policy=pending_policy
        )
        self.penalized = strategy.penalized
        self.pending_policy = strategy.pending_policy.name
        # The label round-trips through make_algorithm (``EasyBO-LP-5``
        # parses back to the ``lp`` policy).
        self.algorithm_name = policy_family(self.pending_policy).label(batch_size)
        self.campaign.strategy = strategy
        self.campaign.batch_size = self.batch_size
        self.campaign.algorithm = self.algorithm_name
        self.campaign._config.update(lam=self.lam, pending_policy=self.pending_policy)

    def _propose_async(self, pool) -> np.ndarray:
        """One Alg. 1 iteration of model refinement and point selection.

        Thin hook over :meth:`Campaign.propose` — the campaign's pending set
        mirrors ``pool.pending_points()`` point-for-point, so the Eq. 9
        hallucination sees the same matrix it always did.  Subclasses
        (constrained, cost-aware) override this to plug their side models
        into :meth:`AsyncBatchStrategy.propose`.
        """
        return self.campaign.propose()

    def _drive(self, pool) -> RunResult:
        """Alg. 1 as an ask/tell loop, resumable at any boundary.

        ``refill`` is a fixpoint (fill every idle worker, budget permitting),
        so entering the loop with restored in-flight points behaves exactly
        as the uninterrupted run at the same boundary would.
        """
        campaign = self.campaign

        def refill() -> None:
            """Keep every idle worker busy (initial design first, then BO)."""
            while not campaign.exhausted and pool.idle_count > 0:
                campaign.ask(
                    _propose=lambda: self._propose_async(pool),
                    _issue=lambda x: self._submit(pool, x),
                )

        refill()
        iteration = 0
        while not campaign.exhausted:
            # One Alg. 1 cycle: wait for any worker, absorb, refill idle
            # slots (each refill nests fit/hallucinate/acquisition spans).
            with self.obs.span("iteration", index=iteration):
                self._consume(pool, self._wait(pool))
                refill()
            self.obs.inc("driver.iterations")
            iteration += 1
        while pool.busy_count:
            with self.obs.span("drain"):
                self._consume(pool, self._wait(pool))
        return self._package(pool)
