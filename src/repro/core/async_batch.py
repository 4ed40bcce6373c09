"""Asynchronous batch Bayesian optimization — EasyBO proper (paper §III, Alg. 1).

The loop is the paper's Algorithm 1, :meth:`BODriverBase._drive
<repro.core.bo.BODriverBase._drive>` run with B workers:

1. keep B workers busy; **wait for any one** to finish (line 3);
2. fold the new observation into the dataset (line 4);
3. hallucinate the B-1 still-running points at their predictive means and
   refit sigma-hat around them (lines 5-6, the penalization scheme §III-C);
4. draw ``w = kappa/(kappa+1)``, ``kappa ~ U[0, lambda]``, and maximize
   ``(1-w) mu + w sigma_hat`` (Eq. 9) for the idle worker (line 7).

This driver only names its campaign: ``<family>-<B>`` with a pending-point
policy (``cEasyBO`` / ``caEasyBO`` for the side-model drivers), the label
that :func:`~repro.core.easybo.make_algorithm` hands the base driver as is.
``penalized=False`` gives the EasyBO-A ablation (asynchronous issue, plain
sigma).  ``batch_size=1`` degenerates to sequential EasyBO.
Step 3's pending-point handling is pluggable via ``pending_policy=`` (see
:mod:`repro.core.pending`): ``"hallucinate"`` (the default, Eq. 9),
``"lp"`` (local penalisation), ``"pessimistic"`` (pessimistic asynchronous
sampling), or ``"none"`` (standard acquisition, same as
``penalized=False``).

Step 3 is the hot path: the hallucinated model is a factor-sharing
:class:`~repro.core.surrogate.HallucinatedView` (one rank-(B-1) append to
the cached Cholesky factor, discarded for free), and with ``refit_every=K``
the step-2 refit pays ML-II only every K-th dispatch — between those, new
observations enter by rank-k factor updates instead of O(n^3) rebuilds.
"""

from __future__ import annotations

from repro.core.bo import BODriverBase
from repro.core.campaign import FAMILIES

__all__ = ["AsynchronousBatchBO"]


class AsynchronousBatchBO(BODriverBase):
    """EasyBO (penalized) and EasyBO-A (unpenalized) asynchronous drivers."""

    #: Label family the campaign is built from: ``<family>-<batch_size>``.
    family = "EasyBO"

    def __init__(
        self,
        problem,
        *,
        batch_size: int,
        penalized: bool = True,
        pending_policy=None,
        **kwargs,
    ):
        if pending_policy is None:
            row = FAMILIES["easybo" if penalized else "easybo-a"]
            pending_policy = row.knobs["pending_policy"]
        super().__init__(
            problem, f"{self.family}-{batch_size}",
            pending_policy=pending_policy, **kwargs,
        )

    @property
    def penalized(self) -> bool:
        """Whether pending points are hallucinated (Eq. 9)."""
        return self.pending_policy == "hallucinate"
