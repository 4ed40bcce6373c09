"""Ask/tell optimizer core — the paper's Algorithm 1 as a value, not a loop.

Every driver in this repo runs the same event cycle: wait for a worker, fold
the observation into the GP (Alg. 1 line 4), hallucinate the still-pending
points (lines 5-6, Eq. 9), maximize the weighted acquisition (line 7), issue
the winner.  Historically that cycle was fused into each driver's ``run()``,
so one process owned one run end-to-end.  :class:`Campaign` extracts it into
an explicit ask/tell object whose state is a value:

* :meth:`Campaign.ask` returns the next point(s) — initial-design rows first,
  then the family strategy's refit/hallucinate/acquisition pipeline
  (including the Eq. 9 pending-point penalization via
  :meth:`SurrogateSession.model_with_pending`);
* :meth:`Campaign.tell` folds one observation back in, applying the failure
  policy (impute / drop / budget-neutral orphan reissue).

The driver of every label but DE (:class:`~repro.core.bo.BODriverBase`) is a
thin loop over the Campaign :func:`make_campaign` builds for its label
(byte-for-byte equal to the golden trajectories — see
``tests/test_campaign_equivalence.py``) and writes its crash-safe journal
through it, and :mod:`repro.distributed.server` serves
many concurrent Campaigns over the framed socket RPC.  Every journal is the
same event log (``campaign_start`` / ``doe`` / ``ask`` / ``tell`` /
``campaign_end``), replayed by one loop (:meth:`Campaign._replay`).

Proposals come only from per-family :class:`Strategy` objects, side models
included, so the same pipeline backs the drivers, standalone campaigns and
the server for every label but DE: every one-point label proposes through
:class:`AsyncBatchStrategy`, and random search is a campaign whose initial
design is its whole budget.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Callable, NamedTuple

import numpy as np

from repro.core.acquisition import (
    EASYBO_LAMBDA,
    ExpectedImprovement,
    HighCoveragePenalty,
    ProbabilityOfImprovement,
    UpperConfidenceBound,
    WeightedAcquisition,
    pbo_weights,
    sample_easybo_weight,
)
from repro.core.doe import random_design
from repro.core.faults import FailurePolicy
from repro.core.journal import (
    JOURNAL_VERSION,
    JournalError,
    JournalWriter,
    recover_journal,
)
from repro.core.optimizers import maximize_acquisition
from repro.core.pending import LocalPenalisationPolicy, make_pending_policy
from repro.core.problem import STATUS_ORPHANED, Problem
from repro.core.surrogate import SurrogateSession
from repro.obs import NULL_OBS
from repro.utils.rng import as_generator, rng_state_to_dict, set_rng_state

__all__ = [
    "CAMPAIGN_JOURNAL_VERSION",
    "Campaign",
    "CampaignError",
    "CampaignExhausted",
    "Strategy",
    "AsyncBatchStrategy",
    "SyncBatchStrategy",
    "FAMILIES",
    "Family",
    "parse_label",
    "policy_family",
    "make_campaign",
    "resume_campaign",
    "read_campaign_journal",
    "read_resumable_journal",
]

#: Version stamp embedded in every ``campaign_start`` record.  Bump when the
#: campaign event schema changes incompatibly.
CAMPAIGN_JOURNAL_VERSION = 1

#: Bounded redraw budget for the cold-start dedupe: a fresh uniform draw
#: colliding with an in-flight point is measure-zero on a continuous domain,
#: so a handful of retries is already overkill — the bound only guards
#: degenerate (e.g. single-point) domains from spinning forever.
_COLD_REDRAW_ATTEMPTS = 32


class CampaignError(RuntimeError):
    """A campaign was driven outside its ask/tell contract."""


class CampaignExhausted(CampaignError):
    """``ask()`` was called after the evaluation budget was fully issued."""


def _pareto_front_mask(scores: np.ndarray) -> np.ndarray:
    """Boolean mask of rows not dominated by any other row (maximization)."""
    n = scores.shape[0]
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        dominated = np.all(scores >= scores[i], axis=1) & np.any(
            scores > scores[i], axis=1
        )
        if dominated.any():
            mask[i] = False
    return mask


# --------------------------------------------------------------------------
# Per-family proposal strategies.  Each receives the Campaign ("core") and
# uses only its public surface: session, rng, obs, pending_matrix, maximize,
# maximize_unit, standardized_best, cold_block.
# --------------------------------------------------------------------------
class Strategy:
    """The protocol every family strategy follows.

    The one-point kind (``"async"``) implements ``propose(core)``; the
    synchronous kind (``"sync"``) implements ``select(core, n)``.
    Side state lives in ``side_models`` (``snapshot()``/``restore()``
    objects, journaled with every ask) and is fed by :meth:`absorb`, which
    runs after every observation enters the surrogate, live and on replay.
    A strategy that never proposes (``proposes = False``) makes its
    campaign's initial design the whole budget.
    """

    kind: str
    proposes = True

    @property
    def side_models(self) -> list:
        return []

    def absorb(self, core: "Campaign", x, result) -> None:
        """Fold one observation into the side datasets (none by default)."""


class AsyncBatchStrategy(Strategy):
    """One-point proposals: the paper's Alg. 1 step for every one-point label.

    Each proposal refits the GP, refits the side models, asks the pending
    policy for the model to maximize over, and maximizes the base
    ``acquisition`` on it: ``"easybo"`` (the randomized-weight rule of
    Eq. 8), ``"ei"`` / ``"pi"`` (improvement baselines) or ``"lcb"`` /
    ``"ucb"`` (the optimistic baseline; the paper's LCB is the minimization
    spelling of UCB).  The policy decides how in-flight points shape the
    proposal: the default ``"hallucinate"`` folds them in at predictive
    means (lines 5-6, Eq. 9), ``"lp"`` penalizes the acquisition in
    Lipschitz balls around them, ``"pessimistic"`` hallucinates at
    ``mu - beta * sigma``, and ``"none"`` ignores them (standard
    acquisition).  See :mod:`repro.core.pending`.  With nothing in flight
    every policy maximizes over the fitted model, so at B = 1 this is
    classic sequential BO.  Subclasses with side models (constrained,
    cost-aware) override :meth:`fit_side_models` and :meth:`reshape`;
    GP-Hedge overrides :meth:`choose`.
    """

    kind = "async"

    ACQUISITIONS = ("easybo", "ei", "pi", "lcb", "ucb")

    def __init__(
        self,
        acquisition: str = "easybo",
        *,
        lam: float = EASYBO_LAMBDA,
        pending_policy=None,
    ):
        acquisition = acquisition.lower()
        if acquisition not in self.ACQUISITIONS:
            raise ValueError(f"unknown acquisition {acquisition!r}")
        self.acquisition = acquisition
        self.pending_policy = make_pending_policy(pending_policy)
        self.lam = float(lam)

    def propose(self, core: "Campaign") -> np.ndarray:
        """One Alg. 1 proposal."""
        if core.session.n_observations < 2:
            # The whole initial design may still be in flight (B >= n_init),
            # or dropped failures starved the GP; it has nothing to say yet,
            # so explore uniformly — but never re-issue a point that is
            # already under evaluation.
            return core.cold_block(1)[0]
        core.session.refit()
        self.fit_side_models(core)
        pending = core.pending_matrix()
        model = self.pending_policy.model(core.session, pending)
        return self.choose(core, model, pending)

    def choose(self, core: "Campaign", model, pending) -> np.ndarray:
        """Maximize the policy-wrapped, reshaped acquisition over ``model``."""
        acquisition = self.pending_policy.wrap(
            core.session, model, self.make_acquisition(core), pending, rng=core.rng
        )
        return core.maximize(self.reshape(acquisition), model=model)

    def make_acquisition(self, core: "Campaign"):
        if self.acquisition == "easybo":
            return WeightedAcquisition(sample_easybo_weight(core.rng, self.lam))
        if self.acquisition == "ei":
            return ExpectedImprovement(core.standardized_best())
        if self.acquisition == "pi":
            # xi = 0, not the class's 0.01 (MACE's PI keeps that one).
            return ProbabilityOfImprovement(core.standardized_best(), xi=0.0)
        return UpperConfidenceBound()

    def fit_side_models(self, core: "Campaign") -> None:
        """Refit the side models; runs right after the GP refit, so their
        RNG draws keep their place in the stream (none by default)."""

    def reshape(self, acquisition):
        """The acquisition to maximize, given the pending policy's one."""
        return acquisition


class SyncBatchStrategy(Strategy):
    """Synchronous batch selection: pBO / pHCBO / EasyBO-S(P) / BUCB / LP / MACE."""

    kind = "sync"

    STRATEGIES = ("pbo", "phcbo", "easybo-s", "easybo-sp", "bucb", "lp", "mace")

    def __init__(
        self,
        strategy: str = "easybo-sp",
        *,
        batch_size: int = 1,
        lam: float = EASYBO_LAMBDA,
        hc_d: float | None = None,
        dim: int,
    ):
        strategy = strategy.lower()
        if strategy not in self.STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; choose from {self.STRATEGIES}"
            )
        self.strategy = strategy
        self.batch_size = int(batch_size)
        self.lam = float(lam)
        self.hc_d = hc_d
        self._hc = HighCoveragePenalty(dim, d=hc_d) if strategy == "phcbo" else None

    @property
    def side_models(self) -> list:
        """pHCBO's per-slot coverage history."""
        return [] if self._hc is None else [self._hc]

    def select(self, core: "Campaign", n_points: int) -> list[np.ndarray]:
        """Choose ``n_points`` query points for the next batch."""
        if core.session.n_observations < 2:
            # Too many dropped failures for the GP: fall back to uniform
            # exploration for this batch.
            return core.cold_block(n_points)
        with core.obs.span("select-batch", n_points=n_points):
            return self.model_batch(core, n_points)

    def model_batch(self, core: "Campaign", n_points: int) -> list[np.ndarray]:
        """The batch the refitted GP picks (ablations override this)."""
        model = core.session.refit()
        if self.strategy == "pbo":
            return [
                core.maximize(WeightedAcquisition(w), model=model)
                for w in pbo_weights(self.batch_size)[:n_points]
            ]
        if self.strategy == "phcbo":
            return self._select_phcbo(core, model, n_points)
        if self.strategy == "easybo-s":
            return [
                core.maximize(
                    WeightedAcquisition(sample_easybo_weight(core.rng, self.lam)),
                    model=model,
                )
                for _ in range(n_points)
            ]
        if self.strategy == "easybo-sp":
            return self._select_hallucinated(
                core,
                n_points,
                lambda: WeightedAcquisition(sample_easybo_weight(core.rng, self.lam)),
            )
        if self.strategy == "bucb":
            return self._select_hallucinated(core, n_points, UpperConfidenceBound)
        if self.strategy == "mace":
            return self._select_mace(core, model, n_points)
        return self._select_lp(core, model, n_points)

    def _select_mace(self, core, model, n_points: int) -> list[np.ndarray]:
        """Sample the batch from the Pareto front of an acquisition ensemble.

        MACE keeps batch diversity by drawing from the set of candidates that
        are non-dominated under (EI, PI, UCB) simultaneously; points that are
        good under *different* exploration/exploitation trade-offs all
        survive the filter.
        """
        best_std = core.standardized_best()
        acqs = (
            ExpectedImprovement(best_std),
            ProbabilityOfImprovement(best_std),
            UpperConfidenceBound(),
        )
        U = core.rng.uniform(
            size=(max(core.acq_candidates, 4 * n_points), core.session.dim)
        )
        scores = np.column_stack([acq(model, U) for acq in acqs])
        front = _pareto_front_mask(scores)
        front_idx = np.nonzero(front)[0]
        if len(front_idx) >= n_points:
            chosen = core.rng.choice(front_idx, size=n_points, replace=False)
        else:
            extra = core.rng.choice(
                len(U), size=n_points - len(front_idx), replace=False
            )
            chosen = np.concatenate([front_idx, extra])
        return [core.session.to_physical(U[i].reshape(1, -1))[0] for i in chosen]

    def _select_phcbo(self, core, model, n_points: int) -> list[np.ndarray]:
        """pBO weights plus the per-slot coverage penalty of Eq. 5/6.

        The penalty and the weighted acquisition are combined on the unit
        cube; each slot's chosen point is recorded for the next batches.
        """
        hc = self._hc
        points = []
        for slot, w in enumerate(pbo_weights(self.batch_size)[:n_points]):
            base = WeightedAcquisition(w)

            def scorer(U, _slot=slot, _base=base):
                return _base(model, U) - hc(_slot, U)

            u_best = core.maximize_unit(scorer)
            hc.record(slot, u_best)
            points.append(core.session.to_physical(u_best.reshape(1, -1))[0])
        return points

    def _select_hallucinated(self, core, n_points: int, make_acq) -> list[np.ndarray]:
        """Greedy batch: each member sees earlier members as pending.

        This is the paper's penalization scheme (§III-C) applied at a
        synchronous barrier (EasyBO-SP), or BUCB when the acquisition is a
        fixed UCB.
        """
        points: list[np.ndarray] = []
        for _ in range(n_points):
            pending = (
                np.vstack(points) if points else np.empty((0, core.session.dim))
            )
            model = core.session.model_with_pending(pending)
            points.append(core.maximize(make_acq(), model=model))
        return points

    def _select_lp(self, core, model, n_points: int) -> list[np.ndarray]:
        """Local penalization: multiply EI by penalty balls around batch points.

        The Lipschitz constant is estimated as the largest finite-difference
        gradient norm of the posterior mean over a random probe set
        (Gonzalez et al. 2016, eq. 11 simplified).
        """
        lipschitz = LocalPenalisationPolicy.estimate_lipschitz(
            model, core.session.dim, core.rng
        )
        best_std = core.standardized_best()
        ei = ExpectedImprovement(best_std)
        factor = LocalPenalisationPolicy.penalisation_factor
        points: list[np.ndarray] = []
        balls: list[tuple] = []  # (u_j, mu_j, sigma_j) per batch member

        def scorer(U):
            values = np.log(np.maximum(ei(model, U), 1e-40))
            for u_j, mu_j, sigma_j in balls:
                values += np.log(factor(U, u_j, mu_j, sigma_j, lipschitz, best_std))
            return values

        for _ in range(n_points):
            u_best = core.maximize_unit(scorer)
            mu_j, sigma_j = model.predict(u_best.reshape(1, -1))
            balls.append((u_best, mu_j[0], sigma_j[0]))
            points.append(core.session.to_physical(u_best.reshape(1, -1))[0])
        return points


class DesignStrategy(Strategy):
    """Random search: the initial design is the whole budget (``n_init =
    max_evals``), so the campaign serves design rows only and never asks
    this strategy to propose."""

    kind = "async"
    proposes = False


# --------------------------------------------------------------------------
# The Campaign itself.
# --------------------------------------------------------------------------
class Campaign:
    """Ask/tell Bayesian-optimization state.

    A Campaign owns the surrogate session, the RNG, the initial design, the
    set of in-flight (asked but not yet told) points, and the failure-policy
    bookkeeping.  It does **not** own workers: callers decide how asked
    points get evaluated — a driver submits them to a pool, a server hands
    them to remote clients.

    Parameters mirror the drivers'; ``journal`` attaches a write-ahead
    journal (path or object with ``append``) recording every ask/tell so
    :func:`resume_campaign` can rebuild the exact state after a crash.  A
    campaign evaluated on a pool (a driver's, or a server-evaluated one)
    also journals the pool facts (issue slot, evaluation record, clock) that
    :func:`repro.core.recovery.reconcile` needs to restore the pool.

    The ``strategy`` is the only source of proposals; its side state rides
    the journal too (see :class:`Strategy`).
    """

    def __init__(
        self,
        problem: Problem,
        strategy: Strategy,
        *,
        n_init: int = 20,
        max_evals: int = 150,
        batch_size: int = 1,
        rng=None,
        failure_policy: FailurePolicy | None = None,
        acq_candidates: int = 2048,
        acq_restarts: int = 4,
        refit_every: int = 1,
        obs=None,
        journal=None,
        algorithm: str = "campaign",
        embedded: bool = False,
    ):
        if max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        if not strategy.proposes:
            n_init = max_evals
        if n_init < 1 or (n_init < 2 and max_evals > n_init):
            # A design-only campaign (random search) never fits the GP.
            raise ValueError("n_init must be >= 2 (the GP needs data)")
        if max_evals < n_init:
            raise ValueError("max_evals must be >= n_init")
        self.problem = problem
        self.strategy = strategy
        self.n_init = int(n_init)
        self.max_evals = int(max_evals)
        self.batch_size = int(batch_size)
        self.rng = as_generator(rng)
        self.failure_policy = failure_policy or FailurePolicy()
        self.acq_candidates = int(acq_candidates)
        self.acq_restarts = int(acq_restarts)
        self.obs = obs if obs is not None else NULL_OBS
        self.algorithm = algorithm
        self.session = SurrogateSession(
            problem.bounds, rng=self.rng, refit_every=refit_every, obs=self.obs
        )
        self.design: np.ndarray | None = None
        self.issued = 0
        self.pending: list[np.ndarray] = []
        self.reissue_counts: dict[bytes, int] = {}
        self.last_action: tuple[str | None, float | None] = (None, None)
        self.finished = False
        self._pending_failure_action: str | None = None
        self._embedded = bool(embedded)
        self._config: dict = {}
        self._started = False
        if journal is None:
            self._journal, self._owns_journal = None, False
        elif hasattr(journal, "append"):
            self._journal, self._owns_journal = journal, False
        else:
            self._journal, self._owns_journal = JournalWriter(journal), True

    # ----------------------------------------------------------- properties
    @property
    def exhausted(self) -> bool:
        """Whole budget issued; only ``tell`` calls remain useful."""
        return self.issued >= self.max_evals

    @property
    def in_doe(self) -> bool:
        """Still serving initial-design rows."""
        return self.issued < self.n_init

    @property
    def done(self) -> bool:
        """Budget issued and every asked point told back."""
        return self.exhausted and not self.pending

    @property
    def n_pending(self) -> int:
        return len(self.pending)

    @property
    def n_observations(self) -> int:
        return self.session.n_observations

    @property
    def side_models(self) -> list:
        """The strategy's side models, journaled with every ask."""
        return self.strategy.side_models

    def best(self) -> tuple[np.ndarray, float] | None:
        """Best observation so far, or ``None`` before any data."""
        if self.session.n_observations == 0:
            return None
        y = self.session.y
        idx = int(np.argmax(y))
        return self.session.X[idx].copy(), float(y[idx])

    def pending_matrix(self) -> np.ndarray:
        """In-flight points as an (k, dim) array in issue order.

        Mirrors ``pool.pending_points()`` in the embedded drivers: the same
        points in the same order, so the Eq. 9 hallucination sees an
        identical matrix whichever side supplies it.
        """
        if not self.pending:
            return np.empty((0, self.session.dim))
        return np.vstack(self.pending)

    # ------------------------------------------------------------ lifecycle
    def start(self, **fields) -> np.ndarray:
        """Draw the initial design (idempotent) and journal it.

        ``fields`` ride along on the ``campaign_start`` record (drivers
        journal their ``checkpoint_every`` there).
        """
        if self.design is None:
            self._journal_start(fields)
            self.design = random_design(self.problem.bounds, self.n_init, self.rng)
            self._journal_event(
                {
                    "type": "doe",
                    "design": [[float(v) for v in row] for row in self.design],
                    "rng_state": rng_state_to_dict(self.rng),
                }
            )
        return self.design

    def finish(self) -> None:
        """Journal the campaign end and release the journal sink."""
        if self.finished:
            return
        self.finished = True
        best = self.best()
        self._journal_event(
            {
                "type": "campaign_end",
                "issued": int(self.issued),
                "n_observations": int(self.session.n_observations),
                "best_fom": None if best is None else best[1],
            }
        )
        self.close()

    def close(self, event: dict | None = None) -> None:
        """Release the journal sink without marking the campaign finished.

        ``event`` is journaled first: the campaign server records why a
        campaign stopped (``campaign_suspend`` / ``campaign_fail``) this way.
        """
        if event is not None:
            self._journal_event(event)
        if self._owns_journal and self._journal is not None:
            self._journal.close()
            self._journal = None

    # ------------------------------------------------------------- ask/tell
    def ask(self, n: int | None = None, *, request_id: str | None = None,
            _issue=None):
        """Return the next point (``n=None``) or batch of ``n`` points.

        Initial-design rows are served first; afterwards the family strategy
        runs the refit/hallucinate/acquisition pipeline.  Asked points are
        tracked as pending until the matching :meth:`tell`; a batch from a
        one-point family is ``n`` successive proposals, each seeing the
        earlier ones as pending.  Past its design a synchronous campaign is
        asked in whole batches only, ``ask(min(B, max_evals - issued))``:
        any other ask, like ``n < 1``, raises :class:`CampaignError` before
        any state changes.
        ``request_id`` rides along in the journal event so the campaign
        server can rebuild its idempotent reply cache after a restart (a
        retried ``ask`` whose reply was lost replays the journaled points
        instead of issuing new ones).  ``_issue`` is the hook of the loop
        step in :mod:`repro.core.bo`, not part of the public surface:
        ``_issue(x)`` submits each point to the pool and returns the issue
        facts (index, worker, issue time, batch) journaled with the ask, so
        the record is written once the points are really in flight.
        """
        if self.exhausted:
            raise CampaignExhausted(
                f"campaign {self.algorithm!r} has issued its whole budget "
                f"({self.max_evals} evaluations)"
            )
        size = min(1 if n is None else int(n), self.max_evals - self.issued)
        if size < 1:
            raise CampaignError("ask(n) needs n >= 1")
        whole = min(self.batch_size, self.max_evals - self.issued)
        if self.strategy.kind == "sync" and not self.in_doe and size != whole:
            raise CampaignError(
                f"synchronous campaign {self.algorithm!r} is asked in whole "
                f"batches past its design: ask({whole})"
            )
        self.start()
        points = self._block(size)
        issued = None if _issue is None else [_issue(p) for p in points]
        if not self._embedded:
            self.obs.inc("campaign.asks")
        if self._journal is not None:
            event = {
                "type": "ask",
                "points": [[float(v) for v in p] for p in points],
                "rng_state": rng_state_to_dict(self.rng),
                "surrogate": self.session.snapshot(),
            }
            if request_id is not None:
                event["request_id"] = str(request_id)
            if issued is not None:
                event["issued"] = issued
            if self.side_models:
                event["side_models"] = [m.snapshot() for m in self.side_models]
            self._journal.append(event)
        return points[0] if n is None else points

    def _block(self, n: int) -> list[np.ndarray]:
        """``n`` points (fewer at the design's end), marked pending."""
        if self.in_doe:
            end = min(self.issued + n, self.n_init)
            points = [np.asarray(row, dtype=float) for row in self.design[self.issued:end]]
        elif self.strategy.kind == "sync":
            points = [np.asarray(p, dtype=float) for p in self.strategy.select(self, n)]
        else:
            # Mark each member pending before proposing the next: the same
            # points, pending order and RNG stream as n one-point asks.
            points = []
            for _ in range(n):
                x = np.asarray(self.strategy.propose(self), dtype=float)
                if self._find_pending(x) is not None:
                    # Eq. 9 collapses sigma at a pending point but keeps mu,
                    # so an optimistic acquisition can land on a point in
                    # flight; never hand it to a second worker.
                    self.obs.inc("campaign.pending_collisions")
                    x = self.cold_block(1)[0]
                points.append(x)
                self._note_asked(points[-1:])
            return points
        self._note_asked(points)
        return points

    def _note_asked(self, points) -> None:
        for p in points:
            self.pending.append(np.asarray(p, dtype=float).copy())
        self.issued += len(points)

    def tell(self, x, result, *, request_id: str | None = None,
             _extra=None, _issue=None) -> str:
        """Fold one evaluation result back in; returns the action taken.

        ``"added"`` (observation recorded), ``"imputed"`` (failure recorded
        at a pessimistic FOM), ``"dropped"`` (budget spent, posterior
        unchanged), or ``"reissued"`` (orphaned point kept pending — the
        caller should evaluate it again; budget-neutral).  ``request_id``
        is journaled with the event (see :meth:`ask`).  The loop step's
        hooks: ``_extra(action)`` returns pool facts to journal with the
        outcome (the evaluation record and the clock), and ``_issue(x)``
        re-submits a reissued point, its new issue facts journaled too.

        Raises :class:`CampaignError` when ``x`` is not in the pending set —
        a point that was never asked, or one already told back.  Silently
        absorbing such a result would double-count budget and poison the
        pending bookkeeping every later hallucination reads.
        """
        x = np.asarray(x, dtype=float)
        if self._find_pending(x) is None:
            raise CampaignError(
                f"tell() for campaign {self.algorithm!r} got a point that is "
                f"not pending (never asked, or already told): {x.tolist()}"
            )
        issued = None
        if result.status == STATUS_ORPHANED and self.note_orphan(x):
            action = "reissued"
            if _issue is not None:
                issued = [_issue(x)]
        else:
            self.absorb(x, result)
            action = self.last_action[0]
        if not self._embedded:
            self.obs.inc("campaign.tells")
        if self._journal is not None:
            event = self._tell_event(x, result, action)
            if request_id is not None:
                event["request_id"] = str(request_id)
            if _extra is not None:
                event.update(_extra(action))
            if issued is not None:
                event["issued"] = issued
            self._journal.append(event)
        return action

    def note_orphan(self, x) -> bool:
        """Apply the orphan policy to ``x``; True means "evaluate it again".

        A reissued point moves to the end of the pending order, mirroring
        the fresh pool index a driver's budget-neutral resubmission gets.
        """
        policy = self.failure_policy
        key = np.asarray(x, dtype=float).tobytes()
        if policy.on_orphan == "reissue" and (
            self.reissue_counts.get(key, 0) < policy.max_reissues
        ):
            self._requeue(x)
            return True
        self._pending_failure_action = (
            "impute" if policy.on_orphan == "reissue" else policy.on_orphan
        )
        return False

    def _requeue(self, x) -> None:
        """Count one reissue of ``x`` and move it to the end of the pending order."""
        key = np.asarray(x, dtype=float).tobytes()
        self.reissue_counts[key] = self.reissue_counts.get(key, 0) + 1
        idx = self._find_pending(x)
        if idx is not None:
            self.pending.append(self.pending.pop(idx))

    def absorb(self, x, result) -> bool:
        """Fold a finished evaluation into the surrogate dataset.

        Failed evaluations follow the failure policy: ``"impute"`` records a
        pessimistic FOM at the failed point (so the surrogate steers away
        from it without poisoning the GP), ``"drop"`` records nothing — the
        budget slot is spent and the next proposal sees an unchanged
        posterior.  Returns True when an observation was added.
        """
        x = np.asarray(x, dtype=float)
        idx = self._find_pending(x)
        if idx is not None:
            del self.pending[idx]
        if result.ok:
            return self._observe(x, result, "added", result.fom)
        action = self._pending_failure_action or self.failure_policy.on_failure
        self._pending_failure_action = None
        if action == "impute" and self.session.n_observations > 0:
            return self._observe(x, result, "imputed", self.imputed_fom())
        self.last_action = ("dropped", None)
        return False

    def _observe(self, x, result, action: str, value) -> bool:
        """Add one observation (real or imputed); the strategy absorbs it too."""
        self.session.add(x, value)
        self.last_action = (action, float(value))
        self.strategy.absorb(self, x, result)
        return True

    def imputed_fom(self) -> float:
        """Pessimistic stand-in FOM for a failed evaluation."""
        policy = self.failure_policy
        if policy.impute_value is not None:
            return float(policy.impute_value)
        y = self.session.y
        span = float(y.max() - y.min())
        return float(y.min() - policy.impute_margin * max(span, 1.0))

    def _find_pending(self, x) -> int | None:
        key = np.asarray(x, dtype=float).tobytes()
        for i, p in enumerate(self.pending):
            if p.tobytes() == key:
                return i
        return None

    # --------------------------------------------------- strategy utilities
    def maximize(self, acquisition, model=None) -> np.ndarray:
        """Maximize an acquisition on the unit cube; return a physical point."""
        scorer = self.session.acquisition_on_unit(acquisition, model=model)
        return self.session.to_physical(self.maximize_unit(scorer).reshape(1, -1))[0]

    def maximize_unit(self, scorer) -> np.ndarray:
        """Maximize a unit-cube scorer ``scorer(U)``; return the unit-cube point.

        Every acquisition maximization runs here, under an
        ``acquisition-maximize`` span, with the campaign's RNG and budget.
        """
        with self.obs.span("acquisition-maximize"):
            return maximize_acquisition(
                scorer,
                self.session.unit_bounds(),
                rng=self.rng,
                n_candidates=self.acq_candidates,
                n_restarts=self.acq_restarts,
                obs=self.obs,
            )

    def standardized_best(self) -> float:
        """Incumbent best in the GP's standardized output scale."""
        return float(
            self.session.output.transform(np.array([self.session.best_y]))[0]
        )

    def cold_block(self, n: int) -> list[np.ndarray]:
        """A block of uniform exploration points, deduped against pending.

        The initial design (or a batch of cold draws) can still be pending
        when the GP has too little data to propose; drawing blindly here
        could hand the same point to two workers.  The block is drawn in one
        RNG call, and only a row that collides with an in-flight point (or
        an earlier row) pays a redraw: collisions are measure-zero for a
        fresh uniform draw, so the dedupe consumes no extra RNG on the
        overwhelmingly common path.
        """
        block = random_design(self.problem.bounds, n, self.rng)
        seen = [p.tobytes() for p in self.pending]
        out: list[np.ndarray] = []
        for row in block:
            x = np.asarray(row, dtype=float)
            for _ in range(_COLD_REDRAW_ATTEMPTS):
                if x.tobytes() not in seen:
                    break
                self.obs.inc("campaign.cold_redraws")
                x = random_design(self.problem.bounds, 1, self.rng)[0]
            seen.append(x.tobytes())
            out.append(x)
        return out

    # ------------------------------------------------------------ journaling
    def _journal_event(self, record: dict) -> None:
        if self._journal is not None:
            self._journal.append(record)

    def _journal_start(self, fields: dict) -> None:
        if self._started:
            return
        self._started = True
        self._journal_event(
            {
                "type": "campaign_start",
                "campaign_version": CAMPAIGN_JOURNAL_VERSION,
                "algorithm": self.algorithm,
                "problem": self.problem.name,
                "config": dict(self._config),
                "rng_state": rng_state_to_dict(self.rng),
                **fields,
            }
        )

    def _tell_event(self, x, result, action) -> dict:
        from repro.distributed.protocol import result_to_dict

        _, value = self.last_action if action != "reissued" else (None, None)
        return {
            "type": "tell",
            "x": [float(v) for v in x],
            "result": result_to_dict(result),
            "action": action,
            "value": None if value is None else float(value),
            "done": self.done,
        }

    # --------------------------------------------------------------- resume
    def _replay(self, events: list[dict]) -> "Campaign":
        """Fold a recovered journal into this freshly built campaign.

        Told observations re-enter the surrogate in their original order
        through the same path as live tells (imputed values included, the
        strategy's ``absorb`` too), the hyperparameter snapshot and the
        bit-exact RNG state come from the last ask, and asked-but-untold
        points come back as pending.  Integrity ``checkpoint`` records are
        verified against the replayed dataset.
        """
        from repro.distributed.protocol import result_from_dict

        self._started = True  # the start record is already durable
        rng_state, snapshot, sides = events[0]["rng_state"], None, ()
        for event in events[1:]:
            kind = event.get("type")
            if kind == "doe":
                self.design = np.asarray(event["design"], dtype=float)
                rng_state = event.get("rng_state", rng_state)
            elif kind == "ask":
                self._note_asked([np.asarray(p, dtype=float) for p in event["points"]])
                rng_state = event.get("rng_state", rng_state)
                snapshot = event.get("surrogate") or snapshot
                sides = event.get("side_models", sides)
            elif kind == "tell":
                x = np.asarray(event["x"], dtype=float)
                action = event.get("action")
                if action == "reissued":
                    self._requeue(x)
                    continue
                idx = self._find_pending(x)
                if idx is not None:
                    del self.pending[idx]
                result = result_from_dict(event["result"])
                if action == "added":
                    self._observe(x, result, action, result.fom)
                elif action == "imputed":
                    self._observe(x, result, action, float(event["value"]))
            elif kind == "checkpoint":
                expected = int(event.get("n_observations", -1))
                if expected >= 0 and expected != self.session.n_observations:
                    raise JournalError(
                        f"checkpoint expects {expected} observations but replay "
                        f"reconstructed {self.session.n_observations}"
                    )
        self.session.restore_snapshot(snapshot)
        for model, side in zip(self.side_models, sides):
            model.restore(side)
        set_rng_state(self.rng, rng_state)
        self._journal_event({"type": "campaign_resume", "n_pending": self.n_pending})
        return self


# --------------------------------------------------------------------------
# Label registry, label factory, and journal resume.
# --------------------------------------------------------------------------
#: The one algorithm-label grammar: a family, then an optional ``-<batch>``.
_LABEL_RE = re.compile(r"^(?P<family>[a-zA-Z][a-zA-Z-]*?)(?:-(?P<batch>\d+))?$")


class Family(NamedTuple):
    """One label family: everything its label means."""

    #: Display base of the result rows (``"pBO"`` -> ``"pBO-5"``).
    display: str
    #: Whether the label's ``-<B>`` sets the batch size; the one-point
    #: baselines (EI, PI, LCB, UCB) and GP-Hedge always run at 1.
    batched: bool
    #: The knobs of this family alone, with their defaults, journaled with
    #: its config next to the shared ``lam`` / ``hc_d``.
    knobs: dict
    #: ``build(problem, batch, rng, knobs)`` returns the family's
    #: :class:`Strategy`; ``None`` for DE, which has no campaign form.
    build: Callable | None
    #: Whether every row name carries the batch, ``-1`` included (the
    #: synchronous rows: ``pBO-1``).
    numbered: bool = False

    def label(self, batch: int) -> str:
        """Result-row name at batch size ``batch``."""
        if self.numbered or batch > 1:
            return f"{self.display}-{batch}"
        return self.display


def _one_point(acquisition: str) -> Callable:
    """Builder of a one-point baseline (EI, PI, LCB, UCB)."""
    return lambda problem, batch, rng, k: AsyncBatchStrategy(acquisition, lam=k["lam"])


def _easybo(problem, batch, rng, k) -> Strategy:
    return AsyncBatchStrategy(lam=k["lam"], pending_policy=k["pending_policy"])


def _sync(rule: str) -> Callable:
    """Builder of a synchronous batch rule."""
    return lambda problem, batch, rng, k: SyncBatchStrategy(
        rule, batch_size=batch, lam=k["lam"], hc_d=k["hc_d"], dim=problem.dim,
    )


# The side-model strategies live in modules that import this one, so their
# builders import them on first use; a cold import of this module stays lean.
def _constrained(problem, batch, rng, k) -> Strategy:
    from repro.core.constrained import ConstrainedStrategy

    return ConstrainedStrategy(
        problem, rng, lam=k["lam"], pending_policy=k["pending_policy"]
    )


def _cost_aware(problem, batch, rng, k) -> Strategy:
    from repro.core.cost_aware import CostAwareStrategy

    return CostAwareStrategy(
        problem.dim, rng, cost_exponent=k["cost_exponent"], lam=k["lam"],
        pending_policy=k["pending_policy"],
    )


def _hedge(problem, batch, rng, k) -> Strategy:
    from repro.core.portfolio import HedgeStrategy

    return HedgeStrategy(eta=k["eta"])


def _design(problem, batch, rng, k) -> Strategy:
    return DesignStrategy()


_HALLUCINATE = {"pending_policy": "hallucinate"}

#: Every algorithm label family, shared by ``make_algorithm`` and
#: :func:`make_campaign`; the display names round-trip through both.
FAMILIES = {
    "ei": Family("EI", False, {}, _one_point("ei")),
    "pi": Family("PI", False, {}, _one_point("pi")),
    "lcb": Family("LCB", False, {}, _one_point("lcb")),
    "ucb": Family("UCB", False, {}, _one_point("ucb")),
    "easybo": Family("EasyBO", True, _HALLUCINATE, _easybo),
    "easybo-a": Family("EasyBO-A", True, {"pending_policy": "none"}, _easybo),
    "easybo-lp": Family("EasyBO-LP", True, {"pending_policy": "lp"}, _easybo),
    "easybo-pess": Family(
        "EasyBO-PESS", True, {"pending_policy": "pessimistic"}, _easybo
    ),
    "pbo": Family("pBO", True, {}, _sync("pbo"), numbered=True),
    "phcbo": Family("pHCBO", True, {}, _sync("phcbo"), numbered=True),
    "easybo-s": Family("EasyBO-S", True, {}, _sync("easybo-s"), numbered=True),
    "easybo-sp": Family("EasyBO-SP", True, {}, _sync("easybo-sp"), numbered=True),
    "bucb": Family("BUCB", True, {}, _sync("bucb"), numbered=True),
    "lp": Family("LP", True, {}, _sync("lp"), numbered=True),
    "mace": Family("MACE", True, {}, _sync("mace"), numbered=True),
    "ceasybo": Family("cEasyBO", True, _HALLUCINATE, _constrained),
    "caeasybo": Family(
        "caEasyBO", True, {"cost_exponent": 1.0, **_HALLUCINATE}, _cost_aware
    ),
    "gp-hedge": Family("GP-Hedge", False, {"eta": 1.0}, _hedge),
    "de": Family("DE", True, {}, None),
    "random": Family("Random", True, {}, _design),
}


def parse_label(label: str, pending_policy=None) -> tuple[Family, int]:
    """Resolve a paper-style label into its :class:`Family` and batch size.

    Case-insensitive; a trailing ``-<int>`` is the batch size, at least 1
    (always 1 for the families it does not set).  Only the families with
    a ``pending_policy`` knob (the EasyBO rows, cEasyBO, caEasyBO) take
    one; the other one-point families hallucinate their in-flight points,
    a policy that is fixed, not selected.
    """
    match = _LABEL_RE.match(label.strip())
    if not match:
        raise ValueError(f"cannot parse algorithm label {label!r}")
    key = match.group("family").lower()
    if key not in FAMILIES:
        raise ValueError(
            f"unknown algorithm family {key!r} in label {label!r}; "
            f"known: {sorted(FAMILIES)}"
        )
    family = FAMILIES[key]
    batch = int(match.group("batch") or 1)
    if batch < 1:
        raise ValueError(f"batch size must be >= 1 in label {label!r}")
    if pending_policy is not None and "pending_policy" not in family.knobs:
        raise ValueError(
            "pending_policy applies to the asynchronous EasyBO family "
            f"only, not to {label!r}"
        )
    return family, batch if family.batched else 1


def policy_family(policy: str, family: Family | None = None) -> Family:
    """The row that names a ``family`` campaign (EasyBO by default) whose
    pending policy is ``policy``.

    The four EasyBO rows share one builder and differ only in the policy
    their label spells, so the policy picks the row (``EasyBO-3`` with
    ``"lp"`` is ``EasyBO-LP-3``), and one that no label spells reads
    ``EasyBO+<name>``.  A row that shares its builder with no other
    (cEasyBO, caEasyBO) keeps its name.
    """
    family = family or FAMILIES["easybo"]
    spellings = [row for row in FAMILIES.values() if row.build is family.build]
    if len(spellings) == 1:
        return family
    for row in spellings:
        if row.knobs["pending_policy"] == policy:
            return row
    return spellings[0]._replace(display=f"{spellings[0].display}+{policy}")


def make_campaign(label: str, problem: Problem, **kwargs) -> Campaign:
    """Build a :class:`Campaign` from a paper-style label.

    The one place a label becomes a campaign: its :data:`FAMILIES` row
    gives the strategy (side models included), display name, batch size
    and journaled knobs.  Accepts every label of
    :func:`repro.core.easybo.make_algorithm` but DE, whose generation
    barrier has no campaign form (``"EasyBO-5"``, ``"pBO-3"``, ``"LCB"``,
    ``"cEasyBO-3"``, ``"GP-Hedge"``, ``"Random-4"``, ...), and the
    driver of every such label builds its campaign here too
    (``embedded=True``).
    Random search is a campaign whose initial design is its whole budget.
    Keyword arguments are Campaign constructor kwargs (a dict
    ``failure_policy``, as journaled, is accepted) plus the shared knobs
    ``lam`` / ``hc_d`` and the row's own:
    ``cost_exponent`` (caEasyBO), ``eta`` (GP-Hedge) and ``pending_policy``
    (the EasyBO rows, cEasyBO, caEasyBO; a name from
    :data:`repro.core.pending.PENDING_POLICIES` or a policy instance) —
    which the EasyBO rows also spell as a label: ``"EasyBO-LP-5"`` /
    ``"EasyBO-PESS-5"`` / ``"EasyBO-A-5"``.
    """
    pending_policy = kwargs.pop("pending_policy", None)
    family, batch = parse_label(label, pending_policy)
    if family.build is None:
        raise ValueError(
            f"algorithm family {family.display!r} has no ask/tell campaign form"
        )
    knobs = {
        "lam": float(kwargs.pop("lam", EASYBO_LAMBDA)),
        "hc_d": kwargs.pop("hc_d", None),
    }
    # Knobs of one family are read for that family alone.
    for name, default in family.knobs.items():
        knobs[name] = kwargs.pop(name, default)
    if pending_policy is not None:
        knobs["pending_policy"] = pending_policy
    # Side models draw from the campaign's own generator.
    rng = kwargs["rng"] = as_generator(kwargs.get("rng"))
    strategy = family.build(problem, batch, rng, knobs)
    # Journaled as the strategy holds them, so resume rebuilds the same
    # strategy even when the label alone would imply another.
    knobs.update((name, getattr(strategy, name)) for name in family.knobs)
    if "pending_policy" in knobs:
        knobs["pending_policy"] = strategy.pending_policy.name
        family = policy_family(knobs["pending_policy"], family)
    policy = kwargs.pop("failure_policy", None)
    if isinstance(policy, dict):
        policy = FailurePolicy(**policy)
    campaign = Campaign(
        problem,
        strategy,
        batch_size=batch,
        failure_policy=policy,
        algorithm=family.label(batch),
        **kwargs,
    )
    # The journaled config that rebuilds the campaign from its label; the
    # whole failure policy rides along, so a resumed driver or server
    # campaign rebuilds its pool with the same retries, timeout and lease.
    campaign._config = {
        "n_init": campaign.n_init,
        "max_evals": campaign.max_evals,
        "acq_candidates": campaign.acq_candidates,
        "acq_restarts": campaign.acq_restarts,
        "refit_every": campaign.session.refit_every,
        "failure_policy": dataclasses.asdict(campaign.failure_policy),
        **knobs,
    }
    return campaign


def read_campaign_journal(path) -> list[dict]:
    """Recover a campaign journal, validating its format version.

    Raises :class:`JournalError` when the file was written by a newer
    campaign format than this code can read, instead of misparsing it, and
    for the retired driver-only run journals (first record ``run_start``).
    Older journals carry config entries for options that no longer exist:
    ``surrogate_update`` (a second surrogate mode) and ``ucb_kappa`` /
    ``ei_xi`` (now the constants κ = 2 and ξ = 0).  They are dropped here,
    so every reader rebuilds those journals as they ran.  So are the sparse
    posterior's ``surrogate`` / ``max_exact_n`` / ``n_inducing`` when they
    kept the run exact throughout (``"exact"``, or ``"auto"`` with
    ``max_exact_n`` at or above ``max_evals``); otherwise they stay, and
    :func:`read_resumable_journal` refuses the journal.
    """
    events = recover_journal(path)
    if events and events[0].get("type") == "run_start":
        version = events[0].get("journal_version")
        if isinstance(version, int) and version > JOURNAL_VERSION:
            raise JournalError(
                f"run journal format v{version} is newer than supported "
                f"v{JOURNAL_VERSION}; upgrade this installation to resume it"
            )
        raise JournalError(
            f"run journal format v{version} is older than supported "
            f"v{JOURNAL_VERSION}; finish it with the release that wrote it"
        )
    if not events or events[0].get("type") != "campaign_start":
        raise JournalError(
            f"{path} has no usable campaign_start record; nothing to resume"
        )
    version = events[0].get("campaign_version")
    if not isinstance(version, int) or version > CAMPAIGN_JOURNAL_VERSION:
        raise JournalError(
            f"campaign journal format v{version} is newer than supported "
            f"v{CAMPAIGN_JOURNAL_VERSION}; upgrade this installation to read it"
        )
    config = events[0].get("config", {})
    for retired in ("surrogate_update", "ucb_kappa", "ei_xi"):
        config.pop(retired, None)
    kind = config.get("surrogate")
    if kind == "exact" or (
        kind == "auto"
        and config.get("max_exact_n", 0) >= config.get("max_evals", float("inf"))
    ):
        for retired in ("surrogate", "max_exact_n", "n_inducing"):
            config.pop(retired, None)
    return events


def read_resumable_journal(path, problem: Problem | None) -> tuple[list[dict], Problem]:
    """Journal events of an unfinished campaign, plus the problem to run.

    The shared front half of :func:`resume_campaign` and
    :func:`repro.core.recovery.resume`: ``problem`` defaults to rebuilding
    the journaled name via :func:`repro.core.recovery.resolve_problem`.
    """
    events = read_campaign_journal(path)
    if any(event.get("type") == "campaign_end" for event in events):
        raise RuntimeError(f"the run in {path} already completed; nothing to resume")
    config = events[0].get("config", {})
    if "surrogate" in config:
        raise JournalError(
            f"{path} ran with surrogate={config['surrogate']!r} and "
            f"max_exact_n={config.get('max_exact_n')!r} over "
            f"{config.get('max_evals')!r} evaluations, so it could have "
            "switched to the sparse posterior, which this release no longer "
            "has; finish it with the release that wrote it"
        )
    if problem is None:
        from repro.core.recovery import resolve_problem

        problem = resolve_problem(events[0].get("problem", ""))
    return events, problem


def resume_campaign(journal_path, *, problem: Problem | None = None) -> Campaign:
    """Rebuild a campaign to its exact pre-crash state from its journal.

    Replays every ask/tell into a fresh campaign (:meth:`Campaign._replay`);
    asked-but-untold points come back as pending — the caller should
    evaluate and ``tell`` them (or let the orphan policy handle them).
    Subsequent ``ask()`` calls produce the points the uninterrupted campaign
    would have produced.  Driver journals resume here too, as a bare
    campaign; :func:`repro.core.recovery.resume` also restores the pool.
    """
    events, problem = read_resumable_journal(journal_path, problem)
    start = events[0]
    campaign = make_campaign(
        start["algorithm"], problem, journal=journal_path, **start.get("config", {})
    )
    return campaign._replay(events)
