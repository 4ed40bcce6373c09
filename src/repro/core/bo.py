"""The BO loop step and the driver of every BO label (§II-B, Alg. 1).

Alg. 1 is one step repeated — wait for any worker, tell its result, refill
the idle worker — and :func:`submit` / :func:`refill` / :func:`consume` are
that step, taken by the driver, by :func:`repro.core.recovery.resume`, and
by the campaign server for its evaluated campaigns.  :class:`BODriverBase`
is the driver of every label but DE: it holds the campaign (built by
:func:`~repro.core.campaign.make_campaign` from the label), the pool, and
result packaging, and its :meth:`~BODriverBase._drive` repeats the step
with B workers — one for the sequential labels (EI, PI, LCB, UCB, EasyBO,
GP-Hedge).  :func:`~repro.core.easybo.make_algorithm` builds it from a
label.  The driver never proposes: every point comes from the campaign's
strategy.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.campaign import Campaign, make_campaign
from repro.core.problem import Problem
from repro.core.results import RunResult
from repro.obs import Observability
from repro.sched.workers import Completion, VirtualWorkerPool
from repro.utils.rng import rng_state_to_dict

__all__ = ["BODriverBase", "consume", "incumbent", "refill", "shutdown_pool",
           "submit"]


def shutdown_pool(pool) -> None:
    """Release a pool's resources if it has any (``close()`` is optional).

    Drivers call this from a ``finally`` so that an exception mid-run —
    a KeyboardInterrupt, a surrogate failure, a problem bug — cannot leak
    live worker threads or processes behind the traceback.
    """
    close = getattr(pool, "close", None)
    if callable(close):
        close()


def incumbent(trace, dim: int) -> tuple[np.ndarray, float]:
    """Best (x, FOM) of a finished run's trace.

    When every evaluation failed the incumbent is empty — NaN ``x`` and a
    ``-inf`` FOM — rather than an error for a run that survived to the end.
    """
    if not trace.has_success:
        return np.full(dim, np.nan), float("-inf")
    best = trace.best_record()
    return best.x.copy(), best.fom


def submit(pool, obs, x, *, batch: int | None = None) -> dict:
    """Dispatch one point; return its pool facts (index, worker, issue time, batch)."""
    with obs.span("dispatch") as span:
        index = pool.submit(x, batch=batch)
        span.annotate(index=int(index))
    obs.inc("driver.submits")
    info = pool.task_info(index)
    return {
        "index": int(index),
        "worker": int(info["worker"]),
        "issue_time": float(info["issue_time"]),
        "batch": batch,
    }


def refill(campaign: Campaign, pool, obs) -> None:
    """Give idle workers points: one-point campaigns ask until none is idle
    (a fixpoint), a synchronous one its next batch once the pool is empty
    (the barrier).  The points are the campaign strategy's."""
    if campaign.strategy.kind != "sync":
        while not campaign.exhausted and pool.idle_count > 0:
            campaign.ask(_issue=lambda x: submit(pool, obs, x))
        return
    if campaign.exhausted or pool.busy_count:
        return
    size, issued = campaign.batch_size, campaign.issued
    # Batches go out in B-sized chunks, initial design and BO phase alike.
    doe = min(issued, campaign.n_init)
    batch = math.ceil(doe / size) + math.ceil((issued - doe) / size)
    end = campaign.n_init if campaign.in_doe else campaign.max_evals
    campaign.ask(
        min(size, end - issued), _issue=lambda x: submit(pool, obs, x, batch=batch)
    )


def consume(campaign: Campaign, pool, obs, completion: Completion) -> str:
    """Tell one completion, journaled with its trace record and the clock; a
    reissued orphan (``failure_policy.on_orphan``) goes straight back."""

    def pool_facts(_action) -> dict:
        facts = {"record": completion.record.as_dict(), "clock": float(pool.now)}
        # The lease statistic's sample, when it is not the row's own span
        # (a process pool counts from dispatch): a restored pool arms the
        # leases the live one did.
        if completion.run_seconds != completion.record.duration:
            facts["run_seconds"] = float(completion.run_seconds)
        return facts

    return campaign.tell(
        completion.x,
        completion.result,
        _extra=pool_facts,
        _issue=lambda x: submit(pool, obs, x, batch=completion.batch),
    )


class BODriverBase:
    """The driver of every BO label: a campaign, a pool, and the loop.

    Parameters
    ----------
    problem:
        The black-box maximization problem.
    label:
        The algorithm label (``"LCB"``, ``"EasyBO-5"``, ``"pBO-3"``), as
        :func:`~repro.core.easybo.make_algorithm` passes it;
        :func:`~repro.core.campaign.make_campaign` builds the campaign from
        it and the family knobs in ``kwargs``.
    n_init:
        Random initial samples (the paper uses 20).
    max_evals:
        Total evaluation budget, *including* the initial design.
    rng:
        Seed or generator; the whole run is deterministic given it.
    pool_factory:
        Callable ``(problem, n_workers, *, policy) -> pool``; defaults to the
        simulated-clock :class:`VirtualWorkerPool`.  Pass
        :class:`~repro.sched.executor.ThreadWorkerPool` for real concurrency.
    failure_policy:
        :class:`~repro.core.faults.FailurePolicy` shared by the pool (retry
        / timeout behaviour) and the campaign (impute-or-drop of failed
        evaluations).  Defaults to no retries with pessimistic imputation.
    refit_every:
        Run ML-II hyperparameter fitting only every K-th surrogate refit
        (default 1 = every event, the paper's schedule).  Between fits the
        surrogate appends new observations to its cached Cholesky factor,
        which is where the O(n^3) -> O(n^2) per-event win of raising K
        comes from.
    journal:
        Crash-safety sink: a path (a :class:`~repro.core.journal.JournalWriter`
        is opened on it) or any object with an ``append(record)`` method.
        The embedded campaign writes its journal there — start, initial
        design, every ask and tell (with the pool facts: issue slot,
        evaluation record, clock), end — one fsync'd framed record each,
        and :func:`repro.core.recovery.resume` can replay the file to
        continue a crashed run on the exact trajectory the uninterrupted run
        would have taken.  ``None`` (default) disables journaling; it
        changes nothing about the trajectory.
    checkpoint_every:
        Emit an integrity ``checkpoint`` record every this-many completed
        evaluations (0 = never).  Checkpoints are cross-checks, not the
        recovery mechanism — resume replays the full event log.
    tracer:
        Optional :class:`~repro.obs.Tracer`: the run emits a hierarchical
        span tree (run → iteration → fit / hallucinate /
        acquisition-maximize / dispatch / wait) as CRC-framed JSONL,
        renderable with ``python -m repro trace <file>``.  ``None``
        (default) disables tracing at no measurable cost.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`: counters, gauges, and
        histograms for the run (acquisition restarts, Cholesky updates vs
        refits, hallucinations, pool queue waits, orphan/reissue totals).
        The final snapshot lands in ``RunResult.metrics`` and persists as
        runs format v6.  Counters already derivable from the trace,
        ``SurrogateStats``, or ``PoolTelemetry`` are folded in *once* at
        packaging time, so resumed runs never double-count replayed events.
    """

    def __init__(
        self,
        problem: Problem,
        label: str,
        *,
        pool_factory=None,
        checkpoint_every: int = 0,
        tracer=None,
        metrics=None,
        **kwargs,
    ):
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        self.problem = problem
        self.pool_factory = pool_factory or VirtualWorkerPool
        self.checkpoint_every = int(checkpoint_every)
        self.obs = Observability(tracer, metrics)
        self._run_span = None
        self._since_checkpoint = 0
        # The ask/tell core: proposal pipeline, pending-point bookkeeping,
        # failure-policy state, and the journal all live here.
        self.campaign = make_campaign(label, problem, obs=self.obs, embedded=True, **kwargs)
        self.algorithm_name = self.campaign.algorithm

    # ------------------------------------------------------- campaign state
    @property
    def session(self):
        """The surrogate session (owned by the embedded campaign)."""
        return self.campaign.session

    @property
    def rng(self):
        return self.campaign.rng

    @property
    def max_evals(self) -> int:
        return self.campaign.max_evals

    @property
    def batch_size(self) -> int:
        return self.campaign.batch_size

    @property
    def pending_policy(self) -> str | None:
        """The EasyBO families' pending-point policy name (the journaled
        one), ``None`` for labels whose policy is not selectable; it rides
        along in the packaged RunResult (runs format v7)."""
        return self.campaign._config.get("pending_policy")

    # ------------------------------------------------------------ the loop
    def _open_pool(self, *, resumed: bool = False, n_workers: int | None = None):
        """Build the campaign's pool and open the root ``run`` span.

        The pool has B workers unless a resumed journal says otherwise; the
        span is closed again by :meth:`_package`.
        """
        n_workers = int(n_workers or self.campaign.batch_size)
        pool = self.pool_factory(
            self.problem, n_workers, policy=self.campaign.failure_policy
        )
        # Attach observability post-construction so user-supplied factories
        # pick it up too.
        bind = getattr(pool, "bind_observability", None)
        if callable(bind):
            bind(self.obs)
        if self._run_span is None:
            self._run_span = self.obs.span(
                "run",
                algorithm=self.algorithm_name,
                problem=self.problem.name,
                n_workers=n_workers,
                resumed=resumed,
            )
            self._run_span.__enter__()
        return pool

    def run(self) -> RunResult:
        """Run to completion: journal the start and initial design, then drive."""
        pool = self._open_pool()
        try:
            self.campaign.start(checkpoint_every=self.checkpoint_every)
            return self._drive(pool)
        finally:
            shutdown_pool(pool)
            self.campaign.close()

    def _drive(self, pool) -> RunResult:
        """Alg. 1 as an ask/tell loop, resumable at any boundary.

        :func:`refill` is a fixpoint, so entering the loop with restored
        in-flight points behaves exactly as the uninterrupted run at the same
        boundary would.
        """
        campaign = self.campaign
        refill(campaign, pool, self.obs)
        iteration = 0
        while not campaign.exhausted:
            # One Alg. 1 cycle: wait for any worker, absorb, refill idle
            # slots (each refill nests fit/hallucinate/acquisition spans).
            with self.obs.span("iteration", index=iteration):
                self._consume(pool, self._wait(pool))
                refill(campaign, pool, self.obs)
            self.obs.inc("driver.iterations")
            iteration += 1
        while pool.busy_count:
            with self.obs.span("drain"):
                self._consume(pool, self._wait(pool))
        return self._package(pool)

    def _wait(self, pool) -> Completion:
        """Block on ``pool.wait_next()`` under a ``wait`` span."""
        with self.obs.span("wait") as span:
            completion = pool.wait_next()
            span.annotate(
                index=int(completion.index), status=completion.result.status
            )
        self.obs.inc("driver.completions")
        return completion

    def _consume(self, pool, completion: Completion) -> None:
        """:func:`consume` one completion, then count it toward a checkpoint."""
        if consume(self.campaign, pool, self.obs, completion) != "reissued":
            self._maybe_checkpoint(pool)

    def _maybe_checkpoint(self, pool) -> None:
        if not self.checkpoint_every:
            return
        self._since_checkpoint += 1
        if self._since_checkpoint < self.checkpoint_every:
            return
        self._since_checkpoint = 0
        y = self.session.y
        self.campaign._journal_event(
            {
                "type": "checkpoint",
                "n_observations": int(len(y)),
                "y": [float(v) for v in y],
                "best_fom": float(y.max()) if len(y) else None,
                "clock": float(pool.now),
                "rng_state": rng_state_to_dict(self.rng),
            }
        )

    def _package(self, pool) -> RunResult:
        trace = pool.trace
        tele_fn = getattr(pool, "telemetry", None)
        telemetry = tele_fn() if callable(tele_fn) else None
        best_x, best_fom = incumbent(trace, self.problem.dim)
        metrics_snapshot = self._fold_metrics(trace, telemetry)
        result = RunResult(
            algorithm=self.algorithm_name,
            problem=self.problem.name,
            trace=trace,
            best_x=best_x,
            best_fom=best_fom,
            n_evaluations=len(trace),
            wall_clock=trace.makespan,
            n_failures=trace.n_failures,
            n_retries=trace.n_retries,
            surrogate_stats=self.session.stats,
            rng_state=rng_state_to_dict(self.rng),
            pool_telemetry=telemetry,
            metrics=metrics_snapshot,
            pending_policy=self.pending_policy,
        )
        self.campaign.finish()
        if self._run_span is not None:
            self._run_span.__exit__(None, None, None)
            self._run_span = None
        return result

    def _fold_metrics(self, trace, telemetry) -> dict | None:
        """Derive replay-safe metrics once at packaging time.

        Counters with a durable source of truth (the trace, the surrogate
        stats, the pool telemetry) are *assigned* from it here rather than
        incremented live — a resumed run replays its journal into those
        sources, so the folded totals match the uninterrupted run without
        counting replayed events twice.
        """
        registry = self.obs.metrics
        if registry is None:
            return None
        registry.fold_surrogate_stats(self.session.stats)
        registry.fold_pool_telemetry(telemetry)
        registry.set_counter("driver.evaluations", len(trace))
        registry.set_counter("driver.failures", trace.n_failures)
        registry.set_counter("driver.retries", trace.n_retries)
        registry.set_counter("driver.orphans", trace.n_orphaned)
        registry.set_counter(
            "driver.reissues", sum(self.campaign.reissue_counts.values())
        )
        return registry.as_dict()
