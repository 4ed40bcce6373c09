"""Checkpoint/resume: continue a crashed run from its journal.

A driver writes its journal through its :class:`~repro.core.campaign.Campaign`
— the same ``campaign_start`` / ``doe`` / ``ask`` / ``tell`` event log the
campaign server writes, with the pool facts riding along as optional fields
(issue slot on each ask, evaluation record and clock on each tell), as does
a server-evaluated campaign's.  :func:`resume` is
:func:`~repro.core.campaign.resume_campaign` plus :func:`reconcile`:

1. rebuild the driver from the journaled label and config, and replay the
   events into its campaign — the GP training set (through the same absorb
   path as live tells, so a strategy's side datasets are rebuilt too), the
   surrogate hyperparameters and refit schedule, and the bit-exact
   ``np.random.Generator`` state;
2. open the journaled ``n_workers`` (else B, and never fewer than the
   pending points need) and restore the pool clock, next evaluation index,
   and trace from the told records;
3. tell every pending point back as orphaned, so the campaign's orphan rule
   (reissue / impute / drop, bounded by ``max_reissues``) decides: a reissue
   is journaled before the point re-runs at its original index, worker, and
   issue time (or, without a journaled slot, on an idle worker);
4. hand control back to the driver's ordinary loop.

Resume-equivalence guarantee
----------------------------
On a deterministic problem, with the default ``on_orphan="reissue"`` policy
and the default ``refit_every=1``, a run killed at *any* event and resumed
from its journal produces bit-for-bit the trajectory the uninterrupted run
would have produced: orphaned points are re-evaluated at their original
index, worker, and issue time, and every RNG draw after the crash boundary
comes from the restored generator state.  With ``refit_every > 1`` the
Cholesky factor rebuilt at resume can differ from the crashed run's
incrementally appended one by round-off, so equivalence holds to the ≤1e-8
per-event tolerance the append's own equivalence harness grants.  With
``on_orphan="impute"``/"drop"``
(the right choice when evaluations are non-deterministic or expensive) the
resumed run deliberately diverges at the orphaned points but remains a valid
continuation: no budget is lost and ``wait_next`` can never wedge on a dead
worker.
"""

from __future__ import annotations

import re

import numpy as np

from repro.core.bo import shutdown_pool, submit
from repro.core.campaign import read_resumable_journal
from repro.core.problem import STATUS_ORPHANED, EvaluationResult
from repro.core.results import RunResult
from repro.sched.trace import EvalRecord

__all__ = ["reconcile", "resume", "resolve_problem", "workers_needed"]

_DIM_SUFFIX = re.compile(r"^([a-zA-Z]+?)(\d+)$")


def resolve_problem(name: str):
    """Rebuild a problem instance from its journaled ``name``.

    Synthetic benchmarks resolve through the factory registry (with a
    ``name<dim>`` suffix convention, e.g. ``sphere2``); the circuit
    testbenches resolve by their ``name`` class attribute, and only the
    match is built, with its class defaults.  The CLI, the campaign
    server and the tournament name problems the same way, so every run
    they start resumes on the problem it ran.  Anything else — custom
    problems, wrapped problems — must be passed to :func:`resume`
    explicitly via ``problem=``.
    """
    from repro.circuits import benchmarks

    try:
        return benchmarks.by_name(name)
    except (KeyError, TypeError):
        pass
    match = _DIM_SUFFIX.match(name)
    if match:
        try:
            return benchmarks.by_name(match.group(1), dim=int(match.group(2)))
        except (KeyError, TypeError):
            pass
    from repro.circuits import ClassEProblem, ConstrainedOpAmpProblem, OpAmpProblem

    for cls in (OpAmpProblem, ClassEProblem, ConstrainedOpAmpProblem):
        if cls.name == name:
            return cls()
    raise ValueError(
        f"unknown problem {name!r}: not a benchmark or circuit name; "
        "pass custom problems as problem=... (e.g. to resume())"
    )


def _pool_state(events: list[dict]):
    """Told trace records and their run seconds, latest issue facts per
    point, clock, and next index.  An orphan resolved at a resume has
    ``None`` run seconds: it is no lease sample."""
    records, run_seconds, issued, clock, next_index = [], [], {}, 0.0, 0
    for event in events:
        kind = event.get("type")
        if kind == "ask":
            points = event["points"]
        elif kind == "tell":
            points = [event["x"]]
            if "record" in event:
                record = EvalRecord.from_dict(event["record"])
                records.append(record)
                seconds = event.get("run_seconds", record.duration)
                run_seconds.append(None if seconds is None else float(seconds))
                clock = max(clock, float(event["clock"]))
        else:
            continue
        for x, facts in zip(points, event.get("issued", ())):
            issued[np.asarray(x, dtype=float).tobytes()] = facts
            next_index = max(next_index, int(facts["index"]) + 1)
            clock = max(clock, float(facts["issue_time"]))
    return records, run_seconds, issued, clock, next_index


def workers_needed(campaign, events=()) -> int:
    """Fewest workers ``campaign`` can go on with: B behind a barrier, and
    after ``events`` one per pending point, past every journaled slot."""
    issued = _pool_state(events)[2]
    slots = [issued.get(x.tobytes()) for x in campaign.pending]
    barrier = campaign.batch_size if campaign.strategy.kind == "sync" else 1
    return max([barrier, len(slots)] + [f["worker"] + 1 for f in slots if f is not None])


def reconcile(campaign, pool, events: list[dict], obs) -> None:
    """Restore a fresh pool from the journal; orphan every pending point.

    The pool half of :func:`resume` (steps 2-3 above, points in issue
    order), which the campaign server runs for evaluated campaigns too, on
    a pool of at least :func:`workers_needed` workers.
    """
    records, run_seconds, issued, clock, next_index = _pool_state(events)
    pool.restore(now=clock, next_index=next_index, records=records,
                 run_seconds=run_seconds)
    error = "in flight at crash; reconciled at resume"
    orphaned = EvaluationResult.failed(error, status=STATUS_ORPHANED)
    unslotted = {"index": float("inf")}
    for x in sorted(
        campaign.pending, key=lambda x: issued.get(x.tobytes(), unslotted)["index"]
    ):
        facts = issued.get(x.tobytes())
        if facts is None:  # never reached a worker: a reissue takes an idle one
            campaign.tell(x, orphaned, _issue=lambda x: submit(pool, obs, x))
            continue
        # The pool facts are the issue fields of the orphan's trace row.
        orphan = EvalRecord(
            **facts,
            x=x,
            fom=float("nan"),
            finish_time=max(clock, facts["issue_time"]),
            feasible=False,
            status=STATUS_ORPHANED,
            error=error,
        )
        action = campaign.tell(
            x,
            orphaned,
            # A reissue re-runs in place, so only a resolved orphan leaves a
            # trace row behind; it never ran to a known end, so it is no
            # lease sample (``run_seconds`` null), here or at a later resume.
            _extra=lambda action, orphan=orphan: (
                {} if action == "reissued"
                else {"record": orphan.as_dict(), "clock": clock, "run_seconds": None}
            ),
        )
        if action == "reissued":
            pool.restore_task(
                orphan.index, orphan.worker, x, batch=orphan.batch,
                issue_time=orphan.issue_time,
            )
        else:
            pool.trace.add(orphan)


def resume(journal_path, *, problem=None, pool_factory=None, tracer=None,
           metrics=None) -> RunResult:
    """Resume a crashed run from its write-ahead journal.

    Parameters
    ----------
    journal_path:
        The journal the crashed run was writing.  Any torn tail record is
        truncated in place; new events are appended to the same file, so a
        resumed run that crashes again can be resumed again.
    problem:
        The problem instance to evaluate.  Defaults to rebuilding it from the
        journaled name via :func:`resolve_problem`; required for custom or
        wrapped problems.
    pool_factory:
        Evaluation pool factory, as for the drivers.
    tracer / metrics:
        Observability sinks for the *resumed* portion of the run, as for the
        driver constructors.  Replayed journal events feed the trace /
        surrogate stats / pool telemetry (the durable sources of truth), and
        the metrics registry derives its totals from those once at packaging
        time — so the reported counters equal the uninterrupted run's and
        replayed events are never counted twice.

    Returns
    -------
    RunResult
        The completed run, with the pre-crash history replayed into its
        trace.
    """
    from repro.core.easybo import make_algorithm

    events, problem = read_resumable_journal(journal_path, problem)
    start = events[0]
    # Observability sinks are live objects, never journaled.
    sinks = {k: v for k, v in (("tracer", tracer), ("metrics", metrics)) if v is not None}
    driver = make_algorithm(
        start["algorithm"],
        problem,
        pool_factory=pool_factory,
        journal=journal_path,
        checkpoint_every=int(start.get("checkpoint_every", 0)),
        **sinks,
        **start.get("config", {}),
    )
    campaign = driver.campaign._replay(events)
    pool = driver._open_pool(resumed=True, n_workers=max(
        start.get("n_workers") or campaign.batch_size,
        workers_needed(campaign, events),
    ))
    try:
        reconcile(campaign, pool, events, driver.obs)
        return driver._drive(pool)
    finally:
        shutdown_pool(pool)
        campaign.close()
