"""Ask/tell <-> driver-loop equivalence (the tentpole's acceptance test).

The drivers are now thin loops over :class:`repro.core.Campaign`; this file
proves the converse direction: a *standalone* campaign, driven by hand with
``ask()``/``tell()`` against a worker pool, reproduces the committed golden
trajectories byte-for-byte.  Any RNG draw added, removed, or reordered on
either side of the refactor breaks these tests.

Two hand-rolled harnesses mirror the two loop rules:

* one-point (sequential at B = 1, asynchronous at B > 1) — keep B workers
  busy, wait-any, refill one ask at a time (each proposal must see the
  earlier ones as pending, Eq. 9);
* synchronous — DoE slices then full batches with a ``wait_all`` barrier.

At ``refit_every=1`` the campaign is byte-for-byte against the fixtures.
At ``refit_every=3``, where frozen-kernel refits append to the cached
Cholesky factor and no fixture exists, it is byte-for-byte against a fresh
*driver* run with the same settings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RunResult, make_campaign
from repro.sched.workers import VirtualWorkerPool
from tests.golden.regenerate import (
    COMMON_KWARGS,
    SCENARIOS,
    canonical_json,
    golden_path,
    make_problem,
    run_scenario,
    trajectory_payload,
)

BATCH_SCENARIOS = [n for n in SCENARIOS if n != "lcb-branin"]


def _build(name: str, refit_every: int = 1):
    label, problem_name, kwargs = SCENARIOS[name]
    problem = make_problem(problem_name)
    campaign = make_campaign(
        label,
        problem,
        refit_every=refit_every,
        **COMMON_KWARGS,
        **kwargs,
    )
    return campaign, problem


def _package(campaign, pool) -> RunResult:
    """The trajectory-relevant slice of ``BODriverBase._package``."""
    trace = pool.trace
    best = trace.best_record()
    return RunResult(
        algorithm=campaign.algorithm,
        problem=campaign.problem.name,
        trace=trace,
        best_x=best.x.copy(),
        best_fom=best.fom,
        n_evaluations=len(trace),
        wall_clock=trace.makespan,
    )


def _tell(campaign, pool, completion) -> None:
    action = campaign.tell(completion.x, completion.result)
    # The golden scenarios never orphan a point; a reissue here would mean
    # the harness diverged from the driver semantics.
    assert action != "reissued"


def drive_async(campaign, pool) -> None:
    """Mirror of ``BODriverBase._drive``: wait-any + refill fixpoint.

    Refills one ``ask()`` at a time so every proposal sees the previously
    refilled points as pending — the Eq. 9 hallucination matrix must match
    ``pool.pending_points()`` point-for-point.
    """

    def refill() -> None:
        while not campaign.exhausted and pool.idle_count > 0:
            pool.submit(campaign.ask())

    refill()
    while not campaign.exhausted:
        _tell(campaign, pool, pool.wait_next())
        refill()
    while pool.busy_count:
        _tell(campaign, pool, pool.wait_next())


def drive_sync(campaign, pool, batch_size: int) -> None:
    """Mirror of ``BODriverBase._drive`` under ``refill``'s synchronous rule:
    batches behind a barrier."""
    batch_index = 0
    while campaign.in_doe:
        points = campaign.ask(min(batch_size, campaign.n_init - campaign.issued))
        for x in points:
            pool.submit(x, batch=batch_index)
        for completion in pool.wait_all():
            _tell(campaign, pool, completion)
        batch_index += 1
    while not campaign.exhausted:
        points = campaign.ask(min(batch_size, campaign.max_evals - campaign.issued))
        for x in points:
            pool.submit(x, batch=batch_index)
        for completion in pool.wait_all():
            _tell(campaign, pool, completion)
        batch_index += 1


def run_ask_tell_scenario(name: str, *, refit_every: int = 1) -> RunResult:
    campaign, problem = _build(name, refit_every)
    n_workers = campaign.batch_size
    pool = VirtualWorkerPool(problem, n_workers)
    try:
        if campaign.strategy.kind == "async":
            drive_async(campaign, pool)
        else:
            drive_sync(campaign, pool, campaign.batch_size)
        assert campaign.done, "budget issued but points still pending"
        campaign.finish()
        return _package(campaign, pool)
    finally:
        pool.close()


class TestFullModeByteForByte:
    """Whole trajectories against the fixtures, byte for byte."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_ask_tell_reproduces_golden(self, name):
        result = run_ask_tell_scenario(name)
        replayed = canonical_json(trajectory_payload(name, result))
        assert replayed == golden_path(name).read_text()


class TestIncrementalMode:
    """Between ML-II fits (``refit_every=3``) refits append to the cached
    factor; campaign and driver must still run identical arithmetic."""

    @pytest.mark.parametrize("name", BATCH_SCENARIOS)
    def test_batch_incremental_matches_driver(self, name):
        """Ask/tell == the driver loop, exactly, with frozen-kernel appends.

        No fixture pins ``refit_every=3``, but campaign-vs-driver must agree
        *exactly*: both sides run the identical arithmetic in the identical
        order.
        """
        via_campaign = run_ask_tell_scenario(name, refit_every=3)
        via_driver = run_scenario(name, refit_every=3)
        assert via_driver.surrogate_stats.n_incremental_updates > 0
        assert canonical_json(trajectory_payload(name, via_campaign)) == canonical_json(
            trajectory_payload(name, via_driver)
        )


class TestPendingMirrorsPool:
    def test_async_pending_matches_pool_pending_points(self):
        """``campaign.pending_matrix()`` == ``pool.pending_points()`` at every
        wait boundary (the cold-start dedupe satellite's invariant)."""
        campaign, problem = _build("easybo-async-branin")
        pool = VirtualWorkerPool(problem, campaign.batch_size)
        try:
            while not campaign.exhausted and pool.idle_count > 0:
                pool.submit(campaign.ask())
            while not campaign.exhausted:
                np.testing.assert_array_equal(
                    campaign.pending_matrix(), pool.pending_points()
                )
                _tell(campaign, pool, pool.wait_next())
                while not campaign.exhausted and pool.idle_count > 0:
                    pool.submit(campaign.ask())
            while pool.busy_count:
                np.testing.assert_array_equal(
                    campaign.pending_matrix(), pool.pending_points()
                )
                _tell(campaign, pool, pool.wait_next())
        finally:
            pool.close()
        assert campaign.n_pending == 0
