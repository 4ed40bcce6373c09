"""Failure semantics: policies, fault injection, pool containment, drivers.

The invariants under test, end to end:

* no evaluation failure (crash / NaN / timeout) ever raises out of a pool or
  driver;
* worker accounting stays consistent (``idle + busy == n_workers``) through
  every failure;
* a poisoned (non-finite) observation can never reach the GP;
* failures are visible in the trace and the ``RunResult`` counters;
* the asynchronous loop keeps its remaining workers productive while a
  failed point is retried or discarded.
"""

import os
import time

import numpy as np
import pytest

from repro.core.easybo import make_algorithm
from repro.core.faults import (
    FailurePolicy,
    FaultInjectionProblem,
    SimulationError,
    run_with_policy,
)
from repro.core.persistence import run_from_dict, run_to_dict
from repro.core.problem import EvaluationResult, FunctionProblem, Problem
from repro.core.surrogate import SurrogateSession
from repro.baselines.de import DifferentialEvolution
from repro.circuits.opamp import OpAmpProblem
from repro.sched.executor import ThreadWorkerPool
from repro.sched.workers import VirtualWorkerPool

#: Seed for the stochastic fault-injection runs; the CI fault job sweeps it.
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

BOUNDS = [[-2.0, 2.0], [-2.0, 2.0]]


def quadratic_problem(cost=1.0):
    return FunctionProblem(
        lambda x: -float(np.sum(x**2)), BOUNDS, cost_model=lambda x: cost, name="quad"
    )


class FlakyProblem(Problem):
    """Crashes on scheduled call numbers (1-based), succeeds otherwise."""

    name = "flaky"

    def __init__(self, fail_calls=(), cost=1.0, crash_cost=None):
        self.fail_calls = set(fail_calls)
        self.cost = cost
        self.crash_cost = crash_cost
        self.n_calls = 0

    @property
    def bounds(self):
        return np.array(BOUNDS)

    def evaluate(self, x):
        self.n_calls += 1
        if self.n_calls in self.fail_calls:
            raise SimulationError("scheduled crash", cost=self.crash_cost)
        return EvaluationResult(fom=-float(np.sum(x**2)), cost=self.cost)


class HangingProblem(Problem):
    """Really sleeps; used against the thread pool's wall-clock timeout."""

    name = "hanging"

    def __init__(self, sleep_s):
        self.sleep_s = sleep_s

    @property
    def bounds(self):
        return np.array(BOUNDS)

    def evaluate(self, x):
        time.sleep(self.sleep_s)
        return EvaluationResult(fom=1.0, cost=self.sleep_s)


# --------------------------------------------------------------------------
# Failure model and policy
# --------------------------------------------------------------------------
class TestEvaluationResultFailureModel:
    def test_failed_constructor(self):
        r = EvaluationResult.failed("boom", status="crashed", cost=2.5)
        assert not r.ok
        assert not r.feasible
        assert np.isnan(r.fom)
        assert r.error == "boom"
        assert r.cost == 2.5

    def test_ok_requires_finite_fom(self):
        with pytest.raises(ValueError, match="finite"):
            EvaluationResult(fom=float("nan"))

    def test_nonfinite_cost_rejected(self):
        with pytest.raises(ValueError, match="cost"):
            EvaluationResult(fom=1.0, cost=float("nan"))

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError, match="status"):
            EvaluationResult(fom=1.0, status="exploded")

    def test_failed_requires_failure_status(self):
        with pytest.raises(ValueError, match="failure status"):
            EvaluationResult.failed("fine?", status="ok")


class TestFailurePolicy:
    def test_defaults(self):
        policy = FailurePolicy()
        assert policy.max_retries == 0
        assert policy.timeout is None
        assert policy.on_failure == "impute"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"retry_backoff": -0.1},
            {"timeout": 0.0},
            {"on_failure": "explode"},
            {"failure_cost": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FailurePolicy(**kwargs)


class TestRunWithPolicy:
    def test_success_passthrough(self):
        result, attempts, elapsed = run_with_policy(
            quadratic_problem(cost=3.0), np.zeros(2), FailurePolicy()
        )
        assert result.ok and attempts == 1 and elapsed == 3.0

    def test_retry_recovers(self):
        problem = FlakyProblem(fail_calls={1}, cost=2.0, crash_cost=0.5)
        result, attempts, elapsed = run_with_policy(
            problem,
            np.zeros(2),
            FailurePolicy(max_retries=2, retry_backoff=1.0),
            cost_timeout=True,
        )
        assert result.ok and attempts == 2
        # crash (0.5) + backoff (1.0 * 1) + success (2.0)
        assert elapsed == pytest.approx(3.5)

    def test_retries_exhausted(self):
        problem = FlakyProblem(fail_calls={1, 2, 3}, crash_cost=1.0)
        result, attempts, elapsed = run_with_policy(
            problem, np.zeros(2), FailurePolicy(max_retries=2), cost_timeout=True
        )
        assert not result.ok and result.status == "crashed"
        assert attempts == 3 and elapsed == pytest.approx(3.0)
        assert "scheduled crash" in result.error

    def test_nan_output_sanitized_and_retried(self):
        calls = {"n": 0}

        def fom(x):
            calls["n"] += 1
            return float("nan") if calls["n"] == 1 else 1.0

        problem = FunctionProblem(fom, BOUNDS)
        result, attempts, _ = run_with_policy(
            problem, np.zeros(2), FailurePolicy(max_retries=1)
        )
        # FunctionProblem constructs EvaluationResult(nan) -> ValueError ->
        # contained as a crash; the retry then succeeds.
        assert result.ok and attempts == 2

    def test_poisoned_result_object_sanitized(self):
        class Poisoner(Problem):
            name = "poison"

            @property
            def bounds(self):
                return np.array(BOUNDS)

            def evaluate(self, x):
                r = EvaluationResult(fom=1.0, cost=1.0)
                r.fom = float("inf")  # mutate past validation
                return r

        result, attempts, _ = run_with_policy(
            Poisoner(), np.zeros(2), FailurePolicy()
        )
        assert not result.ok and result.status == "nan"

    def test_cost_timeout(self):
        result, attempts, elapsed = run_with_policy(
            quadratic_problem(cost=50.0),
            np.zeros(2),
            FailurePolicy(timeout=10.0, max_retries=3),
            cost_timeout=True,
        )
        assert result.status == "timeout"
        assert attempts == 1  # timeouts are never retried in place
        assert elapsed == pytest.approx(10.0)

    def test_never_raises(self):
        class Hostile(Problem):
            name = "hostile"

            @property
            def bounds(self):
                return np.array(BOUNDS)

            def evaluate(self, x):
                return "not a result"  # wrong type entirely

        result, _, _ = run_with_policy(Hostile(), np.zeros(2), FailurePolicy())
        assert not result.ok
        assert "EvaluationResult" in result.error


# --------------------------------------------------------------------------
# Fault injection
# --------------------------------------------------------------------------
class TestFaultInjectionProblem:
    def test_deterministic_replay(self):
        def outcomes(seed):
            problem = FaultInjectionProblem(
                quadratic_problem(), crash_rate=0.3, nan_rate=0.2, rng=seed
            )
            out = []
            for _ in range(50):
                try:
                    r = problem.evaluate(np.zeros(2))
                    out.append("nan" if np.isnan(r.fom) else "ok")
                except SimulationError:
                    out.append("crash")
            return out

        assert outcomes(7) == outcomes(7)
        assert outcomes(7) != outcomes(8)

    def test_counters_and_rates(self):
        problem = FaultInjectionProblem(
            quadratic_problem(), crash_rate=0.5, nan_rate=0.25, rng=FAULT_SEED
        )
        for _ in range(200):
            try:
                problem.evaluate(np.zeros(2))
            except SimulationError:
                pass
        assert problem.n_calls == 200
        assert problem.n_crashes + problem.n_nans == problem.n_faults
        assert 60 <= problem.n_crashes <= 140  # ~100 expected
        assert 20 <= problem.n_nans <= 85  # ~50 expected

    def test_slowdown_inflates_cost(self):
        problem = FaultInjectionProblem(
            quadratic_problem(cost=2.0), slowdown_rate=1.0, slowdown_factor=5.0, rng=0
        )
        assert problem.evaluate(np.zeros(2)).cost == pytest.approx(10.0)
        assert problem.n_slowdowns == 1

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="rates"):
            FaultInjectionProblem(quadratic_problem(), crash_rate=0.7, nan_rate=0.5)


# --------------------------------------------------------------------------
# Pool containment
# --------------------------------------------------------------------------
class TestVirtualPoolFaults:
    def test_crash_contained_and_traced(self):
        pool = VirtualWorkerPool(FlakyProblem(fail_calls={1}, crash_cost=2.0), 1)
        pool.submit(np.zeros(2))
        done = pool.wait_next()
        assert not done.result.ok and done.result.status == "crashed"
        assert done.finish_time == pytest.approx(2.0)  # crash cost charged
        assert pool.trace.n_failures == 1
        assert pool.trace.records[0].error is not None
        assert pool.idle_count == pool.n_workers

    def test_retry_on_simulated_clock(self):
        policy = FailurePolicy(max_retries=1, retry_backoff=0.5)
        pool = VirtualWorkerPool(
            FlakyProblem(fail_calls={1}, cost=3.0, crash_cost=1.0), 1, policy=policy
        )
        pool.submit(np.zeros(2))
        done = pool.wait_next()
        assert done.result.ok
        # Worker occupied: 1.0 (crash) + 0.5 (backoff) + 3.0 (success).
        assert done.finish_time == pytest.approx(4.5)
        assert pool.trace.records[0].attempts == 2
        assert pool.trace.n_retries == 1
        assert pool.trace.n_failures == 0

    def test_timeout_on_simulated_clock(self):
        pool = VirtualWorkerPool(
            quadratic_problem(cost=100.0), 1, policy=FailurePolicy(timeout=5.0)
        )
        pool.submit(np.zeros(2))
        done = pool.wait_next()
        assert done.result.status == "timeout"
        assert done.finish_time == pytest.approx(5.0)

    def test_full_pool_does_not_burn_an_evaluation(self):
        """Regression: submit() must check for an idle worker *before*
        running the evaluation (side effects + eval-count skew)."""
        problem = FlakyProblem(cost=1.0)
        pool = VirtualWorkerPool(problem, n_workers=1)
        pool.submit(np.zeros(2))
        assert problem.n_calls == 1
        with pytest.raises(RuntimeError, match="idle"):
            pool.submit(np.ones(2))
        assert problem.n_calls == 1  # the rejected submit evaluated nothing

    def test_accounting_invariant_through_failures(self):
        problem = FaultInjectionProblem(
            quadratic_problem(), crash_rate=0.4, nan_rate=0.2, rng=FAULT_SEED
        )
        pool = VirtualWorkerPool(problem, n_workers=3)
        issued = 0
        while issued < 30 or pool.busy_count:
            while issued < 30 and pool.idle_count > 0:
                pool.submit(np.zeros(2))
                issued += 1
                assert pool.idle_count + pool.busy_count == 3
            pool.wait_next()
            assert pool.idle_count + pool.busy_count == 3
        assert len(pool.trace) == 30
        assert pool.trace.n_failures == problem.n_faults > 0


class TestThreadPoolFaults:
    def test_timeout_frees_worker_and_discards_late_result(self):
        policy = FailurePolicy(timeout=0.2)
        with ThreadWorkerPool(HangingProblem(0.6), n_workers=1, policy=policy) as pool:
            pool.submit(np.zeros(2))
            t0 = time.monotonic()
            done = pool.wait_next()
            assert time.monotonic() - t0 < 0.5  # did not wait for the hang
            assert done.result.status == "timeout"
            assert pool.idle_count == 1 and pool.busy_count == 0
            # The worker slot is genuinely reusable while the abandoned
            # thread is still sleeping, and its late result is discarded.
            pool.submit(np.zeros(2))
            done2 = pool.wait_next()
            assert done2.result.status == "timeout"
            assert len(pool.trace) == 2

    def test_hung_worker_does_not_starve_the_others(self):
        """The async loop's point: B-1 workers stay productive while one
        evaluation hangs past its timeout."""
        class MixedProblem(Problem):
            name = "mixed"

            @property
            def bounds(self):
                return np.array(BOUNDS)

            def evaluate(self, x):
                if x[0] > 1.5:  # the poisoned point hangs
                    time.sleep(5.0)
                return EvaluationResult(fom=float(x[0]), cost=0.01)

        policy = FailurePolicy(timeout=1.0)
        with ThreadWorkerPool(MixedProblem(), n_workers=3, policy=policy) as pool:
            pool.submit(np.array([2.0, 0.0]))  # hangs
            for i in range(6):  # healthy work keeps flowing on the other two
                if pool.idle_count == 0:
                    done = pool.wait_next()
                    assert done.result.ok
                pool.submit(np.array([0.1 * i, 0.0]))
            completions = pool.wait_all()
        statuses = [c.result.status for c in completions] + [
            r.status for r in pool.trace.records
        ]
        assert "timeout" in statuses
        assert sum(r.ok for r in pool.trace.records) == 6

    def test_retry_with_real_backoff(self):
        policy = FailurePolicy(max_retries=2, retry_backoff=0.01)
        problem = FlakyProblem(fail_calls={1, 2}, cost=0.0)
        with ThreadWorkerPool(problem, n_workers=1, policy=policy) as pool:
            pool.submit(np.zeros(2))
            done = pool.wait_next()
        assert done.result.ok
        assert pool.trace.records[0].attempts == 3


# --------------------------------------------------------------------------
# pending_points shape regression (both pools, every state)
# --------------------------------------------------------------------------
class TestPendingPointsShape:
    def test_virtual_pool_empty_shape(self):
        pool = VirtualWorkerPool(quadratic_problem(), n_workers=2)
        assert pool.pending_points().shape == (0, 2)

    def test_thread_pool_empty_shape(self):
        with ThreadWorkerPool(HangingProblem(0.0), n_workers=2) as pool:
            assert pool.pending_points().shape == (0, 2)

    @pytest.mark.parametrize("n_busy", [0, 1, 2])
    def test_model_with_pending_accepts_every_pool_state(self, n_busy):
        problem = quadratic_problem()
        pool = VirtualWorkerPool(problem, n_workers=2)
        rng = np.random.default_rng(0)
        session = SurrogateSession(problem.bounds, rng=rng)
        for _ in range(6):
            x = rng.uniform(-2, 2, size=2)
            session.add(x, -float(np.sum(x**2)))
        session.refit()
        for i in range(n_busy):
            pool.submit(np.full(2, 0.1 * (i + 1)))
        pending = pool.pending_points()
        assert pending.shape == (n_busy, 2)
        model = session.model_with_pending(pending)  # must not raise
        mu, sigma = model.predict(np.zeros((1, 2)))
        assert np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))


# --------------------------------------------------------------------------
# Surrogate guards
# --------------------------------------------------------------------------
class TestSurrogateGuards:
    def test_nan_observation_rejected(self):
        session = SurrogateSession(np.array(BOUNDS))
        with pytest.raises(ValueError, match="finite"):
            session.add(np.zeros(2), float("nan"))
        with pytest.raises(ValueError, match="finite"):
            session.add(np.array([np.inf, 0.0]), 1.0)
        assert session.n_observations == 0

    def test_nan_batch_rejected(self):
        session = SurrogateSession(np.array(BOUNDS))
        with pytest.raises(ValueError, match="finite"):
            session.add_batch(np.zeros((2, 2)), np.array([1.0, np.nan]))
        assert session.n_observations == 0


# --------------------------------------------------------------------------
# Drivers survive failures (all three, both pools)
# --------------------------------------------------------------------------
def faulty_factory(**rates):
    return FaultInjectionProblem(
        quadratic_problem(),
        rng=FAULT_SEED,
        **rates,
    )


DRIVER_FACTORIES = {
    "sequential": lambda p, policy: make_algorithm(
        "EasyBO", p, n_init=4, max_evals=12, rng=1, acq_candidates=64,
        acq_restarts=1, failure_policy=policy,
    ),
    "sync": lambda p, policy: make_algorithm(
        "EasyBO-SP-3", p, n_init=6, max_evals=15, rng=1, acq_candidates=64,
        acq_restarts=1, failure_policy=policy,
    ),
    "async": lambda p, policy: make_algorithm(
        "EasyBO-3", p, n_init=6, max_evals=15, rng=1, acq_candidates=64,
        acq_restarts=1, failure_policy=policy,
    ),
}


@pytest.mark.parametrize("driver_name", sorted(DRIVER_FACTORIES))
@pytest.mark.parametrize("on_failure", ["impute", "drop"])
def test_driver_completes_with_failures_virtual(driver_name, on_failure):
    problem = faulty_factory(crash_rate=0.2, nan_rate=0.1)
    policy = FailurePolicy(on_failure=on_failure)
    driver = DRIVER_FACTORIES[driver_name](problem, policy)
    result = driver.run()
    assert result.n_evaluations == driver.max_evals
    assert result.n_failures == problem.n_faults > 0
    assert len(result.trace.failure_records()) == result.n_failures
    # No poisoned observation reached the surrogate.
    assert np.all(np.isfinite(driver.session.y))
    if on_failure == "drop":
        # Dropped failures never become observations.
        assert driver.session.n_observations == result.n_evaluations - result.n_failures


@pytest.mark.parametrize("driver_name", sorted(DRIVER_FACTORIES))
def test_driver_completes_with_failures_thread(driver_name):
    problem = faulty_factory(crash_rate=0.25)
    driver = DRIVER_FACTORIES[driver_name](problem, FailurePolicy())
    driver.pool_factory = ThreadWorkerPool
    result = driver.run()
    assert result.n_evaluations == driver.max_evals
    assert result.n_failures == problem.n_crashes > 0


class CrashOncePerPoint(Problem):
    """Every new design point crashes on its first attempt; the retry (same
    point, same worker) succeeds — a transient license-drop style fault."""

    name = "crash-once"

    def __init__(self):
        self.seen = set()

    @property
    def bounds(self):
        return np.array(BOUNDS)

    def evaluate(self, x):
        key = tuple(np.round(np.asarray(x, dtype=float), 12))
        if key not in self.seen:
            self.seen.add(key)
            raise SimulationError("first-attempt crash", cost=0.1)
        return EvaluationResult(fom=-float(np.sum(x**2)), cost=1.0)


def test_driver_retry_policy_recovers_transient_faults():
    driver = DRIVER_FACTORIES["async"](
        CrashOncePerPoint(), FailurePolicy(max_retries=1)
    )
    result = driver.run()
    # Every evaluation crashed once and recovered on its retry.
    assert result.n_failures == 0
    assert result.n_retries == result.n_evaluations == driver.max_evals
    assert result.trace.records[0].attempts == 2


def test_imputation_is_pessimistic():
    problem = FlakyProblem(fail_calls={5}, cost=1.0)
    driver = DRIVER_FACTORIES["sequential"](
        problem, FailurePolicy(on_failure="impute")
    )
    result = driver.run()
    assert result.n_failures == 1
    y = driver.session.y
    assert len(y) == driver.max_evals
    # Call 5 is the first post-init evaluation; its imputed stand-in sits
    # strictly below everything observed at imputation time.
    assert np.isfinite(y[4])
    assert y[4] < y[:4].min()


def test_imputation_fixed_value():
    problem = FlakyProblem(fail_calls={5}, cost=1.0)
    driver = DRIVER_FACTORIES["sequential"](
        problem, FailurePolicy(on_failure="impute", impute_value=-123.0)
    )
    driver.run()
    assert driver.session.y[4] == -123.0


def test_de_survives_failures():
    problem = faulty_factory(crash_rate=0.2)
    de = DifferentialEvolution(problem, max_evals=40, pop_size=8, rng=2, n_workers=4)
    result = de.run()
    assert result.n_evaluations == 40
    assert result.trace.n_failures == problem.n_crashes > 0
    assert np.isfinite(result.best_fom)


def test_all_failures_run_still_completes():
    """Even a 100% failure rate must not raise — the run reports no best."""
    problem = faulty_factory(crash_rate=1.0)
    driver = DRIVER_FACTORIES["async"](problem, FailurePolicy(on_failure="drop"))
    result = driver.run()
    assert result.n_evaluations == driver.max_evals
    assert result.n_failures == driver.max_evals
    assert result.best_fom == float("-inf")
    assert np.all(np.isnan(result.best_x))


def test_failure_counters_roundtrip_persistence():
    problem = faulty_factory(crash_rate=0.3)
    result = DRIVER_FACTORIES["async"](problem, FailurePolicy()).run()
    assert result.n_failures > 0
    restored = run_from_dict(run_to_dict(result))
    assert restored.n_failures == result.n_failures
    assert restored.n_retries == result.n_retries
    statuses = [r.status for r in restored.trace.records]
    assert statuses == [r.status for r in result.trace.records]
    assert restored.trace.n_failures == result.n_failures


# --------------------------------------------------------------------------
# Acceptance: seeded >=10% failure rate, op-amp, EasyBO-5, both pools
# --------------------------------------------------------------------------
@pytest.mark.parametrize("pool_factory", [VirtualWorkerPool, ThreadWorkerPool])
def test_opamp_easybo5_survives_faults(pool_factory):
    problem = FaultInjectionProblem(
        OpAmpProblem(),
        crash_rate=0.10,
        nan_rate=0.05,
        rng=FAULT_SEED,
    )
    driver = make_algorithm(
        "EasyBO-5",
        problem,
        n_init=8,
        max_evals=24,
        rng=FAULT_SEED,
        acq_candidates=64,
        acq_restarts=1,
        pool_factory=pool_factory,
        failure_policy=FailurePolicy(on_failure="impute"),
    )
    result = driver.run()  # must not raise
    assert result.n_evaluations == 24
    assert result.n_failures == problem.n_faults
    assert result.trace.n_failures == result.n_failures
    assert np.all(np.isfinite(driver.session.y))
    if result.trace.has_success:
        assert np.isfinite(result.best_fom)
