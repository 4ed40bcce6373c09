"""Unit tests for synchronous-batch selection internals (MACE, LP, batches)."""

import numpy as np
import pytest

from repro.circuits.benchmarks import sphere
from repro.core.campaign import SyncBatchStrategy, _pareto_front_mask
from repro.core.easybo import make_algorithm
from repro.core.faults import SimulationError
from repro.core.pending import LocalPenalisationPolicy
from repro.core.problem import EvaluationResult, Problem
from repro.sched.durations import ConstantCostModel

QUICK = dict(n_init=6, max_evals=18, rng=0, acq_candidates=256, acq_restarts=1)


class TestParetoFrontMask:
    def test_single_point(self):
        assert _pareto_front_mask(np.array([[1.0, 2.0]])).tolist() == [True]

    def test_dominated_point_removed(self):
        scores = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert _pareto_front_mask(scores).tolist() == [False, True]

    def test_tradeoff_points_kept(self):
        scores = np.array([[1.0, 3.0], [3.0, 1.0], [2.0, 2.0]])
        assert _pareto_front_mask(scores).tolist() == [True, True, True]

    def test_duplicates_kept(self):
        scores = np.array([[1.0, 1.0], [1.0, 1.0]])
        # Equal rows do not strictly dominate each other.
        assert _pareto_front_mask(scores).tolist() == [True, True]

    def test_mixed(self):
        scores = np.array([[0.0, 0.0], [1.0, 3.0], [3.0, 1.0], [0.5, 0.5]])
        assert _pareto_front_mask(scores).tolist() == [False, True, True, False]

    def test_random_front_is_mutually_nondominated(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(size=(60, 3))
        mask = _pareto_front_mask(scores)
        front = scores[mask]
        for i in range(len(front)):
            for j in range(len(front)):
                if i == j:
                    continue
                assert not (
                    np.all(front[j] >= front[i]) and np.any(front[j] > front[i])
                )


class TestBatchSelection:
    @pytest.fixture
    def driver(self):
        problem = sphere(2, cost_model=ConstantCostModel(1.0))
        return lambda strategy: make_algorithm(f"{strategy}-4", problem, **QUICK)

    def _primed(self, driver_factory, strategy):
        driver = driver_factory(strategy)
        rng = np.random.default_rng(1)
        X = rng.uniform(-5, 5, size=(10, 2))
        driver.session.add_batch(X, -np.sum(X**2, axis=1))
        return driver

    @pytest.mark.parametrize("strategy", ["pbo", "phcbo", "easybo-s", "easybo-sp",
                                          "bucb", "lp", "mace"])
    def test_selection_returns_n_points_in_bounds(self, driver, strategy):
        primed = self._primed(driver, strategy)
        points = primed.campaign.strategy.select(primed.campaign, 4)
        assert len(points) == 4
        for x in points:
            assert x.shape == (2,)
            assert np.all(x >= -5.0 - 1e-9) and np.all(x <= 5.0 + 1e-9)

    def test_hallucinated_batch_is_diverse(self, driver):
        primed = self._primed(driver, "easybo-sp")
        points = np.vstack(primed.campaign.strategy.select(primed.campaign, 4))
        # The hallucination penalty must keep batch members apart.
        min_dist = min(
            np.linalg.norm(points[i] - points[j])
            for i in range(4)
            for j in range(i + 1, 4)
        )
        assert min_dist > 1e-3

    def test_lipschitz_estimate_positive(self, driver):
        primed = self._primed(driver, "lp")
        model = primed.session.refit()
        lipschitz = LocalPenalisationPolicy.estimate_lipschitz(
            model, primed.session.dim, primed.rng
        )
        assert lipschitz > 0

    def test_mace_points_distinct(self, driver):
        primed = self._primed(driver, "mace")
        points = np.vstack(primed.campaign.strategy.select(primed.campaign, 4))
        assert len(np.unique(points.round(12), axis=0)) == 4


class _FailsFirst(Problem):
    """Crashes on its first ``n_fail`` evaluations, then a quadratic."""

    name = "fails-first"

    def __init__(self, n_fail):
        self.n_fail, self.n_calls = n_fail, 0

    @property
    def bounds(self):
        return np.array([[-2.0, 2.0], [-2.0, 2.0]])

    def evaluate(self, x):
        self.n_calls += 1
        if self.n_calls <= self.n_fail:
            raise SimulationError("scheduled crash")
        return EvaluationResult(fom=-float(np.sum(x**2)), cost=1.0)


def test_select_batch_waits_for_two_observations():
    """While dropped failures leave the GP under two observations, the
    campaign's uniform exploration picks the batch: a strategy's
    ``model_batch`` override never runs on a model it cannot fit."""
    seen = []

    class Spy(SyncBatchStrategy):
        def model_batch(self, core, n_points):
            seen.append(core.session.n_observations)
            return super().model_batch(core, n_points)

    driver = make_algorithm("pBO-2", _FailsFirst(n_fail=5), n_init=4, max_evals=12,
                            rng=0, acq_candidates=32, acq_restarts=1,
                            failure_policy={"on_failure": "drop"})
    driver.campaign.strategy = Spy("pbo", batch_size=2, dim=2)
    result = driver.run()
    assert result.n_evaluations == 12
    assert seen and min(seen) >= 2


@pytest.mark.parametrize("label", ["pBO-3", "EasyBO-SP-3", "pHCBO-3", "LP-3"])
def test_every_model_driven_maximization_is_observed(tmp_path, label):
    """pHCBO's and LP's unit-cube scorers go through the campaign's one
    maximization entry, so each of the 9 model-driven points leaves an
    ``acquisition-maximize`` span and an ``acquisition.maximizations`` tick."""
    from repro.obs import MetricsRegistry, Tracer, load_trace

    tracer, metrics = Tracer(tmp_path / "trace.jsonl"), MetricsRegistry()
    make_algorithm(
        label, sphere(2), n_init=3, max_evals=12, rng=0, acq_candidates=32,
        acq_restarts=1, tracer=tracer, metrics=metrics,
    ).run()
    tracer.close()
    names = [s["name"] for s in load_trace(tmp_path / "trace.jsonl")]
    assert names.count("acquisition-maximize") == 9
    assert metrics.counter("acquisition.maximizations") == 9
