"""Tests for the GP-Hedge portfolio label and result persistence."""

import numpy as np
import pytest

from repro.circuits.benchmarks import branin, sphere
from repro.core.easybo import make_algorithm
from repro.core.persistence import load_runs, run_from_dict, run_to_dict, save_runs
from repro.sched.durations import ConstantCostModel

QUICK = dict(n_init=6, max_evals=20, rng=0, acq_candidates=256, acq_restarts=1)


class TestPortfolio:
    def test_runs_and_improves(self):
        problem = sphere(2, cost_model=ConstantCostModel(1.0))
        result = make_algorithm("GP-Hedge", problem, **QUICK).run()
        assert result.n_evaluations == 20
        assert result.best_fom > -5.0

    def test_every_member_can_be_played(self):
        problem = sphere(2, cost_model=ConstantCostModel(1.0))
        driver = make_algorithm("GP-Hedge", problem, **QUICK)
        driver.run()
        plays = driver.campaign.strategy.plays
        assert sum(plays.values()) == 20 - 6
        assert all(count >= 0 for count in plays.values())

    def test_gains_updated(self):
        problem = sphere(2, cost_model=ConstantCostModel(1.0))
        driver = make_algorithm("GP-Hedge", problem, **QUICK)
        driver.run()
        assert np.any(driver.campaign.strategy.gains != 0.0)

    def test_probabilities_normalized(self):
        problem = sphere(2, cost_model=ConstantCostModel(1.0))
        driver = make_algorithm("GP-Hedge", problem, **QUICK)
        driver.campaign.strategy.gains = np.array([0.0, 5.0, -3.0])
        probs = driver.campaign.strategy._probabilities()
        assert probs.sum() == pytest.approx(1.0)
        assert probs[1] > probs[0] > probs[2]

    def test_eta_validated(self):
        with pytest.raises(ValueError):
            make_algorithm("GP-Hedge", sphere(2), eta=0.0, **QUICK)

    def test_deterministic(self):
        problem = sphere(2, cost_model=ConstantCostModel(1.0))
        a = make_algorithm("GP-Hedge", problem, **QUICK).run()
        b = make_algorithm("GP-Hedge", problem, **QUICK).run()
        assert a.best_fom == b.best_fom


class TestPersistence:
    @pytest.fixture
    def sample_run(self):
        return make_algorithm("EasyBO-3", branin(), **QUICK).run()

    def test_dict_roundtrip(self, sample_run):
        restored = run_from_dict(run_to_dict(sample_run))
        assert restored.algorithm == sample_run.algorithm
        assert restored.best_fom == sample_run.best_fom
        np.testing.assert_array_equal(restored.best_x, sample_run.best_x)
        assert len(restored.trace) == len(sample_run.trace)
        assert restored.trace.makespan == pytest.approx(sample_run.trace.makespan)

    def test_trace_curves_survive(self, sample_run):
        restored = run_from_dict(run_to_dict(sample_run))
        t0, b0 = sample_run.trace.best_fom_curve()
        t1, b1 = restored.trace.best_fom_curve()
        np.testing.assert_allclose(t1, t0)
        np.testing.assert_allclose(b1, b0)

    def test_file_roundtrip(self, sample_run, tmp_path):
        path = tmp_path / "grid.json"
        save_runs(path, {"EasyBO-3": [sample_run, sample_run]})
        grid = load_runs(path)
        assert set(grid) == {"EasyBO-3"}
        assert len(grid["EasyBO-3"]) == 2
        assert grid["EasyBO-3"][0].best_fom == sample_run.best_fom

    def test_surrogate_stats_roundtrip(self, sample_run):
        stats = sample_run.surrogate_stats
        assert stats is not None and stats.n_refits > 0
        restored = run_from_dict(run_to_dict(sample_run))
        assert restored.surrogate_stats is not None
        assert restored.surrogate_stats.as_dict() == stats.as_dict()

    def test_pre_v3_payload_loads_without_surrogate_stats(self, sample_run):
        data = run_to_dict(sample_run)
        data["version"] = 2
        del data["surrogate_stats"]
        restored = run_from_dict(data)
        assert restored.surrogate_stats is None
        assert restored.best_fom == sample_run.best_fom

    def test_version_checked(self, sample_run):
        data = run_to_dict(sample_run)
        data["version"] = 99
        with pytest.raises(ValueError, match="newer than supported"):
            run_from_dict(data)
        data["version"] = "bogus"
        with pytest.raises(ValueError, match="version"):
            run_from_dict(data)

    def test_grid_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "grid": {}}')
        with pytest.raises(ValueError, match="newer than supported"):
            load_runs(path)

    def test_summaries_from_restored_grid(self, sample_run, tmp_path):
        from repro.core.results import summarize_runs

        path = tmp_path / "grid.json"
        save_runs(path, {"EasyBO-3": [sample_run]})
        summary = summarize_runs(load_runs(path)["EasyBO-3"])
        assert summary.best == sample_run.best_fom
