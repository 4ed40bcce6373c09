"""Tests for the EasyBO facade and the algorithm label registry."""

import numpy as np
import pytest

from repro.baselines.de import DifferentialEvolution
from repro.circuits.benchmarks import sphere
from repro.core.bo import BODriverBase
from repro.core.campaign import (
    FAMILIES,
    DesignStrategy,
    SyncBatchStrategy,
    make_campaign,
)
from repro.core.easybo import EasyBO, make_algorithm
from repro.core.faults import FailurePolicy, FaultInjectionProblem
from repro.obs import MetricsRegistry
from repro.sched.durations import ConstantCostModel
from tests.test_core_constrained import DiskProblem


def problem():
    return sphere(2, cost_model=ConstantCostModel(1.0))


QUICK = dict(n_init=4, max_evals=10, rng=0, acq_candidates=128, acq_restarts=1)

#: Every label with an ask/tell campaign form, plus a lower-case spelling
#: and the pending policies spelled by keyword.
ASK_TELL_LABELS = [
    pytest.param(label, {}, id=label)
    for label in [
        "EI", "PI", "LCB", "UCB", "EasyBO", "EasyBO-3", "EasyBO-A-3",
        "EasyBO-LP-3", "EasyBO-PESS-3", "pBO-3", "pHCBO-3", "EasyBO-S-3",
        "EasyBO-SP-3", "BUCB-3", "LP-3", "MACE-3", "cEasyBO-3", "caEasyBO-3",
        "GP-Hedge", "Random", "Random-3", "easybo-sp-2",
    ]
] + [
    pytest.param(label, {"pending_policy": policy}, id=f"{label}+{policy}")
    for label, policy in [
        ("EasyBO-3", "lp"), ("EasyBO", "pessimistic"), ("EasyBO-A-2", "hallucinate"),
    ]
]

def settings(obj) -> dict:
    """An object's fields, nested policy/penalty/side-model objects by type
    and fields, lists member by member, arrays and generators by value."""

    def value(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, np.random.Generator):
            return v.bit_generator.state
        if isinstance(v, list):
            return [value(m) for m in v]
        return (type(v).__name__, settings(v)) if hasattr(v, "__dict__") else v

    return {k: value(v) for k, v in vars(obj).items()}


class TestFacade:
    def test_async_mode(self):
        bo = EasyBO(problem(), batch_size=2, mode="async", **QUICK)
        assert type(bo.driver) is BODriverBase
        assert bo.driver.algorithm_name == "EasyBO-2"
        assert bo.driver.pending_policy == "hallucinate"
        result = bo.optimize()
        assert result.n_evaluations == 10

    def test_sync_mode(self):
        bo = EasyBO(problem(), batch_size=2, mode="sync", **QUICK)
        assert bo.driver.algorithm_name == "EasyBO-SP-2"
        assert bo.driver.campaign.strategy.strategy == "easybo-sp"

    def test_nopen_modes(self):
        async_nopen = EasyBO(problem(), mode="async-nopen", **QUICK).driver
        assert async_nopen.pending_policy == "none"
        sync_nopen = EasyBO(problem(), mode="sync-nopen", **QUICK).driver
        assert sync_nopen.campaign.strategy.strategy == "easybo-s"

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            EasyBO(problem(), mode="warp")


class TestRegistry:
    def test_easybo_label_properties(self):
        algo = make_algorithm("EasyBO-A-10", problem(), **QUICK)
        assert algo.pending_policy == "none"
        algo = make_algorithm("EasyBO-10", problem(), **QUICK)
        assert algo.pending_policy == "hallucinate"

    def test_de_and_random(self):
        de = make_algorithm("DE", problem(), max_evals=30, rng=0)
        assert isinstance(de, DifferentialEvolution)
        rs = make_algorithm("Random", problem(), max_evals=30, rng=0)
        assert type(rs) is BODriverBase
        assert type(rs.campaign.strategy) is DesignStrategy

    def test_case_insensitive(self):
        algo = make_algorithm("easybo-sp-5", problem(), **QUICK)
        assert algo.algorithm_name == "EasyBO-SP-5"
        assert type(algo.campaign.strategy) is SyncBatchStrategy

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown algorithm family"):
            make_algorithm("SGD-5", problem(), **QUICK)

    def test_display_names_match_paper(self):
        assert make_algorithm("pBO-5", problem(), **QUICK).algorithm_name == "pBO-5"
        assert (
            make_algorithm("EasyBO-SP-10", problem(), **QUICK).algorithm_name
            == "EasyBO-SP-10"
        )
        assert make_algorithm("LCB", problem(), **QUICK).algorithm_name == "LCB"

    @pytest.mark.parametrize("label,extra", ASK_TELL_LABELS)
    def test_driver_campaign_is_the_one_make_campaign_builds(self, label, extra):
        """One factory: the label decides strategy, name, batch and config
        once, and every BO label runs on the one driver."""
        target = DiskProblem if label.startswith("cEasyBO") else problem
        driver = make_algorithm(label, target(), **QUICK, **extra)
        assert type(driver) is BODriverBase
        driven = driver.campaign
        standalone = make_campaign(label, target(), **QUICK, **extra)
        assert driven.algorithm == standalone.algorithm
        assert driven.batch_size == standalone.batch_size
        assert type(driven.strategy) is type(standalone.strategy)
        assert settings(driven.strategy) == settings(standalone.strategy)
        assert driven._config == standalone._config
        assert [m.snapshot() for m in driven.side_models] == [
            m.snapshot() for m in standalone.side_models
        ]

    def test_make_campaign_builds_every_bo_family(self):
        """Every family but DE has a campaign form."""
        for key, family in FAMILIES.items():
            if family.build is None:
                with pytest.raises(ValueError, match="no ask/tell campaign form"):
                    make_campaign(family.display, problem(), **QUICK)
                continue
            target = DiskProblem() if key == "ceasybo" else problem()
            campaign = make_campaign(f"{family.display}-2", target, **QUICK)
            assert campaign.algorithm == family.label(campaign.batch_size)


class TestDELabel:
    """DE runs its own loop: it honours its pool knobs and refuses the rest."""

    def test_failure_policy_reaches_the_pool(self):
        faulty = FaultInjectionProblem(sphere(2), crash_rate=0.5, rng=0)
        result = make_algorithm(
            "DE", faulty, max_evals=20, rng=0,
            failure_policy=FailurePolicy(max_retries=3),
        ).run()
        assert result.n_evaluations == 20
        assert result.n_retries > 0
        assert result.n_failures < result.n_retries

    @pytest.mark.parametrize(
        "kwargs,name",
        [({"bogus": 1}, "bogus="), ({"metrics": MetricsRegistry()}, "metrics="),
         ({"n_init": 4}, "n_init=")],
    )
    def test_keywords_it_cannot_honour_are_refused(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            make_algorithm("DE", problem(), max_evals=20, rng=0, **kwargs)

    def test_label_batch_is_its_worker_count(self):
        de = make_algorithm("DE-3", problem(), max_evals=30, rng=0)
        assert de.n_workers == 3
        result = de.run()
        assert result.algorithm == "DE-3"
        assert {r.worker for r in result.trace.records} == {0, 1, 2}
        # 30 one-second evaluations on three workers: two generations of 15.
        assert result.wall_clock == pytest.approx(10.0)
