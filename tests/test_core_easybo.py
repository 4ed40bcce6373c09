"""Tests for the EasyBO facade and the algorithm label registry."""

import numpy as np
import pytest

from repro.baselines.de import DifferentialEvolution
from repro.baselines.random_search import RandomSearch
from repro.circuits.benchmarks import sphere
from repro.core.async_batch import AsynchronousBatchBO
from repro.core.bo import SequentialBO
from repro.core.campaign import FAMILIES, make_campaign
from repro.core.easybo import EasyBO, make_algorithm
from repro.core.sync_batch import SynchronousBatchBO
from repro.sched.durations import ConstantCostModel


def problem():
    return sphere(2, cost_model=ConstantCostModel(1.0))


QUICK = dict(n_init=4, max_evals=10, rng=0, acq_candidates=128, acq_restarts=1)

#: Every label with an ask/tell campaign form.
ASK_TELL_LABELS = [
    "EI", "PI", "LCB", "UCB", "EasyBO", "EasyBO-3", "EasyBO-A-3", "EasyBO-LP-3",
    "EasyBO-PESS-3", "pBO-3", "pHCBO-3", "EasyBO-S-3", "EasyBO-SP-3", "BUCB-3",
    "LP-3", "MACE-3", "caEasyBO-3", "GP-Hedge",
]


def settings(obj) -> dict:
    """An object's fields, nested policy/penalty/side-model objects by type
    and fields, arrays and generators by value."""

    def value(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, np.random.Generator):
            return v.bit_generator.state
        return (type(v).__name__, settings(v)) if hasattr(v, "__dict__") else v

    return {k: value(v) for k, v in vars(obj).items()}


class TestFacade:
    def test_async_mode(self):
        bo = EasyBO(problem(), batch_size=2, mode="async", **QUICK)
        assert isinstance(bo.driver, AsynchronousBatchBO)
        assert bo.driver.penalized
        result = bo.optimize()
        assert result.n_evaluations == 10

    def test_sync_mode(self):
        bo = EasyBO(problem(), batch_size=2, mode="sync", **QUICK)
        assert isinstance(bo.driver, SynchronousBatchBO)
        assert bo.driver.strategy == "easybo-sp"

    def test_nopen_modes(self):
        assert not EasyBO(problem(), mode="async-nopen", **QUICK).driver.penalized
        assert (
            EasyBO(problem(), mode="sync-nopen", **QUICK).driver.strategy
            == "easybo-s"
        )

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            EasyBO(problem(), mode="warp")


class TestRegistry:
    @pytest.mark.parametrize(
        "label,cls,batch",
        [
            ("EI", SequentialBO, None),
            ("LCB", SequentialBO, None),
            ("EasyBO", AsynchronousBatchBO, 1),
            ("pBO-5", SynchronousBatchBO, 5),
            ("pHCBO-10", SynchronousBatchBO, 10),
            ("EasyBO-S-5", SynchronousBatchBO, 5),
            ("EasyBO-SP-15", SynchronousBatchBO, 15),
            ("BUCB-4", SynchronousBatchBO, 4),
            ("LP-4", SynchronousBatchBO, 4),
            ("EasyBO-A-10", AsynchronousBatchBO, 10),
            ("EasyBO-15", AsynchronousBatchBO, 15),
        ],
    )
    def test_labels_build_right_driver(self, label, cls, batch):
        algo = make_algorithm(label, problem(), **QUICK)
        assert isinstance(algo, cls)
        if batch is not None:
            assert algo.batch_size == batch

    def test_easybo_label_properties(self):
        algo = make_algorithm("EasyBO-A-10", problem(), **QUICK)
        assert not algo.penalized
        algo = make_algorithm("EasyBO-10", problem(), **QUICK)
        assert algo.penalized

    def test_de_and_random(self):
        de = make_algorithm("DE", problem(), max_evals=30, rng=0)
        assert isinstance(de, DifferentialEvolution)
        rs = make_algorithm("Random", problem(), max_evals=30, rng=0)
        assert isinstance(rs, RandomSearch)

    def test_case_insensitive(self):
        assert isinstance(make_algorithm("easybo-sp-5", problem(), **QUICK),
                          SynchronousBatchBO)

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

    @pytest.mark.parametrize("label", ASK_TELL_LABELS)
    def test_driver_campaign_is_the_one_make_campaign_builds(self, label):
        """One factory: the label decides strategy, name, batch and config once."""
        driven = make_algorithm(label, problem(), **QUICK).campaign
        standalone = make_campaign(label, problem(), **QUICK)
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
        from tests.test_core_constrained import DiskProblem

        for key, family in FAMILIES.items():
            if family.driver == "de":
                with pytest.raises(ValueError, match="no ask/tell campaign form"):
                    make_campaign(family.display, problem(), **QUICK)
                continue
            target = DiskProblem() if key == "ceasybo" else problem()
            campaign = make_campaign(f"{family.display}-2", target, **QUICK)
            assert campaign.algorithm == family.label(campaign.batch_size)
