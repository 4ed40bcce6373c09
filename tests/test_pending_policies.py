"""Pending-point policy zoo: registry, drivers, server, and tournament.

The byte-level guarantees live elsewhere (``test_golden_trajectories.py``
pins each policy's trajectory, ``test_properties.py`` sweeps the
mathematical invariants, ``test_campaign.py`` covers the ask/tell core).
This module covers the plumbing the ISSUE added around them:

* :func:`make_pending_policy` registry semantics;
* label / kwarg round trips through :func:`make_algorithm`, including the
  ``EasyBO-A ==`` ``pending_policy="none"`` equivalence and the
  ``pending_policy`` field riding in :class:`RunResult` / format v7;
* the campaign server's ``create`` verb accepting the policy both as a
  top-level convenience field and inside ``config``;
* the tournament harness (grid shape, paired keys, ranking, determinism).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.circuits.benchmarks import sphere
from repro.core import (
    HallucinatePolicy,
    LocalPenalisationPolicy,
    PENDING_POLICIES,
    PendingPolicy,
    PessimisticPolicy,
    StandardPolicy,
    make_campaign,
    make_pending_policy,
    run_from_dict,
    run_to_dict,
)
from repro.core.easybo import make_algorithm
from repro.core.tournament import (
    SCALES,
    check_tournament,
    paired_comparisons,
    rank_table,
    render_report,
    run_cell,
    run_tournament,
)
from repro.distributed import CampaignClient, serve

ACQ = dict(acq_candidates=32, acq_restarts=1)


class TestRegistry:
    def test_names_resolve_to_their_types(self):
        assert PENDING_POLICIES == ("hallucinate", "lp", "pessimistic", "none")
        for name, cls in [
            ("hallucinate", HallucinatePolicy),
            ("lp", LocalPenalisationPolicy),
            ("pessimistic", PessimisticPolicy),
            ("none", StandardPolicy),
        ]:
            policy = make_pending_policy(name)
            assert isinstance(policy, cls)
            assert policy.name == name

    def test_none_defaults_to_hallucinate(self):
        assert isinstance(make_pending_policy(None), HallucinatePolicy)

    def test_instance_passes_through(self):
        policy = PessimisticPolicy(beta=0.5)
        assert make_pending_policy(policy) is policy

    def test_name_is_case_and_whitespace_tolerant(self):
        assert isinstance(make_pending_policy("  LP "), LocalPenalisationPolicy)

    def test_unknown_name_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown pending policy"):
            make_pending_policy("krig")

    def test_non_policy_object_raises_type_error(self):
        with pytest.raises(TypeError, match="pending_policy"):
            make_pending_policy(42)

    def test_custom_subclass_is_accepted_by_campaign(self):
        class Custom(PendingPolicy):
            name = "custom"

        campaign = make_campaign(
            "EasyBO-3", sphere(2), pending_policy=Custom(),
            rng=0, n_init=3, max_evals=8, **ACQ,
        )
        assert campaign.strategy.pending_policy.name == "custom"
        assert campaign.algorithm == "EasyBO+custom-3"


class TestDriverRoundTrips:
    def _run(self, label, **extra):
        return make_algorithm(
            label, sphere(2), rng=5, n_init=3, max_evals=8, **ACQ, **extra
        ).run()

    @pytest.mark.parametrize(
        "label,policy",
        [
            ("EasyBO-3", "hallucinate"),
            ("EasyBO-A-3", "none"),
            ("EasyBO-LP-3", "lp"),
            ("EasyBO-PESS-3", "pessimistic"),
            ("EasyBO", "hallucinate"),
        ],
    )
    def test_label_sets_policy_and_result_field(self, label, policy):
        result = self._run(label)
        assert result.algorithm == label
        assert result.pending_policy == policy
        # The policy rides format v7 round trips.
        clone = run_from_dict(json.loads(json.dumps(run_to_dict(result))))
        assert clone.pending_policy == policy

    def test_easybo_a_label_equals_none_policy_kwarg(self):
        # The EasyBO-A label and the explicit pending_policy="none" kwarg
        # are one algorithm.
        by_label = self._run("EasyBO-A-3")
        by_kwarg = self._run("EasyBO-3", pending_policy="none")
        assert by_kwarg.algorithm == "EasyBO-A-3"
        assert by_label.best_fom == by_kwarg.best_fom
        for a, b in zip(by_label.trace.records, by_kwarg.trace.records):
            np.testing.assert_array_equal(a.x, b.x)
            assert a.fom == b.fom

    def test_sequential_driver_has_no_policy(self):
        result = self._run("LCB")
        assert result.pending_policy is None


class TestServerCreate:
    @pytest.fixture()
    def client(self, tmp_path):
        server = serve(journal_dir=tmp_path / "journals", background=True)
        try:
            with CampaignClient(port=server.port) as c:
                yield c
        finally:
            server.stop()

    CONFIG = dict(rng=9, n_init=3, max_evals=6, **ACQ)

    def _drive_to_done(self, client, cid):
        problem = sphere(2)
        points = []
        while True:
            x = client.ask(cid)[0]
            points.append(x)
            if client.tell(cid, x, problem.evaluate(x))["done"]:
                return points

    @pytest.mark.parametrize("spelling", ["top-level", "config"])
    def test_create_accepts_policy_both_ways(self, client, spelling):
        if spelling == "top-level":
            cid = client.create("EasyBO-2", "sphere2",
                                config=dict(self.CONFIG),
                                pending_policy="lp")
        else:
            cid = client.create("EasyBO-2", "sphere2",
                                config=dict(self.CONFIG, pending_policy="lp"))
        points = self._drive_to_done(client, cid)
        # The hosted campaign tracks a local twin built the same way.
        twin = make_campaign("EasyBO-2", sphere(2), pending_policy="lp",
                             **self.CONFIG)
        assert twin.algorithm == "EasyBO-LP-2"
        for x in points:
            np.testing.assert_array_equal(x, twin.ask())
            twin.tell(x, twin.problem.evaluate(x))
        assert client.status(cid)["algorithm"] == "EasyBO-LP-2"

    def test_config_wins_over_top_level(self, client):
        cid = client.create("EasyBO-2", "sphere2",
                            config=dict(self.CONFIG, pending_policy="none"),
                            pending_policy="lp")
        assert client.status(cid)["algorithm"] == "EasyBO-A-2"


class TestTournamentHarness:
    def test_smoke_grid_runs_and_checks(self):
        scale = SCALES["smoke"]
        results = run_tournament(scale)
        check_tournament(scale, results)  # grid, budget, pairing, rerun

    def test_rank_table_and_paired_stats_are_consistent(self):
        scale = SCALES["smoke"]
        results = run_tournament(scale)
        rows = rank_table(results)
        assert [row["rank"] for row in rows] == [1, 2]
        assert {row["policy"] for row in rows} == set(scale.policies)
        means = [row["mean_regret"] for row in rows]
        assert means == sorted(means)
        paired = paired_comparisons(results)
        assert set(paired) == {"none"}
        stats = paired["none"]
        assert stats["n"] == scale.n_seeds  # one matched cell per seed
        assert stats["wins"] + stats["losses"] + stats["ties"] == stats["n"]
        report = render_report(scale, results)
        assert "pending-policy tournament [smoke]" in report

    def test_cell_is_deterministic_and_faults_are_paired(self):
        scale = SCALES["smoke"]
        spec = dict(circuit="branin", batch=3, fault_rate=0.4, seed=1)
        a = run_cell("hallucinate", scale=scale, **spec)
        b = run_cell("hallucinate", scale=scale, **spec)
        assert a == b
        # The fault stream is a function of the cell, not the policy: a
        # different policy on the same cell sees the same fault pressure.
        c = run_cell("none", scale=scale, **spec)
        assert c.cell_key == a.cell_key
        assert a.n_failures > 0 and c.n_failures > 0

    def test_scales_cover_the_acceptance_grid(self):
        reduced = SCALES["reduced"]
        assert set(reduced.policies) == set(PENDING_POLICIES)
        assert len(reduced.circuits) >= 2
        assert len(reduced.batch_sizes) >= 2
        assert len(reduced.fault_rates) >= 2
        assert reduced.n_seeds >= 2
