"""Unit tests for the standalone ask/tell :class:`Campaign` core.

Covers the budget/pending bookkeeping, the ``tell`` action vocabulary, the
cold-start dedupe against in-flight points (the ``batch_size >= n_init``
regression), label parsing in :func:`make_campaign`, the campaign-journal
crash/resume path, and the "format newer than supported" guards added to
every persistence reader (run files, run journals, campaign journals).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.circuits.benchmarks import branin, sphere
from repro.core import (
    Campaign,
    CampaignError,
    CampaignExhausted,
    JournalError,
    JournalWriter,
    load_runs,
    make_algorithm,
    make_campaign,
    resume,
    resume_campaign,
    run_from_dict,
    run_to_dict,
    save_runs,
)
from repro.core import campaign as campaign_mod
from repro.core import persistence
from repro.core.journal import JOURNAL_VERSION
from repro.core.problem import EvaluationResult
from repro.obs import MetricsRegistry, Observability
from repro.utils.rng import rng_state_to_dict

ACQ = dict(acq_candidates=32, acq_restarts=1)


def _campaign(label="LCB", *, n_init=3, max_evals=8, rng=0, **kwargs):
    return make_campaign(
        label, sphere(2), n_init=n_init, max_evals=max_evals, rng=rng, **ACQ, **kwargs
    )


class TestAskTellBasics:
    def test_doe_rows_served_in_order_then_tracked_pending(self):
        campaign = _campaign()
        first = campaign.ask()
        design = campaign.design
        np.testing.assert_array_equal(first, design[0])
        rest = campaign.ask(2)
        np.testing.assert_array_equal(np.vstack(rest), design[1:3])
        assert campaign.n_pending == 3 and campaign.issued == 3
        np.testing.assert_array_equal(campaign.pending_matrix(), design[:3])

    def test_tell_removes_pending_and_feeds_surrogate(self):
        campaign = _campaign()
        problem = campaign.problem
        for _ in range(3):
            x = campaign.ask()
            assert campaign.tell(x, problem.evaluate(x)) == "added"
        assert campaign.n_pending == 0
        assert campaign.n_observations == 3
        assert campaign.best() is not None

    def test_ask_after_budget_raises_campaign_exhausted(self):
        campaign = _campaign(n_init=2, max_evals=2)
        campaign.ask(2)
        assert campaign.exhausted and not campaign.done
        with pytest.raises(CampaignExhausted):
            campaign.ask()

    def test_done_requires_all_pending_told(self):
        campaign = _campaign(n_init=2, max_evals=2)
        points = campaign.ask(2)
        assert not campaign.done
        for x in points:
            campaign.tell(x, campaign.problem.evaluate(x))
        assert campaign.done

    def test_block_ask_never_overruns_budget(self):
        campaign = _campaign(n_init=2, max_evals=3)
        campaign.ask(2)
        assert len(campaign.ask(5)) == 1  # clamped to the remaining budget
        assert campaign.exhausted

    def test_async_block_ask_matches_successive_asks(self, tmp_path):
        """Each member of an asynchronous ``ask(n)`` sees the earlier ones as
        pending: no duplicates, and the same points, pending order and RNG
        state as ``n`` one-point asks, journaled as one ``ask`` record."""
        from repro.circuits.benchmarks import branin
        from repro.core.journal import read_journal

        def primed(journal=None):
            campaign = make_campaign(
                "EasyBO-3", branin(), n_init=5, max_evals=20, rng=0,
                acq_candidates=256, acq_restarts=1, journal=journal,
            )
            for _ in range(5):
                x = campaign.ask()
                campaign.tell(x, campaign.problem.evaluate(x))
            return campaign

        path = tmp_path / "block.jsonl"
        block = primed(path)
        points = block.ask(3)
        block.close()
        single = primed()
        expected = [single.ask() for _ in range(3)]

        assert len({p.tobytes() for p in points}) == 3
        np.testing.assert_array_equal(np.vstack(points), np.vstack(expected))
        np.testing.assert_array_equal(block.pending_matrix(), single.pending_matrix())
        assert rng_state_to_dict(block.rng) == rng_state_to_dict(single.rng)
        asks = [e for e in read_journal(path) if e["type"] == "ask"]
        assert len(asks) == 6 and len(asks[-1]["points"]) == 3

    def test_sync_campaign_past_its_design_is_asked_in_whole_batches(self):
        """A piecemeal ask would maximize pBO's first grid weight every time:
        it is refused before any state changes, and the whole batch is not."""
        campaign = _campaign("pBO-3", n_init=3, max_evals=9)
        for x in [campaign.ask() for _ in range(3)]:  # design rows: one at a time
            campaign.tell(x, campaign.problem.evaluate(x))
        campaign.ask(3)
        pending, rng = campaign.pending_matrix(), rng_state_to_dict(campaign.rng)
        for n in (None, 2):
            with pytest.raises(CampaignError, match=r"whole batches .*ask\(3\)"):
                campaign.ask(n)
            assert campaign.issued == 6
            np.testing.assert_array_equal(campaign.pending_matrix(), pending)
            assert rng_state_to_dict(campaign.rng) == rng
        assert len(campaign.ask(3)) == 3 and campaign.exhausted

    def test_ask_for_no_points_is_refused(self):
        campaign = _campaign("EasyBO-2")
        with pytest.raises(CampaignError, match="n >= 1"):
            campaign.ask(0)
        assert campaign.issued == 0 and campaign.design is None


class TestTellActions:
    def _primed(self, **kwargs):
        campaign = _campaign(n_init=2, max_evals=8, **kwargs)
        for x in campaign.ask(2):
            campaign.tell(x, campaign.problem.evaluate(x))
        return campaign

    def test_failed_result_imputed_by_default(self):
        campaign = self._primed()
        x = campaign.ask()
        action = campaign.tell(x, EvaluationResult.failed("sim died"))
        assert action == "imputed"
        assert campaign.n_observations == 3
        # Imputation is pessimistic: below every genuine observation.
        assert campaign.session.y[-1] < campaign.session.y[:-1].min()

    def test_failed_result_dropped_under_drop_policy(self):
        campaign = self._primed(failure_policy={"on_failure": "drop"})
        x = campaign.ask()
        assert campaign.tell(x, EvaluationResult.failed("sim died")) == "dropped"
        assert campaign.n_observations == 2

    def test_orphan_reissued_once_then_imputed(self):
        campaign = self._primed()
        x = campaign.ask()
        orphan = EvaluationResult.failed("lease expired", status="orphaned")
        assert campaign.tell(x, orphan) == "reissued"
        # Budget-neutral: still pending (moved to the end), still issued=3.
        assert campaign.n_pending == 1 and campaign.issued == 3
        # Second orphan of the same point exhausts max_reissues -> imputed.
        assert campaign.tell(x, orphan) == "imputed"
        assert campaign.n_pending == 0

    def test_tell_for_never_asked_point_raises(self):
        # Regression: this used to be silently absorbed as a foreign
        # observation, hiding client bugs (wrong point, wrong campaign).
        campaign = self._primed()
        with pytest.raises(CampaignError, match="never asked"):
            campaign.tell(
                np.array([0.123, 0.456]),
                campaign.problem.evaluate(np.array([0.123, 0.456])),
            )

    def test_tell_twice_for_same_point_raises(self):
        campaign = self._primed()
        x = campaign.ask()
        result = campaign.problem.evaluate(x)
        assert campaign.tell(x, result) == "added"
        with pytest.raises(CampaignError, match="never asked"):
            campaign.tell(x, result)
        assert campaign.n_observations == 3  # the double tell changed nothing


class TestColdStartDedupe:
    """``batch_size >= n_init``: cold proposals must dodge in-flight points."""

    def test_cold_point_redraws_on_collision(self, monkeypatch):
        obs = Observability(metrics=MetricsRegistry())
        campaign = _campaign("EasyBO-4", n_init=2, max_evals=8, rng=0, obs=obs)
        pending = campaign.ask(2)  # the whole DoE, still in flight
        real = campaign_mod.random_design
        calls = {"n": 0}

        def rigged(bounds, n, rng):
            calls["n"] += 1
            if calls["n"] == 1:  # first cold draw collides with pending[0]
                return np.asarray([pending[0]])
            return real(bounds, n, rng)

        monkeypatch.setattr(campaign_mod, "random_design", rigged)
        x = campaign.ask()
        assert calls["n"] >= 2  # the collision forced a redraw
        assert obs.metrics.counter("campaign.cold_redraws") >= 1
        assert all(not np.array_equal(x, p) for p in pending)

    def test_cold_block_dedupes_within_block_and_against_pending(self, monkeypatch):
        campaign = _campaign("pBO-3", n_init=2, max_evals=8, rng=1)
        pending = campaign.ask(2)
        real = campaign_mod.random_design
        calls = {"n": 0}

        def rigged(bounds, n, rng):
            calls["n"] += 1
            if calls["n"] == 1:  # whole cold block collides with pending[0]
                return np.vstack([pending[0], pending[0], pending[0]])
            return real(bounds, n, rng)

        monkeypatch.setattr(campaign_mod, "random_design", rigged)
        block = campaign.ask(3)
        keys = {np.asarray(p).tobytes() for p in [*pending, *block]}
        assert len(keys) == 5  # all five in-flight points distinct

    def test_batch_larger_than_n_init_runs_clean_end_to_end(self, monkeypatch):
        """Driver-level regression: EasyBO with B=6 > n_init=4 completes with
        every issued point unique even when the first cold draw collides."""
        driver = make_algorithm(
            "EasyBO-6", sphere(2), n_init=4, max_evals=12, rng=5, **ACQ
        )
        real = campaign_mod.random_design
        state = {"rigged": False}

        def rigged(bounds, n, rng):
            if not state["rigged"] and n == 1 and driver.campaign.pending:
                state["rigged"] = True
                return np.asarray([driver.campaign.pending[0]])
            return real(bounds, n, rng)

        monkeypatch.setattr(campaign_mod, "random_design", rigged)
        result = driver.run()
        assert state["rigged"], "the collision rig never fired"
        assert result.n_evaluations == 12
        xs = [r.x.tobytes() for r in result.trace.records]
        assert len(set(xs)) == len(xs)

    def test_model_proposal_on_a_pending_point_is_replaced(self, monkeypatch):
        """A maximizer that lands on a point in flight (Eq. 9 keeps mu there)
        never hands it to a second worker: a cold draw replaces it."""
        obs = Observability(metrics=MetricsRegistry())
        campaign = _campaign("EasyBO-2", n_init=3, max_evals=8, rng=0, obs=obs)
        design = campaign.ask(3)
        for x in design[:2]:
            campaign.tell(x, campaign.problem.evaluate(x))
        monkeypatch.setattr(
            campaign.strategy, "choose", lambda core, model, pending: pending[0]
        )
        x = campaign.ask()
        assert not np.array_equal(x, design[2])
        assert obs.metrics.counter("campaign.pending_collisions") == 1
        assert len({p.tobytes() for p in campaign.pending}) == 2


class TestMakeCampaign:
    @pytest.mark.parametrize(
        "label,algorithm,kind,batch",
        [
            ("LCB", "LCB", "async", 1),
            ("EasyBO", "EasyBO", "async", 1),
            ("EasyBO-3", "EasyBO-3", "async", 3),
            ("EasyBO-A-4", "EasyBO-A-4", "async", 4),
            ("pBO-3", "pBO-3", "sync", 3),
            ("EasyBO-SP-2", "EasyBO-SP-2", "sync", 2),
        ],
    )
    def test_label_round_trip(self, label, algorithm, kind, batch):
        campaign = _campaign(label)
        assert campaign.algorithm == algorithm
        assert campaign.strategy.kind == kind
        assert campaign.batch_size == batch

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="campaign form"):
            make_campaign("DE", sphere(2))

    def test_unparseable_label_rejected(self):
        with pytest.raises(ValueError, match="cannot parse"):
            make_campaign("3-easybo", sphere(2))

    @pytest.mark.parametrize("label", ["EasyBO-0", "pBO-0"])
    def test_batch_zero_rejected(self, label):
        with pytest.raises(ValueError, match="batch size must be >= 1"):
            make_campaign(label, sphere(2))


class TestPendingPolicySelection:
    @pytest.mark.parametrize(
        "label,policy",
        [
            ("EasyBO-3", "hallucinate"),
            ("EasyBO-A-3", "none"),
            ("EasyBO-LP-3", "lp"),
            ("EasyBO-PESS-3", "pessimistic"),
        ],
    )
    def test_label_implies_policy(self, label, policy):
        campaign = _campaign(label)
        assert campaign.strategy.pending_policy.name == policy
        assert campaign._config["pending_policy"] == policy
        assert campaign.algorithm == label

    @pytest.mark.parametrize(
        "policy,algorithm",
        [
            ("hallucinate", "EasyBO-3"),
            ("none", "EasyBO-A-3"),
            ("lp", "EasyBO-LP-3"),
            ("pessimistic", "EasyBO-PESS-3"),
        ],
    )
    def test_kwarg_selects_policy_and_renames(self, policy, algorithm):
        # The kwarg spelling and the label spelling are interchangeable:
        # an explicit pending_policy wins and the display name follows it.
        campaign = _campaign("EasyBO-3", pending_policy=policy)
        assert campaign.strategy.pending_policy.name == policy
        assert campaign.algorithm == algorithm

    def test_policy_on_batch_one_forces_async_form(self):
        campaign = _campaign("EasyBO", pending_policy="lp")
        assert campaign.strategy.kind == "async"
        assert campaign.algorithm == "EasyBO-LP"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown pending policy"):
            _campaign("EasyBO-3", pending_policy="krig")

    @pytest.mark.parametrize("label", ["LCB", "pBO-3"])
    def test_non_async_families_reject_policy(self, label):
        with pytest.raises(ValueError, match="asynchronous EasyBO family"):
            _campaign(label, pending_policy="lp")


class TestOnePointLabelsHallucinate:
    """Every one-point label proposes through ``AsyncBatchStrategy``, whose
    fixed hallucinate policy (neither selectable nor journaled for EI, PI,
    LCB, UCB and GP-Hedge) folds in the points in flight, so a batch ask no
    longer returns one maximizer three times."""

    @pytest.mark.parametrize("label", ["LCB", "EI"])
    @pytest.mark.parametrize("seed", range(5))
    def test_batch_ask_spreads_out(self, label, seed):
        problem = branin()
        campaign = make_campaign(
            label, problem, n_init=6, max_evals=12, rng=seed, **ACQ
        )
        for x in campaign.ask(6):
            campaign.tell(x, problem.evaluate(x))
        U = campaign.session.transform.to_unit(np.vstack(campaign.ask(3)))
        gaps = [np.linalg.norm(U[i] - U[j]) for i in range(3) for j in range(i)]
        assert min(gaps) > 1e-6
        assert campaign.session.stats.n_hallucinated_views == 2
        assert "pending_policy" not in campaign._config


class TestCampaignJournalResume:
    def _drive(self, campaign, n_tells, n_extra_asks):
        problem = campaign.problem
        for _ in range(n_tells):
            x = campaign.ask()
            campaign.tell(x, problem.evaluate(x))
        return [campaign.ask() for _ in range(n_extra_asks)]

    @pytest.mark.parametrize(
        "label", ["EasyBO-3", "EasyBO-A-3", "EasyBO-LP-3", "EasyBO-PESS-3"]
    )
    def test_resume_restores_pending_and_rng_bit_exact(self, label, tmp_path):
        # Every pending policy must survive the journal round trip: the
        # resumed campaign rebuilds the same policy (journaled config beats
        # the label default) and continues the exact random stream.
        journal = tmp_path / "campaign.journal"
        kwargs = dict(label=label, n_init=3, max_evals=12, rng=11)
        crashed = _campaign(**kwargs, journal=journal)
        in_flight = self._drive(crashed, n_tells=4, n_extra_asks=2)
        crashed.close()  # simulate the process dying with 2 points in flight

        twin = _campaign(**kwargs)  # the uninterrupted reference
        twin_flight = self._drive(twin, n_tells=4, n_extra_asks=2)

        resumed = resume_campaign(journal, problem=sphere(2))
        assert resumed.issued == crashed.issued == 6
        np.testing.assert_array_equal(
            resumed.pending_matrix(), np.vstack(in_flight)
        )
        np.testing.assert_array_equal(
            resumed.pending_matrix(), np.vstack(twin_flight)
        )
        # The next proposal continues the exact random stream: both the
        # resumed and the uninterrupted campaign ask for the same point.
        np.testing.assert_array_equal(resumed.ask(), twin.ask())
        assert rng_state_to_dict(resumed.rng) == rng_state_to_dict(twin.rng)
        assert (
            resumed.strategy.pending_policy.name
            == twin.strategy.pending_policy.name
        )

    def test_resume_replays_tells_in_order(self, tmp_path):
        journal = tmp_path / "campaign.journal"
        kwargs = dict(label="LCB", n_init=2, max_evals=6, rng=3)
        crashed = _campaign(**kwargs, journal=journal)
        problem = crashed.problem
        for _ in range(2):
            x = crashed.ask()
            crashed.tell(x, problem.evaluate(x))
        x = crashed.ask()
        crashed.tell(x, EvaluationResult.failed("sim died"))
        crashed.close()

        resumed = resume_campaign(journal, problem=sphere(2))
        assert resumed.n_observations == 3  # 2 added + 1 imputed
        np.testing.assert_array_equal(resumed.session.y, crashed.session.y)

    def test_missing_start_record_rejected(self, tmp_path):
        journal = tmp_path / "empty.journal"
        writer = JournalWriter(journal)
        writer.append({"type": "tell"})
        writer.close()
        with pytest.raises(JournalError, match="campaign_start"):
            resume_campaign(journal, problem=sphere(2))


class TestFormatVersionGuards:
    """Readers must refuse newer formats loudly, not misparse them."""

    def _run_result(self):
        return make_algorithm("LCB", sphere(2), n_init=2, max_evals=4, rng=0, **ACQ).run()

    def test_run_from_dict_rejects_newer_version(self):
        data = run_to_dict(self._run_result())
        data["version"] = persistence._FORMAT_VERSION + 1
        with pytest.raises(
            ValueError,
            match=rf"run format v{persistence._FORMAT_VERSION + 1} is newer "
            rf"than supported v{persistence._FORMAT_VERSION}",
        ):
            run_from_dict(data)

    def test_run_from_dict_rejects_unknown_version(self):
        data = run_to_dict(self._run_result())
        data["version"] = "eleven"
        with pytest.raises(ValueError, match="unsupported run format"):
            run_from_dict(data)

    def test_load_runs_rejects_newer_grid_version(self, tmp_path):
        path = tmp_path / "grid.json"
        save_runs(path, {"LCB": [self._run_result()]})
        payload = json.loads(path.read_text())
        payload["version"] = persistence._FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="grid format .* newer than supported"):
            load_runs(path)

    def test_resume_rejects_newer_run_journal(self, tmp_path):
        journal = tmp_path / "run.journal"
        writer = JournalWriter(journal)
        writer.append(
            {
                "type": "run_start",
                "journal_version": JOURNAL_VERSION + 1,
                "algorithm": "LCB",
                "problem": "sphere2",
                "n_workers": 1,
                "config": {},
                "rng_state": rng_state_to_dict(np.random.default_rng(0)),
            }
        )
        writer.close()
        with pytest.raises(
            JournalError,
            match=rf"run journal format v{JOURNAL_VERSION + 1} is newer than "
            rf"supported v{JOURNAL_VERSION}",
        ):
            resume(journal)

    def test_resume_campaign_rejects_newer_campaign_journal(self, tmp_path):
        journal = tmp_path / "campaign.journal"
        campaign = _campaign("LCB", n_init=2, max_evals=4, rng=0, journal=journal)
        campaign.ask()
        campaign.close()
        events = [json.loads(line.split(" ", 3)[3]) for line in journal.read_text().splitlines()]
        bumped = campaign_mod.CAMPAIGN_JOURNAL_VERSION + 1
        events[0]["campaign_version"] = bumped
        journal.unlink()
        writer = JournalWriter(journal)
        for event in events:
            writer.append(event)
        writer.close()
        with pytest.raises(
            JournalError,
            match=rf"campaign journal format v{bumped} is newer than supported",
        ):
            resume_campaign(journal, problem=sphere(2))
