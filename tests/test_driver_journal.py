"""Driver journals are campaign journals: config, resume, and refusals.

Drivers write their write-ahead journal through their ``Campaign`` — the
same ``campaign_start`` / ``doe`` / ``ask`` / ``tell`` log the campaign
server writes, with the pool facts as optional fields — and
:func:`repro.core.recovery.resume` is :func:`resume_campaign` plus pool
reconciliation.  The golden kill/resume sweeps live in
``test_crash_resume.py``; this module covers what those scenarios do not:

* the constrained and cost-aware drivers resume (their side datasets are
  rebuilt through the same absorb hook as live tells), pHCBO resumes
  with its journaled coverage history, and GP-Hedge with its journaled
  Hedge gains;
* family knobs (``hc_d``, ``cost_exponent``) round-trip through the
  journaled config;
* ``resume_campaign`` on a killed driver journal rebuilds exactly the state
  ``resume`` continues from, side-state labels included;
* a pending point without pool facts follows the orphan rule at resume;
* random search, a campaign that is all initial design, resumes too;
* journals carry no wall-clock samples: two same-seed runs journal the same
  bytes, and an ask record does not grow with the run;
* DE, which cannot resume, refuses ``journal=``, and retired run journals
  are refused;
* ``cEasyBO`` honours non-default pending policies.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.circuits import sphere
from repro.circuits.benchmarks import branin
from repro.core.bo import BODriverBase
from repro.core.campaign import make_campaign, read_campaign_journal, resume_campaign
from repro.core.easybo import make_algorithm
from repro.core.faults import KillSwitchJournal, ProcessKilled
from repro.core.journal import JOURNAL_VERSION, JournalError, JournalWriter, read_journal
from repro.core.problem import FunctionProblem
from repro.core.recovery import resume
from repro.utils.rng import rng_state_to_dict
from tests.test_core_constrained import DiskProblem
from tests.test_core_cost_aware import plateau_problem

pytestmark = pytest.mark.chaos

FAST = dict(acq_candidates=64, acq_restarts=1)


def trajectory(result) -> list[tuple]:
    """Every trace record, bit for bit (NaN-safe via ``repr``)."""
    return [
        (r.index, r.worker, r.batch, tuple(r.x), repr(r.fom), r.issue_time,
         r.finish_time, r.status)
        for r in result.trace.records
    ]


def kill_and_resume(label, problem, tmp_path, kill_at, **kwargs):
    """Uninterrupted run and a run killed before journal append ``kill_at``."""
    reference = make_algorithm(label, problem, **kwargs).run()
    path = tmp_path / "run.jsonl"
    writer = KillSwitchJournal(JournalWriter(path), kill_at=kill_at)
    try:
        with pytest.raises(ProcessKilled):
            make_algorithm(label, problem, journal=writer, **kwargs).run()
    finally:
        writer.close()
    return reference, resume(path, problem=problem), path


class TestConstrainedResume:
    KWARGS = dict(n_init=6, max_evals=14, rng=0, **FAST)

    def test_journal_has_one_record_per_ask_and_tell(self, tmp_path):
        path = tmp_path / "full.jsonl"
        make_algorithm("cEasyBO-3", DiskProblem(), journal=path, **self.KWARGS).run()
        kinds = [e["type"] for e in read_journal(path, strict=True)]
        assert kinds.count("ask") == kinds.count("tell") == 14
        assert len(kinds) == 31

    @pytest.mark.parametrize("kill_at", [15, 24])
    def test_kill_resume_reproduces_the_uninterrupted_run(self, tmp_path, kill_at):
        reference, resumed, _ = kill_and_resume(
            "cEasyBO-3", DiskProblem(), tmp_path, kill_at, **self.KWARGS
        )
        assert resumed.algorithm == "cEasyBO-3"
        assert trajectory(resumed) == trajectory(reference)


class TestConfigRoundTrip:
    def test_phcbo_hc_d_survives_resume(self, tmp_path):
        # Killed before the first model-driven batch is durable, so both
        # remaining batches are selected with the journaled hc_d.
        kwargs = dict(n_init=5, max_evals=11, rng=3, hc_d=0.5, **FAST)
        reference, resumed, path = kill_and_resume(
            "pHCBO-3", sphere(2), tmp_path, 10, **kwargs
        )
        assert read_journal(path)[0]["config"]["hc_d"] == 0.5
        assert trajectory(resumed) == trajectory(reference)
        # The knob matters here, so a resume that fell back to the default
        # could not have matched.
        default = make_algorithm(
            "pHCBO-3", sphere(2), **{**kwargs, "hc_d": None}
        ).run()
        assert trajectory(default) != trajectory(reference)

    def test_cost_aware_resumes_with_its_cost_exponent(self, tmp_path):
        problem = plateau_problem()  # costs differ 10x across the domain
        kwargs = dict(n_init=5, max_evals=12, rng=2, cost_exponent=0.5, **FAST)
        reference, resumed, path = kill_and_resume(
            "caEasyBO-3", problem, tmp_path, 17, **kwargs
        )
        assert read_journal(path)[0]["config"]["cost_exponent"] == 0.5
        assert resumed.algorithm == "caEasyBO-3"
        assert trajectory(resumed) == trajectory(reference)
        plain = make_algorithm(
            "caEasyBO-3", problem, **{**kwargs, "cost_exponent": 1.0}
        ).run()
        assert trajectory(plain) != trajectory(reference)


class TestCoverageHistoryResume:
    """pHCBO's per-slot coverage history rides the ask records'
    ``side_models``, so a kill after model-driven batches still resumes onto
    the uninterrupted trajectory (31 journal records in all)."""

    KWARGS = dict(n_init=6, max_evals=21, rng=0, **FAST)

    @pytest.mark.parametrize("kill_at", [14, 18, 22, 26])
    def test_kill_resume_reproduces_the_uninterrupted_run(self, tmp_path, kill_at):
        reference, resumed, _ = kill_and_resume(
            "pHCBO-3", branin(), tmp_path, kill_at, **self.KWARGS
        )
        assert trajectory(resumed) == trajectory(reference)


class TestPortfolioResume:
    """GP-Hedge's gains and play counts ride the ask records'
    ``side_models``, so a kill anywhere resumes onto the uninterrupted
    trajectory (27 journal records in all)."""

    KWARGS = dict(n_init=4, max_evals=12, rng=0, **FAST)

    @pytest.mark.parametrize("kill_at", [8, 13, 17, 22])
    def test_kill_resume_reproduces_the_uninterrupted_run(self, tmp_path, kill_at):
        reference, resumed, path = kill_and_resume(
            "GP-Hedge", branin(), tmp_path, kill_at, **self.KWARGS
        )
        assert trajectory(resumed) == trajectory(reference)
        uninterrupted = tmp_path / "uninterrupted.jsonl"
        make_algorithm("GP-Hedge", branin(), journal=uninterrupted, **self.KWARGS).run()

        def last_ask(journal):
            return [e for e in read_journal(journal) if e["type"] == "ask"][-1]

        hedge = last_ask(uninterrupted)["side_models"]
        assert sum(hedge[0]["plays"].values()) == 12 - 4
        assert last_ask(path)["side_models"] == hedge


class TestResumeCampaignMatchesResume:
    @pytest.mark.parametrize(
        "label, make_problem, kill_at",
        [
            ("EasyBO-3", lambda: sphere(2), 11),
            ("cEasyBO-3", DiskProblem, 15),
            ("caEasyBO-3", plateau_problem, 15),
            ("GP-Hedge", lambda: sphere(2), 14),
        ],
        ids=["EasyBO-3", "cEasyBO-3", "caEasyBO-3", "GP-Hedge"],
    )
    def test_same_issued_pending_and_rng_as_the_driver_resume(
        self, tmp_path, monkeypatch, label, make_problem, kill_at
    ):
        problem = make_problem()
        path = tmp_path / "run.jsonl"
        writer = KillSwitchJournal(JournalWriter(path), kill_at=kill_at)
        kwargs = dict(n_init=4, max_evals=10, rng=5, **FAST)
        with pytest.raises(ProcessKilled):
            make_algorithm(label, problem, journal=writer, **kwargs).run()
        writer.close()
        copy = tmp_path / "copy.jsonl"
        copy.write_bytes(path.read_bytes())

        campaign = resume_campaign(copy, problem=problem)
        seen = {}
        drive = BODriverBase._drive

        def spy(driver, pool):
            seen.update(
                issued=driver.campaign.issued,
                pending=driver.campaign.pending_matrix().copy(),
                rng=rng_state_to_dict(driver.rng),
            )
            return drive(driver, pool)

        monkeypatch.setattr(BODriverBase, "_drive", spy)
        result = resume(path, problem=problem)
        assert result.n_evaluations == 10
        assert campaign.n_pending > 0  # the kill left points in flight
        assert seen["issued"] == campaign.issued
        np.testing.assert_array_equal(seen["pending"], campaign.pending_matrix())
        assert seen["rng"] == rng_state_to_dict(campaign.rng)


class TestUnslottedPendingPoint:
    def test_reissue_takes_an_idle_worker_and_journals_its_slot(self, tmp_path):
        """A standalone campaign's journal holds no pool facts: ``resume``
        tells its pending point back as orphaned, and the reissue runs on an
        idle worker with the new slot on the reissue tell."""
        path = tmp_path / "campaign.jsonl"
        campaign = make_campaign("EasyBO-2", sphere(2), journal=path,
                                 n_init=3, max_evals=6, rng=7, **FAST)
        told, pending = campaign.ask(2)
        campaign.tell(told, campaign.problem.evaluate(told))
        campaign.close()
        result = resume(path)
        (reissue,) = [e for e in read_campaign_journal(path)
                      if e["type"] == "tell" and e["action"] == "reissued"]
        assert reissue["x"] == pending.tolist()
        slot = reissue["issued"][0]
        rows = [r for r in result.trace.records if tuple(r.x) == tuple(pending)]
        assert [(r.index, r.worker) for r in rows] == [(slot["index"], slot["worker"])]
        # The point told before the crash left no trace row to restore.
        assert result.n_evaluations == 5


class TestRandomSearchResume:
    """Random search is a campaign whose initial design is its whole budget,
    so a kill anywhere resumes onto the uninterrupted run (2 + 2 * 12
    journal records in all)."""

    KWARGS = dict(max_evals=12, rng=0, n_init=4)

    @pytest.mark.parametrize("label", ["Random", "Random-3"])
    @pytest.mark.parametrize("kill_at", [2, 9, 20])
    def test_kill_resume_reproduces_the_uninterrupted_run(
        self, tmp_path, label, kill_at
    ):
        reference, resumed, path = kill_and_resume(
            label, sphere(2), tmp_path, kill_at, **self.KWARGS
        )
        assert read_journal(path)[0]["config"]["n_init"] == 12
        assert resumed.algorithm == reference.algorithm == label
        assert trajectory(resumed) == trajectory(reference)


class TestJournalBytes:
    """The surrogate snapshot on every ask journals the stats counters, not
    the per-event timing samples."""

    KWARGS = dict(n_init=4, max_evals=30, rng=0, acq_candidates=32, acq_restarts=1)

    @pytest.mark.parametrize("label", ["EasyBO-3", "LCB", "pBO-3", "GP-Hedge"])
    def test_same_seed_runs_journal_identical_bytes(self, tmp_path, label):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            make_algorithm(label, sphere(2), journal=path, **self.KWARGS).run()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("kill_at", [12, 31])
    def test_resume_keeps_counter_totals_and_its_own_timings(self, tmp_path, kill_at):
        reference, resumed, _ = kill_and_resume(
            "EasyBO-2", sphere(2), tmp_path, kill_at, **self.KWARGS,
        )
        ref, res = reference.surrogate_stats, resumed.surrogate_stats
        assert len(ref.refit_seconds) == ref.n_refits
        # Only the refits the resumed process ran were timed there.
        assert 0 < len(res.refit_seconds) < res.n_refits
        assert res.counters() == ref.counters()

    def test_ask_records_do_not_grow_with_the_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        make_algorithm("EasyBO-2", sphere(2), journal=path, **self.KWARGS).run()
        sizes = [
            len(json.dumps(e)) for e in read_journal(path)
            if e["type"] == "ask" and e["surrogate"]["model"] is not None
        ]
        assert len(sizes) == 26
        assert sizes[-1] < sizes[0] + 64


class TestRefusals:
    @pytest.mark.parametrize("label", ["DE"])
    def test_non_resumable_algorithms_refuse_a_journal(self, label, tmp_path):
        with pytest.raises(ValueError, match=label):
            make_algorithm(
                label, sphere(2), n_init=4, max_evals=8, rng=0,
                journal=tmp_path / "j.jsonl",
            )
        assert not (tmp_path / "j.jsonl").exists()

    def test_retired_run_journal_is_refused(self, tmp_path):
        path = tmp_path / "old.jsonl"
        with JournalWriter(path) as writer:
            writer.append({"type": "run_start", "journal_version": 1,
                           "algorithm": "LCB", "problem": "sphere2"})
        with pytest.raises(JournalError, match=(
            rf"run journal format v1 is older than supported v{JOURNAL_VERSION}"
        )):
            resume(path)


#: Config keys of options that no longer exist, with values older releases
#: journaled: the second surrogate update mode, UCB's kappa and EI/PI's xi,
#: now constants, and the sparse posterior's options at their defaults,
#: which kept every run below 1000 evaluations exact.
RETIRED_KEYS = {
    "surrogate_update": "full", "ucb_kappa": 2.0, "ei_xi": 0.0,
    "surrogate": "auto", "max_exact_n": 1000, "n_inducing": 256,
}


def with_retired_keys(path, keys=RETIRED_KEYS) -> None:
    """Rewrite ``path`` the way older releases journaled it: every retired
    key in the ``campaign_start`` config."""
    events = read_journal(path)
    events[0]["config"].update(keys)
    path.unlink()
    with JournalWriter(path) as writer:
        for event in events:
            writer.append(event)


class TestRetiredSurrogateUpdate:
    """The surrogate has one update path and one posterior, and UCB's kappa
    and EI/PI's xi are constants.  Journals from before carry the keywords
    that set them; reading drops them, and a caller that still passes one is
    refused by name."""

    KWARGS = dict(n_init=4, max_evals=10, rng=0, **FAST)

    def test_old_journals_resume_onto_the_uninterrupted_run(self, tmp_path):
        reference = make_algorithm("EasyBO-2", sphere(2), **self.KWARGS).run()
        path = tmp_path / "run.jsonl"
        writer = KillSwitchJournal(JournalWriter(path), kill_at=12)
        with pytest.raises(ProcessKilled):
            make_algorithm("EasyBO-2", sphere(2), journal=writer, **self.KWARGS).run()
        writer.close()
        with_retired_keys(path)
        assert not RETIRED_KEYS.keys() & read_campaign_journal(path)[0]["config"].keys()
        copy = tmp_path / "copy.jsonl"
        copy.write_bytes(path.read_bytes())
        campaign = resume_campaign(copy)
        assert campaign.issued > campaign.n_init and campaign.n_pending
        campaign.close()
        assert trajectory(resume(path)) == trajectory(reference)

    def test_new_journals_do_not_carry_it(self, tmp_path):
        path = tmp_path / "run.jsonl"
        make_algorithm("EasyBO-2", sphere(2), journal=path, **self.KWARGS).run()
        assert not RETIRED_KEYS.keys() & read_journal(path)[0]["config"].keys()

    @pytest.mark.parametrize(
        "build",
        [
            lambda **kw: make_campaign("EasyBO-2", sphere(2), **kw),
            lambda **kw: make_algorithm("EasyBO-2", sphere(2), **kw),
            lambda **kw: make_algorithm("LCB", sphere(2), **kw),
        ],
        ids=["make_campaign", "EasyBO-2 driver", "LCB driver"],
    )
    def test_the_keyword_is_refused_by_name(self, tmp_path, build):
        for key, value in RETIRED_KEYS.items():
            with pytest.raises(TypeError, match=key):
                build(**{key: value}, journal=tmp_path / "j.jsonl", **self.KWARGS)
        assert not (tmp_path / "j.jsonl").exists()


class TestSideModelPolicies:
    @pytest.mark.parametrize(
        "make",
        [
            lambda **kw: make_algorithm("cEasyBO-3", DiskProblem(), **kw),
            lambda **kw: make_algorithm(
                "caEasyBO-3",
                FunctionProblem(lambda x: -float(np.sum(x**2)),
                                [[-1, 1], [-1, 1]], name="bowl"),
                **kw,
            ),
        ],
        ids=["cEasyBO", "caEasyBO"],
    )
    def test_lp_policy_is_not_the_none_trajectory(self, make):
        kwargs = dict(n_init=6, max_evals=12, rng=0, **FAST)
        lp = make(pending_policy="lp", **kwargs).run()
        none = make(pending_policy="none", **kwargs).run()
        assert lp.pending_policy == "lp"
        assert trajectory(lp) != trajectory(none)

    def test_side_model_proposals_record_acquisition_spans(self, tmp_path):
        from repro.obs import Tracer, load_trace

        tracer = Tracer(tmp_path / "trace.jsonl")
        make_algorithm(
            "cEasyBO-3", DiskProblem(), n_init=6, max_evals=9, rng=0,
            tracer=tracer, **FAST,
        ).run()
        tracer.close()
        spans = load_trace(tmp_path / "trace.jsonl")
        # One per model-driven proposal: max_evals - n_init.
        assert [s["name"] for s in spans].count("acquisition-maximize") == 3
