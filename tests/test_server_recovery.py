"""Server crash recovery and idempotent RPC: kill -9, restart, retry.

These tests exercise the robustness tentpole end to end, in-process:
``CampaignServer.abort()`` is the kill -9 stand-in (it drops every socket
with *zero* suspend/journal bookkeeping — exactly the on-disk state a
SIGKILL leaves), and a second server started on the same ``journal_dir``
must recover from the campaign journals alone.  Determinism is checked the same way
as in ``test_campaign_server.py``: a local "twin" campaign with the same
seed must see byte-identical points through kills, restarts, and retried
requests.
"""

from __future__ import annotations

import re
import time

import numpy as np
import pytest

from repro.circuits.benchmarks import sphere
from repro.core import make_campaign
from repro.core.campaign import read_campaign_journal, resume_campaign
from repro.core.easybo import make_algorithm
from repro.core.faults import FailurePolicy
from repro.core.journal import JournalError, read_journal
from repro.core.recovery import resume
from repro.distributed import (
    CampaignClient,
    CampaignServer,
    CampaignServerError,
    ServerError,
    serve,
)
from repro.distributed.protocol import result_to_dict
from repro.distributed.transport import connect
from repro.obs import MetricsRegistry, Observability
from tests.test_driver_journal import RETIRED_KEYS, with_retired_keys

pytestmark = pytest.mark.server

CONFIG = dict(n_init=3, max_evals=6, acq_candidates=32, acq_restarts=1)


def _serve(journal_dir):
    return serve(journal_dir=journal_dir, max_workers=4,
                 obs=Observability(metrics=MetricsRegistry()),
                 background=True)


def _kill(server):
    """kill -9: no suspends, no journal writes, sockets just vanish."""
    server.abort()
    server._thread.join(timeout=5.0)
    assert not server._thread.is_alive()


def _twin(seed):
    return make_campaign("EasyBO-2", sphere(2), rng=seed, **CONFIG)


def _drive(client, cid, twin, problem, rounds):
    """``rounds`` ask/tell iterations, asserting bit-exactness vs the twin."""
    for _ in range(rounds):
        x = client.ask(cid)[0]
        np.testing.assert_array_equal(x, twin.ask())
        result = problem.evaluate(x)
        client.tell(cid, x, result)
        twin.tell(x, result)


def _finish(client, cid, twin, problem):
    while True:
        try:
            x = client.ask(cid)[0]
        except CampaignServerError:
            break
        np.testing.assert_array_equal(x, twin.ask())
        result = problem.evaluate(x)
        reply = client.tell(cid, x, result)
        twin.tell(x, result)
        if reply["done"]:
            break


class TestRestartRecovery:
    def test_kill9_mid_campaign_restart_is_bit_exact(self, tmp_path):
        """Kill -9 with a point in flight; the restarted server answers
        status/ask/tell as if nothing happened."""
        problem, twin = sphere(2), _twin(41)
        old = _serve(tmp_path)
        client = CampaignClient(port=old.port)
        cid = client.create("EasyBO-2", "sphere2",
                            config=dict(rng=41, **CONFIG))
        _drive(client, cid, twin, problem, rounds=2)
        in_flight = client.ask(cid)[0]  # asked, never told
        np.testing.assert_array_equal(in_flight, twin.ask())
        # kill -9 while the client is still connected: no suspend is ever
        # journaled, the campaign dies "active".
        _kill(old)
        client.close()

        new = _serve(tmp_path)
        try:
            assert new.recoveries == 1
            with CampaignClient(port=new.port) as client:
                status = client.status(cid)
                assert status["state"] == "active"
                assert status["issued"] == 3
                assert status["n_pending"] == 1
                result = problem.evaluate(in_flight)
                client.tell(cid, in_flight, result)
                twin.tell(in_flight, result)
                _finish(client, cid, twin, problem)
                assert client.status(cid)["state"] == "finished"
                assert twin.done
        finally:
            new.stop()

    def test_clean_stop_then_retry_revives_transparently(self, tmp_path):
        """A clean shutdown suspends campaigns as auto-resumable: after a
        restart, a retried ask revives the campaign without the client ever
        issuing an explicit resume."""
        problem, twin = sphere(2), _twin(42)
        old = _serve(tmp_path)
        with CampaignClient(port=old.port) as client:
            cid = client.create("EasyBO-2", "sphere2",
                                config=dict(rng=42, **CONFIG))
            _drive(client, cid, twin, problem, rounds=2)
        old.stop()
        old._thread.join(timeout=5.0)

        new = _serve(tmp_path)
        try:
            with CampaignClient(port=new.port) as client:
                assert client.status(cid)["state"] == "suspended"
                _finish(client, cid, twin, problem)  # first ask auto-revives
                assert client.status(cid)["state"] == "finished"
        finally:
            new.stop()

    def test_explicit_suspend_stays_suspended_across_restart(self, tmp_path):
        """A suspend the client *asked for* is not auto-revived: after a
        restart, ask still refuses until an explicit resume."""
        problem, twin = sphere(2), _twin(43)
        old = _serve(tmp_path)
        with CampaignClient(port=old.port) as client:
            cid = client.create("EasyBO-2", "sphere2",
                                config=dict(rng=43, **CONFIG))
            _drive(client, cid, twin, problem, rounds=1)
            assert client.suspend(cid) == "suspended"
        _kill(old)

        new = _serve(tmp_path)
        try:
            with CampaignClient(port=new.port) as client:
                assert client.status(cid)["state"] == "suspended"
                with pytest.raises(CampaignServerError, match="active"):
                    client.ask(cid)
                client.resume(cid)
                _finish(client, cid, twin, problem)
        finally:
            new.stop()

    def test_finished_campaigns_stay_finished(self, tmp_path):
        problem, twin = sphere(2), _twin(44)
        old = _serve(tmp_path)
        with CampaignClient(port=old.port) as client:
            cid = client.create("EasyBO-2", "sphere2",
                                config=dict(rng=44, **CONFIG))
            _finish(client, cid, twin, problem)
        _kill(old)

        new = _serve(tmp_path)
        try:
            assert new.recoveries == 0
            with CampaignClient(port=new.port) as client:
                status = client.status(cid)
                assert status["state"] == "finished"
                assert status["done"] is True
                # New ids keep climbing: no reuse of a recovered id space.
                other = client.create("LCB", "sphere2",
                                      config=dict(rng=45, **CONFIG))
                assert other != cid
        finally:
            new.stop()

    def test_a_journal_naming_the_retired_surrogate_update_recovers(self, tmp_path):
        """Older journals carry ``surrogate_update``, ``ucb_kappa`` and
        ``ei_xi`` in their config; a restart still recovers them onto the
        twin's points."""
        problem, twin = sphere(2), _twin(47)
        old = _serve(tmp_path)
        client = CampaignClient(port=old.port)
        cid = client.create("EasyBO-2", "sphere2", config=dict(rng=47, **CONFIG))
        _drive(client, cid, twin, problem, rounds=2)
        _kill(old)
        client.close()
        with_retired_keys(tmp_path / f"{cid}.journal")

        new = _serve(tmp_path)
        try:
            assert new.recoveries == 1
            with CampaignClient(port=new.port) as client:
                assert client.status(cid)["state"] == "active"
                _finish(client, cid, twin, problem)
                assert client.status(cid)["state"] == "finished"
        finally:
            new.stop()

    @pytest.mark.parametrize(
        "options",
        [dict(surrogate="sparse", max_exact_n=1000, n_inducing=256),
         dict(surrogate="auto", max_exact_n=4, n_inducing=256)],
        ids=["sparse", "auto-below-max-evals"],
    )
    def test_a_journal_that_could_have_run_sparse_is_refused(self, tmp_path,
                                                             options):
        """The sparse posterior is gone, so a run whose options could have
        switched to it cannot resume onto the run it started: resuming
        refuses it by name, a restart fails it by name, and a finished one
        still lists as finished."""
        problem = sphere(2)
        old = _serve(tmp_path)
        client = CampaignClient(port=old.port)
        open_cid = client.create("EasyBO-2", "sphere2",
                                 config=dict(rng=48, **CONFIG))
        _drive(client, open_cid, _twin(48), problem, rounds=2)
        done_cid = client.create("EasyBO-2", "sphere2",
                                 config=dict(rng=49, **CONFIG))
        _finish(client, done_cid, _twin(49), problem)
        _kill(old)
        client.close()
        for cid in (open_cid, done_cid):
            with_retired_keys(tmp_path / f"{cid}.journal", options)
        journal = tmp_path / f"{open_cid}.journal"
        before = journal.read_bytes()
        for reader in (resume_campaign, resume):
            with pytest.raises(JournalError, match="surrogate"):
                reader(journal)
        assert journal.read_bytes() == before

        new = _serve(tmp_path)
        try:
            assert new.recoveries == 0
            with CampaignClient(port=new.port) as client:
                status = client.status(open_cid)
                assert status["state"] == "failed"
                assert "surrogate" in status["error"]
                states = {c["campaign"]: c["state"] for c in client.list()}
                assert states == {open_cid: "failed", done_cid: "finished"}
        finally:
            new.stop()

    def test_create_naming_the_retired_surrogate_update_is_refused(self, tmp_path):
        server = _serve(tmp_path)
        try:
            with CampaignClient(port=server.port) as client:
                for key, value in RETIRED_KEYS.items():
                    with pytest.raises(CampaignServerError, match=key):
                        client.create("EasyBO-2", "sphere2",
                                      config={key: value, **CONFIG})
                # Refused requests, not failed campaigns.
                assert client.list() == []
        finally:
            server.stop()
        assert list(tmp_path.iterdir()) == []

    def test_server_evaluated_campaign_recovers_and_finishes(self, tmp_path):
        """Kill -9 under a server-evaluated campaign: the restarted server
        re-leases workers, resubmits the in-flight points, and drives the
        campaign to completion on its own."""
        old = _serve(tmp_path)
        client = CampaignClient(port=old.port)
        cid = client.create(
            "EasyBO-2", "sphere2",
            config=dict(rng=46, n_init=3, max_evals=10,
                        acq_candidates=32, acq_restarts=1),
            evaluate=True, n_workers=2,
        )
        deadline = time.monotonic() + 10.0
        while client.status(cid)["issued"] < 4:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        _kill(old)
        client.close()

        new = _serve(tmp_path)
        try:
            assert new.recoveries == 1
            with CampaignClient(port=new.port) as client:
                assert client.metrics()["workers_leased"] == 2
                deadline = time.monotonic() + 20.0
                while client.status(cid)["state"] != "finished":
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                assert client.status(cid)["issued"] == 10
        finally:
            new.stop()

    def test_server_evaluated_in_flight_points_follow_the_orphan_rule(self, tmp_path):
        """A restarted server tells a server-evaluated campaign's in-flight
        points back as orphaned, so ``on_orphan="impute"`` imputes them
        instead of re-running them.  The crash state is built directly, by
        a standalone campaign whose journal holds no pool facts: the
        points have no issue slot to re-run at, and the orphan rule still
        decides their fate."""
        config = dict(rng=48, n_init=3, max_evals=8, acq_candidates=32,
                      acq_restarts=1, failure_policy={"on_orphan": "impute"})
        journal = tmp_path / "c0000.journal"
        campaign = make_campaign("EasyBO-2", sphere(2), journal=journal, **config)
        campaign.start(label="EasyBO-2", pool="virtual", n_workers=2)
        first, *in_flight = campaign.ask(3)
        campaign.tell(first, campaign.problem.evaluate(first))
        campaign.close()

        server = _serve(tmp_path)
        try:
            assert server.recoveries == 1
            with CampaignClient(port=server.port) as client:
                deadline = time.monotonic() + 20.0
                while client.status("c0000")["state"] != "finished":
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                assert client.status("c0000")["issued"] == 8
        finally:
            server.stop()
        tells = [e for e in read_campaign_journal(journal) if e["type"] == "tell"]
        imputed = [e["x"] for e in tells if e["action"] == "imputed"]
        assert sorted(imputed) == sorted(x.tolist() for x in in_flight)
        assert all(e["action"] in ("added", "imputed") for e in tells)

    #: A budget the kill lands well inside (the server paces its passes).
    KILL_CONFIG = dict(n_init=4, max_evals=20, acq_candidates=32,
                       acq_restarts=1)

    def _kill_mid_campaign(self, tmp_path, label, n_workers, rng):
        """kill -9 a server once its evaluated campaign has issued past the
        initial design; return the campaign's journal path."""
        old = _serve(tmp_path)
        client = CampaignClient(port=old.port)
        cid = client.create(label, "sphere2",
                            config=dict(self.KILL_CONFIG, rng=rng),
                            evaluate=True, n_workers=n_workers)
        campaign = old._campaigns[cid].campaign
        deadline = time.monotonic() + 20.0
        while campaign.issued <= self.KILL_CONFIG["n_init"]:
            assert time.monotonic() < deadline
            time.sleep(0.002)
        _kill(old)
        client.close()
        journal = tmp_path / f"{cid}.journal"
        events = read_campaign_journal(journal)
        assert not any(e["type"] == "campaign_end" for e in events), (
            "the kill must land mid-campaign"
        )
        return journal

    @staticmethod
    def _told_rows(journal):
        return [e["record"] for e in read_campaign_journal(journal)
                if e["type"] == "tell" and "record" in e]

    @staticmethod
    def _ask_tell(journal):
        return [e for e in read_campaign_journal(journal)
                if e["type"] in ("ask", "tell")]

    @staticmethod
    def _await_finished(client, cid):
        deadline = time.monotonic() + 60.0
        while client.status(cid)["state"] != "finished":
            assert time.monotonic() < deadline
            time.sleep(0.02)

    def _driver_rows(self, tmp_path, label, rng, **config):
        make_algorithm(label, sphere(2), rng=rng, journal=tmp_path / "driver",
                       **dict(self.KILL_CONFIG, **config)).run()
        return self._told_rows(tmp_path / "driver")

    @pytest.mark.parametrize("label", ["EasyBO-2", "EasyBO-3", "pBO-3"])
    def test_kill9_restart_keeps_the_driver_trajectory(self, tmp_path, label):
        """The restarted server re-runs in-flight points at their journaled
        slots, so the campaign finishes on the uninterrupted driver's
        trajectory."""
        journal = self._kill_mid_campaign(tmp_path / "srv", label, None, rng=50)
        new = _serve(tmp_path / "srv")
        try:
            assert new.recoveries == 1
            with CampaignClient(port=new.port) as client:
                self._await_finished(client, "c0000")
        finally:
            new.stop()
        assert self._told_rows(journal) == self._driver_rows(tmp_path, label, 50)

    @pytest.mark.parametrize(
        "label, n_workers", [("EasyBO-2", 2), ("EasyBO-2", 3), ("pBO-3", 3)]
    )
    def test_killed_server_journal_finishes_with_resume(self, tmp_path, label,
                                                        n_workers):
        """``resume`` finishes a killed server's journal on the leased pool
        size: every evaluation in the trace, each index once."""
        journal = self._kill_mid_campaign(tmp_path, label, n_workers, rng=51)
        result = resume(journal)
        max_evals = self.KILL_CONFIG["max_evals"]
        assert result.n_evaluations == max_evals
        assert sorted(r.index for r in result.trace.records) == list(range(max_evals))

    def test_restart_short_of_workers_waits_suspended(self, tmp_path):
        """A restarted server with fewer workers than the in-flight slots
        need refuses the lease before any tell: the campaign waits as a
        suspended stub, its lease returned and its journal untouched, and a
        restart with the workers finishes it on the driver trajectory."""
        journal = self._kill_mid_campaign(tmp_path / "srv", "EasyBO-3", None,
                                          rng=52)
        before = self._ask_tell(journal)
        short = serve(journal_dir=tmp_path / "srv", max_workers=2,
                      background=True)
        try:
            hosted = short._campaigns["c0000"]
            assert hosted.state == "suspended"
            assert "needs 3 workers" in hosted.error
            assert short.leases.leased == 0
        finally:
            short.stop()
        assert self._ask_tell(journal) == before
        new = _serve(tmp_path / "srv")
        try:
            assert new.recoveries == 1
            with CampaignClient(port=new.port) as client:
                self._await_finished(client, "c0000")
        finally:
            new.stop()
        assert self._told_rows(journal) == self._driver_rows(
            tmp_path, "EasyBO-3", 52
        )

    def test_resume_short_of_workers_is_refused_before_any_tell(self, tmp_path):
        """Suspend an evaluated ``EasyBO-3`` mid-run and let another tenant
        take its capacity: ``resume`` is refused with the workers it needs
        and the journal gains no tell.  Once the capacity frees, ``resume``
        finishes it on the driver trajectory with no point imputed."""
        config = dict(self.KILL_CONFIG, rng=53, max_evals=30)
        server = _serve(tmp_path / "srv")
        try:
            with CampaignClient(port=server.port) as client:
                cid = client.create("EasyBO-3", "sphere2", config=config,
                                    evaluate=True)
                campaign = server._campaigns[cid].campaign
                deadline = time.monotonic() + 20.0
                while campaign.issued <= config["n_init"]:
                    assert time.monotonic() < deadline
                    time.sleep(0.002)
                client.suspend(cid)
                # Mid-run: every worker busy, so resuming needs all three.
                assert client.status(cid)["n_pending"] == 3
                journal = tmp_path / "srv" / f"{cid}.journal"
                before = self._ask_tell(journal)
                other = client.create(
                    "EasyBO-2", "sphere2", evaluate=True,
                    config=dict(rng=54, n_init=3, max_evals=500,
                                acq_candidates=32, acq_restarts=1),
                )
                with pytest.raises(CampaignServerError, match="needs 3 workers"):
                    client.resume(cid)
                assert client.status(cid)["state"] == "suspended"
                assert client.metrics()["workers_leased"] == 2
                assert self._ask_tell(journal) == before
                client.close_campaign(other)
                client.resume(cid)
                self._await_finished(client, cid)
        finally:
            server.stop()
        tells = [e for e in self._ask_tell(journal) if e["type"] == "tell"]
        assert all(e["action"] != "imputed" for e in tells)
        assert self._told_rows(journal) == self._driver_rows(
            tmp_path, "EasyBO-3", 53, max_evals=30
        )

    def test_a_refused_resume_keeps_the_campaign_suspended_across_restart(
            self, tmp_path):
        """A ``resume`` refused its workers journals the suspension again
        after its replay's ``campaign_resume``: a restart finds the campaign
        suspended by its client, not live."""
        config = dict(self.KILL_CONFIG, rng=57, max_evals=30)
        old = _serve(tmp_path)
        client = CampaignClient(port=old.port)
        cid = client.create("EasyBO-3", "sphere2", config=config, evaluate=True)
        campaign = old._campaigns[cid].campaign
        deadline = time.monotonic() + 20.0
        while campaign.issued <= config["n_init"]:
            assert time.monotonic() < deadline
            time.sleep(0.002)
        client.suspend(cid)
        client.create("EasyBO-2", "sphere2", evaluate=True,
                      config=dict(rng=58, n_init=3, max_evals=500,
                                  acq_candidates=32, acq_restarts=1))
        with pytest.raises(CampaignServerError, match="needs 3 workers"):
            client.resume(cid)
        _kill(old)
        client.close()

        new = _serve(tmp_path)
        try:
            hosted = new._campaigns[cid]
            assert (hosted.state, hosted.error) == ("suspended", "suspended by client")
        finally:
            new.stop()

    #: Every pool-side field off its default, so a dropped one shows.
    POOL_POLICY = {"max_retries": 2, "retry_backoff": 0.5, "timeout": 50.0,
                   "lease_slack": 4.0}

    def _create_evaluated(self, client):
        """A server-evaluated campaign whose budget outlasts the test."""
        return client.create(
            "EasyBO-2", "sphere2",
            config=dict(rng=49, n_init=3, max_evals=500, acq_candidates=32,
                        acq_restarts=1, failure_policy=self.POOL_POLICY),
            evaluate=True, n_workers=2,
        )

    def test_restart_rebuilds_the_pool_with_the_whole_failure_policy(self, tmp_path):
        """The journaled config carries every failure-policy field, so the
        recovered pool retries, times out and leases like the created one."""
        old = _serve(tmp_path)
        client = CampaignClient(port=old.port)
        cid = self._create_evaluated(client)
        created = old._campaigns[cid].pool.policy
        assert created == FailurePolicy(**self.POOL_POLICY)
        _kill(old)
        client.close()

        new = _serve(tmp_path)
        try:
            assert new.recoveries == 1
            assert new._campaigns[cid].pool.policy == created
        finally:
            new.stop()

    def test_resume_verb_rebuilds_the_pool_with_the_whole_failure_policy(self, tmp_path):
        server = _serve(tmp_path)
        try:
            with CampaignClient(port=server.port) as client:
                cid = self._create_evaluated(client)
                created = server._campaigns[cid].pool.policy
                assert client.suspend(cid) == "suspended"
                client.resume(cid)
                assert server._campaigns[cid].pool.policy == created
        finally:
            server.stop()

    def test_recovery_metrics_surface(self, tmp_path):
        old = _serve(tmp_path)
        client = CampaignClient(port=old.port)
        cid = client.create("LCB", "sphere2", config=dict(rng=47, **CONFIG))
        client.ask(cid)
        _kill(old)
        client.close()

        new = _serve(tmp_path)
        try:
            with CampaignClient(port=new.port) as client:
                metrics = client.metrics()
                assert metrics["recoveries"] == 1
                assert metrics["uptime_seconds"] > 0.0
                assert metrics["rpc_retries"] == 0
                assert "server.recoveries" in metrics["registry"]["counters"]
        finally:
            new.stop()


class TestJournalIsTheLedger:
    """Each campaign's journal is the server's only record of it."""

    def test_every_state_comes_back_from_the_journals_alone(self, tmp_path,
                                                            monkeypatch):
        """Kill -9 a server hosting a finished, an explicitly suspended, a
        failed and an auto-suspended campaign: the journal dir holds one
        journal per campaign and nothing else, and a restart brings each
        back in its state, with the client's label spelling and the
        failure's error.  ``resume`` revives the failed one, bit-exact."""
        problem = sphere(2)
        old = _serve(tmp_path)
        client = CampaignClient(port=old.port)
        finished, suspended, failed = (
            client.create("easybo-2", "sphere2", config=dict(rng=s, **CONFIG))
            for s in (80, 81, 82)
        )
        _finish(client, finished, _twin(80), problem)
        client.ask(suspended)
        assert client.suspend(suspended) == "suspended"
        twin = _twin(82)
        x = client.ask(failed)[0]
        np.testing.assert_array_equal(x, twin.ask())

        def detonate(x, result):
            raise RuntimeError("surrogate blew up")

        monkeypatch.setattr(old._campaigns[failed].campaign, "absorb", detonate)
        with pytest.raises(CampaignServerError, match="surrogate blew up"):
            client.tell(failed, x, problem.evaluate(x))
        error = client.status(failed)["error"]
        with CampaignClient(port=old.port) as doomed:
            dropped = doomed.create("easybo-2", "sphere2",
                                    config=dict(rng=83, **CONFIG))
            doomed.ask(dropped)
        deadline = time.monotonic() + 10.0
        while client.status(dropped)["state"] != "suspended":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        _kill(old)
        client.close()
        journals = sorted(f"{cid}.journal"
                          for cid in (finished, suspended, failed, dropped))
        assert sorted(p.name for p in tmp_path.iterdir()) == journals

        new = _serve(tmp_path)
        try:
            assert new.recoveries == 0
            with CampaignClient(port=new.port) as client:
                states = {c["campaign"]: (c["state"], c["label"], c["error"])
                          for c in client.list()}
                assert states == {
                    finished: ("finished", "easybo-2", None),
                    suspended: ("suspended", "easybo-2", "suspended by client"),
                    failed: ("failed", "easybo-2", error),
                    dropped: ("suspended", "easybo-2", "client disconnected"),
                }
                with pytest.raises(CampaignServerError, match="active"):
                    client.ask(suspended)
                assert len(client.ask(dropped)) == 1  # auto: revived
                reply = client.resume(failed)
                np.testing.assert_array_equal(np.asarray(reply["pending"]),
                                              twin.pending_matrix())
                result = problem.evaluate(x)
                client.tell(failed, x, result)
                twin.tell(x, result)
                _finish(client, failed, twin, problem)
                assert client.status(failed)["state"] == "finished"
        finally:
            new.stop()
        assert sorted(p.name for p in tmp_path.iterdir()) == journals

    def test_a_journal_dir_holding_a_server_manifest_is_refused(self, tmp_path):
        """An older server kept suspends and failures in ``server.manifest``
        alone; a journal dir that holds one is refused, naming the file."""
        manifest = tmp_path / "server.manifest"
        manifest.write_bytes(b"")
        with pytest.raises(ServerError, match=re.escape(str(manifest))):
            CampaignServer(journal_dir=tmp_path)


class TestIdempotentRPC:
    """Raw-frame tests: drive the wire protocol directly so the tests pick
    the request ids (the client generates fresh ones per logical call)."""

    def _rpc(self, conn, seq, verb, **payload):
        conn.send({"verb": verb, "seq": seq, **payload})
        reply = conn.recv(timeout=10.0)
        assert reply is not None and reply["seq"] == seq
        return reply

    def test_retried_ask_replays_same_points(self, tmp_path):
        server = _serve(tmp_path)
        try:
            conn = connect("127.0.0.1", server.port)
            create = self._rpc(conn, 0, "create", request_id="rid-create",
                               label="LCB", problem="sphere2",
                               config=dict(rng=51, **CONFIG))
            cid = create["campaign"]
            first = self._rpc(conn, 1, "ask", request_id="rid-ask",
                              campaign=cid)
            retry = self._rpc(conn, 2, "ask", request_id="rid-ask",
                              attempt=1, campaign=cid)
            assert retry["replayed"] is True
            assert retry["points"] == first["points"]
            # One logical ask -> one issued point, not two.
            status = self._rpc(conn, 3, "status", campaign=cid)["status"]
            assert status["issued"] == len(first["points"])
            assert status["n_pending"] == len(first["points"])
            conn.close()
        finally:
            server.stop()

    def test_retried_tell_not_double_counted(self, tmp_path):
        problem = sphere(2)
        server = _serve(tmp_path)
        try:
            conn = connect("127.0.0.1", server.port)
            cid = self._rpc(conn, 0, "create", label="LCB", problem="sphere2",
                            config=dict(rng=52, **CONFIG))["campaign"]
            x = self._rpc(conn, 1, "ask", request_id="rid-a",
                          campaign=cid)["points"][0]
            result = result_to_dict(problem.evaluate(np.asarray(x)))
            first = self._rpc(conn, 2, "tell", request_id="rid-t",
                              campaign=cid, x=x, result=result)
            retry = self._rpc(conn, 3, "tell", request_id="rid-t", attempt=1,
                              campaign=cid, x=x, result=result)
            assert retry["replayed"] is True
            assert retry["action"] == first["action"]
            assert retry["done"] == first["done"]
            status = self._rpc(conn, 4, "status", campaign=cid)["status"]
            assert status["n_observations"] == 1
            assert status["n_pending"] == 0
            conn.close()
        finally:
            server.stop()

    def test_retried_create_returns_same_campaign(self, tmp_path):
        server = _serve(tmp_path)
        try:
            conn = connect("127.0.0.1", server.port)
            first = self._rpc(conn, 0, "create", request_id="rid-c",
                              label="LCB", problem="sphere2",
                              config=dict(rng=53, **CONFIG))
            retry = self._rpc(conn, 1, "create", request_id="rid-c",
                              attempt=1, label="LCB", problem="sphere2",
                              config=dict(rng=53, **CONFIG))
            assert retry["replayed"] is True
            assert retry["campaign"] == first["campaign"]
            campaigns = self._rpc(conn, 2, "list")["campaigns"]
            assert len(campaigns) == 1
            conn.close()
        finally:
            server.stop()

    def test_retried_ask_replays_across_restart(self, tmp_path):
        """The reply cache is journaled, not in-memory: a retry that lands
        on a *restarted* server still replays the original points."""
        old = _serve(tmp_path)
        conn = connect("127.0.0.1", old.port)
        create = self._rpc(conn, 0, "create", request_id="rid-c",
                           label="LCB", problem="sphere2",
                           config=dict(rng=54, **CONFIG))
        cid = create["campaign"]
        first = self._rpc(conn, 1, "ask", request_id="rid-a", campaign=cid)
        _kill(old)  # before the client disconnects: the campaign dies live
        conn.close()

        new = _serve(tmp_path)
        try:
            conn = connect("127.0.0.1", new.port)
            retried_create = self._rpc(conn, 0, "create", request_id="rid-c",
                                       attempt=1, label="LCB",
                                       problem="sphere2",
                                       config=dict(rng=54, **CONFIG))
            assert retried_create["replayed"] is True
            assert retried_create["campaign"] == cid
            retry = self._rpc(conn, 1, "ask", request_id="rid-a", attempt=1,
                              campaign=cid)
            assert retry["replayed"] is True
            assert retry["points"] == first["points"]
            metrics = self._rpc(conn, 2, "metrics")["metrics"]
            assert metrics["rpc_replayed_replies"] == 2
            assert metrics["rpc_retries"] == 2
            conn.close()
        finally:
            new.stop()

    def test_create_killed_before_its_design_recovers_live(self, tmp_path):
        """A journal cut after ``campaign_start`` (a create killed before its
        ``doe``) is a live campaign: the retried create replays its id from
        that record, and its asks equal an uninterrupted twin's."""
        problem, twin = sphere(2), make_campaign("LCB", sphere(2), rng=56, **CONFIG)
        old = _serve(tmp_path)
        conn = connect("127.0.0.1", old.port)
        create = dict(label="LCB", problem="sphere2", config=dict(rng=56, **CONFIG))
        cid = self._rpc(conn, 0, "create", request_id="rid-c", **create)["campaign"]
        _kill(old)
        conn.close()
        journal = tmp_path / f"{cid}.journal"
        journal.write_bytes(journal.read_bytes().split(b"\n")[0] + b"\n")
        (start,) = read_journal(journal, strict=True)
        assert (start["type"], start["request_id"]) == ("campaign_start", "rid-c")
        assert [p.name for p in tmp_path.iterdir()] == [journal.name]

        new = _serve(tmp_path)
        try:
            assert new.recoveries == 1
            conn = connect("127.0.0.1", new.port)
            retry = self._rpc(conn, 0, "create", request_id="rid-c", attempt=1,
                              **create)
            assert (retry["replayed"], retry["campaign"]) == (True, cid)
            conn.close()
            with CampaignClient(port=new.port) as client:
                assert client.status(cid)["issued"] == 0
                _finish(client, cid, twin, problem)
                assert client.status(cid)["state"] == "finished"
                assert len(client.list()) == 1
        finally:
            new.stop()


class TestDegradedRecovery:
    def _two_campaigns(self, tmp_path):
        server = _serve(tmp_path)
        client = CampaignClient(port=server.port)
        cids = [
            client.create("LCB", "sphere2", config=dict(rng=s, **CONFIG))
            for s in (61, 62)
        ]
        for cid in cids:
            client.ask(cid)
        _kill(server)  # both campaigns die live (no suspend journaled)
        client.close()
        return cids

    def test_journal_torn_tail_is_truncated_and_recovery_proceeds(
            self, tmp_path):
        cids = self._two_campaigns(tmp_path)
        journal = tmp_path / f"{cids[0]}.journal"
        with open(journal, "ab") as f:
            f.write(b"J1 000000ff deadbeef {\"type\": \"torn")  # no newline
        server = _serve(tmp_path)
        try:
            assert server.recoveries == 2
            with CampaignClient(port=server.port) as client:
                states = {c["campaign"]: c["state"] for c in client.list()}
                assert all(states[cid] == "active" for cid in cids)
            # The torn tail was truncated in place, so the *next* append
            # produces a journal every reader parses cleanly.
            assert read_journal(journal, strict=True)[-1].get("type") != "torn"
        finally:
            server.stop()

    def test_corrupt_journal_degrades_that_campaign_only(self, tmp_path):
        cids = self._two_campaigns(tmp_path)
        victim = tmp_path / f"{cids[0]}.journal"
        data = victim.read_bytes()
        victim.write_bytes(b"\x00" * 16 + data[16:])  # first frame destroyed
        server = _serve(tmp_path)
        try:
            assert server.recoveries == 1
            with CampaignClient(port=server.port) as client:
                broken = client.status(cids[0])
                assert broken["state"] == "failed"
                assert "unrecoverable journal" in broken["error"]
                with pytest.raises(CampaignServerError, match="failed"):
                    client.ask(cids[0])
                # The healthy tenant is untouched and drivable.
                assert client.status(cids[1])["state"] == "active"
                assert len(client.ask(cids[1])) == 1
        finally:
            server.stop()

    def test_corrupt_journal_keeps_its_bytes(self, tmp_path):
        """Damage before intact records is not a torn tail: the restart
        keeps every byte for triage, and the stub names the offset."""
        server = _serve(tmp_path)
        client = CampaignClient(port=server.port)
        cid = client.create("LCB", "sphere2", config=dict(rng=61, **CONFIG))
        problem = sphere(2)
        for _ in range(3):
            x = client.ask(cid)[0]
            client.tell(cid, x, problem.evaluate(x))
        _kill(server)
        client.close()
        journal = tmp_path / f"{cid}.journal"
        damaged = b"\x00" * 16 + journal.read_bytes()[16:]
        journal.write_bytes(damaged)
        server = _serve(tmp_path)
        try:
            with CampaignClient(port=server.port) as client:
                broken = client.status(cid)
            assert broken["state"] == "failed"
            assert "at byte 0 " in broken["error"]
        finally:
            server.stop()
        assert journal.read_bytes() == damaged

    def test_missing_journal_degrades_that_campaign_only(self, tmp_path):
        """The journal is the server's only record of a campaign: one whose
        journal is gone is unknown, and the other tenant is untouched."""
        cids = self._two_campaigns(tmp_path)
        (tmp_path / f"{cids[0]}.journal").unlink()
        server = _serve(tmp_path)
        try:
            assert server.recoveries == 1
            with CampaignClient(port=server.port) as client:
                with pytest.raises(CampaignServerError, match="unknown campaign"):
                    client.status(cids[0])
                assert client.status(cids[1])["state"] == "active"
        finally:
            server.stop()
