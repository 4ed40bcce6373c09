"""Campaign server: multi-tenancy, leases, crash/suspend/resume, no leaks.

The server under test runs on a daemon thread in-process
(``serve(background=True)``); clients dial in over real loopback sockets
through :class:`CampaignClient`.  Determinism is checked against local
"twin" campaigns built with the same label/seed: a campaign hosted behind
the RPC must ask for byte-identical points, however many tenants the
server is juggling in between.
"""

from __future__ import annotations

import base64
import os
import pickle
import time

import numpy as np
import pytest

from repro.circuits.benchmarks import sphere
from repro.core import make_campaign
from repro.core.campaign import read_campaign_journal
from repro.core.easybo import make_algorithm
from repro.distributed import CampaignClient, CampaignServerError, serve
from repro.distributed.protocol import PROTOCOL_VERSION
from repro.obs import MetricsRegistry, Observability

pytestmark = pytest.mark.server

CONFIG = dict(n_init=3, max_evals=6, acq_candidates=32, acq_restarts=1)


@pytest.fixture()
def server(tmp_path):
    srv = serve(journal_dir=tmp_path / "journals", max_workers=4,
                obs=Observability(metrics=MetricsRegistry()),
                background=True)
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    with CampaignClient(port=server.port) as c:
        yield c


def _twin(seed):
    return make_campaign("EasyBO-2", sphere(2), rng=seed, **CONFIG)


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestBasics:
    def test_ping_reports_protocol_version(self, client):
        pong = client.ping()
        assert pong["protocol"] == PROTOCOL_VERSION

    def test_unknown_campaign_is_an_error_not_a_crash(self, client):
        with pytest.raises(CampaignServerError, match="c9999"):
            client.status("c9999")
        assert client.ping()["ok"]  # the connection survived the error

    def test_ask_past_budget_maps_to_server_error(self, client):
        cid = client.create("LCB", "sphere2",
                            config=dict(rng=0, n_init=2, max_evals=2,
                                        acq_candidates=16, acq_restarts=1))
        client.ask(cid, n=2)
        with pytest.raises(CampaignServerError, match="budget"):
            client.ask(cid)


class TestMultiTenancy:
    def test_interleaved_campaigns_stay_byte_identical(self, client):
        """Three tenants round-robin through one connection; each must track
        its isolated twin exactly — no cross-campaign state bleed."""
        problem = sphere(2)
        seeds = [101, 202, 303]
        cids = [client.create("EasyBO-2", "sphere2", config=dict(rng=s, **CONFIG))
                for s in seeds]
        twins = {cid: _twin(s) for cid, s in zip(cids, seeds)}
        done = set()
        while len(done) < len(cids):
            for cid in cids:
                if cid in done:
                    continue
                try:
                    x = client.ask(cid)[0]
                except CampaignServerError:
                    done.add(cid)
                    continue
                np.testing.assert_array_equal(x, twins[cid].ask())
                result = problem.evaluate(x)
                reply = client.tell(cid, x, result)
                twins[cid].tell(x, result)
                if reply["done"]:
                    done.add(cid)
        states = {c["campaign"]: c["state"] for c in client.list()}
        assert all(states[cid] == "finished" for cid in cids)

    def test_status_and_metrics_track_tenants(self, client, server):
        cid = client.create("LCB", "sphere2", config=dict(rng=1, **CONFIG))
        status = client.status(cid)
        assert status["state"] == "active"
        assert status["max_evals"] == CONFIG["max_evals"]
        assert client.metrics()["active"] >= 1
        # Side-model labels are campaigns like any other.
        constrained = client.create("cEasyBO-2", "opamp-constrained",
                                    config=dict(rng=1, **CONFIG))
        status = client.status(constrained)
        assert (status["state"], status["algorithm"]) == ("active", "cEasyBO-2")
        assert client.metrics()["active"] >= 2


class TestWorkerLeases:
    def test_leases_capped_and_returned(self, client):
        # Budgets big enough that neither tenant finishes mid-test.
        slow = dict(rng=5, n_init=3, max_evals=40,
                    acq_candidates=32, acq_restarts=1)
        a = client.create("EasyBO-3", "sphere2", config=slow,
                          evaluate=True, n_workers=3)
        assert client.metrics()["workers_leased"] == 3
        # Capacity 4: the second tenant gets the single remaining worker.
        b = client.create("EasyBO-3", "sphere2", config=dict(slow, rng=6),
                          evaluate=True, n_workers=3)
        assert client.metrics()["workers_leased"] == 4
        with pytest.raises(CampaignServerError, match="no worker capacity"):
            client.create("EasyBO-2", "sphere2", config=dict(slow, rng=7),
                          evaluate=True, n_workers=1)
        # Suspending returns each lease to the shared registry.
        client.suspend(a)
        assert client.metrics()["workers_leased"] == 1
        client.suspend(b)
        assert client.metrics()["workers_leased"] == 0

    def test_server_evaluated_campaign_finishes(self, client):
        cid = client.create("EasyBO-2", "sphere2",
                            config=dict(rng=9, **CONFIG),
                            evaluate=True)
        with pytest.raises(CampaignServerError, match="server-evaluated"):
            client.ask(cid)
        assert _wait_for(lambda: client.status(cid)["state"] == "finished")
        status = client.status(cid)
        assert status["issued"] == CONFIG["max_evals"]
        assert status["best_fom"] is not None


    @pytest.mark.parametrize(
        "taken, requested", [(0, 2), (2, 3)], ids=["request", "capacity"]
    )
    def test_barrier_label_is_refused_a_lease_below_b(self, client, taken, requested):
        """A synchronous label issues B points at once behind its barrier:
        a grant below B is refused, whether the request or the capacity is
        short, and the lease goes back to the registry."""
        slow = dict(rng=8, n_init=3, max_evals=40,
                    acq_candidates=32, acq_restarts=1)
        if taken:
            client.create("EasyBO-2", "sphere2", config=slow,
                          evaluate=True, n_workers=taken)
        with pytest.raises(CampaignServerError, match="needs 3 workers"):
            client.create("pBO-3", "sphere2", config=dict(slow, rng=9),
                          evaluate=True, n_workers=requested)
        assert client.metrics()["workers_leased"] == taken

    def test_stray_tell_is_refused_and_the_campaign_runs_on(self, client):
        """A client ``tell`` to a server-evaluated campaign gets the ``ask``
        refusal; the campaign neither fails nor loses its pool."""
        config = dict(rng=10, n_init=3, max_evals=30,
                      acq_candidates=32, acq_restarts=1)
        cid = client.create("EasyBO-2", "sphere2", config=config,
                            evaluate=True)
        x = np.array([0.1, 0.2])
        with pytest.raises(CampaignServerError, match="server-evaluated"):
            client.tell(cid, x, sphere(2).evaluate(x))
        assert client.status(cid)["state"] == "active"
        assert _wait_for(lambda: client.status(cid)["state"] == "finished",
                         timeout=60.0)
        assert client.status(cid)["issued"] == config["max_evals"]


def _run_evaluated(journal_dir, label, config, problem="sphere2", **create):
    """Run one server-evaluated campaign to its end; return its journal."""
    srv = serve(journal_dir=journal_dir, max_workers=4, background=True)
    try:
        with CampaignClient(port=srv.port) as c:
            cid = c.create(label, problem, config=config, evaluate=True,
                           **create)
            assert _wait_for(lambda: c.status(cid)["state"] == "finished",
                             timeout=120.0)
    finally:
        srv.stop()
    return read_campaign_journal(journal_dir / f"{cid}.journal")


class TestServerEvaluation:
    """A server-evaluated campaign takes the drivers' loop step, so its
    journal is a driver journal, pool facts included."""

    ASK = ("points", "issued", "side_models")
    TELL = ("x", "result", "action", "value", "record", "clock", "done")

    def _records(self, events):
        fields = {"ask": self.ASK, "tell": self.TELL}
        return [
            (e["type"], {k: e.get(k) for k in fields[e["type"]]})
            for e in events if e["type"] in fields
        ]

    @pytest.mark.parametrize(
        "label", ["EasyBO-2", "EasyBO-LP-3", "pBO-3", "pHCBO-3", "LCB", "EasyBO-SP-2",
                  "GP-Hedge", "caEasyBO-2"]
    )
    def test_virtual_pool_journal_equals_the_driver_journal(self, tmp_path, label):
        config = dict(rng=3, n_init=4, max_evals=11,
                      acq_candidates=32, acq_restarts=1)
        make_algorithm(label, sphere(2), journal=tmp_path / "driver.journal",
                       **config).run()
        served = _run_evaluated(tmp_path / "server", label, config)
        driven = read_campaign_journal(tmp_path / "driver.journal")
        assert self._records(served) == self._records(driven)

    def test_one_point_label_on_three_workers_hallucinates_its_points(
        self, tmp_path
    ):
        """LCB leased three workers asks while points are in flight; each
        proposal sees them hallucinated, so no point is issued twice (a
        proposal blind to them reissued a maximizer still in flight)."""
        config = dict(rng=0, n_init=6, max_evals=14)
        events = _run_evaluated(tmp_path, "LCB", config, "branin", n_workers=3)
        X = np.array([p for e in events if e["type"] == "ask" for p in e["points"]])
        gaps = [np.linalg.norm(X[i] - X[j]) for i in range(len(X)) for j in range(i)]
        assert len(X) == 14
        assert min(gaps) > 1e-6

    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_real_clock_journal_carries_pool_facts(self, tmp_path, pool):
        config = dict(rng=12, n_init=3, max_evals=7,
                      acq_candidates=32, acq_restarts=1)
        events = _run_evaluated(tmp_path, "EasyBO-2", config, pool=pool)
        asks = [e for e in events if e["type"] == "ask"]
        assert all(len(e["issued"]) == len(e["points"]) for e in asks)
        told = [e for e in events
                if e["type"] == "tell" and e["action"] != "reissued"]
        assert all("record" in e and "clock" in e for e in told)
        indices = sorted(e["record"]["index"] for e in told)
        assert indices == list(range(config["max_evals"]))


class TestSuspendResume:
    def test_client_disconnect_suspends_and_resume_is_bit_exact(self, server):
        """Kill a client mid-campaign: the server suspends the orphaned
        campaign (journal durable, lease returned); a second client resumes
        it to the exact pre-kill state and finishes byte-identically to an
        uninterrupted twin."""
        problem = sphere(2)
        twin = _twin(77)
        doomed = CampaignClient(port=server.port)
        cid = doomed.create("EasyBO-2", "sphere2", config=dict(rng=77, **CONFIG))
        for _ in range(3):
            x = doomed.ask(cid)[0]
            np.testing.assert_array_equal(x, twin.ask())
            result = problem.evaluate(x)
            doomed.tell(cid, x, result)
            twin.tell(x, result)
        in_flight = doomed.ask(cid)[0]  # asked but never told
        np.testing.assert_array_equal(in_flight, twin.ask())
        doomed.close()  # the "kill": socket drops with a point in flight

        with CampaignClient(port=server.port) as client:
            assert _wait_for(lambda: client.status(cid)["state"] == "suspended")
            reply = client.resume(cid)
            np.testing.assert_array_equal(
                np.asarray(reply["pending"]), twin.pending_matrix()
            )
            # Tell the recovered in-flight point, then drive both to done.
            result = problem.evaluate(in_flight)
            client.tell(cid, in_flight, result)
            twin.tell(in_flight, result)
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
            assert client.status(cid)["state"] == "finished"
            assert twin.done

    def test_explicit_suspend_then_resume(self, client):
        cid = client.create("LCB", "sphere2", config=dict(rng=13, **CONFIG))
        x = client.ask(cid)[0]
        assert client.suspend(cid) == "suspended"
        with pytest.raises(CampaignServerError, match="active"):
            client.ask(cid)
        reply = client.resume(cid)
        np.testing.assert_array_equal(np.asarray(reply["pending"])[0], x)
        assert client.status(cid)["state"] == "active"

    def test_resume_refuses_an_id_outside_the_journal_dir(self, tmp_path):
        """``resume`` builds a journal path from the client's id, so an id
        that is not ``c<digits>`` is refused before any path exists: a
        journal beside the journal dir is neither loaded nor appended to."""
        outside = tmp_path / "evil.journal"
        campaign = make_campaign("LCB", sphere(2), journal=outside, rng=1, **CONFIG)
        campaign.ask()
        campaign.close()
        before = outside.read_bytes()
        srv = serve(journal_dir=tmp_path / "j", background=True)
        try:
            with CampaignClient(port=srv.port) as client:
                with pytest.raises(CampaignServerError, match=r"\.\./evil"):
                    client.resume("../evil")
                assert client.list() == []
        finally:
            srv.stop()
        assert outside.read_bytes() == before

    def test_resume_without_journal_is_an_error(self, tmp_path):
        srv = serve(journal_dir=None, background=True)
        try:
            with CampaignClient(port=srv.port) as client:
                cid = client.create("LCB", "sphere2", config=dict(rng=1, **CONFIG))
                client.suspend(cid)
                with pytest.raises(CampaignServerError, match="journal"):
                    client.resume(cid)
        finally:
            srv.stop()


class TestFailureContainment:
    def test_malformed_request_leaves_campaign_active(self, client):
        """A request the server cannot even parse is the *client's* problem:
        it gets an error back, the campaign is untouched."""
        cid = client.create("LCB", "sphere2", config=dict(rng=2, **CONFIG))
        x = client.ask(cid)[0]
        with pytest.raises(CampaignServerError):
            client.call("tell", campaign=cid, x=[float(v) for v in x],
                        result={"garbage": True})
        assert client.status(cid)["state"] == "active"

    def test_tell_blowing_up_fails_campaign_and_releases_lease(
        self, client, server, monkeypatch
    ):
        from repro.core.problem import EvaluationResult

        cid = client.create("LCB", "sphere2", config=dict(rng=2, **CONFIG))
        x = client.ask(cid)[0]

        def detonate(x, result):
            raise RuntimeError("surrogate blew up")

        # A failure inside campaign.tell(), past its pending check; the
        # server must contain it: campaign failed, lease returned.
        monkeypatch.setattr(server._campaigns[cid].campaign, "absorb", detonate)
        with pytest.raises(CampaignServerError, match="surrogate blew up"):
            client.tell(cid, x, EvaluationResult(
                fom=1.0, metrics={}, cost=1.0, feasible=True))
        assert client.status(cid)["state"] == "failed"
        assert client.metrics()["workers_leased"] == 0
        # The server keeps serving other tenants.
        other = client.create("LCB", "sphere2", config=dict(rng=3, **CONFIG))
        assert client.status(other)["state"] == "active"

    def test_tell_of_a_point_not_pending_is_refused_not_fatal(self, client):
        """A second, distinct tell of an already-told point is the client's
        mistake: the campaign refuses it before any state changes, so the
        request is refused and the campaign runs on."""
        problem = sphere(2)
        cid = client.create("LCB", "sphere2", config=dict(rng=8, **CONFIG))
        x = client.ask(cid)[0]
        client.tell(cid, x, problem.evaluate(x))
        with pytest.raises(CampaignServerError, match="not pending"):
            client.tell(cid, x, problem.evaluate(x))
        status = client.status(cid)
        assert (status["state"], status["n_observations"]) == ("active", 1)
        assert len(client.ask(cid)) == 1

    def test_bad_asks_are_refused_and_the_campaign_stays_active(self, client):
        """A piecemeal ask of a synchronous campaign past its design, and an
        ask for no points, are the client's mistakes: refused, not fatal."""
        problem = sphere(2)
        sync = client.create("pBO-3", "sphere2", config=dict(rng=6, **CONFIG))
        for x in client.ask(sync, n=3):
            client.tell(sync, x, problem.evaluate(x))
        with pytest.raises(CampaignServerError, match=r"whole batches .*ask\(3\)"):
            client.ask(sync)
        assert client.status(sync)["state"] == "active"
        assert len(client.ask(sync, n=3)) == 3
        cid = client.create("EasyBO-2", "sphere2", config=dict(rng=7, **CONFIG))
        with pytest.raises(CampaignServerError, match="n >= 1"):
            client.ask(cid, n=0)
        assert client.status(cid)["state"] == "active"
        assert client.status(cid)["issued"] == 0

    def test_create_refuses_batch_zero_label(self, client):
        with pytest.raises(CampaignServerError, match="batch size"):
            client.create("pBO-0", "sphere2", config=dict(rng=5, **CONFIG))
        assert client.metrics()["campaigns"] == 0

    def test_create_refuses_problem_spec_without_unpickling_it(self, client, tmp_path):
        """A ``problem_spec`` can carry pickle bytes, and unpickling client
        input would run the client's code in the server: the field is
        refused by name and never loaded."""
        sentinel = tmp_path / "unpickled"

        class Payload:
            def __reduce__(self):
                return os.mkdir, (str(sentinel),)

        spec = {"kind": "pickle", "name": "sphere2",
                "data": base64.b64encode(pickle.dumps(Payload())).decode("ascii")}
        with pytest.raises(CampaignServerError, match="problem_spec"):
            client.call("create", label="LCB", problem="sphere2",
                        problem_spec=spec, config=dict(rng=4, **CONFIG))
        assert not sentinel.exists()
        assert client.metrics()["campaigns"] == 0
