"""The benchmark's three workloads.

Each workload turns the benchmark seed into the program's inputs (campaign
RNG seeds, class-E designs), builds its state (``setup``), runs one closed
loop from a single process (``run``) and checks the program's outputs.  The
amount of work is fixed by the seed and the run length alone, never by how
fast the machine is, so two runs with the same arguments do the same work.

A *step* is one turn of a workload's closed loop, the wall time a serial
caller waits per evaluation:

* ``opamp-easybo5``: evaluate the oldest of the 5 in-flight points, tell it,
  ask the refill (optimizer-phase steps only);
* ``classe-sweep``: evaluate one design;
* ``server-tenants``: RPC ask, evaluate, RPC tell for one tenant.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import json
import pathlib
import shutil
import tempfile
import threading
import time

import numpy as np

from repro.circuits import ClassEProblem, OpAmpProblem
from repro.circuits.benchmarks import sphere
from repro.core import make_campaign
from repro.distributed import CampaignClient, CampaignServer
from repro.obs import NULL_OBS

HERE = pathlib.Path(__file__).resolve().parent

perf = time.perf_counter


@dataclasses.dataclass
class Outcome:
    """Timings (seconds), work done and check verdicts of one measured loop."""

    steps: list = dataclasses.field(default_factory=list)
    asks: list = dataclasses.field(default_factory=list)
    tells: list = dataclasses.field(default_factory=list)
    evals: list = dataclasses.field(default_factory=list)
    wall: float = 0.0
    n_evals: int = 0
    n_rpc_ops: int = 0
    journal_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)
    checks: list = dataclasses.field(default_factory=list)

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{type(exc).__name__}: {exc}")

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed += 1


def _nothing() -> None:
    pass


@functools.cache
def reference(name: str) -> dict:
    """A file recorded by ``record.py``, read once (callers only read it)."""
    return json.loads((HERE / name).read_text())


def _seeds(seed: int, n: int, salt: int) -> list[int]:
    """``n`` program RNG seeds derived from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence([seed, salt]).generate_state(n)]


# --------------------------------------------------------------------------
class OpAmpEasyBO5:
    """The paper's headline configuration: EasyBO-5 on the op-amp."""

    name = "opamp-easybo5"
    BATCH = 5
    N_INIT = 20
    N_BO = 12
    #: Measured wall time of one campaign; sizes the run, never its outcome.
    SECONDS_PER_CAMPAIGN = 6.5
    #: Screened campaign seeds and the FOM floor, recorded by ``record.py``.
    REFERENCE = "opamp_reference.json"

    def plan(self, seed: int, seconds: float) -> dict:
        bank = [c["seed"] for c in reference(self.REFERENCE)["bank"]]
        n = min(len(bank), max(1, round(seconds / self.SECONDS_PER_CAMPAIGN)))
        chosen = np.random.default_rng([seed, 1]).choice(len(bank), n, replace=False)
        return {"campaign_seeds": [bank[i] for i in chosen]}

    def campaign(self, rng_seed: int, obs=NULL_OBS):
        problem = OpAmpProblem()
        campaign = make_campaign(
            "EasyBO-5", problem, n_init=self.N_INIT,
            max_evals=self.N_INIT + self.N_BO, acq_candidates=2048,
            acq_restarts=4, rng=rng_seed, obs=obs,
        )
        campaign.start()
        return problem, campaign

    def setup(self, plan: dict, obs=NULL_OBS):
        return self.campaign(plan["campaign_seeds"][0], obs)

    def teardown(self, state) -> None:
        state[1].close()

    def run(self, plan: dict, obs=NULL_OBS, span=NULL_OBS.span,
            on_loop_start=_nothing, on_loop_end=_nothing) -> Outcome:
        out = Outcome()
        floor = reference(self.REFERENCE)["fom_floor"]
        on_loop_start()
        for rng_seed in plan["campaign_seeds"]:
            problem, campaign = self.campaign(rng_seed, obs)
            started = perf()
            try:
                self.drive(problem, campaign, out, span)
            except Exception as exc:  # noqa: BLE001 — counted, then checked
                out.fail(exc)
            out.wall += perf() - started
            best = campaign.best()
            best_fom = float("nan") if best is None else best[1]
            out.check(
                f"campaign {rng_seed} budget",
                campaign.issued == campaign.max_evals
                and campaign.n_observations == campaign.max_evals and campaign.done,
                f"issued {campaign.issued}, told {campaign.n_observations}, "
                f"budget {campaign.max_evals}",
            )
            out.check(f"campaign {rng_seed} best FOM", best_fom >= floor,
                      f"best {best_fom:.2f} vs floor {floor}")
        on_loop_end()
        return out

    def drive(self, problem, campaign, out: Outcome, span=NULL_OBS.span) -> None:
        pending = collections.deque()
        for _ in range(self.BATCH):
            out.attempted += 1
            pending.append(campaign.ask())
        while pending:
            with span("step"):
                x = pending.popleft()
                out.attempted += 2
                t0 = perf()
                with span("eval"):
                    result = problem.evaluate(x)
                t1 = perf()
                campaign.tell(x, result)
                t2 = perf()
                out.evals.append(t1 - t0)
                out.tells.append(t2 - t1)
                out.n_evals += 1
                if campaign.exhausted:
                    continue
                optimizer_phase = not campaign.in_doe
                out.attempted += 1
                pending.append(campaign.ask())
                t3 = perf()
            if optimizer_phase:
                out.asks.append(t3 - t2)
                out.steps.append(t3 - t0)


# --------------------------------------------------------------------------
class ClassESweep:
    """Serial class-E transient simulations of seed-chosen designs."""

    name = "classe-sweep"
    #: Designs are drawn from a fixed pool whose FOMs ``record.py`` recorded,
    #: so every FOM of every run can be checked.
    REFERENCE = "classe_reference.json"
    SECONDS_PER_EVAL = 0.8

    @staticmethod
    def pool(problem, pool_seed: int, pool_size: int) -> np.ndarray:
        bounds = problem.bounds
        return np.random.default_rng(pool_seed).uniform(
            bounds[:, 0], bounds[:, 1], size=(pool_size, len(bounds)))

    def plan(self, seed: int, seconds: float) -> dict:
        size = reference(self.REFERENCE)["pool_size"]
        n = min(size, max(8, round(seconds / self.SECONDS_PER_EVAL)))
        order = np.random.default_rng([seed, 2]).permutation(size)[:n]
        return {"designs": [int(i) for i in order]}

    def setup(self, plan: dict, obs=NULL_OBS):
        problem = ClassEProblem()
        ref = reference(self.REFERENCE)
        return problem, self.pool(problem, ref["pool_seed"], ref["pool_size"])

    def teardown(self, state) -> None:
        pass

    def run(self, plan: dict, obs=NULL_OBS, span=NULL_OBS.span,
            on_loop_start=_nothing, on_loop_end=_nothing) -> Outcome:
        problem, pool = self.setup(plan)
        ref = reference(self.REFERENCE)
        rtol, atol = ref["rtol"], ref["atol"]
        out = Outcome()
        mismatches = []
        on_loop_start()
        started = perf()
        for index in plan["designs"]:
            out.attempted += 1
            try:
                with span("step"):
                    t0 = perf()
                    with span("eval"):
                        result = problem.evaluate(pool[index])
                    t1 = perf()
            except Exception as exc:  # noqa: BLE001 — counted, then checked
                out.fail(exc)
                continue
            out.evals.append(t1 - t0)
            out.steps.append(t1 - t0)
            out.n_evals += 1
            expected = ref["fom"][index]
            if not abs(result.fom - expected) <= atol + rtol * abs(expected):
                mismatches.append(f"design {index}: {result.fom!r} != {expected!r}")
        out.wall = perf() - started
        on_loop_end()
        out.check(
            "every FOM matches the recorded reference",
            not mismatches and out.n_evals == len(plan["designs"]),
            f"{out.n_evals}/{len(plan['designs'])} evaluated, rtol {rtol}, "
            f"atol {atol}" + (f"; {mismatches[:3]}" if mismatches else ""),
        )
        return out


# --------------------------------------------------------------------------
class ServerTenants:
    """Sixteen cheap tenants on an in-process, journaling campaign server."""

    name = "server-tenants"
    N_TENANTS = 16
    #: The cheap-but-real config of ``benchmarks/bench_campaign_server.py``.
    CONFIG = dict(n_init=3, acq_candidates=32, acq_restarts=1)
    SECONDS_PER_EVAL = 0.035
    #: Parent of the server's journal directories, inside the repository.
    JOURNAL_ROOT = HERE.parent / ".perfbench-tmp"

    def plan(self, seed: int, seconds: float) -> dict:
        per_tenant = max(6, round(seconds / (self.N_TENANTS * self.SECONDS_PER_EVAL)))
        return {"max_evals": per_tenant,
                "tenant_seeds": _seeds(seed, self.N_TENANTS, 3)}

    def setup(self, plan: dict, obs=NULL_OBS):
        self.JOURNAL_ROOT.mkdir(exist_ok=True)
        journal_dir = pathlib.Path(tempfile.mkdtemp(prefix="journals-", dir=self.JOURNAL_ROOT))
        server = CampaignServer(journal_dir=journal_dir, obs=obs)
        thread = threading.Thread(target=server.serve_forever, name="campaign-server",
                                  daemon=True)
        thread.start()
        client = CampaignClient(port=server.port)
        cids = [
            client.create("EasyBO-2", "sphere2",
                          config=dict(rng=s, max_evals=plan["max_evals"], **self.CONFIG))
            for s in plan["tenant_seeds"]
        ]
        return {"dir": journal_dir, "server": server, "thread": thread,
                "client": client, "cids": cids}

    def teardown(self, state) -> None:
        state["client"].close()
        state["server"].stop()
        state["thread"].join(timeout=30)
        shutil.rmtree(state["dir"], ignore_errors=True)
        try:
            self.JOURNAL_ROOT.rmdir()
        except OSError:
            pass  # another run's journals are still there

    @staticmethod
    def _dir_bytes(path: pathlib.Path) -> int:
        return sum(p.stat().st_size for p in path.iterdir() if p.is_file())

    def run(self, plan: dict, obs=NULL_OBS, span=NULL_OBS.span,
            on_loop_start=_nothing, on_loop_end=_nothing) -> Outcome:
        out = Outcome()
        state = self.setup(plan, obs)
        try:
            on_loop_start()
            client = state["client"]
            problem = sphere(2)
            bytes_before = self._dir_bytes(state["dir"])
            started = perf()
            try:
                self._drive(client, state["cids"], problem, out, span)
            except Exception as exc:  # noqa: BLE001 — counted, then checked
                out.fail(exc)
            out.wall = perf() - started
            on_loop_end()
            out.journal_bytes = self._dir_bytes(state["dir"]) - bytes_before
            try:
                self._check(client, state["cids"], plan["max_evals"], out)
            except Exception as exc:  # noqa: BLE001 — a failed check
                out.fail(exc)
        finally:
            self.teardown(state)
        return out

    def _drive(self, client, cids, problem, out: Outcome, span) -> None:
        active = list(cids)
        while active:
            for cid in list(active):
                with span("step"):
                    out.attempted += 3
                    t0 = perf()
                    x = client.ask(cid)[0]
                    t1 = perf()
                    with span("eval"):
                        result = problem.evaluate(x)
                    t2 = perf()
                    reply = client.tell(cid, x, result)
                    t3 = perf()
                out.asks.append(t1 - t0)
                out.evals.append(t2 - t1)
                out.tells.append(t3 - t2)
                out.steps.append(t3 - t0)
                out.n_evals += 1
                out.n_rpc_ops += 2
                if reply["done"]:
                    active.remove(cid)

    def _check(self, client, cids, max_evals: int, out: Outcome) -> None:
        statuses = {s["campaign"]: s for s in client.list()}
        bad = [
            cid for cid in cids
            if statuses.get(cid, {}).get("state") != "finished"
            or statuses[cid]["issued"] != max_evals
            or statuses[cid]["n_observations"] != max_evals
        ]
        out.check("every tenant finished with issued == told == max_evals",
                  not bad, f"{len(cids) - len(bad)}/{len(cids)} tenants, "
                           f"max_evals {max_evals}")
        metrics = client.metrics()
        out.check("metrics verb: failed == 0 and suspended == 0",
                  metrics["failed"] == 0 and metrics["suspended"] == 0,
                  f"failed {metrics['failed']}, suspended {metrics['suspended']}")
        out.check("metrics verb: workers_leased == 0",
                  metrics["workers_leased"] == 0,
                  f"workers_leased {metrics['workers_leased']}")


WORKLOADS = {w.name: w for w in (OpAmpEasyBO5(), ClassESweep(), ServerTenants())}
