"""Multi-tenant campaign server: many ask/tell optimizations, one process.

The ask/tell extraction (:class:`repro.core.campaign.Campaign`) makes an
optimization a value instead of a loop, which means one process can host
*many* of them.  :class:`CampaignServer` does exactly that over the same
CRC-framed loopback socket RPC the process-worker fleet uses
(:mod:`repro.distributed.transport`):

* clients create campaigns by algorithm label + problem name and drive them
  with ``ask`` / ``tell`` round-trips (the client owns evaluation), or
* create them with ``evaluate=True`` and let the server lease workers from
  a shared :class:`WorkerLeaseRegistry` and run the evaluations itself,
  stepping every campaign's pool with the drivers' loop step through the
  non-blocking ``poll()`` hook — no campaign ever blocks another.

Durability and supervision
--------------------------
Every campaign appends to its own write-ahead journal
(``journal_dir/c<N>.journal``), and that journal is the server's only
record of it: ``campaign_start`` carries the client's label, the create
``request_id`` and, for a server-evaluated campaign, its pool backend and
size; a suspend or a failure appends ``campaign_suspend`` (reason,
``auto``) or ``campaign_fail`` (error) before the journal closes.  A killed
client, a server crash (kill -9 included), or an explicit ``suspend`` all
leave durable journals: on start with a ``journal_dir`` the server reads
every ``c<N>.journal``, the last of its ``campaign_end`` /
``campaign_suspend`` / ``campaign_fail`` / ``campaign_resume`` records
decides the campaign's state, and every live campaign is replayed to
bit-exact state (GP data, hyperparameters, RNG stream, pending set), with
the pools of server-evaluated campaigns re-leased and reconciled as
:func:`~repro.core.recovery.resume` does — a restarted server answers
``status``/``ask`` as if nothing happened.  A campaign whose journal is
corrupt degrades to ``failed``.

A client disconnect mid-campaign suspends the campaigns it owns: their
pools are shut down (no leaked worker processes), their leases return to
the registry, and their journals stay resumable — and because the suspend
was not the client's choice, a *retried* ``ask``/``tell`` from a
reconnected client revives the campaign transparently.  A request that
raises inside ``ask``/``tell`` takes the failure path — the campaign is
failed with its pool reaped and the error is returned to the client
instead of wedging the server — unless the campaign refused it before any
state changed (an ``ask`` past the budget, a ``tell`` of a point that is
not pending): then only the request is refused.  A corrupt frame
(:class:`~repro.distributed.transport.FrameCorruptionError`) drops only
the connection it arrived on.

Wire protocol
-------------
Requests and responses are journal-framed JSON records.  Every request
carries a client-chosen ``seq`` echoed in the response, so clients may
pipeline.  ``{"verb": ..., "seq": n, ...}`` -> ``{"seq": n, "ok": true,
...}`` or ``{"seq": n, "ok": false, "error": msg}``.

Requests may additionally carry a ``request_id`` (and an ``attempt``
retry counter).  State-changing verbs (``create``/``ask``/``tell``) are
then idempotent: the server keeps a bounded per-campaign reply cache —
rebuilt from the journals after a restart — and a retried request returns
the original reply (marked ``"replayed": true``) instead of double-issuing
points or double-counting observations.

Verbs: ``ping``, ``create``, ``ask``, ``tell``, ``status``, ``list``,
``metrics``, ``suspend``, ``resume``, ``close``, ``stop``.
"""

from __future__ import annotations

import collections
import pathlib
import re
import selectors
import threading
import time

import numpy as np

from repro.core.bo import consume, refill, shutdown_pool
from repro.core.campaign import (
    Campaign,
    CampaignError,
    make_campaign,
    read_campaign_journal,
    resume_campaign,
)
from repro.core.recovery import reconcile, resolve_problem, workers_needed
from repro.distributed.protocol import PROTOCOL_VERSION, ProtocolError, result_from_dict
from repro.distributed.transport import ConnectionClosed, FramedConnection, listen
from repro.obs import NULL_OBS
from repro.sched import pool_factory_by_name

__all__ = ["CampaignServer", "WorkerLeaseRegistry", "ServerError"]

#: Bound on each campaign's idempotent reply cache.  Retries arrive within a
#: client's backoff horizon — a handful of round-trips — so a few hundred
#: remembered replies is already generous; the bound keeps a long campaign's
#: memory O(1).
REPLY_CACHE_LIMIT = 256

#: Verbs with side effects whose replies are cached under ``request_id``.
_IDEMPOTENT_VERBS = frozenset(("create", "ask", "tell"))

#: A campaign id.  A client-sent id must match before a journal path is
#: built from it, and the restart scan reads only ``<id>.journal`` files.
_CAMPAIGN_ID = re.compile(r"c[0-9]+")

#: The journal records that set a campaign's state; the last one wins.
_STATE_OF = {
    "campaign_resume": "active",
    "campaign_suspend": "suspended",
    "campaign_fail": "failed",
    "campaign_end": "finished",
}


def _last_state(events: list[dict]) -> dict:
    """A journal's last state record; one with none is live."""
    for event in reversed(events):
        if event.get("type") in _STATE_OF:
            return event
    return {"type": "campaign_resume"}


class ServerError(RuntimeError):
    """A request the server understood but must refuse."""


class LeaseShortfall(ServerError):
    """Too few free workers for a server-evaluated campaign; retry later."""


class WorkerLeaseRegistry:
    """Caps the total number of evaluation workers leased across campaigns.

    The server hosts tens-to-hundreds of campaigns on one machine; letting
    each spin up its own full-size pool would oversubscribe it immediately.
    Each server-evaluated campaign leases workers here at creation and the
    lease returns on finish/suspend, so the sum of live pool sizes never
    exceeds ``capacity``.  A ``None`` capacity disables the cap.
    """

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.capacity = capacity
        self._leases: dict[str, int] = {}

    @property
    def leased(self) -> int:
        return sum(self._leases.values())

    @property
    def available(self) -> int | None:
        if self.capacity is None:
            return None
        return max(self.capacity - self.leased, 0)

    def lease(self, campaign_id: str, requested: int) -> int:
        """Grant up to ``requested`` workers; raises when none are free."""
        if requested < 1:
            raise ValueError("requested must be >= 1")
        if campaign_id in self._leases:
            raise ServerError(f"campaign {campaign_id!r} already holds a lease")
        granted = requested if self.capacity is None else min(
            requested, self.available
        )
        if granted < 1:
            raise LeaseShortfall(
                f"no worker capacity available ({self.leased}/{self.capacity} "
                "leased); retry after a campaign finishes"
            )
        self._leases[campaign_id] = granted
        return granted

    def release(self, campaign_id: str) -> None:
        """Return a campaign's lease (idempotent)."""
        self._leases.pop(campaign_id, None)


class _ReplyCache:
    """Bounded ``request_id -> reply payload`` map (insertion-evicting)."""

    def __init__(self, limit: int = REPLY_CACHE_LIMIT):
        self.limit = int(limit)
        self._replies: "collections.OrderedDict[str, dict]" = (
            collections.OrderedDict()
        )

    def get(self, request_id: str) -> dict | None:
        return self._replies.get(request_id)

    def put(self, request_id: str, payload: dict) -> None:
        self._replies[request_id] = payload
        while len(self._replies) > self.limit:
            self._replies.popitem(last=False)

    def __len__(self) -> int:
        return len(self._replies)


class _Hosted:
    """One campaign under management: state, owner, and (optionally) a pool.

    ``campaign`` may be ``None`` for a *stub* — a campaign the restarted
    server knows about from its journal but has not (re)loaded: suspended
    and failed campaigns await their revival, finished ones only answer
    ``status``.
    """

    def __init__(self, campaign_id: str, campaign: Campaign | None, *,
                 label: str, problem_name: str,
                 owner: FramedConnection | None):
        self.id = campaign_id
        self.campaign = campaign
        self.label = label
        self.problem_name = problem_name
        self.owner = owner
        self.pool = None
        self.n_workers = 0
        self.state = "active"  # active | finished | suspended | failed
        self.error: str | None = None
        #: Suspension the campaign's client did not ask for (disconnect,
        #: server shutdown): a retried ask/tell revives it transparently.
        self.auto_resumable = False
        self.replies = _ReplyCache()

    @property
    def evaluating(self) -> bool:
        return self.pool is not None


class CampaignServer:
    """Serve many concurrent ask/tell campaigns over the framed socket RPC.

    Parameters
    ----------
    host / port:
        Listening address; port 0 binds an ephemeral port, read it back
        from :attr:`port`.
    journal_dir:
        Directory for the per-campaign write-ahead journals.  On start
        every ``c<N>.journal`` in it is read and every live campaign is
        recovered to bit-exact state.  A directory holding a
        ``server.manifest`` (written by an older server) is refused.
        ``None`` disables journaling (campaigns are then not
        crash-resumable).
    max_workers:
        Capacity of the shared :class:`WorkerLeaseRegistry` for
        server-evaluated campaigns.
    obs:
        Optional :class:`~repro.obs.Observability` facade; the server feeds
        the ``campaign.*`` counters (creates, asks, tells, suspends,
        resumes, finishes, errors), the ``rpc.*`` idempotency counters
        (retries, replayed_replies), and the ``server.*`` gauges (uptime,
        recoveries, frame_corruptions), and hands itself to hosted
        campaigns.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        journal_dir=None,
        max_workers: int | None = None,
        obs=None,
    ):
        self.journal_dir = None if journal_dir is None else pathlib.Path(journal_dir)
        self.leases = WorkerLeaseRegistry(max_workers)
        self.obs = obs if obs is not None else NULL_OBS
        self._campaigns: dict[str, _Hosted] = {}
        self._next_id = 0
        self._stopping = False
        self._aborted = False
        self._started_at = time.monotonic()
        self.recoveries = 0
        self.rpc_retries = 0
        self.rpc_replayed_replies = 0
        self.frame_corruptions = 0
        self._create_replies = _ReplyCache(limit=4 * REPLY_CACHE_LIMIT)
        if self.journal_dir is not None:
            self.journal_dir.mkdir(parents=True, exist_ok=True)
            self._recover()
        self._selector = selectors.DefaultSelector()
        self._listener, self.port = listen(host, port)
        self.host = host
        self._selector.register(self._listener, selectors.EVENT_READ, "accept")
        self._connections: list[FramedConnection] = []

    # ------------------------------------------------------------- lifecycle
    def serve_forever(self, poll_interval: float = 0.05) -> None:
        """Run the event loop until :meth:`stop` (or a ``stop`` verb)."""
        while not self._stopping:
            self.step(poll_interval)
        self._shutdown()

    def step(self, timeout: float = 0.0) -> None:
        """One event-loop pass: socket events, then server-side evaluation."""
        try:
            events = self._selector.select(max(timeout, 0.0))
        except OSError:  # pragma: no cover - selector raced a close
            events = []
        for key, _mask in events:
            if key.data == "accept":
                self._accept()
            else:
                self._read_client(key.data)
        self._drive_evaluating()

    def stop(self) -> None:
        """Ask the event loop to exit after the current pass."""
        self._stopping = True

    def abort(self) -> None:
        """Simulate kill -9: exit *without* any suspend/journal bookkeeping.

        On-disk journals stay exactly as the crash left them — no
        ``campaign_suspend``, no ``campaign_end`` records — which is what a
        SIGKILL'd process leaves behind; a new server on the same
        ``journal_dir`` must recover from that state alone.  (Unlike a real
        kill -9 the worker pools *are* reaped, purely so tests and the
        chaos bench never leak OS processes; pool shutdown touches no
        journal.)
        """
        self._aborted = True
        self._stopping = True

    def _shutdown(self) -> None:
        """Suspend every campaign and release every socket (idempotent)."""
        if self._aborted:
            for hosted in self._campaigns.values():
                shutdown_pool(hosted.pool)
                hosted.pool = None
        else:
            for hosted in list(self._campaigns.values()):
                if hosted.state == "active":
                    self._suspend(hosted, reason="server shutdown", auto=True)
        for conn in list(self._connections):
            if self._aborted:
                conn.close()
            else:
                self._drop_client(conn)
        self._connections.clear()
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._listener.close()
        self._selector.close()

    close = stop

    # --------------------------------------------------------------- recovery
    def _recover(self) -> None:
        """Rebuild the campaign table from the journals in ``journal_dir``.

        Each ``c<N>.journal`` is one campaign, and the last of its
        ``campaign_end`` / ``campaign_suspend`` / ``campaign_fail`` /
        ``campaign_resume`` records decides its state.  Finished, failed
        and suspended campaigns become stubs (revived on demand); every
        other one — including campaigns the crash caught mid-``ask`` — is
        replayed from its journal to bit-exact state, with leases
        re-registered for server-evaluated campaigns and their pools
        reconciled.  A journal that cannot be read degrades its campaign to
        ``failed`` without taking the rest down; one that cannot lease the
        workers it needs waits as a suspended stub for ``resume`` (or the
        next restart).  An empty file holds no campaign: a create killed
        between opening its journal and writing ``campaign_start`` leaves
        one.
        """
        manifest = self.journal_dir / "server.manifest"
        if manifest.exists():
            raise ServerError(
                f"{manifest} was written by an older server, which kept "
                "campaign suspends and failures there; finish its campaigns "
                "with the release that wrote it"
            )
        paths = [
            path for path in self.journal_dir.glob("c*.journal")
            if _CAMPAIGN_ID.fullmatch(path.stem) and path.stat().st_size
        ]
        for path in sorted(paths, key=lambda path: int(path.stem[1:])):
            campaign_id = path.stem
            self._next_id = max(self._next_id, int(campaign_id[1:]) + 1)
            try:
                events = read_campaign_journal(path)
            except Exception as exc:  # noqa: BLE001 — degrade this one only
                self._unrecoverable(campaign_id, {}, exc)
                continue
            start, last = events[0], _last_state(events)
            if start.get("request_id") is not None:
                self._create_replies.put(
                    start["request_id"],
                    {"ok": True, "campaign": campaign_id,
                     "n_workers": int(start.get("n_workers", 0))},
                )
            state = _STATE_OF[last["type"]]
            if state != "active":
                stub = self._stub(campaign_id, start, state,
                                  error=last.get("reason", last.get("error")))
                stub.auto_resumable = bool(last.get("auto", False))
                continue
            try:
                self._load_campaign(campaign_id, owner=None, events=events)
                self.recoveries += 1
            except LeaseShortfall as exc:  # the journal keeps it live: retried
                self._stub(campaign_id, start, "suspended", error=str(exc))
            except Exception as exc:  # noqa: BLE001 — degrade this one only
                self._unrecoverable(campaign_id, start, exc)

    def _unrecoverable(self, campaign_id: str, start: dict, exc: Exception) -> None:
        self._stub(campaign_id, start, "failed",
                   error=f"unrecoverable journal: {type(exc).__name__}: {exc}")
        self.obs.inc("campaign.errors")

    def _stub(self, campaign_id: str, start: dict, state: str, *,
              error: str | None = None) -> _Hosted:
        """A campaign known from its ``campaign_start`` record, not loaded."""
        hosted = _Hosted(
            campaign_id, None,
            label=str(start.get("label", start.get("algorithm", "?"))),
            problem_name=str(start.get("problem", "?")),
            owner=None,
        )
        hosted.state = state
        hosted.error = error
        self._campaigns[campaign_id] = hosted
        return hosted

    def _load_campaign(self, campaign_id: str, *,
                       owner: FramedConnection | None,
                       events: list[dict] | None = None) -> _Hosted:
        """Resume a campaign from its journal into the active table.

        The shared path behind startup recovery, the ``resume`` verb, and
        the transparent revival of auto-resumable suspensions: replays the
        journal to bit-exact state, rebuilds the idempotent reply cache from
        the journaled request ids, and re-leases workers for the campaigns
        whose ``campaign_start`` names a pool (the server-evaluated ones).
        Their points were in flight on a pool that no longer exists:
        :func:`~repro.core.recovery.reconcile` puts them through the orphan
        rule exactly as at a driver resume.  A revival refused its workers
        journals its last state again, so a restart finds the campaign as
        the refusal left it.
        """
        path = self._journal_path(campaign_id)
        if path is None or not path.exists():
            raise ServerError(
                f"campaign {campaign_id!r} has no journal to resume from"
            )
        if events is None:
            events = read_campaign_journal(path)
        campaign = resume_campaign(path)
        campaign.obs = self.obs
        start = events[0]
        hosted = _Hosted(
            campaign_id, campaign,
            label=str(start.get("label", campaign.algorithm)),
            problem_name=campaign.problem.name, owner=owner,
        )
        if "pool" in start:
            try:
                self._attach_pool(hosted, int(start["n_workers"]), start["pool"],
                                  events)
            except Exception:
                last = _last_state(events)
                campaign.close(None if _STATE_OF[last["type"]] == "active" else last)
                raise
        self._campaigns[campaign_id] = hosted
        self._rebuild_replies(hosted, events)
        self.obs.inc("campaign.resumes")
        return hosted

    def _attach_pool(self, hosted: _Hosted, requested: int, backend: str,
                     events=()) -> None:
        """Lease workers and build the campaign's evaluation pool.

        Every server-evaluated campaign gets its pool here, reconciled with
        the journal ``events`` on recovery.  A grant below
        :func:`~repro.core.recovery.workers_needed` is refused before any
        journal write; a refusal or a failed pool returns the lease.
        """
        campaign = hosted.campaign
        granted = self.leases.lease(hosted.id, requested)
        try:
            needed = workers_needed(campaign, events)
            if granted < needed:
                raise LeaseShortfall(
                    f"{hosted.label!r} needs {needed} workers at once; "
                    f"{granted} available"
                )
            hosted.pool = pool_factory_by_name(backend)(
                campaign.problem, granted, policy=campaign.failure_policy,
            )
            if events:
                reconcile(campaign, hosted.pool, events, self.obs)
        except Exception:
            self._release_pool(hosted)
            raise
        hosted.n_workers = granted

    def _rebuild_replies(self, hosted: _Hosted, events: list[dict]) -> None:
        """Rebuild the reply cache from the journaled request ids.

        The journal *is* the durable reply cache: every ask/tell that was
        applied carries its ``request_id``, so a retry that raced a server
        crash still replays the original answer instead of hitting a
        "not pending" error or double-issuing points.
        """
        for event in events:
            request_id = event.get("request_id")
            if not request_id:
                continue
            kind = event.get("type")
            if kind == "ask":
                hosted.replies.put(
                    request_id, {"ok": True, "points": event["points"]}
                )
            elif kind == "tell":
                hosted.replies.put(
                    request_id,
                    {"ok": True, "action": event.get("action"),
                     "done": bool(event.get("done", False))},
                )

    # ----------------------------------------------------------- connections
    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except BlockingIOError:
                return
            except OSError:
                return
            conn = FramedConnection(sock)
            self._connections.append(conn)
            self._selector.register(conn, selectors.EVENT_READ, conn)

    def _drop_client(self, conn: FramedConnection) -> None:
        """Remove a client; suspend the campaigns it owned (pool reaped)."""
        try:
            self._selector.unregister(conn)
        except (KeyError, ValueError):
            pass
        conn.close()
        if conn in self._connections:
            self._connections.remove(conn)
        for hosted in self._campaigns.values():
            if hosted.owner is conn:
                hosted.owner = None
                if hosted.state == "active":
                    self._suspend(hosted, reason="client disconnected",
                                  auto=True)

    def _read_client(self, conn: FramedConnection) -> None:
        try:
            frames = conn.receive_available()
        except ProtocolError:
            # A corrupt frame poisons only this connection's byte stream:
            # drop the client, keep serving everyone else.
            self.frame_corruptions += 1
            self.obs.inc("server.frame_corruptions")
            self._drop_client(conn)
            return
        except (ConnectionClosed, OSError):
            self._drop_client(conn)
            return
        for frame in frames:
            self._handle_request(conn, frame)
        if conn.closed:
            self._drop_client(conn)

    # -------------------------------------------------------------- requests
    def _handle_request(self, conn: FramedConnection, request: dict) -> None:
        seq = request.get("seq")
        verb = request.get("verb")
        request_id = request.get("request_id")
        if request.get("attempt"):
            self.rpc_retries += 1
            self.obs.inc("rpc.retries")
        handler = getattr(self, f"_verb_{verb}", None)
        try:
            if verb in ("ask", "tell"):
                # Revive before the cache lookup: the revival *rebuilds* the
                # reply cache from the journal, and a retry whose original
                # ask raced a crash must find its cached answer there.
                self._admit_client_verb(request.get("campaign"), conn)
            cached = self._cached_reply(verb, request_id, request)
            if cached is not None:
                self.rpc_replayed_replies += 1
                self.obs.inc("rpc.replayed_replies")
                payload = {**cached, "replayed": True}
            else:
                if handler is None:
                    raise ServerError(f"unknown verb {verb!r}")
                payload = handler(conn, request)
                payload = {"ok": True, **(payload or {})}
                self._store_reply(verb, request_id, request, payload)
        except Exception as exc:  # noqa: BLE001 — every failure becomes a response
            self.obs.inc("campaign.errors")
            payload = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        payload["seq"] = seq
        if request_id is not None:
            payload["request_id"] = request_id
        try:
            conn.send(payload)
        except (ConnectionClosed, OSError):
            self._drop_client(conn)

    def _cached_reply(self, verb, request_id, request) -> dict | None:
        if request_id is None or verb not in _IDEMPOTENT_VERBS:
            return None
        if verb == "create":
            return self._create_replies.get(request_id)
        hosted = self._campaigns.get(request.get("campaign"))
        if hosted is None:
            return None
        return hosted.replies.get(request_id)

    def _store_reply(self, verb, request_id, request, payload: dict) -> None:
        if request_id is None or verb not in _IDEMPOTENT_VERBS:
            return
        if verb == "create":
            self._create_replies.put(request_id, dict(payload))
            return
        hosted = self._campaigns.get(request.get("campaign"))
        if hosted is not None:
            hosted.replies.put(request_id, dict(payload))

    def _get(self, campaign_id, *, state: str | None = "active") -> _Hosted:
        hosted = self._campaigns.get(campaign_id)
        if hosted is None:
            raise ServerError(f"unknown campaign {campaign_id!r}")
        if state is not None and hosted.state != state:
            raise ServerError(
                f"campaign {campaign_id!r} is {hosted.state}, not {state}"
            )
        return hosted

    def _admit_client_verb(self, campaign_id, conn) -> None:
        """Ready the campaign a client ``ask``/``tell`` names, or refuse it.

        Disconnect- and shutdown-suspensions are bookkeeping, not intent: a
        reconnected client retrying an ``ask``/``tell`` should find its
        campaign exactly where it left it, without knowing the server
        suspended (or restarted) in between, so it revives transparently.
        A server-evaluated campaign refuses both verbs: the server asks and
        tells for it.
        """
        hosted = self._campaigns.get(campaign_id)
        if (
            hosted is not None
            and hosted.state == "suspended"
            and hosted.auto_resumable
        ):
            hosted = self._load_campaign(campaign_id, owner=conn)
        if hosted is not None and hosted.evaluating:
            raise ServerError(
                f"campaign {hosted.id!r} is server-evaluated; poll status "
                "instead of asking"
            )

    def _journal_path(self, campaign_id):
        """``campaign_id``'s journal; an id that is not ``c<digits>`` is refused."""
        if not _CAMPAIGN_ID.fullmatch(str(campaign_id)):
            raise ServerError(f"invalid campaign id {campaign_id!r}")
        if self.journal_dir is None:
            return None
        return self.journal_dir / f"{campaign_id}.journal"

    # ----------------------------------------------------------------- verbs
    def _verb_ping(self, conn, request) -> dict:
        return {"pong": True, "protocol": PROTOCOL_VERSION}

    def _verb_create(self, conn, request) -> dict:
        if "problem_spec" in request:
            # A spec may carry pickle bytes; unpickling client input would
            # let any client that can connect run code in the server.
            raise ServerError(
                "create does not accept 'problem_spec'; name a registered "
                "problem in 'problem'"
            )
        label = request.get("label", "EasyBO")
        problem = resolve_problem(request.get("problem", ""))
        campaign_id = f"c{self._next_id:04d}"
        self._next_id += 1
        config = dict(request.get("config", {}))
        # Top-level convenience mirroring the CLI flag; an explicit config
        # entry wins.  The policy also rides along in the campaign journal,
        # so a resumed campaign keeps it without the client re-sending it.
        if "pending_policy" in request:
            config.setdefault("pending_policy", request["pending_policy"])
        campaign = make_campaign(
            label,
            problem,
            journal=self._journal_path(campaign_id),
            obs=self.obs,
            **config,
        )
        hosted = _Hosted(
            campaign_id, campaign, label=label,
            problem_name=problem.name, owner=conn,
        )
        # What a restarted server needs rides on ``campaign_start``.
        fields = {"label": str(label)}
        if request.get("request_id") is not None:
            fields["request_id"] = request["request_id"]
        if request.get("evaluate"):
            backend = request.get("pool", "virtual")
            self._attach_pool(
                hosted, int(request.get("n_workers", campaign.batch_size)), backend,
            )
            fields.update(pool=backend, n_workers=hosted.n_workers)
        self._campaigns[campaign_id] = hosted
        # Journal campaign_start + doe before the client hears the id: a
        # create killed earlier leaves no campaign, and its retry makes it.
        # start() is idempotent, so the first ask sees the same design and
        # RNG stream either way.
        campaign.start(**fields)
        self.obs.inc("campaign.creates")
        return {"campaign": campaign_id, "n_workers": hosted.n_workers}

    def _verb_ask(self, conn, request) -> dict:
        hosted = self._get(request.get("campaign"))
        n = request.get("n")
        request_id = request.get("request_id")
        try:
            if n is None:
                points = [hosted.campaign.ask(request_id=request_id)]
            else:
                points = hosted.campaign.ask(int(n), request_id=request_id)
        except CampaignError as exc:  # refused before any state changed
            raise ServerError(str(exc)) from None
        except Exception as exc:
            self._fail(hosted, exc)
            raise
        return {"points": [[float(v) for v in p] for p in points]}

    def _verb_tell(self, conn, request) -> dict:
        hosted = self._get(request.get("campaign"))
        x = np.asarray(request["x"], dtype=float)
        result = result_from_dict(request["result"])
        try:
            action = hosted.campaign.tell(
                x, result, request_id=request.get("request_id")
            )
        except CampaignError as exc:  # refused before any state changed
            raise ServerError(str(exc)) from None
        except Exception as exc:
            self._fail(hosted, exc)
            raise
        if hosted.campaign.done:
            self._finish(hosted)
        return {"action": action, "done": hosted.state == "finished"}

    def _verb_status(self, conn, request) -> dict:
        hosted = self._get(request.get("campaign"), state=None)
        return {"status": self._status(hosted)}

    def _verb_list(self, conn, request) -> dict:
        return {
            "campaigns": [self._status(h) for h in self._campaigns.values()]
        }

    def _verb_metrics(self, conn, request) -> dict:
        states = [h.state for h in self._campaigns.values()]
        uptime = time.monotonic() - self._started_at
        registry = self.obs.metrics
        if registry is not None:
            registry.set_gauge("server.uptime_seconds", uptime)
            registry.set_counter("server.recoveries", self.recoveries)
        metrics = {
            "campaigns": len(self._campaigns),
            "active": states.count("active"),
            "finished": states.count("finished"),
            "suspended": states.count("suspended"),
            "failed": states.count("failed"),
            "workers_leased": self.leases.leased,
            "worker_capacity": self.leases.capacity,
            "uptime_seconds": uptime,
            "recoveries": self.recoveries,
            "rpc_retries": self.rpc_retries,
            "rpc_replayed_replies": self.rpc_replayed_replies,
            "frame_corruptions": self.frame_corruptions,
        }
        if registry is not None:
            metrics["registry"] = registry.as_dict()
        return {"metrics": metrics}

    def _verb_suspend(self, conn, request) -> dict:
        hosted = self._get(request.get("campaign"), state=None)
        if hosted.state == "suspended":
            return {"state": hosted.state}  # idempotent for retries
        if hosted.state != "active":
            raise ServerError(
                f"campaign {hosted.id!r} is {hosted.state}, not active"
            )
        self._suspend(hosted, reason="suspended by client", auto=False)
        return {"state": hosted.state}

    def _verb_resume(self, conn, request) -> dict:
        campaign_id = request.get("campaign")
        hosted = self._campaigns.get(campaign_id)
        if hosted is None or hosted.state != "active":
            hosted = self._load_campaign(campaign_id, owner=conn)
        else:
            # Idempotent: a retried resume whose reply was lost finds the
            # campaign already active and just reads it back.
            hosted.owner = conn
        # Keep ids monotonic across resumes of journals from a prior server.
        self._next_id = max(self._next_id, int(campaign_id[1:]) + 1)
        return {
            "campaign": campaign_id,
            "pending": [[float(v) for v in p] for p in hosted.campaign.pending],
            "status": self._status(hosted),
        }

    def _verb_close(self, conn, request) -> dict:
        hosted = self._get(request.get("campaign"), state=None)
        if hosted.state == "active":
            self._finish(hosted)
        return {"state": hosted.state}

    def _verb_stop(self, conn, request) -> dict:
        self.stop()
        return {"stopping": True}

    # ----------------------------------------------------- state transitions
    def _status(self, hosted: _Hosted) -> dict:
        campaign = hosted.campaign
        if campaign is None:
            # A stub: known from its journal, not (re)loaded.  Budget
            # numbers live in the journal; state and identity suffice here.
            return {
                "campaign": hosted.id,
                "label": hosted.label,
                "algorithm": None,
                "problem": hosted.problem_name,
                "state": hosted.state,
                "issued": None,
                "max_evals": None,
                "n_pending": None,
                "n_observations": None,
                "exhausted": None,
                "done": hosted.state == "finished",
                "evaluating": False,
                "n_workers": 0,
                "best_fom": None,
                "error": hosted.error,
            }
        best = campaign.best()
        return {
            "campaign": hosted.id,
            "label": hosted.label,
            "algorithm": campaign.algorithm,
            "problem": hosted.problem_name,
            "state": hosted.state,
            "issued": int(campaign.issued),
            "max_evals": int(campaign.max_evals),
            "n_pending": campaign.n_pending,
            "n_observations": campaign.n_observations,
            "exhausted": campaign.exhausted,
            "done": campaign.done,
            "evaluating": hosted.evaluating,
            "n_workers": hosted.n_workers,
            "best_fom": None if best is None else float(best[1]),
            "error": hosted.error,
        }

    def _release_pool(self, hosted: _Hosted) -> None:
        """Reap the pool and return the lease — the no-leak choke point."""
        shutdown_pool(hosted.pool)
        hosted.pool = None
        self.leases.release(hosted.id)

    def _suspend(self, hosted: _Hosted, *, reason: str, auto: bool) -> None:
        self._release_pool(hosted)
        hosted.state = "suspended"
        hosted.error = reason
        hosted.auto_resumable = auto
        # The journal stays on disk, resumable, and says why it stopped.
        hosted.campaign.close(
            {"type": "campaign_suspend", "reason": reason, "auto": auto}
        )
        self.obs.inc("campaign.suspends")

    def _finish(self, hosted: _Hosted) -> None:
        self._release_pool(hosted)
        hosted.state = "finished"
        hosted.campaign.finish()
        self.obs.inc("campaign.finishes")

    def _fail(self, hosted: _Hosted, exc: Exception) -> None:
        """An ask/tell blew up: reap the pool, keep the journal for triage."""
        hosted.error = f"{type(exc).__name__}: {exc}"
        self._release_pool(hosted)
        hosted.state = "failed"
        hosted.campaign.close({"type": "campaign_fail", "error": hosted.error})

    # -------------------------------------------------- server-side driving
    def _drive_evaluating(self) -> None:
        """Advance every server-evaluated campaign without blocking.

        Each pass takes the drivers' loop step from ``poll()``: refill, then
        fold in at most ``n_workers`` completions, each consumed and followed
        by a refill — on the virtual pool exactly the driver's asks and
        tells.  Work is bounded per pass so one campaign cannot starve the
        socket loop.
        """
        for hosted in list(self._campaigns.values()):
            if hosted.state != "active" or not hosted.evaluating:
                continue
            campaign, pool = hosted.campaign, hosted.pool
            try:
                refill(campaign, pool, self.obs)
                for _ in range(hosted.n_workers):
                    completion = pool.poll()
                    if completion is None:
                        break
                    consume(campaign, pool, self.obs, completion)
                    refill(campaign, pool, self.obs)
                if campaign.done:
                    self._finish(hosted)
            except Exception as exc:  # noqa: BLE001 — isolate per campaign
                self._fail(hosted, exc)
                self.obs.inc("campaign.errors")


def serve(host: str = "127.0.0.1", port: int = 0, *, journal_dir=None,
          max_workers: int | None = None, obs=None,
          background: bool = False):
    """Start a :class:`CampaignServer`; optionally on a daemon thread.

    Foreground (default): blocks in ``serve_forever`` until stopped.
    ``background=True`` returns the running server after its thread is up —
    the form the tests and the benchmark use.
    """
    server = CampaignServer(host=host, port=port, journal_dir=journal_dir,
                            max_workers=max_workers, obs=obs)
    if not background:
        server.serve_forever()
        return server
    thread = threading.Thread(target=server.serve_forever, daemon=True,
                              name="campaign-server")
    thread.start()
    server._thread = thread
    # Give the loop a beat to enter select() before callers dial in.
    time.sleep(0.01)
    return server
