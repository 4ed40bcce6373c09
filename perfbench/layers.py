"""Per-layer tracing for the traced benchmark pass.

Everything here lives outside the program: spans are recorded by wrapping
the public entry points of each layer (the names ``repro.circuits.opamp`` /
``classe`` and ``repro.spice.transient`` import, the ``Campaign`` and
``SurrogateSession`` methods, ``JournalWriter.append``, the RPC client verbs
and ``FramedConnection``'s framing) and by switching on the program's own
``Observability`` hooks (its ``fit`` / ``hallucinate`` /
``acquisition-maximize`` spans and the ``acquisition.*`` counters of a
``MetricsRegistry``).  No wrapper is installed in an untraced pass.

Spans go to the program's existing :class:`repro.obs.Tracer`, one per
thread with an in-memory list as its sink, so the campaign server's thread
and the client's thread each keep a well-nested stack.  A span's self time
is its wall time minus the wall time of the spans it directly contains.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import threading

from repro.circuits import classe as classe_module
from repro.circuits import opamp as opamp_module
from repro.core.campaign import Campaign
from repro.core.journal import JournalWriter
from repro.core.surrogate import SurrogateSession
from repro.distributed import transport
from repro.distributed.client import CampaignClient
from repro.obs import NULL_TRACER, MetricsRegistry, Observability, Tracer
from repro.spice import SpiceError
from repro.spice import transient as transient_module


class ThreadTracers:
    """A tracer facade that keeps one :class:`Tracer` per thread in memory."""

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._sinks: dict[int, tuple[Tracer, list]] = {}
        self.recording = False

    def span(self, name: str, **attrs):
        if not self.recording:
            return NULL_TRACER.span(name)
        ident = threading.get_ident()
        entry = self._sinks.get(ident)
        if entry is None:
            records: list = []
            entry = (Tracer(records), records)
            with self._lock:
                self._sinks[ident] = entry
        return entry[0].span(name, **attrs)

    def clear(self) -> None:
        """Drop the spans recorded so far (no span may be open)."""
        with self._lock:
            for _, records in self._sinks.values():
                del records[:]

    def span_records(self) -> list[list[dict]]:
        """Closed spans, one list per thread."""
        with self._lock:
            return [
                [r for r in records if r.get("type") == "span"]
                for _, records in self._sinks.values()
            ]


class Counts:
    """Thread-safe work counters kept next to the spans."""

    def __init__(self):
        self._lock = threading.Lock()
        self.values: collections.Counter = collections.Counter()
        self.recording = False

    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            if self.recording:
                self.values[name] += n

    def clear(self) -> None:
        with self._lock:
            self.values.clear()


class Instruments:
    """Spans, counters and the program's own hooks for one traced pass."""

    def __init__(self):
        self.tracers = ThreadTracers()
        self.counts = Counts()
        self.registry = MetricsRegistry()
        self.obs = Observability(tracer=self.tracers)
        self.campaigns: list[Campaign] = []

    def start(self) -> None:
        """Record afresh from here (called when the measured loop starts)."""
        self.tracers.clear()
        self.counts.clear()
        self.registry = MetricsRegistry()
        self.obs.metrics = self.registry
        self.tracers.recording = self.counts.recording = True

    def stop(self) -> None:
        """Stop recording (called when the measured loop ends)."""
        self.tracers.recording = self.counts.recording = False
        self.obs.metrics = None

    def span(self, name: str, **attrs):
        return self.tracers.span(name, **attrs)

    # ------------------------------------------------------------ wrappers
    def _timed(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.tracers.span(name):
                try:
                    out = fn(*args, **kwargs)
                except SpiceError as exc:
                    # Nested spice spans see the same error; count it once.
                    if not getattr(exc, "counted_by_perfbench", False):
                        exc.counted_by_perfbench = True
                        self.counts.add("spice.errors")
                    raise
            if after is not None:
                after(out)
            return out

        return wrapper

    def _scorer_factory(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def acquisition_on_unit(session, *args, **kwargs):
            scorer = fn(session, *args, **kwargs)

            def counted(U):
                rows = len(U)
                if rows == 1:
                    counts.add("acqmax.polish_evals")
                else:
                    counts.add("acqmax.sweep_rows", rows)
                return scorer(U)

            return counted

        return acquisition_on_unit

    def _campaign_method(self, name: str, fn):
        @functools.wraps(fn)
        def method(campaign, *args, **kwargs):
            if campaign not in self.campaigns:
                self.campaigns.append(campaign)
            with self.tracers.span(name):
                return fn(campaign, *args, **kwargs)

        return method

    def _frame_record(self, fn):
        @functools.wraps(fn)
        def frame_record(record):
            frame = fn(record)
            self.counts.add("rpc.frames")
            self.counts.add("rpc.bytes", len(frame))
            return frame

        return frame_record

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer boundary for the duration of the block."""
        counts = self.counts
        patches = [
            (opamp_module, "build_opamp",
             self._timed("spice.build", opamp_module.build_opamp)),
            (opamp_module, "dc_operating_point",
             self._timed("spice.dc", opamp_module.dc_operating_point,
                         lambda op: counts.add("spice.dc_newton_iters", op.iterations))),
            (opamp_module, "ac_analysis",
             self._timed("spice.ac", opamp_module.ac_analysis)),
            (opamp_module, "bode_metrics",
             self._timed("spice.post", opamp_module.bode_metrics)),
            (classe_module, "build_classe",
             self._timed("spice.build", classe_module.build_classe)),
            (classe_module, "transient_analysis",
             self._timed("spice.tran", classe_module.transient_analysis,
                         lambda res: counts.add("spice.tran_points", len(res.t)))),
            (classe_module, "fundamental_power",
             self._timed("spice.post", classe_module.fundamental_power)),
            (classe_module, "average_power",
             self._timed("spice.post", classe_module.average_power)),
            (transient_module, "dc_operating_point",
             self._timed("spice.dc", transient_module.dc_operating_point,
                         lambda op: counts.add("spice.dc_newton_iters", op.iterations))),
            (Campaign, "ask", self._campaign_method("campaign.ask", Campaign.ask)),
            (Campaign, "tell", self._campaign_method("campaign.tell", Campaign.tell)),
            (SurrogateSession, "acquisition_on_unit",
             self._scorer_factory(SurrogateSession.acquisition_on_unit)),
            (SurrogateSession, "snapshot",
             self._timed("surrogate.snapshot", SurrogateSession.snapshot)),
            (JournalWriter, "append",
             self._timed("journal.append", JournalWriter.append)),
            (CampaignClient, "ask", self._timed("rpc.ask", CampaignClient.ask)),
            (CampaignClient, "tell", self._timed("rpc.tell", CampaignClient.tell)),
            (transport, "frame_record", self._frame_record(transport.frame_record)),
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)


# ---------------------------------------------------------------- folding
def span_totals(per_thread: list[list[dict]]) -> dict[str, dict]:
    """Calls, wall and self seconds per span name, summed over threads."""
    totals: dict[str, dict] = {}
    for records in per_thread:
        child_wall: dict[int, float] = collections.defaultdict(float)
        for r in records:
            if r["parent"] is not None:
                child_wall[r["parent"]] += r["wall"]
        for r in records:
            row = totals.setdefault(r["name"], {"calls": 0, "wall": 0.0, "self": 0.0,
                                                "attrs": collections.Counter()})
            row["calls"] += 1
            row["wall"] += r["wall"]
            row["self"] += r["wall"] - child_wall[r["id"]]
            for key, value in r.get("attrs", {}).items():
                if isinstance(value, (int, float)):
                    row["attrs"][key] += value
    return totals


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def per_layer_metrics(instruments: Instruments, *, n_evals: int, n_rpc_ops: int,
                      journal_bytes: int) -> tuple[dict[str, float], dict[str, dict]]:
    """Fold spans and counters of one traced pass into per-layer metrics.

    "Per ask" means per ask that ran the optimizer (one
    ``acquisition-maximize`` span each); initial-design asks do no model work.
    """
    totals = span_totals(instruments.tracers.span_records())
    counts = instruments.counts.values

    def wall(name):
        return totals.get(name, {}).get("wall", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def self_time(name):
        return totals.get(name, {}).get("self", 0.0)

    n_bo_asks = calls("acquisition-maximize")
    restarts = instruments.registry.counter("acquisition.polish_restarts")
    wins = instruments.registry.counter("acquisition.polish_improvements")
    server_side = wall("campaign.ask") + wall("campaign.tell")
    rpc_wall = wall("rpc.ask") + wall("rpc.tell")
    metrics = {
        "acqmax.ms_per_ask": 1e3 * _ratio(wall("acquisition-maximize"), n_bo_asks),
        "acqmax.sweep_rows_per_ask": _ratio(counts["acqmax.sweep_rows"], n_bo_asks),
        "acqmax.polish_evals_per_ask": _ratio(counts["acqmax.polish_evals"], n_bo_asks),
        "acqmax.polish_win_frac": _ratio(wins, restarts),
        "fit.ms_per_ask": 1e3 * _ratio(wall("fit"), n_bo_asks),
        "fit.ml2_fits": float(sum(c.session.stats.n_full_fits
                                  for c in instruments.campaigns)),
        "hallucinate.ms_per_ask": 1e3 * _ratio(wall("hallucinate"), n_bo_asks),
        "hallucinate.pending_rows_per_ask": _ratio(
            totals.get("hallucinate", {}).get("attrs", {}).get("k", 0), n_bo_asks),
        "surrogate.snapshot_ms": 1e3 * _ratio(wall("surrogate.snapshot"),
                                              calls("surrogate.snapshot")),
        "spice.build_ms": 1e3 * _ratio(wall("spice.build"), n_evals),
        "spice.dc_ms": 1e3 * _ratio(wall("spice.dc"), n_evals),
        "spice.dc_newton_iters": _ratio(counts["spice.dc_newton_iters"], n_evals),
        "spice.ac_ms": 1e3 * _ratio(wall("spice.ac"), n_evals),
        "spice.post_ms": 1e3 * _ratio(wall("spice.post"), n_evals),
        "spice.tran_ms": 1e3 * _ratio(self_time("spice.tran"), n_evals),
        "spice.tran_points": _ratio(counts["spice.tran_points"], n_evals),
        "spice.fail_frac": _ratio(counts["spice.errors"], n_evals),
        "journal.append_ms": 1e3 * _ratio(wall("journal.append"), calls("journal.append")),
        "journal.appends_per_op": _ratio(calls("journal.append"), n_rpc_ops),
        "journal.bytes_per_op": _ratio(journal_bytes, n_rpc_ops),
        "rpc.frames_per_op": _ratio(counts["rpc.frames"], n_rpc_ops),
        "rpc.bytes_per_op": _ratio(counts["rpc.bytes"], n_rpc_ops),
        "rpc.overhead_ms": 1e3 * _ratio(rpc_wall - server_side, n_rpc_ops),
        "campaign.ask_ms": 1e3 * _ratio(self_time("campaign.ask"), calls("campaign.ask")),
        "campaign.tell_ms": 1e3 * _ratio(self_time("campaign.tell"), calls("campaign.tell")),
    }
    if n_rpc_ops:
        # The client's round trip contains the server's work, which runs on
        # the server thread: subtract it so an rpc span's self time is the
        # transport and framing cost alone.
        for verb in ("ask", "tell"):
            row = totals.get(f"rpc.{verb}")
            if row is not None:
                row["self"] -= wall(f"campaign.{verb}")
    return metrics, totals
