"""Distributed evaluation: process workers behind the shared pool contract.

The subsystem's pieces:

* :mod:`~repro.distributed.protocol` — message vocabulary, portable
  problem specs, and idempotent request ids;
* :mod:`~repro.distributed.transport` — journal-framed messages over
  loopback TCP (corrupt frames raise :class:`FrameCorruptionError`);
* :mod:`~repro.distributed.worker` — the per-process evaluation daemon
  (``python -m repro.distributed.worker``);
* :mod:`~repro.distributed.pool` — :class:`ProcessWorkerPool`, the
  supervisor that presents the fleet through the same ``submit`` /
  ``wait_next`` contract as the virtual and thread pools;
* :mod:`~repro.distributed.server` — :class:`CampaignServer`, the
  multi-tenant ask/tell campaign host (``python -m repro serve``) whose
  only ledger is one journal per campaign: after a crash it reads them
  back and recovers every live campaign;
* :mod:`~repro.distributed.client` — :class:`CampaignClient`, the
  retrying idempotent RPC client for the server;
* :mod:`~repro.distributed.chaos` — :class:`ChaosProxy`, the seeded
  fault-injecting TCP relay the robustness suite drives everything
  through.
"""

from repro.distributed.chaos import ChaosConfig, ChaosProxy
from repro.distributed.client import (
    CampaignClient,
    CampaignRetriesExhausted,
    CampaignServerError,
)
from repro.distributed.pool import ProcessWorkerPool
from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    load_problem,
    make_request_id,
    problem_spec,
)
from repro.distributed.server import CampaignServer, ServerError, WorkerLeaseRegistry, serve
from repro.distributed.transport import (
    ConnectionClosed,
    FrameCorruptionError,
    FramedConnection,
)

__all__ = [
    "ProcessWorkerPool",
    "CampaignServer",
    "CampaignClient",
    "CampaignServerError",
    "CampaignRetriesExhausted",
    "ServerError",
    "WorkerLeaseRegistry",
    "serve",
    "ChaosConfig",
    "ChaosProxy",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "make_request_id",
    "problem_spec",
    "load_problem",
    "ConnectionClosed",
    "FrameCorruptionError",
    "FramedConnection",
]
