"""Worker daemon: ``python -m repro.distributed.worker --connect HOST:PORT``.

One worker process hosts one evaluation slot.  On startup it dials the
supervisor, identifies itself (``hello``), receives the problem spec and
failure policy (``init``), and then loops: receive a ``task``, evaluate it
under the shared retry loop (:func:`repro.core.faults.run_with_policy` —
crashes and NaN outputs are contained and retried *inside* the worker, so
only genuine process death costs a respawn), and send the ``result`` back.

A background thread emits a ``heartbeat`` frame every
``heartbeat_interval`` seconds for the whole life of the process — also in
the middle of a long evaluation.  The supervisor therefore distinguishes a
*slow* worker (heartbeats flowing) from a *dead or frozen* one (silence),
and only the latter is expired into the orphan path.

The worker's lifetime is tied to its supervisor: any failure to read from
or write to the socket — including the supervisor process dying — ends the
daemon, so an abandoned fleet reaps itself instead of leaving zombies.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time

import numpy as np

from repro.core.faults import FailurePolicy, run_with_policy
from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    load_problem,
    result_to_dict,
)
from repro.distributed.transport import ConnectionClosed, FramedConnection, connect

__all__ = ["run_worker", "main"]


class _Heartbeat(threading.Thread):
    """Emit heartbeat frames until stopped; die with the supervisor."""

    def __init__(self, conn: FramedConnection, send_lock: threading.Lock,
                 worker_id: int, interval: float):
        super().__init__(daemon=True, name=f"heartbeat-{worker_id}")
        self.conn = conn
        self.send_lock = send_lock
        self.worker_id = worker_id
        self.interval = interval
        self.busy_index: int | None = None
        self._stop = threading.Event()

    def run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                with self.send_lock:
                    self.conn.send(
                        {
                            "type": "heartbeat",
                            "worker_id": self.worker_id,
                            "index": self.busy_index,
                        }
                    )
            except (ConnectionClosed, OSError):
                # Supervisor is gone.  The main thread may be deep inside a
                # long evaluation; exit the whole process rather than letting
                # an orphaned simulation burn CPU for nobody.
                os._exit(0)

    def stop(self) -> None:
        self._stop.set()


def run_worker(host: str, port: int, worker_id: int) -> int:
    """Daemon body; returns a process exit code."""
    conn = connect(host, port)
    send_lock = threading.Lock()
    conn.send({"type": "hello", "worker_id": worker_id, "pid": os.getpid(),
               "protocol": PROTOCOL_VERSION})
    init = conn.recv()
    if init is None:
        return 0  # supervisor vanished before the handshake completed
    if init.get("type") != "init":
        raise ProtocolError(f"expected init, got {init.get('type')!r}")
    if init.get("protocol") != PROTOCOL_VERSION:
        conn.send({"type": "error",
                   "message": f"protocol mismatch: supervisor "
                              f"{init.get('protocol')}, worker {PROTOCOL_VERSION}"})
        return 1
    try:
        problem = load_problem(init["problem"])
        policy = FailurePolicy(**init.get("policy", {}))
    except Exception as exc:  # noqa: BLE001 — report load failures, don't die silently
        with send_lock:
            conn.send({"type": "error",
                       "message": f"{type(exc).__name__}: {exc}"})
        return 1

    heartbeat = _Heartbeat(conn, send_lock, worker_id,
                           float(init.get("heartbeat_interval", 0.5)))
    heartbeat.start()
    try:
        while True:
            try:
                message = conn.recv()
            except (ConnectionClosed, OSError):
                return 0
            if message is None or message.get("type") == "shutdown":
                return 0
            if message.get("type") != "task":
                continue  # future-proofing: ignore unknown frames
            index = int(message["index"])
            heartbeat.busy_index = index
            with send_lock:
                conn.send({"type": "started", "index": index,
                           "worker_id": worker_id})
            x = np.asarray(message["x"], dtype=float)
            result, attempts, elapsed = run_with_policy(
                problem, x, policy, sleep=time.sleep
            )
            heartbeat.busy_index = None
            with send_lock:
                conn.send(
                    {
                        "type": "result",
                        "index": index,
                        "worker_id": worker_id,
                        "result": result_to_dict(result),
                        "attempts": int(attempts),
                        "elapsed": float(elapsed),
                    }
                )
    finally:
        heartbeat.stop()
        conn.close()


def main(argv=None) -> int:
    """Parse ``--connect``/``--worker-id`` and serve one evaluation slot until
    the supervisor goes away; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.distributed.worker", description=__doc__
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="supervisor RPC endpoint")
    parser.add_argument("--worker-id", type=int, required=True)
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    try:
        return run_worker(host or "127.0.0.1", int(port), args.worker_id)
    except (ConnectionClosed, ConnectionError, OSError):
        return 0  # supervisor gone; a clean death, not an error


if __name__ == "__main__":
    sys.exit(main())
