"""Framed-message transport over local TCP sockets.

:class:`FramedConnection` turns a stream socket into a message pipe using
the run journal's self-validating framing (:func:`repro.core.journal.
frame_record` / :func:`~repro.core.journal.decode_frame`).  Both sides of the
RPC use the same object: the worker in blocking mode (``recv``), the
supervisor in selector-driven non-blocking mode (``receive_available``).

Everything binds to the loopback interface — the subsystem is a process
fleet on one host, not a network service; there is no authentication layer
because the socket never leaves the machine.
"""

from __future__ import annotations

import socket

from repro.core.journal import decode_frame, frame_record

from repro.distributed.protocol import ProtocolError

__all__ = [
    "ConnectionClosed",
    "FrameCorruptionError",
    "FramedConnection",
    "listen",
    "connect",
]

_CHUNK = 65536


class ConnectionClosed(ConnectionError):
    """The peer closed the socket (worker death or supervisor exit)."""


class FrameCorruptionError(ProtocolError):
    """A frame on the stream failed its length/CRC validation.

    Once a frame is corrupt the byte stream has no recoverable alignment —
    the connection must be dropped, but *only* that connection: the server
    keeps serving its other clients and a retrying client redials.  Carries
    the stream offset where corruption was detected and the framing detail
    (which invariant broke, expected vs computed CRC) for diagnosis.
    """

    def __init__(self, message: str, *, offset: int | None = None,
                 detail: str | None = None):
        super().__init__(message)
        self.offset = offset
        self.detail = detail


def listen(host: str = "127.0.0.1", port: int = 0) -> tuple[socket.socket, int]:
    """Open a listening socket; returns ``(socket, bound_port)``."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen()
    sock.setblocking(False)
    return sock, sock.getsockname()[1]


def connect(host: str, port: int, *, timeout: float | None = None) -> "FramedConnection":
    """Dial the supervisor (worker side)."""
    return FramedConnection(socket.create_connection((host, port), timeout=timeout))


class FramedConnection:
    """One journal-framed message stream over a connected socket."""

    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._buffer = bytearray()
        self._closed = False
        self._consumed = 0  # bytes of valid frames already popped

    def fileno(self) -> int:
        return self._sock.fileno()

    @property
    def closed(self) -> bool:
        return self._closed

    # -------------------------------------------------------------- sending
    def send(self, record: dict) -> None:
        """Frame and send one record (blocking; raises on a dead peer)."""
        try:
            self._sock.sendall(frame_record(record))
        except OSError as exc:
            raise ConnectionClosed(f"peer gone while sending: {exc}") from exc

    # ------------------------------------------------------------ receiving
    def _pop_frame(self) -> dict | None:
        """Extract one complete frame from the buffer, if present."""
        newline = self._buffer.find(b"\n")
        if newline < 0:
            return None
        line = bytes(self._buffer[: newline + 1])
        del self._buffer[: newline + 1]
        record, detail = decode_frame(line)
        if record is None:
            raise FrameCorruptionError(
                f"corrupt frame at stream offset {self._consumed} "
                f"({detail}): {line[:64]!r}",
                offset=self._consumed,
                detail=detail,
            )
        self._consumed += len(line)
        return record

    def recv(self, timeout: float | None = None) -> dict | None:
        """Blocking receive of one message; ``None`` on clean EOF.

        With a ``timeout``, raises :class:`socket.timeout` if no complete
        frame arrives in time (partial bytes stay buffered).
        """
        while True:
            record = self._pop_frame()
            if record is not None:
                return record
            self._sock.settimeout(timeout)
            chunk = self._sock.recv(_CHUNK)
            if not chunk:
                self._closed = True
                return None
            self._buffer.extend(chunk)

    def receive_available(self) -> list[dict]:
        """Drain every readable frame without blocking (supervisor side).

        Call when a selector reports the socket readable.  Raises
        :class:`ConnectionClosed` on EOF *after* yielding any complete
        frames that preceded it.
        """
        self._sock.setblocking(False)
        eof = False
        try:
            while True:
                chunk = self._sock.recv(_CHUNK)
                if not chunk:
                    eof = True
                    break
                self._buffer.extend(chunk)
        except (BlockingIOError, InterruptedError):
            pass
        except OSError as exc:
            raise ConnectionClosed(f"peer gone while reading: {exc}") from exc
        frames = []
        while True:
            record = self._pop_frame()
            if record is None:
                break
            frames.append(record)
        if eof and not frames:
            self._closed = True
            raise ConnectionClosed("peer closed the connection")
        if eof:
            self._closed = True
        return frames

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass
