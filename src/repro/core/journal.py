"""Crash-safe write-ahead journal for optimization runs.

Every state transition of a Bayesian-optimization run is appended to a
journal file as one framed JSONL record.  Drivers and the campaign server
write the same events through their :class:`~repro.core.campaign.Campaign`
(``campaign_start``, ``doe``, ``ask``, ``tell``, ``checkpoint``,
``campaign_end``; see ``docs/crash_recovery.md``); this module is only the
framing, durability, and torn-tail recovery beneath them.  The framing makes
the log self-validating::

    J1 <length:8 hex> <crc32:8 hex> <compact JSON payload>\\n

``length`` is the byte length of the UTF-8 payload and ``crc32`` its checksum,
so a reader can detect a torn tail — the partial record a crash leaves behind
when the process dies mid-``write`` — and recover the longest valid prefix
instead of refusing the whole file.  Appends are flushed and ``fsync``'d by
default, which bounds the loss after a crash to at most the record being
written at that instant.

The journal is the source of truth for :func:`repro.core.recovery.resume`
and :func:`repro.core.campaign.resume_campaign`; :mod:`repro.core.persistence`
stores *finished* runs, this module stores *in-flight* ones.
"""

from __future__ import annotations

import json
import os
import pathlib
import zlib

__all__ = [
    "JOURNAL_VERSION",
    "JournalError",
    "JournalWriter",
    "read_journal",
    "recover_journal",
    "frame_record",
    "parse_line",
    "decode_frame",
]

#: Run-journal format this installation resumes.  v1 was the drivers' own
#: ``run_start`` / ``issue`` / ``complete`` log; since v2 drivers write the
#: campaign journal, whose schema ``CAMPAIGN_JOURNAL_VERSION`` versions.  A
#: journal that still starts with a ``run_start`` record is refused.
JOURNAL_VERSION = 2

_MAGIC = "J1"
_MAGIC_BYTES = _MAGIC.encode("ascii")
# "J1 " + 8 hex length + " " + 8 hex crc + " " -> 21 bytes of header.
_HEADER_LEN = len(_MAGIC) + 1 + 8 + 1 + 8 + 1


class JournalError(RuntimeError):
    """Raised for malformed journals when strict reading is requested."""


def frame_record(record: dict) -> bytes:
    """Encode ``record`` as one framed journal line."""
    payload = json.dumps(record, separators=(",", ":"), sort_keys=True)
    data = payload.encode("utf-8")
    crc = zlib.crc32(data) & 0xFFFFFFFF
    return f"{_MAGIC} {len(data):08x} {crc:08x} ".encode("ascii") + data + b"\n"


def decode_frame(line: bytes) -> tuple[dict | None, str | None]:
    """Decode one framed line: ``(record, None)``, or ``(None, reason)``.

    The one frame check.  The journal reader only needs the record (any
    invalid line ends the readable prefix); the socket transport also
    *reports* the reason — which byte-stream invariant broke — so a
    dropped connection is diagnosable instead of generic.
    """
    if not line.startswith(_MAGIC_BYTES):
        return None, f"bad magic: expected {_MAGIC!r}, got {bytes(line[:2])!r}"
    if len(line) < _HEADER_LEN + 1:
        return None, f"short frame: {len(line)} bytes < {_HEADER_LEN + 1} minimum"
    header = line[:_HEADER_LEN]
    try:
        magic, length_hex, crc_hex = header.decode("ascii").split(" ")[:3]
        length = int(length_hex, 16)
        crc = int(crc_hex, 16)
    except (UnicodeDecodeError, ValueError):
        magic = None
    if magic != _MAGIC:
        return None, f"unparseable header {bytes(header)!r}"
    body = line[_HEADER_LEN:]
    if not body.endswith(b"\n"):
        return None, "torn frame: no trailing newline"
    data = body[:-1]
    if len(data) != length:
        return None, f"length mismatch: header says {length}, payload is {len(data)}"
    actual = zlib.crc32(data) & 0xFFFFFFFF
    if actual != crc:
        return None, f"crc mismatch: header {crc:08x}, computed {actual:08x}"
    try:
        record = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None, "payload is not valid JSON"
    if not isinstance(record, dict):
        return None, f"payload is a {type(record).__name__}, not an object"
    return record, None


def parse_line(line: bytes) -> dict | None:
    """Decode one framed line, returning ``None`` if it is invalid or torn."""
    return decode_frame(line)[0]


class JournalWriter:
    """Append-only framed-JSONL writer with durable (fsync'd) appends.

    Opens the file lazily in append mode, so creating a writer on an existing
    journal continues it — which is exactly what resuming a run needs.
    """

    def __init__(self, path: str | os.PathLike, *, fsync: bool = True) -> None:
        self.path = pathlib.Path(path)
        self.fsync = bool(fsync)
        self._fh = None
        self._n_appends = 0

    def _ensure_open(self):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "ab")
        return self._fh

    def append(self, record: dict) -> None:
        """Frame, write, flush, and (optionally) fsync one record."""
        fh = self._ensure_open()
        fh.write(frame_record(record))
        fh.flush()
        if self.fsync:
            os.fsync(fh.fileno())
        self._n_appends += 1

    @property
    def n_appends(self) -> int:
        return self._n_appends

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _scan(raw: bytes) -> tuple[list[dict], int]:
    """Parse framed records from ``raw``; return (records, valid byte length)."""
    records: list[dict] = []
    offset = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline < 0:
            break  # torn tail: partial record with no terminator
        record, _ = decode_frame(raw[offset : newline + 1])
        if record is None:
            break
        records.append(record)
        offset = newline + 1
    return records, offset


def read_journal(path: str | os.PathLike, *, strict: bool = False) -> list[dict]:
    """Read a journal, returning the longest valid prefix of records.

    A crash can leave the final line torn (partial write) and, on rare
    filesystems, flip bytes in it.  By default any invalid line simply ends
    the readable prefix — everything before it is returned and everything
    after it is ignored, mirroring write-ahead-log recovery semantics.  With
    ``strict=True`` an invalid line raises :class:`JournalError` instead,
    which is useful in tests and integrity audits.  A missing file reads as
    an empty journal (nothing was ever durably written).
    """
    path = pathlib.Path(path)
    if not path.exists():
        return []
    with open(path, "rb") as fh:
        raw = fh.read()
    records, valid = _scan(raw)
    if strict and valid != len(raw):
        raise JournalError(f"invalid journal record at byte {valid} of {path}")
    return records


def _frame_follows(raw: bytes, offset: int) -> bool:
    """Whether an intact frame follows the invalid line at ``offset``."""
    start = raw.find(b"\n", offset) + 1
    while start:
        end = raw.find(b"\n", start)
        if end < 0:
            return False
        if decode_frame(raw[start : end + 1])[0] is not None:
            return True
        start = end + 1
    return False


def recover_journal(path: str | os.PathLike) -> list[dict]:
    """Read a journal and truncate any torn tail in place.

    Resuming a run appends new records to the journal, so a torn partial
    record left by the crash must be physically removed first — otherwise the
    appended records would sit behind an unreadable line and be lost to the
    next recovery.  Returns the recovered records.

    A crash only ever tears the last record.  An invalid record with an
    intact one after it is damage, not a torn tail: truncating there would
    destroy every intact record that follows, so that raises
    :class:`JournalError` naming the byte offset and leaves the file as it
    is, for triage.
    """
    path = pathlib.Path(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    records, valid = _scan(raw)
    if valid != len(raw):
        if _frame_follows(raw, valid):
            raise JournalError(
                f"invalid journal record at byte {valid} of {path}, with "
                "intact records after it: not a torn tail, left untruncated"
            )
        with open(path, "r+b") as fh:
            fh.truncate(valid)
            fh.flush()
            os.fsync(fh.fileno())
    return records
