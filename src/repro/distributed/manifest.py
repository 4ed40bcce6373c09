"""Server-level manifest journal: the campaign ledger that survives kill -9.

Per-campaign journals make each *optimization* crash-safe, but the server
process itself was a single point of failure: after a crash nothing knew
which campaigns existed, which were mid-flight, or where their journals
lived.  The manifest closes that gap.  It is a write-ahead journal (same
CRC+length framing as :mod:`repro.core.journal`, same torn-tail recovery)
under ``journal_dir/server.manifest`` recording every campaign lifecycle
transition::

    {"type": "manifest_start", "manifest_version": 1}
    {"type": "campaign", "event": "created",  "campaign": "c0000",
     "label": ..., "problem": ..., "journal": ..., "config": {...},
     "evaluate": ..., "pool": ..., "n_workers": ..., "request_id": ...}
    {"type": "campaign", "event": "suspended", "campaign": "c0000", ...}
    ...

Events: ``created``, ``started`` (the campaign journal materialized — a
missing journal after this point is data loss, not a creation crash),
``suspended``, ``resumed``, ``recovered``, ``finished``, ``closed``,
``failed``.  :func:`manifest_state` folds the
event stream into the latest per-campaign state; a restarting
:class:`~repro.distributed.server.CampaignServer` scans it and replays
every non-terminal campaign from its journal
(:func:`repro.core.campaign.resume_campaign`) to bit-exact state, so a
server killed mid-``ask`` answers ``status``/``ask`` after restart as if
nothing happened.

The ``created`` event carries the full (JSON) campaign config, which makes
*creation itself* crash-safe: a campaign whose journal never materialized
(killed before the first ``ask``) is rebuilt fresh from the manifest with
its original seed.
"""

from __future__ import annotations

import os
import pathlib

from repro.core.journal import JournalError, JournalWriter, recover_journal

__all__ = [
    "MANIFEST_VERSION",
    "ServerManifest",
    "read_manifest",
    "manifest_state",
    "TERMINAL_EVENTS",
]

#: Version stamp in the ``manifest_start`` record.  Bump when the event
#: schema changes incompatibly.
MANIFEST_VERSION = 1

#: Lifecycle events after which a campaign needs no recovery.
TERMINAL_EVENTS = frozenset(("finished", "closed"))

#: Creation/context fields carried forward by :func:`manifest_state` — later
#: events overwrite only the keys they actually set.
_STICKY_FIELDS = (
    "label",
    "problem",
    "journal",
    "config",
    "evaluate",
    "pool",
    "n_workers",
    "request_id",
    "auto",
    "error",
)


class ServerManifest:
    """Append-only lifecycle ledger for one server's ``journal_dir``.

    Appends are fsync'd before the server replies to the client, mirroring
    the campaign journals: any transition a client was told about is
    durable.  Creating a manifest on an existing file continues it — a
    restarted server keeps appending to the same ledger.
    """

    def __init__(self, path: str | os.PathLike, *, fsync: bool = True):
        self.path = pathlib.Path(path)
        self._writer = JournalWriter(self.path, fsync=fsync)
        self._started = self.path.exists() and self.path.stat().st_size > 0

    def record(self, event: str, campaign_id: str, **fields) -> None:
        """Append one lifecycle transition (durably)."""
        if not self._started:
            self._writer.append(
                {"type": "manifest_start", "manifest_version": MANIFEST_VERSION}
            )
            self._started = True
        self._writer.append(
            {"type": "campaign", "event": str(event),
             "campaign": str(campaign_id), **fields}
        )

    @property
    def n_appends(self) -> int:
        return self._writer.n_appends

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "ServerManifest":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_manifest(path: str | os.PathLike) -> list[dict]:
    """Recover the manifest event stream (torn tail truncated in place).

    A missing file reads as an empty manifest — a first boot.  A manifest
    written by a *newer* format raises :class:`JournalError` instead of
    misparsing, matching the campaign-journal and saved-runs readers.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return []
    events = recover_journal(path)
    if events and events[0].get("type") == "manifest_start":
        version = events[0].get("manifest_version")
        if not isinstance(version, int) or version > MANIFEST_VERSION:
            raise JournalError(
                f"server manifest format v{version} is newer than supported "
                f"v{MANIFEST_VERSION}; upgrade this installation to read it"
            )
    return events


def manifest_state(events: list[dict]) -> dict[str, dict]:
    """Fold the event stream into the latest state per campaign.

    Returns ``{campaign_id: info}`` where ``info["state"]`` is the last
    lifecycle event seen and the creation/context fields (label, problem,
    journal path, config, lease size, ...) are carried forward from
    whichever event last set them.
    """
    state: dict[str, dict] = {}
    for event in events:
        if event.get("type") != "campaign":
            continue
        campaign_id = event.get("campaign")
        if not campaign_id:
            continue
        info = state.setdefault(campaign_id, {"campaign": campaign_id})
        for key in _STICKY_FIELDS:
            if key in event:
                info[key] = event[key]
        info["state"] = event.get("event")
    return state
