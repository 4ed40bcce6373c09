"""Unit tests for the write-ahead run journal (framing, recovery, writer).

The journal's one job is to survive being killed mid-write: every record is
length- and CRC-framed, readers return the longest valid prefix, and
``recover_journal`` physically truncates a torn tail so later appends never
concatenate into a half-written line.  The torn-tail sweep here cuts a real
journal at *every* byte offset of its final record — each prefix must recover
to exactly the preceding records, never an exception, never a phantom record.
"""

import json
import zlib

import pytest

from repro.core.journal import (
    JournalError,
    JournalWriter,
    decode_frame,
    frame_record,
    parse_line,
    read_journal,
    recover_journal,
)

RECORDS = [
    {"type": "run_start", "algorithm": "LCB", "n_workers": 1},
    {"type": "issue", "index": 0, "x": [0.25, -1.5], "worker": 0},
    {"type": "complete", "index": 0, "value": 3.14159, "unicode": "μ±σ"},
]


def write_journal(path, records):
    with JournalWriter(path) as writer:
        for record in records:
            writer.append(record)


class TestFraming:
    def test_round_trip(self):
        for record in RECORDS:
            line = frame_record(record)
            assert line.endswith(b"\n")
            assert parse_line(line) == record

    def test_parse_rejects_bad_magic(self):
        line = frame_record(RECORDS[0])
        assert parse_line(b"XX" + line[2:]) is None

    def test_parse_rejects_flipped_payload_bit(self):
        line = bytearray(frame_record(RECORDS[1]))
        line[25] ^= 0x01  # inside the JSON payload
        assert parse_line(bytes(line)) is None

    def test_parse_rejects_wrong_crc(self):
        record = RECORDS[0]
        data = json.dumps(record, separators=(",", ":"), sort_keys=True).encode()
        bad_crc = (zlib.crc32(data) ^ 0xDEADBEEF) & 0xFFFFFFFF
        line = f"J1 {len(data):08x} {bad_crc:08x} ".encode() + data + b"\n"
        assert parse_line(line) is None

    def test_parse_rejects_truncation(self):
        line = frame_record(RECORDS[2])
        for cut in range(len(line)):
            assert parse_line(line[:cut]) is None


def _frame(data: bytes, *, length=None, crc=None) -> bytes:
    """A frame around ``data``, optionally with a lying header."""
    length = len(data) if length is None else length
    crc = zlib.crc32(data) & 0xFFFFFFFF if crc is None else crc
    return f"J1 {length:08x} {crc:08x} ".encode() + data + b"\n"


class TestDecodeFrame:
    """One decoder: a valid line gives its record, an invalid one its reason."""

    def test_valid_line_has_no_reason(self):
        for record in RECORDS:
            assert decode_frame(frame_record(record)) == (record, None)

    @pytest.mark.parametrize(
        "line,reason",
        [
            (b"XX" + frame_record(RECORDS[0])[2:], "bad magic"),
            (b"J1 0000\n", "short frame"),
            (b"J1 zzzzzzzz 00000000 {}\n", "unparseable header"),
            (frame_record(RECORDS[0])[:-1], "torn frame"),
            (_frame(b'{"a":1}', length=99), "length mismatch"),
            (_frame(b'{"a":1}', crc=0), "crc mismatch"),
            (_frame(b'{"a":'), "not valid JSON"),
            (_frame(b"[1,2]"), "not an object"),
        ],
        ids=["magic", "short", "header", "torn", "length", "crc", "json", "object"],
    )
    def test_each_rejection_names_its_reason(self, line, reason):
        record, why = decode_frame(line)
        assert record is None
        assert reason in why
        assert parse_line(line) is None


class TestReadJournal:
    def test_reads_all_records(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, RECORDS)
        assert read_journal(path) == RECORDS

    def test_missing_file_is_empty(self, tmp_path):
        assert read_journal(tmp_path / "nope.jsonl") == []

    def test_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, RECORDS)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        assert read_journal(path) == RECORDS[:-1]

    def test_strict_raises_on_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, RECORDS)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(JournalError):
            read_journal(path, strict=True)

    def test_corrupt_middle_record_stops_the_prefix(self, tmp_path):
        # A flipped bit mid-file invalidates everything after it: suffix
        # records cannot be trusted once the sequence is broken.
        path = tmp_path / "j.jsonl"
        write_journal(path, RECORDS)
        raw = bytearray(path.read_bytes())
        first_len = len(frame_record(RECORDS[0]))
        raw[first_len + 30] ^= 0x01
        path.write_bytes(bytes(raw))
        assert read_journal(path) == RECORDS[:1]


class TestTornTailSweep:
    """Satellite: truncate at every byte offset of the last record."""

    def test_every_truncation_offset_recovers_the_prefix(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, RECORDS)
        raw = path.read_bytes()
        last_start = len(raw) - len(frame_record(RECORDS[-1]))
        for cut in range(last_start, len(raw)):
            torn = tmp_path / f"torn-{cut}.jsonl"
            torn.write_bytes(raw[:cut])
            records = recover_journal(torn)
            assert records == RECORDS[:-1], f"cut at byte {cut}"
            # Physical truncation: the torn bytes are gone, so an append
            # starts a fresh, parseable line.
            assert torn.read_bytes() == raw[:last_start]

    def test_recovered_journal_accepts_appends(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, RECORDS)
        path.write_bytes(path.read_bytes()[:-7])
        recover_journal(path)
        extra = {"type": "resume", "clock": 1.0}
        with JournalWriter(path) as writer:
            writer.append(extra)
        assert read_journal(path, strict=True) == RECORDS[:-1] + [extra]


class TestMidFileDamage:
    """A crash tears only the last record; damage before an intact record
    is refused, with every byte kept."""

    @pytest.mark.parametrize("damage", [
        lambda raw: b"\x00" * 16 + raw[16:],  # first frame's header zeroed
        lambda raw: raw[:30] + bytes([raw[30] ^ 0x01]) + raw[31:],  # CRC breaks
    ])
    def test_damage_with_intact_records_after_it_is_refused(self, tmp_path, damage):
        path = tmp_path / "j.jsonl"
        write_journal(path, RECORDS)
        damaged = damage(path.read_bytes())
        path.write_bytes(damaged)
        with pytest.raises(JournalError, match="at byte 0 "):
            recover_journal(path)
        assert path.read_bytes() == damaged

    def test_damaged_last_record_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, RECORDS)
        raw = bytearray(path.read_bytes())
        last_start = len(raw) - len(frame_record(RECORDS[-1]))
        raw[last_start + 30] ^= 0x01
        path.write_bytes(bytes(raw))
        assert recover_journal(path) == RECORDS[:-1]
        assert path.read_bytes() == bytes(raw[:last_start])


class TestWriter:
    def test_append_is_immediately_durable(self, tmp_path):
        path = tmp_path / "j.jsonl"
        writer = JournalWriter(path)
        writer.append(RECORDS[0])
        # Readable before close: the writer flushes and fsyncs per append.
        assert read_journal(path) == RECORDS[:1]
        writer.close()

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "j.jsonl"
        write_journal(path, RECORDS[:1])
        assert read_journal(path) == RECORDS[:1]

    def test_n_appends(self, tmp_path):
        writer = JournalWriter(tmp_path / "j.jsonl")
        assert writer.n_appends == 0
        writer.append(RECORDS[0])
        writer.append(RECORDS[1])
        assert writer.n_appends == 2
        writer.close()
