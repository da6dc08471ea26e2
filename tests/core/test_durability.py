"""Unit tests for :mod:`repro.durability`.

The crash-safety contract each primitive must hold:

* atomic writes — readers only ever see the old content or the whole
  new content, even when a fault is injected mid-write;
* journals — a verified prefix replays, a torn/corrupt tail is
  discarded, a write fault poisons the generation (no appends after
  a tear), and a rewrite's header carries extra identity fields.
"""

import json

import pytest

from repro.durability import (
    JOURNAL_FORMAT,
    Journal,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    canonical_json,
    checksum,
    read_journal,
    rewrite_journal,
)
from repro.faults import FaultKind, FaultPlan, FaultRule


def disk_faults(*rules, seed=0):
    """A kind-filtered injector over the given disk-fault rules."""
    plan = FaultPlan(rules=tuple(rules), seed=seed)
    injector = plan.disk_injector()
    assert injector is not None
    return injector


class TestChecksum:
    def test_canonical_json_is_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )
        assert checksum({"b": 1, "a": 2}) == checksum({"a": 2, "b": 1})

    def test_checksum_distinguishes_payloads(self):
        assert checksum({"a": 1}) != checksum({"a": 2})


class TestAtomicWrite:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "doc.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_overwrites_atomically(self, tmp_path):
        path = tmp_path / "doc.bin"
        atomic_write_bytes(path, b"old")
        atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"new"

    def test_json_sorted_keys(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"b": 1, "a": 2})
        assert path.read_text() == '{"a": 2, "b": 1}\n'

    def test_no_tmp_litter_on_success(self, tmp_path):
        atomic_write_text(tmp_path / "doc.txt", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["doc.txt"]

    def test_torn_write_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "doc.txt"
        atomic_write_text(path, "the original survives")
        faults = disk_faults(
            FaultRule(kind=FaultKind.TORN_WRITE, truncate_to=4),
        )
        with pytest.raises(OSError):
            atomic_write_text(path, "replacement", faults=faults)
        assert path.read_text() == "the original survives"
        # and the torn tmp file was cleaned up
        assert [p.name for p in tmp_path.iterdir()] == ["doc.txt"]

    def test_enospc_raises_before_writing(self, tmp_path):
        path = tmp_path / "doc.txt"
        faults = disk_faults(FaultRule(kind=FaultKind.ENOSPC))
        with pytest.raises(OSError):
            atomic_write_text(path, "never lands", faults=faults)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_fsync_fail_raises_and_preserves_old_content(self, tmp_path):
        path = tmp_path / "doc.txt"
        atomic_write_text(path, "old")
        faults = disk_faults(FaultRule(kind=FaultKind.FSYNC_FAIL))
        with pytest.raises(OSError):
            atomic_write_text(path, "new", faults=faults)
        assert path.read_text() == "old"


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path, kind="test") as journal:
            journal.append({"n": 1})
            journal.append({"n": 2})
            assert journal.appends == 2
        recovery = read_journal(path, kind="test")
        assert recovery.records == [{"n": 1}, {"n": 2}]
        assert not recovery.truncated
        assert recovery.discarded == 0
        assert recovery.kind == "test"

    def test_missing_file_is_empty_with_flag(self, tmp_path):
        recovery = read_journal(tmp_path / "absent.jsonl")
        assert recovery.missing
        assert recovery.records == []

    def test_reopen_appends(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path, kind="test") as journal:
            journal.append({"n": 1})
        with Journal(path, kind="test") as journal:
            journal.append({"n": 2})
        assert read_journal(path, kind="test").records == [
            {"n": 1}, {"n": 2},
        ]

    def test_torn_tail_is_discarded(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path, kind="test") as journal:
            journal.append({"n": 1})
            journal.append({"n": 2})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"sha": "dead', )  # crash mid-append
        recovery = read_journal(path, kind="test")
        assert recovery.records == [{"n": 1}, {"n": 2}]
        assert recovery.truncated
        assert recovery.discarded == 1

    def test_corrupt_middle_ends_replay(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path, kind="test") as journal:
            for n in range(4):
                journal.append({"n": n})
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace('"n":1', '"n":9')  # flip a bit
        path.write_text("\n".join(lines) + "\n")
        recovery = read_journal(path, kind="test")
        assert recovery.records == [{"n": 0}]
        assert recovery.truncated
        assert recovery.discarded == 3

    def test_bad_header_discards_everything(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("not a journal\n" + canonical_json({"x": 1}) + "\n")
        recovery = read_journal(path)
        assert recovery.records == []
        assert recovery.truncated
        assert recovery.discarded == 2

    def test_kind_mismatch_rejects_header(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path, kind="proxy-store"):
            pass
        recovery = read_journal(path, kind="sweep-checkpoint")
        assert recovery.records == []
        assert recovery.truncated

    def test_header_names_format(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path, kind="test"):
            pass
        header = json.loads(path.read_text().splitlines()[0])
        assert header["rec"]["format"] == JOURNAL_FORMAT

    def test_torn_write_breaks_the_generation(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        faults = disk_faults(
            FaultRule(kind=FaultKind.TORN_WRITE, at=(1,), truncate_to=10),
        )
        journal = Journal(path, kind="test", faults=faults)
        journal.append({"n": 1})  # event 0: fine
        with pytest.raises(OSError):
            journal.append({"n": 2})  # event 1: torn
        assert journal.broken
        with pytest.raises(OSError):
            journal.append({"n": 3})  # fails fast, writes nothing
        journal.close()
        recovery = read_journal(path, kind="test")
        assert recovery.records == [{"n": 1}]
        assert recovery.truncated
        assert recovery.discarded == 1

    def test_enospc_breaks_without_writing(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        faults = disk_faults(FaultRule(kind=FaultKind.ENOSPC, at=(1,)))
        journal = Journal(path, kind="test", faults=faults)
        journal.append({"n": 1})
        with pytest.raises(OSError):
            journal.append({"n": 2})
        journal.close()
        recovery = read_journal(path, kind="test")
        assert recovery.records == [{"n": 1}]
        assert not recovery.truncated  # nothing torn: append never landed

    def test_rewrite_after_torn_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path, kind="test") as journal:
            journal.append({"n": 1})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage")
        recovery = read_journal(path, kind="test")
        journal = rewrite_journal(path, recovery.records, kind="test")
        assert journal.appends == 0  # recovery is not new appends
        journal.append({"n": 2})
        journal.close()
        clean = read_journal(path, kind="test")
        assert clean.records == [{"n": 1}, {"n": 2}]
        assert not clean.truncated


class TestRewrite:
    """``rewrite_journal`` is one atomic step: one disk-fault event, and a
    fault leaves the previous file byte-identical."""

    def torn_journal(self, path):
        with Journal(path, kind="test") as journal:
            journal.append({"n": 1}, b"first body")
            journal.append({"n": 2}, b"second body")
        with open(path, "ab") as handle:
            handle.write(b'{"rec":{"n":3')  # a crash mid-append
        return path.read_bytes()

    @pytest.mark.parametrize("rule", [
        FaultRule(kind=FaultKind.TORN_WRITE, at=(0,), truncate_to=150),
        FaultRule(kind=FaultKind.ENOSPC, at=(0,)),
    ], ids=["torn_write", "enospc"])
    def test_a_failed_rewrite_keeps_the_previous_file(self, tmp_path, rule):
        path = tmp_path / "journal.jsonl"
        before = self.torn_journal(path)
        records = read_journal(path, kind="test").records
        assert len(records) == 2
        faults = disk_faults(rule)
        with pytest.raises(OSError):
            rewrite_journal(path, records, kind="test", faults=faults)
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp.*")) == []
        assert faults.events == 1

    def test_a_rewrite_is_one_fault_event(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self.torn_journal(path)
        records = read_journal(path, kind="test").records
        faults = disk_faults(FaultRule(kind=FaultKind.ENOSPC, at=(1,)))
        journal = rewrite_journal(path, records, kind="test", faults=faults)
        assert faults.events == 1
        with pytest.raises(OSError):  # event 1: the first append
            journal.append({"n": 3})
        journal.close()
        clean = read_journal(path, kind="test")
        assert clean.records == records
        assert not clean.truncated
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_header_fields_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        identity = {"trace_hash": "ab12", "total": 36}
        rewrite_journal(
            path, [{"n": 1}], kind="test", header=identity,
        ).close()
        recovery = read_journal(path, kind="test")
        assert recovery.header == dict(
            identity, magic="repro-journal", format=JOURNAL_FORMAT,
            kind="test",
        )
        assert recovery.records == [{"n": 1}]

    def test_the_journal_fields_win_over_header_fields(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        rewrite_journal(path, [], kind="test", header={
            "kind": "other", "format": 99, "magic": "x", "total": 2,
        }).close()
        recovery = read_journal(path, kind="test")
        assert (recovery.header["kind"], recovery.header["format"]) == (
            "test", JOURNAL_FORMAT,
        )
        assert recovery.header["total"] == 2
        assert read_journal(path, kind="other").header == {}


class TestBlobRecords:
    """Format 2: a record's line pins its blob's length and SHA-256 and
    the raw bytes follow the line."""

    BODY = b"raw\nbody\r\n\xff\x00 not utf-8\n"

    def write(self, path):
        with Journal(path, kind="test") as journal:
            journal.append({"n": 1})
            journal.append({"n": 2}, self.BODY)
        return path.read_bytes()

    def test_round_trip_carries_the_blob(self, tmp_path):
        data = self.write(tmp_path / "journal.jsonl")
        assert data.endswith(b"\n" + self.BODY + b"\n")
        recovery = read_journal(tmp_path / "journal.jsonl", kind="test")
        assert recovery.records == [{"n": 1}, {"n": 2, "blob": self.BODY}]
        assert not recovery.truncated

    def test_torn_at_every_offset_discards_one(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        data = self.write(path)
        record_start = data.index(b'{"rec":{"blob"')
        for cut in range(record_start, len(data)):  # line, body, final \n
            path.write_bytes(data[:cut])
            recovery = read_journal(path, kind="test")
            assert recovery.records == [{"n": 1}], cut
            assert recovery.discarded == (1 if cut > record_start else 0), cut

    def test_flipped_body_byte_ends_replay(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path, kind="test") as journal:
            journal.append({"n": 1}, b"first body")
            journal.append({"n": 2}, self.BODY)
            journal.append({"n": 3}, b"third body")
        data = bytearray(path.read_bytes())
        data[data.index(self.BODY) + 5] ^= 0x01
        path.write_bytes(bytes(data))
        recovery = read_journal(path, kind="test")
        assert recovery.records == [{"n": 1, "blob": b"first body"}]
        assert recovery.truncated
        assert recovery.discarded == 2

    def test_rewrite_keeps_blobs(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self.write(path)
        records = read_journal(path, kind="test").records
        rewrite_journal(path, records, kind="test").close()
        assert read_journal(path, kind="test").records == records

    @pytest.mark.parametrize("payload", [
        {},
        {"n": 1},
        {"op": "put", "doc": {"url": "http://a/1", "stamp": 1.5,
                              "expires": None, "status": 200}},
        {"op": "remove", "url": "http://a/é\"\\\n"},
        {"z": [1, 2.25, {"b": True, "a": False}], "a": "x" * 300},
        {"magic": "repro-journal", "format": 1, "kind": "proxy-store"},
    ])
    def test_journal_line_bytes_match_the_format_1_envelope(self, payload):
        from repro.durability import _journal_line

        assert _journal_line(payload) == canonical_json(
            {"sha": checksum(payload), "rec": payload},
        ).encode("utf-8")
