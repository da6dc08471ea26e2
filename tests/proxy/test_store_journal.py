"""Warm-restart durability of :class:`repro.proxy.store.ProxyStore`.

The journaled store's contract: every mutation that returned is
recoverable after SIGKILL (one journal fold), a torn journal tail
costs at most the one mutation that was mid-append, a corrupt journal
degrades to its verified prefix instead of refusing to start, and
recovery and ``close()`` compact the journal to one put per survivor.
"""

import base64
import json
import shutil
from pathlib import Path

import pytest

from repro.durability import read_journal
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.proxy.server import CachingProxy
from repro.proxy.store import (
    JOURNAL_NAME,
    STATE_KIND,
    CachedDocument,
    ProxyStore,
)


def doc(url, body, fetched_at=100.0):
    return CachedDocument(
        url=url, body=body, content_type="text/plain", fetched_at=fetched_at,
    )


def make_store(state_dir, **kwargs):
    kwargs.setdefault("capacity", 1 << 20)
    kwargs.setdefault("fsync", False)  # tmpfs tests don't need real fsync
    return ProxyStore(state_dir=state_dir, **kwargs)


class TestWarmRestart:
    def test_recovers_journaled_documents(self, tmp_path):
        store = make_store(tmp_path)
        assert store.put(doc("http://a/1", b"alpha"), now=1.0)
        assert store.put(doc("http://a/2", b"beta"), now=2.0)
        assert store.invalidate("http://a/1")
        assert store.put(doc("http://a/3", b"gamma"), now=3.0)
        assert store.stats.journal_appends == 4
        # No close(): simulate SIGKILL by just abandoning the store.

        revived = make_store(tmp_path)
        assert revived.recovery is not None
        assert revived.recovery.journal_replayed == 4
        assert revived.recovery.tail_discarded == 0
        assert revived.recovery.documents == 2
        assert "http://a/1" not in revived
        assert revived.get("http://a/2").body == b"beta"
        assert revived.get("http://a/3").body == b"gamma"
        # Metadata survived: original fetch times, not replay-time ones.
        assert revived.get("http://a/2").fetched_at == 100.0

    def test_clean_close_leaves_one_compacted_journal(self, tmp_path):
        store = make_store(tmp_path, capacity=40_000)
        for n in range(60):  # 60 x 1 kB through 40 kB: evictions
            store.put(doc(f"http://a/{n}", bytes([n]) * 1000), now=float(n))
        store.invalidate("http://a/59")
        store.get("http://a/30", now=100.0)  # a touch moves the stamp
        held = {url: (document.size, store._stamps[url])
                for url, document in store._bodies.items()}
        assert held["http://a/30"][1] == 100.0
        bodies = {url: doc.body for url, doc in store._bodies.items()}
        store.close()
        # One file, one put per survivor (no removes), little overhead.
        assert [path.name for path in tmp_path.iterdir()] == [JOURNAL_NAME]
        replay = read_journal(tmp_path / JOURNAL_NAME, kind=STATE_KIND)
        assert not replay.truncated
        assert [op["op"] for op in replay.records] == ["put"] * len(held)
        assert {op["doc"]["url"]: op["blob"]
                for op in replay.records} == bodies
        body_bytes = sum(len(body) for body in bodies.values())
        size = (tmp_path / JOURNAL_NAME).stat().st_size
        assert size <= body_bytes + 512 * len(held)

        revived = make_store(tmp_path, capacity=40_000)
        assert revived.recovery.journal_replayed == len(held)
        assert {url: (document.size, revived._stamps[url])
                for url, document in revived._bodies.items()} == held

    def test_torn_tail_costs_at_most_one_mutation(self, tmp_path):
        store = make_store(tmp_path)
        store.put(doc("http://a/1", b"alpha"), now=1.0)
        store.put(doc("http://a/2", b"beta"), now=2.0)
        # Tear the last append mid-line: power loss during write(2).
        journal = tmp_path / JOURNAL_NAME
        text = journal.read_text()
        journal.write_text(text[: len(text) - 25])

        revived = make_store(tmp_path)
        assert revived.recovery.tail_discarded == 1
        assert revived.recovery.journal_replayed == 1
        assert revived.get("http://a/1").body == b"alpha"
        assert "http://a/2" not in revived

    def test_corrupt_blob_degrades_to_the_verified_prefix(self, tmp_path):
        store = make_store(tmp_path)
        store.put(doc("http://a/1", b"alpha"), now=1.0)
        store.put(doc("http://a/2", b"beta body"), now=2.0)
        store.put(doc("http://a/3", b"gamma"), now=3.0)
        # SIGKILL, then one byte of the middle put's body rots on disk.
        journal = tmp_path / JOURNAL_NAME
        data = bytearray(journal.read_bytes())
        data[data.index(b"beta body") + 4] ^= 0x01
        journal.write_bytes(bytes(data))

        revived = make_store(tmp_path)
        # The prefix before the bad record survives; it and the record
        # after it are discarded, and the start is not blocked.
        assert revived.recovery.journal_replayed == 1
        assert revived.recovery.tail_discarded == 2
        assert revived.get("http://a/1").body == b"alpha"
        assert "http://a/2" not in revived
        assert "http://a/3" not in revived
        compacted = read_journal(journal, kind=STATE_KIND)
        assert not compacted.truncated
        assert [op["doc"]["url"] for op in compacted.records] == [
            "http://a/1",
        ]

    def test_replacement_and_eviction_replay_correctly(self, tmp_path):
        store = make_store(tmp_path, capacity=1000)
        store.put(doc("http://a/1", b"x" * 400), now=1.0)
        store.put(doc("http://a/2", b"y" * 400), now=2.0)
        store.put(doc("http://a/1", b"z" * 300), now=3.0)  # replacement
        store.put(doc("http://a/3", b"w" * 500), now=4.0)  # forces eviction
        survivors = store.snapshot()

        revived = make_store(tmp_path, capacity=1000)
        assert revived.snapshot() == survivors
        if "http://a/1" in revived:
            assert revived.get("http://a/1").body == b"z" * 300

    def test_restart_is_idempotent(self, tmp_path):
        store = make_store(tmp_path)
        store.put(doc("http://a/1", b"alpha"), now=1.0)
        for _ in range(3):  # crash-restart-crash-restart...
            store = make_store(tmp_path)
        assert store.recovery.documents == 1
        assert store.get("http://a/1").body == b"alpha"

    def test_empty_state_dir_is_cold_start(self, tmp_path):
        store = make_store(tmp_path)
        assert store.recovery is not None
        assert store.recovery.documents == 0
        assert len(store) == 0
        replay = read_journal(tmp_path / JOURNAL_NAME, kind=STATE_KIND)
        assert (replay.missing, replay.replayed) == (False, 0)


class TestDiskFaults:
    def test_torn_journal_write_degrades_not_fails(self, tmp_path):
        # Event 0 is the recovery write (the compaction); event 1 the
        # first append (fine); event 2 tears, poisoning the generation.
        plan = FaultPlan(
            rules=(
                FaultRule(kind=FaultKind.TORN_WRITE, at=(2,), truncate_to=6),
            ),
            seed=9,
        )
        store = make_store(tmp_path, disk_faults=plan.disk_injector())
        assert store.put(doc("http://a/1", b"alpha"), now=1.0)
        assert store.put(doc("http://a/2", b"beta"), now=2.0)  # torn
        assert store.put(doc("http://a/3", b"gamma"), now=3.0)  # broken latch
        assert store.stats.journal_appends == 1
        assert store.stats.journal_errors == 2
        # The store itself kept serving all three documents.
        assert len(store) == 3

        revived = make_store(tmp_path)
        assert revived.recovery.tail_discarded == 1
        assert revived.recovery.documents == 1
        assert revived.get("http://a/1").body == b"alpha"

    def test_enospc_on_recovery_snapshot_disables_journal(self, tmp_path):
        # Disk-fault event 0 is the recovery write: the compaction.
        make_store(tmp_path).put(doc("http://a/1", b"alpha"), now=1.0)
        journal = tmp_path / JOURNAL_NAME
        before = journal.read_bytes()  # SIGKILL after one journaled put
        plan = FaultPlan(
            rules=(FaultRule(kind=FaultKind.ENOSPC, at=(0,)),), seed=9,
        )
        store = make_store(tmp_path, disk_faults=plan.disk_injector())
        assert store.stats.journal_errors == 1
        assert store.get("http://a/1").body == b"alpha"
        store.put(doc("http://a/2", b"beta"), now=2.0)
        # Journaling is off (counted), the store still works, and the
        # failed compaction left the previous journal whole.
        assert store.get("http://a/2").body == b"beta"
        assert store.stats.journal_appends == 0
        assert journal.read_bytes() == before
        assert [path.name for path in tmp_path.iterdir()] == [JOURNAL_NAME]
        assert make_store(tmp_path).get("http://a/1").body == b"alpha"


class TestMetricsWiring:
    def test_metrics_report_recovery_and_journal_counts(self, tmp_path):
        seed_store = make_store(tmp_path)
        seed_store.put(doc("http://a/1", b"alpha"), now=1.0)
        seed_store.put(doc("http://a/2", b"beta"), now=2.0)
        # SIGKILL; then a proxy warm-starts over the same directory.

        store = make_store(tmp_path)
        proxy = CachingProxy(store, host="127.0.0.1", port=0).start()
        try:
            store.put(doc("http://a/3", b"gamma"), now=3.0)
            import urllib.request

            host, port = proxy.address
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=5,
            ) as response:
                text = response.read().decode("utf-8")
        finally:
            proxy.stop()
            store.close()
        metrics = {
            line.split()[0]: line.split()[1]
            for line in text.splitlines()
            if line and not line.startswith("#")
        }
        assert metrics["repro_proxy_store_recovered_documents"] == "2"
        assert metrics["repro_proxy_store_journal_tail_discarded"] == "0"
        assert int(metrics["repro_proxy_store_journal_appends_total"]) >= 1
        assert metrics["repro_proxy_store_journal_errors_total"] == "0"

    def test_recovery_event_emitted(self, tmp_path):
        from repro.obs import Obs

        seed_store = make_store(tmp_path)
        seed_store.put(doc("http://a/1", b"alpha"), now=1.0)

        store = make_store(tmp_path)
        obs = Obs()
        proxy = CachingProxy(store, host="127.0.0.1", port=0, obs=obs)
        try:
            events = [
                record for record in obs.events.to_dicts()
                if record["event"] == "store.recovered"
            ]
            assert len(events) == 1
            assert events[0]["documents"] == 1
        finally:
            store.close()


FIXTURES = Path(__file__).parent.parent / "fixtures"


class TestJournalFormats:
    def test_format_1_journal_revives_the_parent_state(self, tmp_path):
        """A format-1 journal (base64 bodies inside the JSON) holding
        bodies with \\n, \\r\\n and non-UTF-8 bytes, a replacement, an
        invalidate and an eviction revives exactly the state the format-1
        reader revived from it."""
        recorded = json.loads(
            (FIXTURES / "store_journal_v1_parent.json").read_text(),
        )
        shutil.copy(
            FIXTURES / "store_journal_v1_parent.jsonl", tmp_path / JOURNAL_NAME,
        )
        store = make_store(tmp_path, capacity=recorded["capacity"])
        assert {
            "documents": store.recovery.documents,
            "journal_replayed": store.recovery.journal_replayed,
            "tail_discarded": store.recovery.tail_discarded,
        } == recorded["recovery"]
        # Recovery compacted the revived state into a format-2 journal:
        # the puts the format-1 tree wrote into its snapshot, in order.
        replay = read_journal(tmp_path / JOURNAL_NAME, kind=STATE_KIND)
        assert not replay.truncated
        assert [dict(op["doc"], body=op["blob"])
                for op in replay.records if op["op"] == "put"] == [
            dict(document, body=base64.b64decode(document["body"]))
            for document in recorded["snapshot"]["documents"]
        ]
        assert len(replay.records) == store.recovery.documents

    def test_a_put_journals_its_body_raw(self, tmp_path):
        body = b"\x00\xff raw\r\n\n"
        store = make_store(tmp_path)
        store.put(doc("http://a/1", body), now=1.0)
        data = (tmp_path / JOURNAL_NAME).read_bytes()
        assert data.endswith(b"\n" + body + b"\n")
        assert b'"body"' not in data
        revived = make_store(tmp_path)
        assert revived.get("http://a/1").body == body

    def test_a_replacement_that_does_not_fit_stays_dropped(self, tmp_path):
        store = make_store(tmp_path, capacity=100)
        assert store.put(doc("http://a/1", b"x" * 50), now=1.0)
        assert not store.put(doc("http://a/1", b"y" * 500), now=2.0)
        assert "http://a/1" not in store
        assert store._stamps == {}
        revived = make_store(tmp_path, capacity=100)
        assert "http://a/1" not in revived
        assert revived.recovery.documents == 0
