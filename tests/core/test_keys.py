"""Tests for the Table 1 sorting keys."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    ALL_KEYS,
    ATIME,
    DAY_ATIME,
    ETIME,
    LATENCY,
    LOG2SIZE,
    NREF,
    RANDOM,
    SIZE,
    TAXONOMY_KEYS,
    TTL,
    TYPE_PRIORITY,
    CacheEntry,
    KeyPolicy,
    key_by_name,
)
from repro.trace import DocumentType


def entry(**kwargs):
    defaults = dict(url="u", size=1000, etime=10.0, atime=20.0)
    defaults.update(kwargs)
    return CacheEntry(**defaults)


class TestRemovalOrder:
    """Smaller key value = removed sooner; check each Table 1 order."""

    def test_size_removes_largest_first(self):
        large, small = entry(size=5000), entry(size=100)
        assert SIZE.value(large) < SIZE.value(small)

    def test_log2size_groups_sizes(self):
        a, b = entry(size=1500), entry(size=1900)  # both floor(log2)=10
        assert LOG2SIZE.value(a) == LOG2SIZE.value(b)
        bigger = entry(size=5000)
        assert LOG2SIZE.value(bigger) < LOG2SIZE.value(a)

    def test_log2size_matches_paper_values(self):
        # Table 2's middle rows, with kB = 1024 bytes.
        for kb, expected in [(1.9, 10), (9, 13), (15, 13), (8, 13),
                             (0.3, 8), (5.2, 12)]:
            e = entry(size=int(kb * 1024))
            assert LOG2SIZE.value(e) == -expected

    def test_etime_removes_oldest_first(self):
        old, new = entry(etime=1.0), entry(etime=9.0)
        assert ETIME.value(old) < ETIME.value(new)

    def test_atime_removes_least_recent_first(self):
        stale, fresh = entry(atime=5.0), entry(atime=50.0)
        assert ATIME.value(stale) < ATIME.value(fresh)

    def test_day_atime_quantises_to_days(self):
        morning = entry(atime=86400.0 + 100.0)
        evening = entry(atime=86400.0 + 80000.0)
        assert DAY_ATIME.value(morning) == DAY_ATIME.value(evening) == 1.0

    def test_nref_removes_least_referenced_first(self):
        cold, hot = entry(nref=1), entry(nref=9)
        assert NREF.value(cold) < NREF.value(hot)

    def test_random_uses_stamp(self):
        assert RANDOM.value(entry(random_stamp=0.25)) == 0.25


class TestExtensionKeys:
    def test_type_priority_media_before_text(self):
        video = entry(doc_type=DocumentType.VIDEO)
        text = entry(doc_type=DocumentType.TEXT)
        assert TYPE_PRIORITY.value(video) < TYPE_PRIORITY.value(text)

    def test_latency_cheap_refetch_first(self):
        near = entry(latency=0.05)
        far = entry(latency=2.0)
        assert LATENCY.value(near) < LATENCY.value(far)

    def test_ttl_earliest_expiry_first(self):
        soon = entry(expires_at=100.0)
        later = entry(expires_at=900.0)
        never = entry(expires_at=None)
        assert TTL.value(soon) < TTL.value(later) < TTL.value(never)
        assert TTL.value(never) == math.inf


class TestKeyRegistry:
    def test_taxonomy_is_the_paper_six(self):
        names = [k.name for k in TAXONOMY_KEYS]
        assert names == [
            "SIZE", "LOG2SIZE", "ETIME", "ATIME", "DAY(ATIME)", "NREF",
        ]

    def test_lookup_by_name(self):
        assert key_by_name("size") is SIZE
        assert key_by_name("DAY(ATIME)") is DAY_ATIME

    def test_lookup_unknown(self):
        with pytest.raises(KeyError):
            key_by_name("COLOUR")

    def test_mutability_flags(self):
        assert not SIZE.mutable
        assert not ETIME.mutable
        assert ATIME.mutable
        assert DAY_ATIME.mutable
        assert NREF.mutable

    def test_keys_hashable_and_comparable(self):
        assert len(set(ALL_KEYS)) == len(ALL_KEYS)
        assert SIZE == key_by_name("SIZE")
        assert SIZE != ATIME


class TestEntry:
    def test_touch_updates_recency(self):
        e = entry()
        e.touch(99.0)
        assert e.atime == 99.0
        assert e.nref == 2

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            entry(size=0)

    def test_atime_day(self):
        assert entry(atime=3 * 86400.0 + 5).atime_day == 3

    def test_positional_and_keyword_construction_agree(self):
        values = ("u", 7, 1.0, 2.0, 3, DocumentType.AUDIO, 0.5, 0.25, 9.0, 4)
        positional = CacheEntry(*values)
        keyword = CacheEntry(**dict(zip(CacheEntry.__slots__, values)))
        for name, value in zip(CacheEntry.__slots__, values):
            assert getattr(positional, name) == getattr(keyword, name) == value

    def test_defaults(self):
        e = CacheEntry("u", 7, 1.0, 2.0)
        assert (e.nref, e.doc_type, e.random_stamp) == (1, DocumentType.UNKNOWN, 0.0)
        assert (e.latency, e.expires_at, e.heap_seq) == (0.0, None, 0)

    def test_slotted(self):
        e = entry()
        assert not hasattr(e, "__dict__")
        with pytest.raises(AttributeError):
            e.colour = "red"

    def test_repr_names_every_field(self):
        text = repr(entry(url="http://x/"))
        assert text.startswith("CacheEntry(url='http://x/', size=1000, ")
        assert all(f"{name}=" in text for name in CacheEntry.__slots__)


entries = st.builds(
    CacheEntry,
    url=st.just("u"),
    size=st.integers(min_value=1, max_value=2**40),
    etime=st.floats(min_value=0, max_value=1e9),
    atime=st.floats(min_value=0, max_value=1e9),
    nref=st.integers(min_value=1, max_value=10**6),
    doc_type=st.sampled_from(list(DocumentType)),
    random_stamp=st.floats(min_value=0, max_value=1),
    latency=st.floats(min_value=0, max_value=60),
    expires_at=st.none() | st.floats(min_value=0, max_value=2e9),
)


@pytest.mark.parametrize("key", ALL_KEYS, ids=lambda key: key.name)
@given(e=entries, ahead=st.floats(min_value=0, max_value=1e9))
def test_no_key_falls_on_a_hit_under_a_forward_clock(key, e, ahead):
    """The contract ``HeapIndex``'s lazy revaluation rests on
    (:class:`SortKey`): while the clock does not run backwards a hit
    never lowers a key's value, so a heap record can only understate."""
    before = key.value(e)
    e.touch(e.atime + ahead)
    assert key.value(e) >= before


@pytest.mark.parametrize(
    "keys",
    [[key] for key in ALL_KEYS] + [list(ALL_KEYS)],
    ids=[key.name for key in ALL_KEYS] + ["ALL"],
)
@given(e=entries, seq=st.integers(min_value=1, max_value=2**40))
def test_a_heap_record_is_the_sort_value_then_seq_entry_nref(keys, e, seq):
    """``record`` and ``sort_value`` are compiled from the same key
    expressions, and both agree with each key's own ``value``."""
    policy = KeyPolicy(keys)
    width = len(policy.keys)
    record = policy.record(e, seq, e.nref)
    assert record[:width] == policy.sort_value(e)
    assert record[width:] == (seq, e, e.nref)
    assert policy.sort_value(e) == tuple(key.value(e) for key in policy.keys)
