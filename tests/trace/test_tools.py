"""Tests for trace manipulation tools."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import DocumentType, Request
from repro.trace.tools import (
    anonymize_clients,
    filter_clients,
    filter_days,
    filter_servers,
    filter_types,
    merge_tagged,
    merge_traces,
    rebase_timestamps,
    split_by_day,
    split_by_type,
)


def req(t, url="http://a.edu/x.html", size=10, client="c1"):
    return Request(timestamp=float(t), url=url, size=size, client=client)


TRACE = [
    req(0, client="inside.cs.vt.edu"),
    req(86_400 + 5, url="http://b.com/y.gif", client="outside.example.net"),
    req(2 * 86_400 + 5, url="http://a.edu/z.au", client="inside.cs.vt.edu"),
]


class TestFilters:
    def test_filter_days(self):
        kept = list(filter_days(TRACE, 1, 2))
        assert [r.day for r in kept] == [1, 2]

    def test_filter_days_validation(self):
        with pytest.raises(ValueError):
            list(filter_days(TRACE, 3, 1))

    def test_filter_clients_br_style(self):
        remote = list(filter_clients(
            TRACE, lambda c: not c.endswith(".cs.vt.edu"),
        ))
        assert len(remote) == 1
        assert remote[0].client == "outside.example.net"

    def test_filter_servers(self):
        kept = list(filter_servers(TRACE, lambda s: s == "a.edu"))
        assert len(kept) == 2

    def test_filter_types(self):
        audio = list(filter_types(TRACE, [DocumentType.AUDIO]))
        assert len(audio) == 1
        assert audio[0].url.endswith(".au")


class TestMergeSplit:
    def test_merge_orders_by_timestamp(self):
        a = [req(0), req(10)]
        b = [req(5), req(15)]
        merged = merge_traces(a, b)
        assert [r.timestamp for r in merged] == [0.0, 5.0, 10.0, 15.0]

    def test_merge_empty(self):
        assert merge_traces([], []) == []

    def test_merge_breaks_timestamp_ties_by_input_order(self):
        """Requests define no order: a tie at the same timestamp and the
        same position must not fall through to comparing them."""
        a = [Request(5.0, "http://b/y", 2)]
        b = [Request(5.0, "http://a/x", 1)]
        assert merge_traces(a, b) == a + b
        assert merge_traces(b, a) == b + a

    def test_merge_tagged_orders_by_timestamp_then_name(self):
        a = [Request(5.0, "http://a/x", 1), Request(7.0, "http://a/z", 1)]
        b = [Request(5.0, "http://b/y", 2)]
        assert list(merge_tagged({"b": b, "a": a})) == [
            ("a", a[0]), ("b", b[0]), ("a", a[1]),
        ]

    def test_split_by_type_covers_all_types(self):
        parts = split_by_type(TRACE)
        assert set(parts) == set(DocumentType)
        assert len(parts[DocumentType.TEXT]) == 1
        assert len(parts[DocumentType.GRAPHICS]) == 1
        assert len(parts[DocumentType.AUDIO]) == 1
        assert len(parts[DocumentType.VIDEO]) == 0

    def test_split_by_day(self):
        parts = split_by_day(TRACE)
        assert set(parts) == {0, 1, 2}

    def test_split_then_merge_is_identity(self):
        parts = split_by_day(TRACE)
        merged = merge_traces(*(parts[d] for d in sorted(parts)))
        assert merged == TRACE


class TestAnonymize:
    def test_stable_tokens(self):
        out = list(anonymize_clients(TRACE, salt="s"))
        assert out[0].client == out[2].client  # same source client
        assert out[0].client != out[1].client
        assert out[0].client.startswith("client-")

    def test_salt_changes_mapping(self):
        a = list(anonymize_clients(TRACE, salt="a"))
        b = list(anonymize_clients(TRACE, salt="b"))
        assert a[0].client != b[0].client

    def test_other_fields_untouched(self):
        out = list(anonymize_clients(TRACE))
        assert [r.url for r in out] == [r.url for r in TRACE]
        assert [r.size for r in out] == [r.size for r in TRACE]


class TestRebase:
    def test_first_request_at_start(self):
        shifted = rebase_timestamps(TRACE[1:], start=0.0)
        assert shifted[0].timestamp == 0.0
        assert shifted[1].timestamp == TRACE[2].timestamp - TRACE[1].timestamp

    def test_empty(self):
        assert rebase_timestamps([]) == []


@given(st.lists(
    st.tuples(st.integers(0, 10 * 86_400), st.integers(1, 100)),
    max_size=50,
).map(lambda pairs: sorted(pairs)))
@settings(max_examples=80, deadline=None)
def test_split_merge_property(pairs):
    trace = [req(t, size=s) for t, s in pairs]
    parts = split_by_day(trace)
    merged = merge_traces(*(parts[d] for d in sorted(parts)))
    assert [r.timestamp for r in merged] == [r.timestamp for r in trace]
