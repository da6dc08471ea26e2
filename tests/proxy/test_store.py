"""Tests for the thread-safe proxy document store."""

import threading

import pytest

from repro.core import KeyPolicy, SIZE, lru
from repro.proxy import CachedDocument, ProxyStore


def doc(url, size, **kwargs):
    return CachedDocument(url=url, body=b"x" * size, **kwargs)


class TestBasics:
    def test_put_get(self):
        store = ProxyStore(capacity=1000)
        assert store.put(doc("u", 100))
        cached = store.get("u")
        assert cached is not None
        assert cached.size == 100
        assert "u" in store
        assert len(store) == 1

    def test_miss(self):
        store = ProxyStore(capacity=1000)
        assert store.get("nope") is None
        assert store.stats.misses == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ProxyStore(capacity=0)

    def test_empty_body_rejected(self):
        store = ProxyStore(capacity=1000)
        assert not store.put(CachedDocument(url="u", body=b""))

    def test_get_and_put_build_no_request(self, monkeypatch):
        """The store drives its cache as one-row runs of (url, size,
        stamp); the URL's type is classified once, when it is stored."""
        import repro.core.cache as cache_module
        from repro.trace import Request

        def refuse(*args, **kwargs):
            raise AssertionError("a Request was built")

        classified = []
        classify = cache_module.classify_url
        monkeypatch.setattr(Request, "__init__", refuse)
        monkeypatch.setattr(
            cache_module, "classify_url",
            lambda url: classified.append(url) or classify(url),
        )
        store = ProxyStore(capacity=1000)
        assert store.put(doc("http://s/a.gif", 100), now=1.0)
        for now in (2.0, 3.0, 4.0):
            assert store.get("http://s/a.gif", now=now) is not None
        assert classified == ["http://s/a.gif"]
        assert store._cache.get("http://s/a.gif").nref == 4

    def test_used_bytes_tracks_bodies(self):
        store = ProxyStore(capacity=1000)
        store.put(doc("a", 100))
        store.put(doc("b", 200))
        assert store.used_bytes == 300
        assert store.snapshot() == {"a": 100, "b": 200}


class TestEviction:
    def test_size_policy_evicts_largest(self):
        store = ProxyStore(capacity=1000, policy=KeyPolicy([SIZE]))
        store.put(doc("small", 100))
        store.put(doc("big", 800))
        store.put(doc("incoming", 500))
        assert "big" not in store
        assert "small" in store
        assert "incoming" in store
        assert store.stats.evictions == 1

    def test_bodies_follow_metadata(self):
        """Evicted entries must drop their bodies (no leak, no ghost)."""
        store = ProxyStore(capacity=300, policy=KeyPolicy([SIZE]))
        store.put(doc("a", 200))
        store.put(doc("b", 200))
        assert store.used_bytes == sum(store.snapshot().values())
        assert len(store) == 1

    def test_oversized_document_rejected(self):
        store = ProxyStore(capacity=100)
        assert not store.put(doc("huge", 500))
        assert "huge" not in store

    def test_lru_policy_store(self):
        store = ProxyStore(capacity=300, policy=lru(), clock=lambda: 0.0)
        store.put(doc("a", 100), now=0.0)
        store.put(doc("b", 100), now=1.0)
        store.put(doc("c", 100), now=2.0)
        store.get("a", now=3.0)
        store.put(doc("d", 100), now=4.0)
        assert "b" not in store
        assert "a" in store


class TestReplacement:
    def test_replacing_updates_body(self):
        store = ProxyStore(capacity=1000)
        store.put(doc("u", 100))
        store.put(doc("u", 250))
        assert store.get("u").size == 250
        assert store.used_bytes == 250
        assert len(store) == 1

    def test_invalidate(self):
        store = ProxyStore(capacity=1000)
        store.put(doc("u", 100))
        assert store.invalidate("u")
        assert "u" not in store
        assert store.used_bytes == 0
        assert not store.invalidate("u")


class TestStats:
    def test_hit_rate(self):
        store = ProxyStore(capacity=1000)
        store.put(doc("u", 100))
        store.get("u")
        store.get("v")
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.hit_rate == 50.0

    def test_empty_hit_rate(self):
        assert ProxyStore(capacity=10).stats.hit_rate == 0.0

    def test_bytes_served(self):
        store = ProxyStore(capacity=1000)
        store.put(doc("u", 123))
        store.get("u")
        store.get("u")
        assert store.stats.bytes_served_from_cache == 246


class TestThreadSafety:
    def test_concurrent_put_get(self):
        """Hammer the store from several threads; accounting must stay
        exact and no exception may escape."""
        store = ProxyStore(capacity=50_000, policy=KeyPolicy([SIZE]))
        errors = []

        def worker(worker_id):
            try:
                for i in range(200):
                    url = f"u{worker_id}-{i % 20}"
                    store.put(doc(url, 100 + (i % 7) * 50))
                    store.get(url)
                    store.get(f"u{(worker_id + 1) % 4}-{i % 20}")
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.used_bytes == sum(store.snapshot().values())
        assert store.used_bytes <= store.capacity
