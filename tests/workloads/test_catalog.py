"""Tests for the URL catalog builder."""

import random

import pytest

from repro.trace import DocumentType
from repro.workloads import build_catalog, model_for_mean

MODELS = {
    DocumentType.GRAPHICS: model_for_mean("graphics", 3_000),
    DocumentType.AUDIO: model_for_mean("audio", 1_000_000),
}


def make_catalog(**kwargs):
    defaults = dict(
        type_counts={DocumentType.GRAPHICS: 50, DocumentType.AUDIO: 5},
        size_models=MODELS,
        rng=random.Random(0),
        server_count=10,
    )
    defaults.update(kwargs)
    return build_catalog(**defaults)


class TestBuildCatalog:
    def test_counts_respected(self):
        catalog = make_catalog()
        assert len(catalog.by_type[DocumentType.GRAPHICS]) == 50
        assert len(catalog.by_type[DocumentType.AUDIO]) == 5
        assert catalog.size == 55

    def test_urls_unique(self):
        catalog = make_catalog()
        urls = [d.url for d in catalog.documents()]
        assert len(urls) == len(set(urls))

    def test_urls_classify_to_their_type(self):
        from repro.trace import classify_url
        catalog = make_catalog()
        for doc in catalog.documents():
            assert classify_url(doc.url) == doc.doc_type

    def test_server_in_url(self):
        catalog = make_catalog()
        for doc in catalog.documents():
            assert doc.url.startswith(f"http://{doc.server}/")

    def test_zero_count_type_omitted(self):
        catalog = make_catalog(
            type_counts={DocumentType.GRAPHICS: 3, DocumentType.AUDIO: 0},
        )
        assert DocumentType.AUDIO not in catalog.by_type

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            make_catalog(type_counts={DocumentType.GRAPHICS: -1})

    def test_invalid_server_count(self):
        with pytest.raises(ValueError):
            make_catalog(server_count=0)

    def test_generations_do_not_collide(self):
        a = make_catalog(generation=0)
        b = make_catalog(generation=1, url_prefix="fall/")
        urls_a = {d.url for d in a.documents()}
        urls_b = {d.url for d in b.documents()}
        assert not urls_a & urls_b

    def test_total_bytes_positive(self):
        assert make_catalog().total_bytes > 0

    def test_deterministic(self):
        a = build_catalog(
            {DocumentType.GRAPHICS: 20}, MODELS, random.Random(9),
            server_count=5,
        )
        b = build_catalog(
            {DocumentType.GRAPHICS: 20}, MODELS, random.Random(9),
            server_count=5,
        )
        assert [d.size for d in a.documents()] == [d.size for d in b.documents()]


class TestDocument:
    """A document is modified in its column; its view shows it."""

    def test_modify_updates_size_and_counter(self):
        column = make_catalog().columns[0]
        before = column.document(3)
        column.modify(3, 200)
        column.modify(3, 200)
        after = column.document(3)
        assert (after.size, after.times_modified) == (200, 2)
        assert (after.url, after.server) == (before.url, before.server)
        assert before.times_modified == 0
        assert column.document(4).times_modified == 0

    def test_modify_rejects_nonpositive(self):
        column = make_catalog().columns[0]
        size = column.sizes[3]
        with pytest.raises(ValueError):
            column.modify(3, 0)
        assert column.sizes[3] == size and not column.modified
