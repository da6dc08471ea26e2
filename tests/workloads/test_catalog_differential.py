"""The catalog builder against the eager one it replaced.

``build_catalog`` keeps each media type's draws as columns; a
``Document`` is a view built when asked for, and generation builds none.
The draws themselves are a compatibility contract (DESIGN §6.2): the same
values, in the same order, through the public ``random`` API only.  The code
below the rule is the eager builder, its size draw and its correlated
rank assignment copied verbatim from commit ``4ee0050``; each case
requires the same documents (url, server, type, size, generation) and
the same ``rng.getstate()`` afterwards, a pending ``gauss_next``
included.

The generator goldens run at scale 0.02, where U's catalog is ~15k
documents; ``tests/fixtures/generator_u_scale015_parent.json`` holds one
digest of U at the benchmark's scale 0.15, seed 1996, recorded at the
same commit (its fall catalog captured from the generator, since that
commit's trace dropped it).
"""

import gc
import hashlib
import json
import random
import tracemalloc
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Dict, List, Optional

import pytest

from repro.trace import DocumentType, format_clf_line
from repro.workloads import DEFAULT_SHAPES, SizeModel, generate, zipf_weights
from repro.workloads import catalog as lazy
from repro.workloads.catalog import Document

FIXTURE = (
    Path(__file__).resolve().parents[1] / "fixtures"
    / "generator_u_scale015_parent.json"
)

# -- the eager builder, verbatim ---------------------------------------------

_EXTENSION_FOR_TYPE = {
    DocumentType.GRAPHICS: "gif",
    DocumentType.TEXT: "html",
    DocumentType.AUDIO: "au",
    DocumentType.VIDEO: "mpg",
    DocumentType.CGI: "cgi",
    DocumentType.UNKNOWN: "zip",
}


@dataclass
class Catalog:
    """The document universe, grouped by media type in popularity order."""

    by_type: Dict[DocumentType, List[Document]] = field(default_factory=dict)
    servers: List[str] = field(default_factory=list)

    def documents(self) -> List[Document]:
        """All documents, in no particular order."""
        return [doc for docs in self.by_type.values() for doc in docs]


class ZipfSampler:
    def __init__(
        self,
        n: int,
        exponent: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.n = n
        self.exponent = exponent
        self._rng = rng if rng is not None else random.Random(0)
        self._cumulative = list(accumulate(zipf_weights(n, exponent)))
        self._total = self._cumulative[-1]

    def sample(self, rng: Optional[random.Random] = None) -> int:
        """Draw one index in ``[0, n)``; smaller indices are more likely."""
        source = rng if rng is not None else self._rng
        return bisect_left(self._cumulative, source.random() * self._total)


class EagerSizeModel:
    """A ``SizeModel``'s fields with the eager ``sample``."""

    def __init__(self, model: SizeModel) -> None:
        self.__dict__.update(vars(model))

    def sample(self, rng: random.Random) -> int:
        """Draw one document size in bytes."""
        if self.tail_probability and rng.random() < self.tail_probability:
            # Inverse-CDF Pareto draw.
            u = 1.0 - rng.random()
            size = self.tail_scale / (u ** (1.0 / self.tail_alpha))
        else:
            size = rng.lognormvariate(self.mu, self.sigma)
        return max(self.min_size, min(self.max_size, int(round(size))))


def _server_names(count: int, domain: str) -> List[str]:
    """Server hostnames; the first few live in the home domain, the rest
    spread over synthetic external domains (matching the BL observation that
    13 of the top 20 servers were outside vt.edu)."""
    names = []
    for index in range(count):
        if index < max(1, count // 4):
            names.append(f"server{index}.{domain}")
        else:
            names.append(f"www{index}.ext{index % 97}.example.com")
    return names


def _correlated_size_assignment(
    sizes: List[int], correlation: float, rng: random.Random
) -> List[int]:
    if not 0.0 <= correlation <= 1.0:
        raise ValueError("correlation must be in [0, 1]")
    count = len(sizes)
    ordered = sorted(sizes)
    if correlation >= 1.0 or count < 2:
        return ordered
    disorder = (1.0 - correlation) * count
    gauss = rng.gauss
    noisy = [index + gauss(0.0, disorder) for index in range(count)]
    noisy_positions = sorted(range(count), key=noisy.__getitem__)
    return [ordered[index] for index in noisy_positions]


def build_catalog(
    type_counts: Dict[DocumentType, int],
    size_models: Dict[DocumentType, SizeModel],
    rng: random.Random,
    server_count: int = 100,
    server_zipf_exponent: float = 1.0,
    domain: str = "cs.vt.edu",
    generation: int = 0,
    url_prefix: str = "",
    size_rank_correlation: float = 0.0,
) -> Catalog:
    if server_count <= 0:
        raise ValueError("server_count must be positive")
    servers = _server_names(server_count, domain)
    sample_server = ZipfSampler(server_count, server_zipf_exponent, rng=rng).sample
    by_type: Dict[DocumentType, List[Document]] = {}
    for doc_type, count in type_counts.items():
        if count < 0:
            raise ValueError(f"negative document count for {doc_type}")
        if count == 0:
            continue
        sample_size = size_models[doc_type].sample
        sizes = [sample_size(rng) for _ in range(count)]
        sizes = _correlated_size_assignment(
            sizes, size_rank_correlation, rng
        )
        # Each URL is http://<server>/<stem><index><suffix>.
        stem = f"{url_prefix}{doc_type.value}/doc{generation}_"
        suffix = f".{_EXTENSION_FOR_TYPE[doc_type]}"
        documents = []
        for index, size in enumerate(sizes):
            server = servers[sample_server(rng)]
            documents.append(Document(
                f"http://{server}/{stem}{index}{suffix}",
                server, doc_type, size, generation,
            ))
        by_type[doc_type] = documents
    return Catalog(by_type=by_type, servers=servers)


# -- the cases ---------------------------------------------------------------

MODELS = {
    doc_type: DEFAULT_SHAPES[doc_type.value] for doc_type in _EXTENSION_FOR_TYPE
}
EAGER_MODELS = {
    doc_type: EagerSizeModel(model) for doc_type, model in MODELS.items()
}
G, T, A, V, C, U = (
    DocumentType.GRAPHICS, DocumentType.TEXT, DocumentType.AUDIO,
    DocumentType.VIDEO, DocumentType.CGI, DocumentType.UNKNOWN,
)
COUNTS = [
    {},
    {G: 0},
    {C: 1},             # no Pareto tail
    {T: 1},
    {A: 2},
    {C: 2, V: 0},
    {G: 7},
    {C: 57, G: 301, V: 2, T: 1, U: 0, A: 33},
]


def seeded(seed: int, earlier_gauss: int) -> random.Random:
    rng = random.Random(seed)
    for _ in range(earlier_gauss):
        rng.gauss(0.0, 1.0)
    return rng


def rows(catalog) -> list:
    return [
        (d.url, d.server, d.doc_type, d.size, d.generation)
        for d in catalog.documents()
    ]


@pytest.mark.parametrize("correlation", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("counts", COUNTS)
@pytest.mark.parametrize("earlier_gauss", [0, 1, 3])
def test_same_documents_and_state_as_eager(correlation, counts, earlier_gauss):
    options = dict(
        server_count=37, server_zipf_exponent=0.9, domain="cs.vt.edu",
        generation=earlier_gauss % 2, url_prefix="u/fall/" * (earlier_gauss % 2),
        size_rank_correlation=correlation,
    )
    eager_rng, lazy_rng = seeded(1996, earlier_gauss), seeded(1996, earlier_gauss)
    eager = build_catalog(counts, EAGER_MODELS, eager_rng, **options)
    made = lazy.build_catalog(counts, MODELS, lazy_rng, **options)
    assert lazy_rng.getstate() == eager_rng.getstate()
    assert rows(made) == rows(eager)
    assert list(made.by_type) == list(eager.by_type)
    assert made.servers == eager.servers
    assert made.size == len(eager.documents())
    assert made.total_bytes == sum(d.size for d in eager.documents())
    assert lazy_rng.gauss(0.0, 1.0) == eager_rng.gauss(0.0, 1.0)


@pytest.mark.parametrize("earlier_gauss", [0, 1])
@pytest.mark.parametrize("family", sorted(DEFAULT_SHAPES))
def test_size_sample_matches_eager(family, earlier_gauss):
    model = DEFAULT_SHAPES[family]
    eager_rng, lazy_rng = seeded(7, earlier_gauss), seeded(7, earlier_gauss)
    eager = [EagerSizeModel(model).sample(eager_rng) for _ in range(301)]
    assert [model.sample(lazy_rng) for _ in range(301)] == eager
    assert lazy_rng.getstate() == eager_rng.getstate()


def test_correlated_assignment_matches_eager():
    sizes = [EagerSizeModel(DEFAULT_SHAPES["text"]).sample(random.Random(i))
             for i in range(99)]
    for correlation in (0.0, 0.5, 1.0):
        eager_rng, lazy_rng = seeded(3, 1), seeded(3, 1)
        assert lazy._correlated_size_assignment(
            sizes, correlation, lazy_rng
        ) == _correlated_size_assignment(sizes, correlation, eager_rng)
        assert lazy_rng.getstate() == eager_rng.getstate()


# -- the generator at the benchmark's scale ------------------------------------


#: ``tracemalloc`` bytes generating U at scale 0.15, seed 1996, leaves
#: held (the raw log and the catalog) and reaches at its peak (inside the
#: request loop).  Measured 4.30 MB and 6.91 MB on CPython 3.11; 6.27 MB
#: and 9.12 MB with a ``Document`` and two URL-set entries a referenced
#: URL.  One URL set alone adds ~0.5 MB at the peak.
U_HELD_BYTES = 4_750_000
U_PEAK_BYTES = 7_250_000


@pytest.fixture(scope="module")
def u_trace():
    """U at scale 0.15, seed 1996, and what generating it cost: the
    ``Document`` constructions made, and the bytes held and at the peak."""
    made = []
    init = Document.__init__

    def counting(self, *args, **kwargs):
        made.append(None)
        init(self, *args, **kwargs)

    Document.__init__ = counting
    tracemalloc.start()
    try:
        trace = generate("U", seed=1996, scale=0.15)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        Document.__init__ = init
    return trace, {"documents": len(made), "held": held, "peak": peak}


def test_u_at_scale_015_matches_the_eager_generator(u_trace):
    trace, _ = u_trace
    clf, fields = hashlib.sha256(), hashlib.sha256()
    for request in trace.raw:
        clf.update(
            (format_clf_line(request, augmented=True) + "\n").encode("utf-8")
        )
        fields.update(repr((
            request.timestamp, request.url, request.size, request.status,
            request.client, request.doc_type.value, request.last_modified,
        )).encode("utf-8"))
    documents = trace.catalog.documents()
    catalog = sorted(
        (d.url, d.server, d.doc_type.value, d.size, d.generation,
         d.times_modified)
        for d in documents
    )
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert {
        "requests": len(trace.raw),
        "clf_sha256": clf.hexdigest(),
        "fields_sha256": fields.hexdigest(),
        "catalog_sha256": hashlib.sha256(
            repr(catalog).encode("utf-8")
        ).hexdigest(),
        "documents": len(documents),
        "referenced_urls": len({r.url for r in trace.raw}),
    } == golden["U:seed=1996:scale=0.15"]


def test_generation_makes_no_document(u_trace):
    """A referenced document is an id, never a ``Document``: generation
    constructs none, and the catalog still lists every document, the
    11,386 the trace names among them."""
    trace, cost = u_trace
    assert cost["documents"] == 0
    assert trace.catalog.size == len(trace.catalog.documents()) == 110_394
    assert len({r.url for r in trace.raw}) == 11_386


def test_generation_memory_stays_bounded(u_trace):
    _, cost = u_trace
    assert cost["held"] < U_HELD_BYTES
    assert cost["peak"] < U_PEAK_BYTES


def test_catalog_totals_read_the_columns(u_trace, monkeypatch):
    """``total_bytes`` and ``size`` count modified sizes and every
    document without building one."""
    catalog = u_trace[0].catalog
    assert sum(len(column.modified) for column in catalog.columns) == 220
    made = []
    init = Document.__init__
    monkeypatch.setattr(
        Document, "__init__", lambda self, *args: made.append(init(self, *args))
    )
    totals = catalog.total_bytes, catalog.size
    assert made == []
    documents = catalog.documents()
    assert totals == (sum(d.size for d in documents), len(documents))
    assert sum(d.times_modified > 0 for d in documents) == 220


@pytest.mark.parametrize("profile", ["U", "C", "G", "BR", "BL"])
def test_every_logged_url_is_a_catalog_document(profile):
    """The trace's catalog holds every document the generator can
    reference, U's fall generation included."""
    trace = generate(profile, seed=1996, scale=0.05)
    documents = {doc.url: doc for doc in trace.catalog.documents()}
    for request in trace.raw:
        assert documents[request.url].doc_type == request.doc_type
