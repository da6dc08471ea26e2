"""URL catalogs: the universe of documents a synthetic workload references.

A catalog holds, per media type, a column of documents in popularity order
(most popular first).  Each document has a stable URL, a home server, and a
*current* size that modification events may change over the life of the
trace — the paper measured that 0.5%-4.1% of re-referenced URLs had changed
size, and its hit definition (URL *and* size match) makes those
modifications misses.  A document is a rank in its column; a
:class:`Document` is a view built when asked for.

Servers are assigned to documents by a Zipf draw so that a few servers host
the popular documents, reproducing the request-per-server concentration of
Figure 1.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List

from repro.trace.record import DocumentType
from repro.workloads.sizes import SizeModel
from repro.workloads.zipf import ZipfSampler

__all__ = ["Document", "Column", "Catalog", "build_catalog"]

#: Representative filename extension per media type.
_EXTENSION_FOR_TYPE = {
    DocumentType.GRAPHICS: "gif",
    DocumentType.TEXT: "html",
    DocumentType.AUDIO: "au",
    DocumentType.VIDEO: "mpg",
    DocumentType.CGI: "cgi",
    DocumentType.UNKNOWN: "zip",
}


class Document:
    """One document in the synthetic universe: a value, built on request
    from its catalog column (:meth:`Column.document`)."""

    # Slotted by hand, as ``Request`` is: ``@dataclass(slots=True)`` needs
    # Python 3.10.
    __slots__ = (
        "url", "server", "doc_type", "size", "generation", "times_modified",
    )

    def __init__(
        self,
        url: str,
        server: str,
        doc_type: DocumentType,
        size: int,
        generation: int = 0,
        times_modified: int = 0,
    ) -> None:
        self.url = url
        self.server = server
        self.doc_type = doc_type
        self.size = size
        self.generation = generation
        self.times_modified = times_modified

    def __repr__(self) -> str:
        return (
            f"Document({self.url!r}, {self.server!r}, {self.doc_type}, "
            f"size={self.size}, generation={self.generation}, "
            f"times_modified={self.times_modified})"
        )


@dataclass
class Column:
    """One media type of one generation, in popularity order: each rank's
    current size (``array('q')``, as drawn until a modification rewrites
    it) and server (``array('i')`` of indices into ``hosts``, the
    catalog's server names), and how many times each modified rank
    changed size.  No ``Document`` is kept: :meth:`document` builds a
    view of a rank as it stands."""

    doc_type: DocumentType
    generation: int
    stem: str
    sizes: array
    server_ids: array
    hosts: List[str]
    modified: Dict[int, int] = field(init=False, default_factory=dict)

    def url(self, rank: int) -> str:
        """The URL of the document at popularity ``rank``."""
        return (
            f"http://{self.hosts[self.server_ids[rank]]}/{self.stem}{rank}"
            f".{_EXTENSION_FOR_TYPE[self.doc_type]}"
        )

    def modify(self, rank: int, new_size: int) -> None:
        """Record a modification event changing ``rank``'s size."""
        if new_size < 1:
            raise ValueError("modified size must be positive")
        self.sizes[rank] = new_size
        self.modified[rank] = self.modified.get(rank, 0) + 1

    def document(self, rank: int) -> Document:
        """A view of the document at popularity ``rank``, as it stands."""
        return Document(
            self.url(rank), self.hosts[self.server_ids[rank]], self.doc_type,
            self.sizes[rank], self.generation, self.modified.get(rank, 0),
        )


@dataclass
class Catalog:
    """The document universe: one column per media type and generation."""

    columns: List[Column] = field(default_factory=list)
    servers: List[str] = field(default_factory=list)

    @property
    def by_type(self) -> Dict[DocumentType, List[Document]]:
        """A view of every document per media type in popularity order,
        generation 0 first."""
        grouped: Dict[DocumentType, List[Document]] = {}
        for column in self.columns:
            grouped.setdefault(column.doc_type, []).extend(
                map(column.document, range(len(column.sizes)))
            )
        return grouped

    @property
    def size(self) -> int:
        """Total number of documents across all types."""
        return sum(len(column.sizes) for column in self.columns)

    @property
    def total_bytes(self) -> int:
        """Sum of current document sizes (upper bound on MaxNeeded)."""
        return sum(sum(column.sizes) for column in self.columns)

    def documents(self) -> List[Document]:
        """A view of every document, in no particular order."""
        return [doc for docs in self.by_type.values() for doc in docs]


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
    """Order sizes so that popular ranks (low indices) tend to be small.

    The paper's Figure 14 shows the re-reference mass concentrated at small
    document sizes: popular documents are mostly small ones (users avoid
    slow downloads; designers keep inline images small).  ``correlation``
    blends between a fully size-sorted assignment (1.0) and an independent
    shuffle (0.0) by ranking each ascending-sorted position with Gaussian
    noise proportional to ``1 - correlation``.
    """
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
    """Construct a catalog.

    Args:
        type_counts: number of documents per media type.
        size_models: calibrated size distribution per media type; must cover
            every type in ``type_counts``.
        rng: randomness source for sizes and server assignment.
        server_count: number of distinct servers in the universe.
        server_zipf_exponent: concentration of documents onto servers.
        domain: home domain for internal servers.
        generation: generation tag stamped on every document (used by the
            workload-U fall-semester user-population shift).
        url_prefix: extra path component distinguishing generations so URLs
            never collide across catalogs.
        size_rank_correlation: 0 = document size independent of popularity;
            1 = the most popular document of each type is also the
            smallest.  See :func:`_correlated_size_assignment`.
    """
    if server_count <= 0:
        raise ValueError("server_count must be positive")
    servers = _server_names(server_count, domain)
    server_cdf = ZipfSampler(server_count, server_zipf_exponent, rng=rng)
    cumulative, total, uniform = server_cdf.cumulative, server_cdf.total, rng.random
    columns = []
    for doc_type, count in type_counts.items():
        if count < 0:
            raise ValueError(f"negative document count for {doc_type}")
        if count == 0:
            continue
        sizes = array("q", _correlated_size_assignment(
            size_models[doc_type].draw(rng, count), size_rank_correlation, rng
        ))
        # Rank r's URL is http://<server>/<stem><r>.<extension>.
        columns.append(Column(
            doc_type, generation, f"{url_prefix}{doc_type.value}/doc{generation}_",
            sizes, array("i", [bisect_left(cumulative, uniform() * total) for _ in sizes]),
            servers,
        ))
    return Catalog(columns, servers)
