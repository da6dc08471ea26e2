"""Request records and document-type classification.

A *document* in the paper is any item retrieved by a URL.  Document types
follow the grouping of Table 4 of the paper: ``graphics``, ``text``,
``audio``, ``video``, ``cgi`` (dynamically generated) and ``unknown``,
derived from the filename extension as the paper describes ("files ending
in .gif, .jpg, .jpeg, etc. are considered graphics").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple
from urllib.parse import urlsplit


class DocumentType(enum.Enum):
    """Media-type categories used throughout the paper (Table 4)."""

    GRAPHICS = "graphics"
    TEXT = "text"
    AUDIO = "audio"
    VIDEO = "video"
    CGI = "cgi"
    UNKNOWN = "unknown"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Filename extensions for each category, mirroring mid-1990s web content.
_EXTENSION_TABLE = {
    DocumentType.GRAPHICS: "gif jpg jpeg jpe xbm xpm png bmp pbm pgm ppm rgb tif tiff ico",
    DocumentType.TEXT: "html htm txt text ps tex dvi doc rtf pdf md",
    DocumentType.AUDIO: "au snd wav aif aiff aifc mp2 mpa ra ram mid midi mp3",
    DocumentType.VIDEO: "mpg mpeg mpe mov qt avi movie fli",
}

_EXTENSION_TO_TYPE = {
    ext: doc_type for doc_type, names in _EXTENSION_TABLE.items() for ext in names.split()
}

#: Path substrings that mark a document as dynamically generated (CGI).
_CGI_MARKERS = ("/cgi-bin/", "/htbin/", "/cgi/")


def classify_extension(extension: str) -> DocumentType:
    """Map a bare filename extension (no dot) to a :class:`DocumentType`."""
    return _EXTENSION_TO_TYPE.get(extension.lower(), DocumentType.UNKNOWN)


def split_url(url: str) -> Tuple[str, str, bool]:
    """``(netloc, path, has_query)`` of a URL, exactly as ``urlsplit`` gives them.

    A plain ``http://host/path`` URL -- lower-case scheme, printable ASCII,
    none of ``?#[]`` -- is split at its first slash after the scheme, which
    is all ``urlsplit`` does with it.  Every other URL goes through
    ``urlsplit``.
    """
    if (url.startswith("http://") and url.isascii() and url.isprintable()
            and "?" not in url and "#" not in url and "[" not in url and "]" not in url):
        slash = url.find("/", 7)
        if slash < 0:
            return url[7:], "", False
        return url[7:slash], url[slash:], False
    parts = urlsplit(url)
    return parts.netloc, parts.path, bool(parts.query)


def classify_url(url: str) -> DocumentType:
    """Classify a URL into the paper's Table 4 categories.

    A URL is CGI if it carries a query string, ends in a known CGI
    extension, or lives under a conventional CGI directory.  Otherwise the
    category is derived from the final path component's extension; paths
    without an extension (including directory URLs ending in ``/``) are
    treated as text, matching how mid-90s servers returned ``index.html``.
    """
    _, path, has_query = split_url(url)
    lowered = path.lower()
    if has_query or lowered.endswith((".cgi", ".pl")) or any(
        marker in lowered for marker in _CGI_MARKERS
    ):
        return DocumentType.CGI
    final = lowered.rsplit("/", 1)[-1]
    extension = final.rsplit(".", 1)[1] if "." in final else ""
    if not extension:
        return DocumentType.TEXT
    return _EXTENSION_TO_TYPE.get(extension, DocumentType.UNKNOWN)


def server_of_url(url: str) -> str:
    """Return the host (server) component of a URL, lower-cased.

    URLs without a scheme are treated as server-relative and yield ``""``.
    """
    return split_url(url)[0].lower()


@dataclass(frozen=True, init=False)
class Request:
    """One client request for a URL: one row of a trace.

    Frozen and compared by value; slotted (no per-instance ``__dict__``)
    because iterating a trace builds one per row.

    Attributes:
        timestamp: seconds since the start of the trace epoch (float so that
            sub-second synthetic inter-arrivals are representable).
        url: the requested URL.  Matching in the cache is by exact URL string.
        size: document size in bytes as reported by the log (the response
            body length).  ``0`` encodes "size unknown" per Section 1.1.
        status: HTTP status code returned to the client (default 200).
        client: requesting host (dotted quad or name; default ``"-"``).
        doc_type: the Table 4 media category, precomputed when known.
        last_modified: Last-Modified timestamp when the augmented log carries
            it (workloads BR/BL); ``None`` otherwise.
    """

    # ``@dataclass(slots=True)`` needs Python 3.10; with explicit slots the
    # fields cannot carry class-level defaults, so ``__init__`` holds them.
    __slots__ = (
        "timestamp", "url", "size", "status", "client", "doc_type", "last_modified",
    )

    timestamp: float
    url: str
    size: int
    status: int
    client: str
    doc_type: Optional[DocumentType]
    last_modified: Optional[float]

    def __init__(
        self, timestamp: float, url: str, size: int, status: int = 200,
        client: str = "-", doc_type: Optional[DocumentType] = None,
        last_modified: Optional[float] = None,
    ) -> None:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        if timestamp < 0:
            raise ValueError(f"timestamp must be non-negative, got {timestamp}")
        # The slot descriptors write past the frozen ``__setattr__``.
        _set_timestamp(self, timestamp)
        _set_url(self, url)
        _set_size(self, size)
        _set_status(self, status)
        _set_client(self, client)
        _set_doc_type(self, doc_type)
        _set_last_modified(self, last_modified)

    def __reduce__(self):
        # Default pickling of a slotted object restores state with setattr,
        # which a frozen class refuses; rebuild through ``__init__`` instead.
        return (self.__class__, tuple(map(self.__getattribute__, self.__slots__)))

    @property
    def media_type(self) -> DocumentType:
        """The document's category, classifying the URL on demand."""
        if self.doc_type is not None:
            return self.doc_type
        return classify_url(self.url)

    @property
    def server(self) -> str:
        """The server (host) named by the URL."""
        return server_of_url(self.url)

    @property
    def day(self) -> int:
        """Zero-based day index of the request within the trace."""
        return int(self.timestamp // 86400)

    def with_size(self, size: int) -> "Request":
        """A copy carrying ``size`` (a size-0 line inheriting its URL's
        last known size, Section 1.1)."""
        return replace(self, size=size)


_set_timestamp = Request.timestamp.__set__
_set_url = Request.url.__set__
_set_size = Request.size.__set__
_set_status = Request.status.__set__
_set_client = Request.client.__set__
_set_doc_type = Request.doc_type.__set__
_set_last_modified = Request.last_modified.__set__


@dataclass
class TraceMetadata:
    """Descriptive header accompanying a trace.

    Not used by the simulator itself; carried so that generated traces are
    self-describing and reports can label output with the workload name.
    """

    name: str = ""
    description: str = ""
    start_epoch: float = 0.0
    duration_days: int = 0
    extra: dict = field(default_factory=dict)
