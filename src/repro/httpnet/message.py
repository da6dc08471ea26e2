"""HTTP/1.0 message parsing and serialisation.

Implements the subset of RFC 1945 the reproduction needs: request lines
(``GET <url> HTTP/1.0``), status lines, headers, ``Content-Length`` bodies,
conditional GET (``If-Modified-Since``), and ``Last-Modified`` dates in
RFC 1123 format.  Used by both the passive sniffer
(:mod:`repro.httpnet.sniffer`) and the live proxy (:mod:`repro.proxy`).
"""

from __future__ import annotations

import calendar
import re
import time as _time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = [
    "get_header",
    "HttpMessageError",
    "HttpRequest",
    "HttpResponse",
    "parse_http_date",
    "format_http_date",
    "REASON_PHRASES",
]


class HttpMessageError(ValueError):
    """Raised when bytes cannot be parsed as an HTTP/1.0 message."""


REASON_PHRASES = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    408: "Request Timeout",
    500: "Internal Server Error",
    501: "Not Implemented",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def format_http_date(epoch: float) -> str:
    """Format a Unix epoch as an RFC 1123 date (``Sun, 06 Nov 1994
    08:49:37 GMT``)."""
    tm = _time.gmtime(epoch)
    return (
        f"{_WEEKDAYS[tm.tm_wday]}, {tm.tm_mday:02d} "
        f"{_MONTHS[tm.tm_mon - 1]} {tm.tm_year:04d} "
        f"{tm.tm_hour:02d}:{tm.tm_min:02d}:{tm.tm_sec:02d} GMT"
    )


_FIXDATE = re.compile(
    rf"(?:{'|'.join(_WEEKDAYS)}), ([0-9]{{2}}) ({'|'.join(_MONTHS)}) "
    r"([0-9]{4}) ([0-9]{2}):([0-9]{2}):([0-9]{2}) GMT"
)


def parse_http_date(text: str) -> float:
    """Parse an RFC 1123 date (IMF-fixdate) to a Unix epoch, with the
    field ranges ``time.strptime`` checks (year from 1, day within its
    month, hour 0-23, minute 0-59, second 0-61).

    Raises:
        HttpMessageError: when the date is unparseable.
    """
    match = _FIXDATE.fullmatch(text.strip())
    if match:
        day, year, hour, minute, second = map(int, match.group(1, 3, 4, 5, 6))
        month = _MONTHS.index(match.group(2)) + 1
        if (year >= 1 and 1 <= day <= calendar.monthrange(year, month)[1]
                and hour < 24 and minute < 60 and second < 62):
            return float(calendar.timegm(
                (year, month, day, hour, minute, second)))
    raise HttpMessageError(f"bad HTTP date {text!r}")


def get_header(headers: Dict[str, str], name: str) -> Optional[str]:
    """Case-insensitive header lookup (parsed messages store lowercase
    names; hand-constructed messages typically use canonical case)."""
    value = headers.get(name)
    if value is not None:
        return value
    lowered = name.lower()
    value = headers.get(lowered)
    if value is not None:
        return value
    for key, value in headers.items():
        if key.lower() == lowered:
            return value
    return None


def _header_date(headers: Dict[str, str], name: str) -> Optional[float]:
    """A date header's epoch; ``None`` when it is absent or invalid (RFC
    7232 §3.3: a recipient ignores an invalid date)."""
    value = get_header(headers, name)
    try:
        return None if value is None else parse_http_date(value)
    except HttpMessageError:
        return None


def _parse_headers(block: bytes) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    for line in block.decode("latin-1").split("\r\n"):
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpMessageError(
                f"malformed header line {line.encode('latin-1')!r}"
            )
        headers[name.strip().lower()] = value.strip()
    return headers


def _split_head(data: bytes) -> Tuple[bytes, bytes]:
    """Split raw bytes at the header/body boundary."""
    head, sep, body = data.partition(b"\r\n\r\n")
    if not sep:
        # Tolerate bare-LF clients, as 90s servers did.
        head, sep, body = data.partition(b"\n\n")
        if not sep:
            raise HttpMessageError("incomplete message: no header terminator")
    # Normalise the head to CRLF line endings (idempotent for CRLF input).
    head = head.replace(b"\r\n", b"\n").replace(b"\n", b"\r\n")
    return head, body


@dataclass
class HttpRequest:
    """An HTTP/1.0 request message."""

    method: str
    url: str
    version: str = "HTTP/1.0"
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @classmethod
    def parse(cls, data: bytes) -> "HttpRequest":
        """Parse a full request from raw bytes."""
        head, body = _split_head(data)
        request_line, _, header_block = head.partition(b"\r\n")
        parts = request_line.decode("latin-1").split()
        if len(parts) == 2:
            method, url = parts
            version = "HTTP/0.9"
        elif len(parts) == 3:
            method, url, version = parts
        else:
            raise HttpMessageError(
                f"malformed request line {request_line!r}"
            )
        return cls(
            method=method.upper(),
            url=url,
            version=version,
            headers=_parse_headers(header_block),
            body=body,
        )

    def serialize(self) -> bytes:
        """Render the request as wire bytes."""
        lines = [f"{self.method} {self.url} {self.version}"]
        lines.extend(f"{name}: {value}" for name, value in self.headers.items())
        head = "\r\n".join(lines).encode("latin-1")
        return head + b"\r\n\r\n" + self.body

    @property
    def if_modified_since(self) -> Optional[float]:
        """The conditional-GET timestamp, when present and valid."""
        return _header_date(self.headers, "if-modified-since")


@dataclass
class HttpResponse:
    """An HTTP/1.0 response message."""

    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.0"
    reason: str = ""

    @classmethod
    def parse(cls, data: bytes) -> "HttpResponse":
        """Parse a full response from raw bytes."""
        head, body = _split_head(data)
        status_line, _, header_block = head.partition(b"\r\n")
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not (parts[1].isascii() and parts[1].isdigit()):
            raise HttpMessageError(f"malformed status line {status_line!r}")
        version = parts[0]
        status = int(parts[1])
        reason = parts[2] if len(parts) > 2 else ""
        return cls(
            status=status,
            headers=_parse_headers(header_block),
            body=body,
            version=version,
            reason=reason,
        )

    def serialize(self) -> bytes:
        """Render the response as wire bytes, filling ``Content-Length``
        in unless the headers carry one already, in any case (a parsed
        upstream response carries ``content-length``)."""
        reason = self.reason or REASON_PHRASES.get(self.status, "")
        lines = [f"{self.version} {self.status} {reason}".rstrip()]
        declared = False
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
            declared = declared or name.lower() == "content-length"
        if not declared:
            lines.append(f"Content-Length: {len(self.body)}")
        head = "\r\n".join(lines).encode("latin-1")
        return head + b"\r\n\r\n" + self.body

    @property
    def content_length(self) -> Optional[int]:
        """Declared body length, when present and well-formed."""
        value = get_header(self.headers, "content-length")
        # isascii: str.isdigit() also accepts "²", which int() refuses.
        if value is None or not (value.isascii() and value.isdigit()):
            return None
        return int(value)

    @property
    def last_modified(self) -> Optional[float]:
        """Parsed ``Last-Modified`` header, when present and valid."""
        return _header_date(self.headers, "last-modified")

    @property
    def content_type(self) -> str:
        value = get_header(self.headers, "content-type")
        return value if value is not None else "application/octet-stream"
