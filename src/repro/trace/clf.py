"""Common log format (CLF) parsing and emission.

The NCSA/CERN common log format is::

    host ident authuser [DD/Mon/YYYY:HH:MM:SS zone] "METHOD url HTTP/v" status bytes

The paper's tcpdump filter produces CLF "augmented by additional fields
representing header fields not present in common format logs"; we support an
optional trailing ``last_modified`` epoch column for that purpose (workloads
BR and BL carried Last-Modified, which the paper used to estimate how often a
same-size document had actually changed).

Timestamps are converted to seconds relative to an epoch supplied by the
caller, because the simulator operates on trace-relative time.
"""

from __future__ import annotations

import calendar
import math
import re
import time as _time
from typing import Dict, Optional

from repro.trace.record import Request

__all__ = ["CLFError", "parse_clf_line", "format_clf_line", "parse_clf_time"]


class CLFError(ValueError):
    """Raised when a log line cannot be parsed as common log format."""


#: ``DD/Mon/YYYY:HH:MM:SS`` and an optional zone.  The date is one group so
#: that it can key the per-day cache below.
_TIME_PATTERN = (
    r"(\d{2}/[A-Z][a-z]{2}/\d{4}):(\d{2}):(\d{2}):(\d{2})\s*([+-]\d{4})?"
)
_TIME_RE = re.compile("^" + _TIME_PATTERN + "$")

#: One match a line.  Groups: host, bracket text, (date, hh, mm, ss, zone),
#: request field, status, bytes, lastmod.  The bracket takes a well-formed
#: timestamp, whitespace-padded, or failing that anything up to ``]``: the
#: five time groups are then ``None`` and the line has a bad timestamp, not
#: a bad shape.
_CLF_RE = re.compile(
    r'^(\S+)\s+\S+\s+\S+\s+'
    r'\[(\s*' + _TIME_PATTERN + r'\s*|[^\]]+)\]\s+'
    r'"([^"]*)"\s+'
    r'(\d{3}|-)\s+'
    r'(\d+|-)'
    r'(?:\s+(\d+(?:\.\d+)?|-))?'
    r'\s*$'
)

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}
_MONTH_NAMES = {v: k for k, v in _MONTHS.items()}

#: A log names few calendar days next to its lines, so the calendar work is
#: done once a day: ``DD/Mon/YYYY`` -> epoch of that midnight (parsing) and
#: day number -> ``DD/Mon/YYYY:`` (formatting).  Each dict is emptied when
#: it reaches ``_DAY_CACHE_MAX`` entries (about 125 kB, and longer than any
#: trace the paper describes: those run 37 to 190 days).
_DAY_CACHE_MAX = 1024
_MIDNIGHTS: Dict[str, int] = {}
_DATE_TEXTS: Dict[int, str] = {}


def _midnight(date: str, text: str) -> int:
    """Work out and remember the epoch of 00:00:00 UTC on a ``DD/Mon/YYYY``
    date; ``text`` is the timestamp it came from, for the error message."""
    day, mon, year = date.split("/")
    month = _MONTHS.get(mon)
    if month is None:
        raise CLFError(f"unknown month in CLF timestamp: {text!r}")
    try:
        midnight = calendar.timegm(
            (int(year), month, int(day), 0, 0, 0, 0, 0, 0)
        )
    except ValueError:  # year 0000
        raise CLFError(f"unparseable CLF timestamp: {text!r}") from None
    if len(_MIDNIGHTS) >= _DAY_CACHE_MAX:
        _MIDNIGHTS.clear()
    _MIDNIGHTS[date] = midnight
    return midnight


def _wall_seconds(
    date: str, hh: str, mm: str, ss: str, zone: Optional[str], text: str
) -> float:
    """Unix epoch of a matched timestamp's groups."""
    midnight = _MIDNIGHTS.get(date)
    if midnight is None:
        midnight = _midnight(date, text)
    seconds = midnight + int(hh) * 3600 + int(mm) * 60 + int(ss)
    if zone:
        offset = int(zone[1:3]) * 3600 + int(zone[3:5]) * 60
        if zone[0] == "+":
            seconds -= offset
        else:
            seconds += offset
    return float(seconds)


def parse_clf_time(text: str) -> float:
    """Parse a CLF timestamp (``01/Jul/1995:00:00:01 -0400``) to Unix epoch."""
    match = _TIME_RE.match(text.strip())
    if match is None:
        raise CLFError(f"unparseable CLF timestamp: {text!r}")
    return _wall_seconds(*match.groups(), text)


def _date_text(day: int) -> str:
    """Work out and remember ``DD/Mon/YYYY:`` for a day number (days since
    the Unix epoch)."""
    tm = _time.gmtime(day * 86400)
    text = f"{tm.tm_mday:02d}/{_MONTH_NAMES[tm.tm_mon]}/{tm.tm_year:04d}:"
    if len(_DATE_TEXTS) >= _DAY_CACHE_MAX:
        _DATE_TEXTS.clear()
    _DATE_TEXTS[day] = text
    return text


def format_clf_time(epoch: float) -> str:
    """Format a Unix epoch as a CLF timestamp in UTC."""
    # Whole seconds, rounded down as ``time.gmtime`` rounds.
    day, second = divmod(math.floor(epoch), 86400)
    minute, ss = divmod(second, 60)
    hh, mm = divmod(minute, 60)
    date = _DATE_TEXTS.get(day)
    if date is None:
        date = _date_text(day)
    return f"{date}{hh:02d}:{mm:02d}:{ss:02d} +0000"


def parse_clf_line(line: str, epoch: float = 0.0) -> Request:
    """Parse one CLF line into a :class:`~repro.trace.record.Request`.

    Args:
        line: the raw log line, with or without the augmented trailing
            Last-Modified column.
        epoch: Unix epoch of trace start; the resulting request timestamp is
            ``max(0, wall_time - epoch)``.

    Raises:
        CLFError: if the line is not parseable, the request field is not a
            ``METHOD URL [HTTP/x]`` triple, or fields are out of range.
    """
    match = _CLF_RE.match(line)
    if match is None:
        raise CLFError(f"unparseable CLF line: {line!r}")
    (host, time_text, date, hh, mm, ss, zone,
     request_text, status_text, bytes_text, lastmod_text) = match.groups()
    request_field = request_text.split()
    if len(request_field) < 2:
        raise CLFError(f"malformed request field in CLF line: {line!r}")
    if date is None:
        raise CLFError(f"unparseable CLF timestamp: {time_text!r}")
    wall = _wall_seconds(date, hh, mm, ss, zone, time_text)
    timestamp = wall - epoch
    if timestamp < 0:
        raise CLFError(
            f"request at {wall} precedes trace epoch {epoch}: {line!r}"
        )
    return Request(
        timestamp,
        request_field[1],
        0 if bytes_text == "-" else int(bytes_text),
        0 if status_text == "-" else int(status_text),
        host,
        None,
        float(lastmod_text) if lastmod_text and lastmod_text != "-" else None,
    )


def format_clf_line(
    request: Request,
    epoch: float = 0.0,
    method: str = "GET",
    augmented: bool = False,
) -> str:
    """Render a request as a CLF line.

    Args:
        request: the request to serialise.
        epoch: Unix epoch of trace start, added to the trace-relative
            timestamp to recover wall time.
        method: HTTP method to place in the request field.
        augmented: when true, append the Last-Modified epoch column used by
            the paper's tcpdump filter output (``-`` when absent).
    """
    return format_clf_fields(
        request.timestamp, request.url, request.size, request.status,
        request.client, request.last_modified, epoch, method, augmented,
    )


def format_clf_fields(
    timestamp: float,
    url: str,
    size: int,
    status: int,
    client: str,
    last_modified: Optional[float],
    epoch: float = 0.0,
    method: str = "GET",
    augmented: bool = False,
) -> str:
    """:func:`format_clf_line` from a request's fields, as a compiled
    trace's columns hold them."""
    when = format_clf_time(epoch + timestamp)
    line = (
        f'{client or "-"} - - [{when}] '
        f'"{method} {url} HTTP/1.0" {status or "-"} {size}'
    )
    if augmented:
        if last_modified is None:
            line += " -"
        else:
            line += f" {last_modified:.0f}"
    return line
