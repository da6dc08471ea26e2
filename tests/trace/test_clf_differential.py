"""Differential test: the one-match CLF codec against the two-match one.

``repro.trace.clf`` parses a line with one positional-group match and does
the calendar arithmetic once per calendar day (two small dicts).  The
functions below are the codec as it stood at commit ``744ba2d`` -- two
named-group matches and a ``calendar.timegm`` a line, a ``time.gmtime`` a
formatted line -- copied verbatim as the oracle.  Every line, well-formed
or not, must give an equal ``Request`` or a ``CLFError`` with the identical
message; every epoch must format to the identical text.

One deliberate difference: a timestamp in year 0000 made the old parser
leak ``calendar.timegm``'s plain ``ValueError``, which the lenient reader
does not catch.  It is now a ``CLFError`` like any other bad timestamp.
"""

import calendar
import re
import time as _time
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.trace import CLFError, Request
from repro.trace import clf
from repro.trace.clf import format_clf_time, parse_clf_line, parse_clf_time
from repro.trace.reader import read_clf_lines

# -- the oracle: repro/trace/clf.py at 744ba2d, verbatim -----------------------

_CLF_RE = re.compile(
    r'^(?P<host>\S+)\s+(?P<ident>\S+)\s+(?P<user>\S+)\s+'
    r'\[(?P<time>[^\]]+)\]\s+'
    r'"(?P<request>[^"]*)"\s+'
    r'(?P<status>\d{3}|-)\s+'
    r'(?P<bytes>\d+|-)'
    r'(?:\s+(?P<lastmod>\d+(?:\.\d+)?|-))?'
    r'\s*$'
)

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}
_MONTH_NAMES = {v: k for k, v in _MONTHS.items()}

_TIME_RE = re.compile(
    r"^(?P<day>\d{2})/(?P<mon>[A-Z][a-z]{2})/(?P<year>\d{4}):"
    r"(?P<hh>\d{2}):(?P<mm>\d{2}):(?P<ss>\d{2})\s*(?P<zone>[+-]\d{4})?$"
)


def oracle_parse_clf_time(text: str) -> float:
    match = _TIME_RE.match(text.strip())
    if match is None:
        raise CLFError(f"unparseable CLF timestamp: {text!r}")
    month = _MONTHS.get(match.group("mon"))
    if month is None:
        raise CLFError(f"unknown month in CLF timestamp: {text!r}")
    seconds = calendar.timegm((
        int(match.group("year")), month, int(match.group("day")),
        int(match.group("hh")), int(match.group("mm")), int(match.group("ss")),
        0, 0, 0,
    ))
    zone = match.group("zone")
    if zone:
        offset = int(zone[1:3]) * 3600 + int(zone[3:5]) * 60
        if zone[0] == "+":
            seconds -= offset
        else:
            seconds += offset
    return float(seconds)


def oracle_format_clf_time(epoch: float) -> str:
    tm = _time.gmtime(epoch)
    return (
        f"{tm.tm_mday:02d}/{_MONTH_NAMES[tm.tm_mon]}/{tm.tm_year:04d}:"
        f"{tm.tm_hour:02d}:{tm.tm_min:02d}:{tm.tm_sec:02d} +0000"
    )


def oracle_parse_clf_line(line: str, epoch: float = 0.0) -> Request:
    match = _CLF_RE.match(line)
    if match is None:
        raise CLFError(f"unparseable CLF line: {line!r}")
    request_field = match.group("request").split()
    if len(request_field) < 2:
        raise CLFError(f"malformed request field in CLF line: {line!r}")
    url = request_field[1]
    wall = oracle_parse_clf_time(match.group("time"))
    status_text = match.group("status")
    status = 0 if status_text == "-" else int(status_text)
    bytes_text = match.group("bytes")
    size = 0 if bytes_text == "-" else int(bytes_text)
    lastmod_text = match.group("lastmod")
    last_modified: Optional[float] = None
    if lastmod_text and lastmod_text != "-":
        last_modified = float(lastmod_text)
    timestamp = wall - epoch
    if timestamp < 0:
        raise CLFError(
            f"request at {wall} precedes trace epoch {epoch}: {line!r}"
        )
    return Request(
        timestamp=timestamp,
        url=url,
        size=size,
        status=status,
        client=match.group("host"),
        last_modified=last_modified,
    )


# -- comparison ----------------------------------------------------------------


def outcome(function, *args):
    """What a call did: its value with the types that ``==`` ignores, or
    the exception's type and message."""
    try:
        value = function(*args)
    except ValueError as error:
        return ("raised", type(error), str(error))
    if isinstance(value, Request):
        return ("request", value, type(value.timestamp), type(value.size),
                type(value.status), type(value.last_modified))
    return ("value", value, type(value))


def assert_same(new, old, *args):
    expected = outcome(old, *args)
    if expected[:2] == ("raised", ValueError):
        # The year-0000 leak (module docstring).
        kind, error_type, message = outcome(new, *args)
        assert (kind, error_type) == ("raised", CLFError)
        assert message.startswith("unparseable CLF timestamp: ")
    else:
        assert outcome(new, *args) == expected


# -- inputs --------------------------------------------------------------------


def mostly(good, bad):
    """``good`` six times in seven: a line has nine parts, and it must
    often get through whole for the success path to be compared."""
    return st.sampled_from([True] * 6 + [False]).flatmap(
        lambda take_good: good if take_good else bad
    )


two = st.integers(0, 99).map("{:02d}".format)
months = mostly(
    st.sampled_from(sorted(_MONTHS)),
    st.sampled_from(["Foo", "jan", "JAN", "Sept", "J"]),
)
years = mostly(
    st.integers(1994, 1997),
    st.sampled_from([0, 1, 1900, 1969, 1970, 1971, 2038, 9999]),
).map("{:04d}".format)
zones = st.one_of(
    st.just(""),
    mostly(
        st.builds("{}{:02d}{:02d}".format, st.sampled_from("+-"),
                  st.integers(0, 23), st.sampled_from([0, 30, 45, 59])),
        st.sampled_from(["+000", "0000", "UTC", "+00000"]),
    ),
)
padding = st.sampled_from(["", "", "", " ", "  ", "\t", "\u00a0", "\x1f"])


@st.composite
def timestamps(draw):
    """``DD/Mon/YYYY:HH:MM:SS zone`` with every part free to be wrong."""
    core = (
        f"{draw(two)}/{draw(months)}/{draw(years)}:"
        f"{draw(two)}:{draw(two)}:{draw(two)}"
    )
    zone = draw(zones)
    gap = draw(st.sampled_from([" ", "", "  "])) if zone else ""
    return draw(padding) + core + gap + zone + draw(padding)


urls = mostly(
    st.from_regex(r"http://[a-z]{1,8}\.(edu|com)/[a-zA-Z0-9_./-]{0,20}", fullmatch=True),
    st.text(st.characters(blacklist_characters='"', blacklist_categories=["Cs"]),
            min_size=1, max_size=12),
)
request_fields = mostly(
    st.one_of(st.builds("GET {} HTTP/1.0".format, urls), st.builds("GET {}".format, urls)),
    st.one_of(urls, st.just("")),
)
hosts = mostly(
    st.from_regex(r"[a-z0-9.\[\]-]{1,12}", fullmatch=True),
    st.sampled_from(["-", "128.173.40.1", "h[0]", "a b"]),
)
statuses = mostly(
    st.one_of(st.sampled_from(["200", "304", "404", "-"]), st.integers(100, 599).map(str)),
    st.sampled_from(["20", "2000", "٢٠٠"]),
)
sizes = mostly(
    st.one_of(st.integers(0, 10**10).map(str), st.just("-")),
    st.sampled_from(["", "-1", "1e3"]),
)
lastmods = mostly(
    st.one_of(
        st.just(""),
        st.sampled_from([" -", " 804556800", " 804556800.5"]),
        st.integers(0, 10**10).map(" {}".format),
    ),
    st.sampled_from([" 804556800.", " .5", " x"]),
)


@st.composite
def well_shaped_lines(draw):
    return (
        f'{draw(hosts)} - - [{draw(timestamps())}] "{draw(request_fields)}" '
        f"{draw(statuses)} {draw(sizes)}{draw(lastmods)}"
    )


@st.composite
def damaged_lines(draw):
    """A line cut short, or with a few characters overwritten."""
    line = draw(well_shaped_lines())
    if draw(st.booleans()):
        return line[:draw(st.integers(0, len(line)))]
    characters = list(line)
    for _ in range(draw(st.integers(1, 3))):
        characters[draw(st.integers(0, len(characters) - 1))] = draw(
            st.sampled_from(list(' []"-+:/\n\t') + ["é", "0", "x"])
        )
    return "".join(characters)


lines = st.one_of(
    well_shaped_lines(), well_shaped_lines(), damaged_lines(), st.text(max_size=60),
)
#: 0, mid-1995 (so that some requests precede it), and a fractional epoch.
epochs = st.sampled_from([0.0, 804556800.0, 804556800.25, -86400.0])

SAMPLE = (
    'client1.cs.vt.edu - - [01/Sep/1995:00:00:10 +0000] '
    '"GET http://www.cs.vt.edu/index.html HTTP/1.0" 200 4821'
)


class TestParseLine:
    @given(line=lines, epoch=epochs)
    @settings(max_examples=1000, deadline=None)
    @example(line=SAMPLE, epoch=0.0)
    @example(line=SAMPLE + " 12345.5", epoch=0.0)
    @example(line=SAMPLE + " -", epoch=0.0)
    @example(line=SAMPLE, epoch=2e9)  # request before epoch
    @example(line=SAMPLE.replace("+0000]", "-0430]"), epoch=0.0)
    @example(line=SAMPLE.replace(" +0000]", "]"), epoch=0.0)  # no zone
    @example(line=SAMPLE.replace("[01", "[  01").replace("0]", "0 \t]"), epoch=0.0)
    @example(line=SAMPLE.replace("Sep", "Foo"), epoch=0.0)  # unknown month
    @example(line=SAMPLE.replace("01/Sep/1995", "29/Feb/1996"), epoch=0.0)
    @example(line=SAMPLE.replace("01/Sep/1995", "30/Feb/1995"), epoch=0.0)
    @example(line=SAMPLE.replace("01/Sep/1995:00:00:10", "31/Dec/1995:23:59:59"), epoch=0.0)
    @example(line=SAMPLE.replace("01/Sep/1995:00:00:10", "01/Jan/1996:00:00:00"), epoch=0.0)
    @example(line=SAMPLE.replace("01/Sep/1995", "01/Jan/1970").replace("+0000", "+0100"), epoch=0.0)
    @example(line=SAMPLE.replace("1995", "0000"), epoch=0.0)  # the ValueError leak
    @example(line=SAMPLE.replace("00:00:10", "99:99:99"), epoch=0.0)
    @example(line=SAMPLE.replace(" 200 4821", " - -"), epoch=0.0)
    @example(line=SAMPLE.replace('"GET http://www.cs.vt.edu/index.html HTTP/1.0"', '"GET"'), epoch=0.0)
    @example(line=SAMPLE.replace("01/Sep/1995:00:00:10 +0000", "yesterday"), epoch=0.0)
    @example(line=SAMPLE.replace("client1.cs.vt.edu", "[a] - - [b]"), epoch=0.0)
    @example(line=SAMPLE + "\n", epoch=0.0)
    def test_same_request_or_same_error(self, line, epoch):
        assert_same(parse_clf_line, oracle_parse_clf_line, line, epoch)

    @given(request=st.builds(
        Request,
        timestamp=st.floats(0, 400 * 86400.0),
        url=st.from_regex(r"http://[a-z]{1,8}\.edu/[a-z0-9/]{0,12}", fullmatch=True),
        size=st.integers(0, 10**9),
        status=st.sampled_from([0, 200, 304, 404]),
        client=st.sampled_from(["", "-", "client9.cs.vt.edu"]),
        last_modified=st.one_of(st.none(), st.floats(0, 1e9)),
    ), augmented=st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_written_lines_parse_the_same(self, request, augmented):
        line = clf.format_clf_line(request, epoch=804556800.0, augmented=augmented)
        assert_same(parse_clf_line, oracle_parse_clf_line, line, 804556800.0)


class TestParseTime:
    @given(text=st.one_of(timestamps(), st.text(max_size=30)))
    @settings(max_examples=1000, deadline=None)
    @example(text="01/Jul/1995:00:00:01 -0400")
    @example(text="  01/Jul/1995:00:00:01-0400\n")
    @example(text="01/Jul/1995:00:00:01")
    @example(text="01/Jul/0000:00:00:01")
    @example(text="01/Jul/1995:00:00:01 -0400 ")
    @example(text="٠١/Jul/1995:00:00:01")  # Unicode digits are \d too
    def test_same_epoch_or_same_error(self, text):
        assert_same(parse_clf_time, oracle_parse_clf_time, text)


class TestFormatTime:
    @given(epoch=st.one_of(
        st.floats(-2 * 86400.0, 40 * 365 * 86400.0),
        st.integers(-3, 20000).flatmap(lambda day: st.sampled_from([
            day * 86400 - 1, day * 86400 - 0.5, day * 86400 - 1e-7,
            day * 86400, day * 86400.0, day * 86400 + 1e-7,
            day * 86400 + 0.999999, day * 86400 + 86399,
        ])),
        st.integers(-(10**6), 2**33),
    ))
    @settings(max_examples=1000, deadline=None)
    @example(epoch=0)
    @example(epoch=-0.5)
    @example(epoch=825551999.9999999)  # 29/Feb/1996 23:59:59
    @example(epoch=820454400.0)  # 01/Jan/1996 00:00:00
    def test_same_text(self, epoch):
        assert format_clf_time(epoch) == oracle_format_clf_time(epoch)

    @pytest.mark.parametrize("epoch", [float("nan"), float("inf"), -float("inf")])
    def test_not_a_time_raises_as_before(self, epoch):
        with pytest.raises((ValueError, OverflowError)) as old:
            oracle_format_clf_time(epoch)
        with pytest.raises(old.type):
            format_clf_time(epoch)


class TestDayCaches:
    """The two per-calendar-day dicts hold at most ``_DAY_CACHE_MAX`` days."""

    def test_parse_cache_is_bounded_and_still_right(self):
        days = clf._DAY_CACHE_MAX + 200
        for day in range(days):
            text = oracle_format_clf_time(day * 86400 + 3661)
            assert parse_clf_time(text) == day * 86400 + 3661
            assert len(clf._MIDNIGHTS) <= clf._DAY_CACHE_MAX
        # Emptied once on the way, and days met again are worked out again.
        assert len(clf._MIDNIGHTS) < days
        assert parse_clf_time("01/Jan/1970:00:00:05 +0000") == 5.0

    def test_format_cache_is_bounded_and_still_right(self):
        days = clf._DAY_CACHE_MAX + 200
        for day in range(days):
            epoch = day * 86400 + 86399.5
            assert format_clf_time(epoch) == oracle_format_clf_time(epoch)
            assert len(clf._DATE_TEXTS) <= clf._DAY_CACHE_MAX
        assert len(clf._DATE_TEXTS) < days
        assert format_clf_time(0) == "01/Jan/1970:00:00:00 +0000"

    def test_a_bad_date_is_not_remembered(self):
        before = dict(clf._MIDNIGHTS)
        for text in ("01/Foo/1995:00:00:00", "01/Jan/0000:00:00:00"):
            with pytest.raises(CLFError):
                parse_clf_time(text)
            with pytest.raises(CLFError):
                parse_clf_time(text)
        assert clf._MIDNIGHTS == before


def test_lenient_reader_survives_year_zero():
    bad = SAMPLE.replace("1995", "0000")
    assert [r.size for r in read_clf_lines([bad, SAMPLE])] == [4821]
