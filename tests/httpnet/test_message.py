"""Tests for HTTP/1.0 message parsing and serialisation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.httpnet import (
    HttpMessageError,
    HttpRequest,
    HttpResponse,
    format_http_date,
    parse_http_date,
)


class TestRequestParse:
    def test_basic_get(self):
        raw = b"GET http://a.com/x.html HTTP/1.0\r\nUser-Agent: Mosaic\r\n\r\n"
        request = HttpRequest.parse(raw)
        assert request.method == "GET"
        assert request.url == "http://a.com/x.html"
        assert request.version == "HTTP/1.0"
        assert request.headers["user-agent"] == "Mosaic"

    def test_http09_two_part_line(self):
        request = HttpRequest.parse(b"GET /x\r\n\r\n")
        assert request.version == "HTTP/0.9"

    def test_bare_lf_tolerated(self):
        request = HttpRequest.parse(b"GET /x HTTP/1.0\nHost: a\n\n")
        assert request.headers["host"] == "a"

    def test_header_names_lowercased(self):
        request = HttpRequest.parse(
            b"GET /x HTTP/1.0\r\nIF-Modified-SINCE: x\r\n\r\n"
        )
        assert "if-modified-since" in request.headers

    def test_missing_terminator_rejected(self):
        with pytest.raises(HttpMessageError):
            HttpRequest.parse(b"GET /x HTTP/1.0\r\nHost: a\r\n")

    def test_malformed_request_line(self):
        with pytest.raises(HttpMessageError):
            HttpRequest.parse(b"NONSENSE\r\n\r\n")

    def test_malformed_header(self):
        with pytest.raises(HttpMessageError):
            HttpRequest.parse(b"GET /x HTTP/1.0\r\nbroken header\r\n\r\n")

    def test_roundtrip(self):
        request = HttpRequest(
            method="GET", url="http://a.com/y",
            headers={"Accept": "*/*"},
        )
        parsed = HttpRequest.parse(request.serialize())
        assert parsed.url == request.url
        assert parsed.headers["accept"] == "*/*"

    def test_if_modified_since(self):
        stamp = format_http_date(800_000_000.0)
        request = HttpRequest.parse(
            f"GET /x HTTP/1.0\r\nIf-Modified-Since: {stamp}\r\n\r\n".encode()
        )
        assert request.if_modified_since == 800_000_000.0

    def test_no_if_modified_since(self):
        assert HttpRequest.parse(b"GET /x HTTP/1.0\r\n\r\n").if_modified_since is None


class TestResponseParse:
    def test_basic_200(self):
        raw = (
            b"HTTP/1.0 200 OK\r\nContent-Type: text/html\r\n"
            b"Content-Length: 5\r\n\r\nhello"
        )
        response = HttpResponse.parse(raw)
        assert response.status == 200
        assert response.reason == "OK"
        assert response.body == b"hello"
        assert response.content_length == 5
        assert response.content_type == "text/html"

    def test_status_without_reason(self):
        response = HttpResponse.parse(b"HTTP/1.0 304\r\n\r\n")
        assert response.status == 304

    def test_malformed_status_line(self):
        with pytest.raises(HttpMessageError):
            HttpResponse.parse(b"HTTP/1.0 abc OK\r\n\r\n")

    def test_serialize_fills_content_length(self):
        response = HttpResponse(status=200, body=b"12345")
        raw = response.serialize()
        assert b"Content-Length: 5" in raw
        assert raw.endswith(b"12345")

    def test_serialize_default_reason(self):
        assert b"404 Not Found" in HttpResponse(status=404).serialize()

    def test_roundtrip(self):
        response = HttpResponse(
            status=200,
            headers={"Content-Type": "audio/basic"},
            body=b"\x00\x01\x02",
        )
        parsed = HttpResponse.parse(response.serialize())
        assert parsed.status == 200
        assert parsed.body == b"\x00\x01\x02"
        assert parsed.content_type == "audio/basic"

    def test_last_modified_parsed(self):
        stamp = format_http_date(812_345_678.0)
        response = HttpResponse.parse(
            f"HTTP/1.0 200 OK\r\nLast-Modified: {stamp}\r\n\r\n".encode()
        )
        assert response.last_modified == 812_345_678.0

    def test_bad_last_modified_ignored(self):
        response = HttpResponse.parse(
            b"HTTP/1.0 200 OK\r\nLast-Modified: yesterday\r\n\r\n"
        )
        assert response.last_modified is None

    def test_bad_content_length_ignored(self):
        response = HttpResponse.parse(
            b"HTTP/1.0 200 OK\r\nContent-Length: many\r\n\r\nxy"
        )
        assert response.content_length is None

    def test_non_ascii_digit_content_length_ignored(self):
        # "\xb2" decodes to a superscript two: str.isdigit() says yes,
        # int() says no.
        response = HttpResponse.parse(
            b"HTTP/1.0 200 OK\r\nContent-Length: \xb2\r\n\r\nab"
        )
        assert response.content_length is None

    def test_non_ascii_digit_status_rejected(self):
        with pytest.raises(HttpMessageError):
            HttpResponse.parse(b"HTTP/1.0 \xb200 OK\r\n\r\n")


class TestHttpDate:
    def test_known_value(self):
        assert format_http_date(784111777.0) == "Sun, 06 Nov 1994 08:49:37 GMT"

    def test_roundtrip(self):
        assert parse_http_date(format_http_date(812_345_678.0)) == 812_345_678.0

    def test_bad_date(self):
        with pytest.raises(HttpMessageError):
            parse_http_date("06/11/1994")


@given(
    epoch=st.integers(min_value=0, max_value=2**31 - 1).map(float),
)
@settings(max_examples=200, deadline=None)
def test_http_date_roundtrip_property(epoch):
    assert parse_http_date(format_http_date(epoch)) == epoch


@given(body=st.binary(max_size=2000), status=st.sampled_from([200, 304, 404]))
@settings(max_examples=100, deadline=None)
def test_response_roundtrip_property(body, status):
    response = HttpResponse(status=status, body=body)
    parsed = HttpResponse.parse(response.serialize())
    assert parsed.status == status
    assert parsed.body == body


def test_malformed_if_modified_since_is_ignored():
    request = HttpRequest.parse(
        b"GET /x HTTP/1.0\r\nIf-Modified-Since: yesterday\r\n\r\n",
    )
    assert request.if_modified_since is None


def strptime_epoch(text):
    """The parser ``parse_http_date`` replaced, kept as the oracle."""
    import calendar
    import time

    try:
        parsed = time.strptime(text.strip(), "%a, %d %b %Y %H:%M:%S GMT")
    except ValueError:
        return None
    return float(calendar.timegm(parsed))


def two_digits(low, high):
    """A two-digit field, in ``low..high`` two draws in three and
    anywhere in ``00..99`` otherwise."""
    in_range = st.integers(min_value=low, max_value=high)
    return st.one_of(
        in_range, in_range, st.integers(min_value=0, max_value=99),
    ).map("{:02d}".format)


@given(
    weekday=st.sampled_from(["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"]),
    day=two_digits(1, 31),
    month=st.sampled_from(["Jan", "Feb", "Mar", "Apr", "May", "Jun",
                           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]),
    year=st.one_of(
        st.integers(min_value=0, max_value=9999),
        st.sampled_from([0, 1, 1900, 1996, 2000, 2024, 2100]),
    ).map("{:04d}".format),
    hour=two_digits(0, 23),
    minute=two_digits(0, 59),
    second=two_digits(0, 61),
)
@settings(max_examples=1000, deadline=None)
def test_http_date_matches_strptime(weekday, day, month, year, hour, minute,
                                    second):
    """Fixdate-shaped input, in-range and out-of-range fields: the
    regex parser and ``strptime`` give the same epoch or both reject."""
    text = f"{weekday}, {day} {month} {year} {hour}:{minute}:{second} GMT"
    try:
        mine = parse_http_date(text)
    except HttpMessageError:
        mine = None
    assert mine == strptime_epoch(text)
