"""Differential test of the URL-derived fields, and the ``Request`` contract.

``server_of_url`` / ``classify_url`` split a plain ``http://host/path`` URL
by hand and leave every other URL to ``urllib.parse.urlsplit``.  The oracle
below is the two functions as they stood at commit ``744ba2d``, where every
URL went through ``urlsplit``: any text at all must give the same value or
raise the same exception type.

``Request`` became slotted with a hand-written ``__init__``; the second half
pins what callers rely on: frozen, compared and hashed by value, picklable
(sweep workers receive the trace by pickle), validated.
"""

import copy
import dataclasses
import pickle
from urllib.parse import urlsplit

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.trace import DocumentType, Request, classify_url, summarize
from repro.trace.record import _CGI_MARKERS, _EXTENSION_TO_TYPE, server_of_url
from repro.trace.stats import server_rank_series

# -- the oracle: repro/trace/record.py at 744ba2d, verbatim --------------------


def oracle_classify_url(url: str) -> DocumentType:
    parts = urlsplit(url)
    path = parts.path or "/"
    if parts.query or path.endswith((".cgi", ".pl")):
        return DocumentType.CGI
    lowered = path.lower()
    if any(marker in lowered for marker in _CGI_MARKERS):
        return DocumentType.CGI
    final = lowered.rsplit("/", 1)[-1]
    if "." not in final:
        return DocumentType.TEXT
    extension = final.rsplit(".", 1)[-1]
    if not extension:
        return DocumentType.TEXT
    if extension in ("cgi", "pl"):
        return DocumentType.CGI
    return _EXTENSION_TO_TYPE.get(extension, DocumentType.UNKNOWN)


def oracle_server_of_url(url: str) -> str:
    parts = urlsplit(url)
    return (parts.netloc or "").lower()


def outcome(function, url):
    try:
        return function(url)
    except Exception as error:  # urlsplit raises ValueError; compare whatever comes
        return type(error)


# -- inputs --------------------------------------------------------------------

#: Every character urlsplit treats specially, around ordinary ones.
url_characters = st.one_of(
    st.sampled_from(list("?#[]@:/\\.%&=+-_~ \t\r\n\x00\x1f\x7f") + ["é", "℀", "／", "。"]),
    st.characters(min_codepoint=33, max_codepoint=126),
    st.characters(blacklist_categories=["Cs"]),
)
fragments = st.text(url_characters, max_size=12)
schemes = st.sampled_from([
    "http://", "http://", "http://", "HTTP://", "Http://", "https://", "ftp://",
    "http:/", "http:", "//", "/", "", " http://", "\thttp://", "ht\ntp://",
])
hosts = st.one_of(
    st.from_regex(r"[A-Za-z0-9.-]{0,15}", fullmatch=True),
    st.sampled_from([
        "a.com:8080", "user@a.com", "u:p@a.com:80", "[::1]", "[::1]:80", "[::1",
        "::1]", "[v1.x]", "[a.com]", "A.COM", "a..com", "", "a com", "a℀.com",
    ]),
    fragments,
)
paths = st.one_of(
    st.just(""),
    st.from_regex(r"(/[A-Za-z0-9_.~-]{0,8}){1,4}", fullmatch=True),
    st.sampled_from([
        "/", "/x.GIF", "/cgi-bin/count", "/CGI-BIN/x.gif", "/htbin/q", "/cgi/x",
        "/a.pl", "/a.cgi", "/a.", "/a.b/", "/v1.0/page.html", "/a.html?q=1",
        "/a.html#top", "/a.html?", "/a?b#c", "/a;p=1.gif", "/x.mpg ", "/x\t.au",
    ]),
    fragments.map("/{}".format),
)
urls = st.one_of(
    st.builds("{}{}{}".format, schemes, hosts, paths),
    st.builds("{}{}{}{}".format, schemes, hosts, paths, fragments),
    fragments,
    st.text(max_size=30),
)


@given(url=urls)
@settings(max_examples=2000, deadline=None)
@example(url="http://WWW.CS.VT.EDU/page.html")
@example(url="http://a.com")  # bare host, no path
@example(url="http://a.com:8080/x")
@example(url="http://a.com?x=1")  # query straight after the host
@example(url="http://a.com#frag")
@example(url="HTTP://A.COM/X.GIF")  # upper-case scheme
@example(url="/page.html")  # no scheme
@example(url="a.com/page.html")
@example(url="http:///x.gif")  # empty host
@example(url="http://[::1]/x.gif")
@example(url="http://[::1/x.gif")  # urlsplit raises
@example(url="http://a]/x.gif")
@example(url="http://a℀.com/x")  # NFKC of the netloc holds a '/': raises
@example(url=" http://a.com/x.gif")  # leading space is stripped
@example(url="http://a.com/x\n.gif")  # tab and newline are removed
@example(url="http://a.com/x.gif\x00")
@example(url="http://a.com/é.gif")
@example(url="http://a.com/dir.d/")
def test_url_fields_match_urlsplit(url):
    assert outcome(server_of_url, url) == outcome(oracle_server_of_url, url)
    assert outcome(classify_url, url) == outcome(oracle_classify_url, url)


def test_plain_generated_urls_take_the_same_values():
    """The URLs the generator emits are the plain case."""
    from repro.workloads import generate

    for url in {r.url for r in generate("U", seed=3, scale=0.01).raw}:
        assert server_of_url(url) == oracle_server_of_url(url)
        assert classify_url(url) == oracle_classify_url(url)


@given(picks=st.lists(st.tuples(st.integers(0, 7), st.integers(1, 9000)), max_size=60))
@settings(max_examples=500, deadline=None)
def test_server_statistics_count_requests_not_urls(picks):
    """``summarize`` and ``server_rank_series`` split each unique URL once;
    the numbers are those of splitting every request's URL."""
    pool = [
        "http://a.com/x.gif", "http://a.com/y.gif", "http://A.com/z", "http://b.org/",
        "http://b.org:80/", "/relative.html", "http://c.net/q?x=1", "HTTP://a.com/x.gif",
    ]
    trace = [
        Request(timestamp=float(i), url=pool[index], size=size)
        for i, (index, size) in enumerate(picks)
    ]
    servers = [oracle_server_of_url(r.url) for r in trace]
    assert summarize(trace).unique_servers == len(set(servers))
    counts = sorted((servers.count(s) for s in set(servers)), reverse=True)
    assert server_rank_series(trace) == list(enumerate(counts, start=1))


# -- the Request contract ------------------------------------------------------

FULL = dict(
    timestamp=86400.5, url="http://a.com/x.gif", size=10, status=304,
    client="c1.vt.edu", doc_type=DocumentType.GRAPHICS, last_modified=12.5,
)


class TestRequestContract:
    def test_defaults(self):
        request = Request(1.0, "http://a.com/x", 5)
        assert (request.status, request.client) == (200, "-")
        assert request.doc_type is None and request.last_modified is None

    def test_positional_order_is_the_field_order(self):
        assert Request(*FULL.values()) == Request(**FULL)

    @pytest.mark.parametrize("name", list(FULL) + ["brand_new"])
    def test_assignment_and_deletion_raise(self, name):
        request = Request(**FULL)
        with pytest.raises(AttributeError):
            setattr(request, name, 1)
        with pytest.raises(AttributeError):
            delattr(request, name)

    def test_no_instance_dict(self):
        assert not hasattr(Request(**FULL), "__dict__")

    @pytest.mark.parametrize("name", list(FULL))
    def test_equal_and_hashed_by_every_field(self, name):
        other = dict(FULL, **{name: {
            "timestamp": 86400.75, "url": "http://a.com/y.gif", "size": 11,
            "status": 200, "client": "c2.vt.edu", "doc_type": DocumentType.TEXT,
            "last_modified": None,
        }[name]})
        assert Request(**FULL) == Request(**FULL)
        assert hash(Request(**FULL)) == hash(Request(**FULL))
        assert Request(**FULL) != Request(**other)
        assert len({Request(**FULL), Request(**FULL), Request(**other)}) == 2

    def test_not_equal_to_a_tuple_of_its_fields(self):
        assert Request(**FULL) != tuple(FULL.values())

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        trace = [Request(**FULL), Request(0.0, "http://b.org/", 0)]
        assert pickle.loads(pickle.dumps(trace, protocol)) == trace

    def test_copy(self):
        request = Request(**FULL)
        assert copy.copy(request) == request
        assert copy.deepcopy([request]) == [request]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="size must be non-negative, got -1"):
            Request(0.0, "http://a.com/", -1)

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError, match="timestamp must be non-negative, got -0.5"):
            Request(-0.5, "http://a.com/", 1)

    def test_unpickling_validates_too(self):
        forged = (Request, (-1.0, "http://a.com/", 1, 200, "-", None, None))

        class Forged:
            def __reduce__(self):
                return forged

        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(Forged()))

    def test_with_size_changes_only_the_size(self):
        request = Request(**FULL)
        resized = request.with_size(99)
        assert resized == Request(**dict(FULL, size=99))
        assert request.size == 10
        with pytest.raises(ValueError):
            request.with_size(-1)

    def test_dataclass_helpers_still_work(self):
        request = Request(**FULL)
        assert dataclasses.asdict(request) == FULL
        assert dataclasses.replace(request, size=99) == request.with_size(99)

    def test_derived_fields(self):
        request = Request(**FULL)
        assert request.day == 1
        assert request.server == "a.com"
        assert request.media_type is DocumentType.GRAPHICS
        assert Request(0.0, "http://a.com/x.au", 1).media_type is DocumentType.AUDIO

    def test_repr_names_every_field(self):
        text = repr(Request(**FULL))
        assert text.startswith("Request(timestamp=86400.5, url='http://a.com/x.gif'")
        assert all(f"{name}=" in text for name in FULL)
