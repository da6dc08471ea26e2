"""One mechanism each: the next hand-rolled copy fails here, by path.

``repro.httpnet.server`` owns the accept loop and the request-head
reader; ``repro.durability`` owns the checksummed-JSONL trailer.  A new
server or export that grows its own is caught at review time instead of
drifting apart from the shared one (as the router's deadline-less head
reader once did).
"""

from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "repro"


def files_containing(needle):
    return sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if needle in path.read_text(encoding="utf-8")
    )


def test_one_accept_loop():
    assert files_containing(".accept(") == ["httpnet/server.py"]


def test_one_request_head_reader():
    assert files_containing("recv(4096)") == ["httpnet/server.py"]


def test_one_checksummed_jsonl_trailer():
    assert files_containing('"sha256"') == ["durability.py"]
