"""Golden digests of the synthetic generator's output.

The generator's sequence of random draws is a compatibility contract:
every committed golden, ``bench/expected/`` value and EXPERIMENTS.md
number was produced from ``(profile, seed, scale)`` alone.  These digests
were recorded at commit ``744ba2d`` (before the ingest path was hoisted)
and must not change; re-record them only for a PR that sets out to change
the generated traces, with::

    PYTHONPATH=src python tests/workloads/test_generator_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.trace import format_clf_line
from repro.workloads import generate

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "generator_sha256.json"
SCALE = 0.02
CASES = [(profile, 1996) for profile in ("U", "C", "G", "BR", "BL")] + [
    ("BL", 7),
    ("U", 7),
]


def digests(profile: str, seed: int) -> dict:
    """SHA-256 of the trace as an augmented CLF file, and of the fields CLF
    drops (sub-second timestamps, the catalog's media type)."""
    raw = generate(profile, seed=seed, scale=SCALE).raw
    clf = hashlib.sha256()
    fields = hashlib.sha256()
    for request in raw:
        clf.update((format_clf_line(request, augmented=True) + "\n").encode("utf-8"))
        fields.update(repr((
            request.timestamp, request.url, request.size, request.status,
            request.client, request.doc_type.value, request.last_modified,
        )).encode("utf-8"))
    return {
        "requests": len(raw),
        "clf_sha256": clf.hexdigest(),
        "fields_sha256": fields.hexdigest(),
    }


def _key(profile: str, seed: int) -> str:
    return f"{profile}:seed={seed}:scale={SCALE}"


@pytest.mark.parametrize("profile,seed", CASES)
def test_generator_output_is_pinned(profile, seed):
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert digests(profile, seed) == golden[_key(profile, seed)]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(
            {_key(profile, seed): digests(profile, seed) for profile, seed in CASES},
            indent=1, sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {FIXTURE}")
