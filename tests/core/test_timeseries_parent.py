"""The two-level and partitioned day series, pinned at the parent commit.

At commit ``15b6d47`` ``simulate_two_level`` and ``simulate_partitioned``
ticked a live :class:`~repro.obs.timeseries.TimeSeriesRecorder` at every
day boundary and nothing ever rebuilt one for them; ``result.timeseries``
is now a view built from the collectors.  The SHA-256 of
``canonical_json(result.timeseries.samples())`` was recorded there,
before the edit, into ``tests/fixtures/timeseries_parent.json`` with::

    PYTHONPATH=<parent checkout>/src python tests/core/test_timeseries_parent.py

and the view must reproduce every sample.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.experiments import (
    max_needed_for,
    run_partitioned_sweep,
    run_two_level,
)
from repro.durability import canonical_json
from repro.workloads import generate_valid

FIXTURE = (
    Path(__file__).resolve().parents[1] / "fixtures" / "timeseries_parent.json"
)
SEED, SCALE, FRACTION = 21, 0.03, 0.10


def digest(result) -> dict:
    samples = result.timeseries.samples()
    return {
        "samples": len(samples),
        "sha256": hashlib.sha256(
            canonical_json(samples).encode("utf-8")
        ).hexdigest(),
    }


def two_level() -> dict:
    trace = generate_valid("C", seed=SEED, scale=SCALE)
    return digest(run_two_level(trace, max_needed_for(trace), FRACTION))


def partitioned() -> dict:
    trace = generate_valid("BR", seed=SEED, scale=SCALE)
    sweep = run_partitioned_sweep(trace, max_needed_for(trace), FRACTION)
    return {
        f"{fraction:.2f}": digest(result)
        for fraction, result in sweep.items()
    }


@pytest.fixture(scope="module")
def parent():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_two_level_series_is_the_parents(parent):
    assert two_level() == parent["two_level"]


def test_partitioned_series_are_the_parents(parent):
    assert sorted(parent["partitioned"]) == ["0.25", "0.50", "0.75"]
    assert partitioned() == parent["partitioned"]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(
            {
                "recorded_at": "15b6d47",
                "two_level": two_level(),
                "partitioned": partitioned(),
            },
            indent=1, sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
