"""The one checksummed-JSONL envelope (:mod:`repro.durability`), seen
through both of its callers.

``tests/fixtures/envelope_*_parent.jsonl`` were written by the
``write_curves`` / ``write_timeseries`` of the commit *before* the two
private copies were folded into ``repro.durability``; the bytes on
disk, the trailer kinds, and every diagnostic must not have moved.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.mrc import (
    CURVES_CHECKSUM_KIND,
    MRCCurvesError,
    MRCPoint,
    MRCResult,
    read_curves,
    write_curves,
)
from repro.durability import jsonl_checksum
from repro.obs.timeseries import (
    CHECKSUM_KIND,
    TimeSeriesError,
    read_timeseries,
    write_timeseries,
)

FIXTURES = Path(__file__).parent / "fixtures"

CURVE_POINTS = [
    MRCPoint(key="SIZE", fraction=0.1, hr=41.25, whr=17.5, hr_ci=1.125,
             whr_ci=2.0625, rate=0.25, replicates=4),
    MRCPoint(key="SIZE", fraction=0.5, hr=48.0, whr=30.75, hr_ci=0.5,
             whr_ci=1.5, rate=0.1, replicates=4),
    MRCPoint(key="ATIME", fraction=0.1, hr=30.5, whr=22.125, hr_ci=None,
             whr_ci=None, rate=1.0, replicates=1),
]

SAMPLES = [
    {"sim_day": 0, "metric": "repro_sim_ts_hits_total",
     "labels": {"stream": "main"}, "value": 3.0},
    {"sim_day": 0, "metric": "repro_sim_ts_requests_total",
     "labels": {"stream": "main"}, "value": 10.0},
    {"sim_day": 1, "metric": "repro_sim_ts_hits_total",
     "labels": {"stream": "main"}, "value": 9.0, "run": "café"},
]


def _write_curves(path):
    result = MRCResult(
        points=CURVE_POINTS, rate=0.1, replicates=4, confidence=0.95,
        requests=1000, seconds=0.0,
    )
    return write_curves(result, path)


def _write_samples(path):
    return write_timeseries(SAMPLES, path)


ENVELOPES = pytest.mark.parametrize(
    "fixture, write, read, kind, error",
    [
        ("envelope_mrc_curves_parent.jsonl", _write_curves, read_curves,
         CURVES_CHECKSUM_KIND, MRCCurvesError),
        ("envelope_timeseries_parent.jsonl", _write_samples, read_timeseries,
         CHECKSUM_KIND, TimeSeriesError),
    ],
    ids=["mrc-curves", "timeseries"],
)


@ENVELOPES
class TestEnvelope:
    def test_parent_written_file_verifies(self, fixture, write, read, kind, error):
        records = read(FIXTURES / fixture)
        assert len(records) == 3
        trailer = json.loads((FIXTURES / fixture).read_text().splitlines()[-1])
        assert trailer == {
            "kind": kind, "samples": 3, "sha256": jsonl_checksum(records),
        }

    def test_writer_output_is_byte_equal_to_the_parents(
        self, fixture, write, read, kind, error, tmp_path,
    ):
        path = tmp_path / "out.jsonl"
        assert write(path) == 3
        assert path.read_bytes() == (FIXTURES / fixture).read_bytes()

    def test_diagnostics_are_string_equal(
        self, fixture, write, read, kind, error, tmp_path,
    ):
        lines = (FIXTURES / fixture).read_text(encoding="utf-8").splitlines()
        path = tmp_path / "bad.jsonl"

        def diagnose(text):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(error) as caught:
                read(path)
            return str(caught.value)

        missing = tmp_path / "absent.jsonl"
        with pytest.raises(error) as caught:
            read(missing)
        assert str(caught.value).startswith(f"cannot read {missing}: ")
        assert diagnose("") == f"{path} is empty"
        assert diagnose("\n".join(lines[:-1]) + "\n") == (
            f"{path}: missing checksum trailer (file truncated?)"
        )
        assert diagnose("\n".join(lines)[:-40]) == (
            f"{path}:4: truncated or corrupt JSON line"
        )
        assert diagnose("\n".join(lines + lines[:1]) + "\n") == (
            f"{path}:5: data after the checksum trailer"
        )
        assert diagnose("\n".join(lines[1:]) + "\n") == (
            f"{path}: trailer declares 3 samples, found 2"
        )
        swapped = [lines[1], lines[0]] + lines[2:]
        assert diagnose("\n".join(swapped) + "\n") == (
            f"{path}: checksum mismatch"
        )
