"""Tests for the simulated-clock time-series recorder and its JSONL
export: cadence gating, the checksummed read/write round trip and its
failure diagnostics, multi-run merging, and the view a finished replay's
collectors are read through."""

import json

import pytest

from repro.core.metrics import DayStats, MetricsCollector
from repro.obs.metrics import Registry
from repro.obs.timeseries import (
    CHECKSUM_KIND,
    SimStreamTicker,
    TimeSeriesError,
    TimeSeriesRecorder,
    merge_samples,
    read_timeseries,
    recorder_from_collectors,
    write_timeseries,
)


def make_recorder(cadence=1):
    registry = Registry()
    counter = registry.counter("repro_sim_ts_test_total", "test counter")
    gauge = registry.gauge("repro_sim_ts_test_gauge", "test gauge")
    return TimeSeriesRecorder(registry, cadence=cadence), counter, gauge


class TestRecorder:
    def test_tick_records_registry_state(self):
        recorder, counter, gauge = make_recorder()
        counter.inc(3)
        gauge.set(7)
        assert recorder.tick(0)
        counter.inc(2)
        assert recorder.tick(1)
        assert recorder.recorded_days() == [0, 1]
        assert recorder.series("repro_sim_ts_test_total") == [
            (0, 3.0), (1, 5.0),
        ]
        assert recorder.series("repro_sim_ts_test_gauge") == [
            (0, 7.0), (1, 7.0),
        ]

    def test_cadence_skips_close_days(self):
        recorder, counter, _ = make_recorder(cadence=7)
        assert recorder.tick(0)
        counter.inc()
        assert not recorder.tick(3)      # < cadence after day 0
        assert recorder.tick(7)          # exactly one cadence later
        assert recorder.recorded_days() == [0, 7]

    def test_force_overrides_cadence(self):
        recorder, _, _ = make_recorder(cadence=7)
        recorder.tick(0)
        assert recorder.tick(2, force=True)
        assert recorder.recorded_days() == [0, 2]

    def test_reticking_a_day_overwrites(self):
        recorder, counter, _ = make_recorder()
        counter.inc()
        recorder.tick(0)
        counter.inc()
        recorder.tick(0, force=True)
        assert recorder.series("repro_sim_ts_test_total") == [(0, 2.0)]

    def test_invalid_cadence(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(Registry(), cadence=0)

    def test_histograms_excluded_from_stream(self):
        registry = Registry()
        histogram = registry.histogram("repro_sim_ts_h_seconds", "h")
        histogram.observe(0.5)
        recorder = TimeSeriesRecorder(registry)
        recorder.tick(0)
        assert len(recorder) == 0

    def test_label_sets_are_distinct_series(self):
        registry = Registry()
        counter = registry.counter(
            "repro_sim_ts_l_total", "l", labelnames=("stream",),
        )
        counter.labels(stream="a").inc(1)
        counter.labels(stream="b").inc(2)
        recorder = TimeSeriesRecorder(registry)
        recorder.tick(0)
        assert recorder.series("repro_sim_ts_l_total", stream="a") == [
            (0, 1.0),
        ]
        assert recorder.series("repro_sim_ts_l_total", stream="b") == [
            (0, 2.0),
        ]


class TestJsonlRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        recorder, counter, gauge = make_recorder()
        counter.inc(3)
        gauge.set(11)
        recorder.tick(0)
        counter.inc(1)
        recorder.tick(1)
        path = tmp_path / "series.jsonl"
        count = recorder.write_jsonl(path)
        assert count == 4
        samples = read_timeseries(path)
        assert samples == recorder.samples()

    def test_missing_file(self, tmp_path):
        with pytest.raises(TimeSeriesError, match="cannot read"):
            read_timeseries(tmp_path / "absent.jsonl")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(TimeSeriesError, match="is empty"):
            read_timeseries(path)

    def test_truncated_json_line(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"day": 0, "met', encoding="utf-8")
        with pytest.raises(TimeSeriesError, match="truncated or corrupt"):
            read_timeseries(path)

    def test_missing_trailer(self, tmp_path):
        path = tmp_path / "no-trailer.jsonl"
        path.write_text(
            '{"day": 0, "metric": "m", "labels": {}, "value": 1.0}\n',
            encoding="utf-8",
        )
        with pytest.raises(TimeSeriesError, match="missing checksum trailer"):
            read_timeseries(path)

    def test_dropped_sample_detected(self, tmp_path):
        recorder, counter, _ = make_recorder()
        counter.inc()
        recorder.tick(0)
        recorder.tick(1)
        path = tmp_path / "series.jsonl"
        recorder.write_jsonl(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text(
            "\n".join(lines[1:]) + "\n", encoding="utf-8",  # drop sample 0
        )
        with pytest.raises(TimeSeriesError, match="declares"):
            read_timeseries(path)

    def test_tampered_value_fails_checksum(self, tmp_path):
        recorder, counter, _ = make_recorder()
        counter.inc(5)
        recorder.tick(0)
        path = tmp_path / "series.jsonl"
        recorder.write_jsonl(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["value"] = 999.0
        lines[0] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TimeSeriesError, match="checksum mismatch"):
            read_timeseries(path)

    def test_data_after_trailer(self, tmp_path):
        recorder, counter, _ = make_recorder()
        counter.inc()
        recorder.tick(0)
        path = tmp_path / "series.jsonl"
        recorder.write_jsonl(path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"day": 9}\n')
        with pytest.raises(TimeSeriesError, match="after the checksum"):
            read_timeseries(path)

    def test_trailer_kind_constant(self, tmp_path):
        path = tmp_path / "series.jsonl"
        write_timeseries([], path)
        trailer = json.loads(path.read_text(encoding="utf-8"))
        assert trailer["kind"] == CHECKSUM_KIND
        assert trailer["samples"] == 0


class TestMergeSamples:
    def test_merge_tags_run_names(self, tmp_path):
        a, counter_a, _ = make_recorder()
        counter_a.inc(1)
        a.tick(0)
        b, counter_b, _ = make_recorder()
        counter_b.inc(2)
        b.tick(0)
        merged = merge_samples([("runA", a), ("runB", b)])
        runs = {sample["run"] for sample in merged}
        assert runs == {"runA", "runB"}
        path = tmp_path / "merged.jsonl"
        write_timeseries(merged, path)
        assert read_timeseries(path) == merged


class TestSimStreamTicker:
    def test_ticker_drives_paper_series(self):
        """Integer totals stream through the ticker into the catalog's
        counter and gauge families."""
        recorder = TimeSeriesRecorder()
        ticker = SimStreamTicker(recorder, stream="main")

        class Totals:
            total_requests = 4
            total_hits = 1
            total_bytes_requested = 400
            total_bytes_hit = 100

        ticker.update(Totals())
        ticker.set_occupancy(300, 3)
        recorder.tick(0)
        assert recorder.series(
            "repro_sim_ts_requests_total", stream="main",
        ) == [(0, 4.0)]
        assert recorder.series(
            "repro_sim_ts_hits_total", stream="main",
        ) == [(0, 1.0)]
        assert recorder.series(
            "repro_sim_ts_used_bytes", stream="main",
        ) == [(0, 300.0)]
        assert recorder.series(
            "repro_sim_ts_documents", stream="main",
        ) == [(0, 3.0)]


class TestRecorderFromCollectors:
    def test_counters_run_in_day_order_and_gauges_follow_the_stamps(self):
        with_cache = MetricsCollector(
            days={
                5: DayStats(requests=2, hits=2, bytes_requested=20,
                            bytes_hit=20),
                1: DayStats(requests=4, hits=1, bytes_requested=400,
                            bytes_hit=100),
            },
            occupancy={1: (300, 3), 5: (310, 4)},
        )
        without = MetricsCollector(days={1: DayStats(requests=4)})
        recorder = recorder_from_collectors(
            [("a", with_cache), ("b", without)],
        )
        assert recorder.recorded_days() == [1, 5]
        assert recorder.series("repro_sim_ts_hits_total", stream="a") == [
            (1, 1.0), (5, 3.0),
        ]
        assert recorder.series("repro_sim_ts_used_bytes", stream="a") == [
            (1, 300.0), (5, 310.0),
        ]
        # A stream with no day 5 and no cache holds its totals, at zero
        # occupancy — what a live ``overall`` stream recorded.
        assert recorder.series(
            "repro_sim_ts_requests_total", stream="b",
        ) == [(1, 4.0), (5, 4.0)]
        assert recorder.series("repro_sim_ts_documents", stream="b") == [
            (1, 0.0), (5, 0.0),
        ]
