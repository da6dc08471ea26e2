"""Tests for the CLI's observability surface.

Covers the ``--trace-out`` / ``--metrics-out`` / ``--events-out`` /
``--log-level`` flags (the acceptance-criterion invocation from the
issue), the ``repro obs check`` lint, and ``repro obs summarize``.
"""

import json

import pytest

from repro.cli import main
from repro.obs.events import EventLog
from repro.obs.summarize import parse_prometheus_text


@pytest.fixture()
def sweep_artifacts(tmp_path, capsys):
    """Artifacts of one small parallel sweep with every out-flag set."""
    paths = {
        "trace": tmp_path / "t.json",
        "metrics": tmp_path / "m.prom",
        "events": tmp_path / "e.jsonl",
    }
    assert main([
        "sweep", "--workload", "C", "--scale", "0.01", "--workers", "2",
        "--trace-out", str(paths["trace"]),
        "--metrics-out", str(paths["metrics"]),
        "--events-out", str(paths["events"]),
    ]) == 0
    capsys.readouterr()
    return paths


class TestSweepArtifacts:
    def test_chrome_trace_is_valid_and_perfetto_shaped(self, sweep_artifacts):
        trace = json.loads(
            sweep_artifacts["trace"].read_text(encoding="utf-8")
        )
        events = trace["traceEvents"]
        assert trace["displayTimeUnit"] == "ms"
        phases = {event["ph"] for event in events}
        assert phases == {"M", "X"}
        names = [e["name"] for e in events if e["ph"] == "X"]
        assert names.count("sweep.run") == 1
        assert names.count("sweep.job") == 36
        assert names.count("sim.replay") == 36
        for event in events:
            if event["ph"] == "X":
                assert event["ts"] >= 0.0
                assert event["dur"] >= 0.0

    def test_metrics_are_parseable_exposition_text(self, sweep_artifacts):
        text = sweep_artifacts["metrics"].read_text(encoding="utf-8")
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in parse_prometheus_text(text)
        }
        assert samples[
            ("repro_sweep_jobs_total", (("source", "computed"),))
        ] == 36
        assert samples[("repro_sim_replays_total", ())] == 36

    def test_events_are_jsonl_in_seq_order(self, sweep_artifacts):
        records = EventLog.read_jsonl(sweep_artifacts["events"])
        assert [r["seq"] for r in records] == list(range(1, len(records) + 1))
        done = [r for r in records if r["event"] == "job.done"]
        assert [r["index"] for r in done] == list(range(36))
        assert len([r for r in records if r["event"] == "replay.done"]) == 36

    def test_summarize_renders_the_artifacts(self, sweep_artifacts, capsys):
        assert main([
            "obs", "summarize",
            "--trace", str(sweep_artifacts["trace"]),
            "--metrics", str(sweep_artifacts["metrics"]),
            "--events", str(sweep_artifacts["events"]),
        ]) == 0
        captured = capsys.readouterr().out
        assert "sweep.job" in captured
        assert "repro_sweep_jobs_total" in captured
        assert "job.done" in captured


class TestLogLevelFlag:
    def test_warning_level_suppresses_info_events(self, tmp_path, capsys):
        events = tmp_path / "e.jsonl"
        assert main([
            "sweep", "--workload", "C", "--scale", "0.01",
            "--log-level", "warning", "--events-out", str(events),
        ]) == 0
        capsys.readouterr()
        assert EventLog.read_jsonl(events) == []


class TestObsCheckCommand:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["obs", "check"]) == 0
        assert "no problems" in capsys.readouterr().out


class TestSummarizeDiagnostics:
    """obs summarize exits non-zero with a one-line diagnostic on
    missing, empty, and truncated export files."""

    def test_missing_events_file(self, tmp_path, capsys):
        absent = tmp_path / "absent.jsonl"
        assert main(["obs", "summarize", "--events", str(absent)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("obs summarize: events:")
        assert str(absent) in err
        assert len(err.strip().splitlines()) == 1

    def test_empty_metrics_file(self, tmp_path, capsys):
        path = tmp_path / "m.prom"
        path.write_text("", encoding="utf-8")
        assert main(["obs", "summarize", "--metrics", str(path)]) == 1
        assert "is empty" in capsys.readouterr().err

    def test_truncated_events_file(self, tmp_path, capsys):
        path = tmp_path / "e.jsonl"
        path.write_text('{"seq": 1, "channel": "sim"}\n{"seq": 2, ',
                        encoding="utf-8")
        assert main(["obs", "summarize", "--events", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "truncated" in err

    def test_truncated_trace_file(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text('{"traceEvents": [', encoding="utf-8")
        assert main(["obs", "summarize", "--trace", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_tampered_timeseries_file(self, tmp_path, capsys):
        path = tmp_path / "series.jsonl"
        path.write_text('{"day": 0}\n', encoding="utf-8")
        assert main(["obs", "summarize", "--timeseries", str(path)]) == 1
        assert "missing checksum trailer" in capsys.readouterr().err


class TestTimeseriesExport:
    def test_sweep_writes_verified_timeseries(self, tmp_path, capsys):
        from repro.obs.timeseries import read_timeseries

        out = tmp_path / "series.jsonl"
        assert main([
            "sweep", "--workload", "C", "--scale", "0.01",
            "--timeseries-out", str(out),
        ]) == 0
        capsys.readouterr()
        samples = read_timeseries(out)   # checksum-verified read
        runs = {sample["run"] for sample in samples}
        assert len(runs) == 36           # one stream per grid cell
        assert main(["obs", "summarize", "--timeseries", str(out)]) == 0
        assert "checksum verified" in capsys.readouterr().out


class TestBenchCommandRetired:
    def test_bench_is_an_argparse_error(self, capsys):
        """``bench/run.py`` is the one perf harness; the package has no
        ``bench`` subcommand."""
        with pytest.raises(SystemExit) as raised:
            main(["bench", "--list"])
        assert raised.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestSweepResume:
    SWEEP = ["sweep", "--workload", "C", "--scale", "0.01"]

    def test_missing_directory_is_refused_not_created(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        assert main(self.SWEEP + ["--resume", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(missing) in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert not missing.exists()

    def test_a_file_is_not_a_checkpoint_directory(self, tmp_path, capsys):
        path = tmp_path / "ck"
        path.write_text("", encoding="utf-8")
        assert main(self.SWEEP + ["--resume", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_directory_without_a_manifest_restarts_cleanly(
        self, tmp_path, capsys,
    ):
        """A kill between the journal's creation and the manifest's
        first write leaves exactly this behind."""
        empty = tmp_path / "ck"
        empty.mkdir()
        assert main(self.SWEEP + ["--resume", str(empty)]) == 0
        out = capsys.readouterr().out
        assert "0 hits / 36 misses" in out
        assert "resumed from checkpoint" not in out

    def test_real_checkpoint_resumes_every_job(self, tmp_path, capsys):
        checkpoint = tmp_path / "ck"
        assert main(
            self.SWEEP + ["--checkpoint-dir", str(checkpoint)]
        ) == 0
        capsys.readouterr()
        assert main(self.SWEEP + ["--resume", str(checkpoint)]) == 0
        assert "36 resumed from checkpoint" in capsys.readouterr().out

    def test_another_sweeps_checkpoint_is_one_line_error(
        self, tmp_path, capsys,
    ):
        checkpoint = tmp_path / "ck"
        assert main(
            self.SWEEP + ["--seed", "7", "--checkpoint-dir", str(checkpoint)]
        ) == 0
        before = {p.name: p.read_bytes() for p in checkpoint.iterdir()}
        capsys.readouterr()
        assert main(
            self.SWEEP + ["--seed", "8", "--resume", str(checkpoint)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert str(checkpoint) in captured.err
        assert "different sweep" in captured.err
        assert {p.name: p.read_bytes() for p in checkpoint.iterdir()} == before

    def test_resumed_jobs_are_stored_in_the_result_cache(
        self, tmp_path, capsys,
    ):
        checkpoint, cache = tmp_path / "ck", tmp_path / "cache"
        assert main(
            self.SWEEP + ["--checkpoint-dir", str(checkpoint)]
        ) == 0
        assert main(self.SWEEP + [
            "--resume", str(checkpoint), "--cache-dir", str(cache),
        ]) == 0
        capsys.readouterr()
        assert main(self.SWEEP + ["--cache-dir", str(cache)]) == 0
        assert "36 hits / 0 misses" in capsys.readouterr().out


class TestObsTailCommand:
    def _write_events(self, path):
        log = EventLog(level="debug")
        log.emit("fleet", "info", "shard.up", shard=0)
        log.emit("slo", "warning", "slo.burn", slo="availability")
        log.emit("fleet", "debug", "scrape.ok", shard=1)
        log.write_jsonl(path)

    def test_tail_prints_every_event(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        self._write_events(path)
        assert main(["obs", "tail", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["seq"] for line in lines)

    def test_channel_and_level_filters(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        self._write_events(path)
        assert main([
            "obs", "tail", str(path), "--channel", "fleet",
            "--level", "info",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "shard.up"

    def test_missing_file_is_one_line_error(self, tmp_path, capsys):
        assert main(["obs", "tail", str(tmp_path / "gone.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("obs tail:")
        assert len(err.strip().splitlines()) == 1

    def test_a_file_that_is_not_utf8_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b'\xff\xfe{"seq": 1}\n')
        assert main(["obs", "tail", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"obs tail: {path}: ")
        assert "codec can't decode" in err
        assert len(err.strip().splitlines()) == 1

    def test_corrupt_lines_are_skipped_not_fatal(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"seq": 1, "channel": "fleet", "level": "info", '
            '"event": "ok"}\nnot json\n[1, 2]\n',
            encoding="utf-8",
        )
        assert main(["obs", "tail", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1


class TestFleetTelemetryCommand:
    def _doc(self):
        return {
            "rounds": 3,
            "fleet": {
                "requests": 120, "hit_ratio_pct": 33.5,
                "weighted_hit_ratio_pct": 28.1,
                "latency": {"p50_s": 0.02, "p95_s": 0.4, "p99_s": 1.1},
                "degraded_seconds": {}, "alerts": [],
            },
            "shards": {
                "0": {"occupancy_ratio": 0.5, "last_scrape_age_s": 0.2,
                      "consecutive_scrape_failures": 0, "stale": False},
            },
            "slo": {"objectives": [], "alerts": []},
        }

    def test_renders_a_saved_document(self, tmp_path, capsys):
        path = tmp_path / "telemetry.json"
        path.write_text(json.dumps(self._doc()), encoding="utf-8")
        assert main(["fleet", "telemetry", "--from", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Fleet rollup" in out
        assert "33.50" in out

    def test_json_mode_and_html_out(self, tmp_path, capsys):
        """``--json`` prints the document itself; the HTML dashboard
        (``--html-out``) is gone — the ASCII one is the only render."""
        path = tmp_path / "telemetry.json"
        path.write_text(json.dumps(self._doc()), encoding="utf-8")
        assert main([
            "fleet", "telemetry", "--from", str(path), "--json",
        ]) == 0
        assert json.loads(capsys.readouterr().out) == self._doc()
        with pytest.raises(SystemExit):
            main([
                "fleet", "telemetry", "--from", str(path),
                "--html-out", str(tmp_path / "dash.html"),
            ])

    def test_missing_document_is_one_line_error(self, tmp_path, capsys):
        assert main([
            "fleet", "telemetry", "--from", str(tmp_path / "gone.json"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("fleet telemetry:")

    def test_unreachable_router_is_an_error_not_a_traceback(self, capsys):
        assert main([
            "fleet", "telemetry", "--router", "127.0.0.1:1",
        ]) == 1
        assert capsys.readouterr().err.startswith("fleet telemetry:")


class TestSummarizeFleet:
    """``obs summarize --fleet``: the one verdict line, then the one
    dashboard over the report's telemetry document."""

    def _report(self, tmp_path, **invariants):
        from repro.proxy.fleet import FleetReport

        held = {"availability_floor_met": True, "warm_restart_ok": True}
        held.update(invariants)
        path = tmp_path / "FLEET_report.json"
        FleetReport(
            deterministic={"shards": 4, "requests": 200, "invariants": held},
            measured={
                "availability_pct": 99.5,
                "counts": {"ok": 190, "shed": 10},
                "restarts": 1,
                "telemetry": TestFleetTelemetryCommand()._doc(),
            },
        ).write(path)
        return path

    def test_a_passing_report_prints_the_verdict_and_the_dashboard(
        self, tmp_path, capsys,
    ):
        assert main(["obs", "summarize", "--fleet",
                     str(self._report(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == (
            "fleet: 4 shard(s), 1 restart(s), shed 5.0%, "
            "availability 99.50% [PASS]"
        )
        assert "Fleet rollup" in out and "33.50" in out
        assert "Shards" in out and "fresh" in out

    def test_a_false_invariant_is_named(self, tmp_path, capsys):
        path = self._report(tmp_path, warm_restart_ok=False)
        assert main(["obs", "summarize", "--fleet", str(path)]) == 0
        verdict = capsys.readouterr().out.splitlines()[0]
        assert verdict.endswith("[FAIL] violated: warm_restart_ok")

    def test_a_malformed_report_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "FLEET_report.json"
        path.write_text(json.dumps({"deterministic": {}}), encoding="utf-8")
        assert main(["obs", "summarize", "--fleet", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("obs summarize: fleet report: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""
