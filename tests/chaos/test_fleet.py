"""Fleet chaos acceptance tests (the tentpole's gate).

The ISSUE criterion: 4 shards, one seeded KILL_SHARD mid-run, load
sustained beyond a single shard's capacity — at least 99% of requests
get a well-formed answer (2xx, or 503 + Retry-After), zero client
hangs, the killed shard warm-restarts from its journal, and two runs
with the same seed produce byte-identical ``deterministic`` report
sections.
"""

import json
from pathlib import Path

import pytest

from repro.faults import FaultKind
from repro.proxy.fleet import (
    FleetSupervisor,
    ShardSpec,
    _metric_value,
    default_fleet_plan,
    run_fleet_chaos,
)

SEED = 1996


class TestDefaultFleetPlan:
    def test_same_seed_same_plan(self):
        a = default_fleet_plan(SEED, requests=240, shards=4)
        b = default_fleet_plan(SEED, requests=240, shards=4)
        assert a.to_dict() == b.to_dict()

    def test_kill_lands_in_the_middle_third(self):
        for seed in range(20):
            plan = default_fleet_plan(seed, requests=240, shards=4)
            (rule,) = plan.rules
            assert rule.kind is FaultKind.KILL_SHARD
            (index,) = rule.at
            assert 80 <= index < 160
            assert 0 <= rule.shard < 4

    def test_kill_points_helper_maps_index_to_shard(self):
        plan = default_fleet_plan(SEED, requests=240, shards=4)
        (rule,) = plan.rules
        kills = plan.shard_kill_points()
        assert kills == {rule.at[0]: (rule.shard,)}


class TestMetricValue:
    EXPOSITION = (
        "# HELP repro_x_total x\n"
        "# TYPE repro_x_total counter\n"
        "repro_x_total 7\n"
        'repro_y_total{label="a"} 3\n'
        "repro_xy_total 2\n"
    )

    def test_reads_unlabelled_samples(self):
        assert _metric_value(self.EXPOSITION, "repro_x_total") == 7.0

    def test_prefix_does_not_false_match(self):
        assert _metric_value(self.EXPOSITION, "repro_x") is None

    def test_missing_name(self):
        assert _metric_value(self.EXPOSITION, "repro_z_total") is None


class TestCrashLoopDetection:
    def test_a_shard_dying_on_arrival_goes_failed_not_hot_loop(self, tmp_path):
        """An unspawnable shard (bogus removal policy -> immediate exit)
        must be marked FAILED after ``rapid_deaths`` deaths, not
        respawned forever."""
        spec = ShardSpec(
            shard_id=0, state_dir=tmp_path / "shard-0", policy="BOGUS",
        )
        supervisor = FleetSupervisor(
            [spec],
            backoff_base=0.05,
            backoff_cap=0.2,
            rapid_deaths=2,
            rapid_window=30.0,
        )
        with pytest.raises(RuntimeError):
            supervisor.start(wait=20.0)
        handle = supervisor._handles[0]
        # Crash-loop detection capped the respawns at rapid_deaths - 1.
        assert handle.restarts <= 1
        assert supervisor.address_of(0) is None


@pytest.fixture(scope="module")
def chaos_runs(tmp_path_factory):
    """Two same-seed chaos runs (the expensive part, done once)."""
    reports = []
    for attempt in ("a", "b"):
        root = tmp_path_factory.mktemp(f"fleet-{attempt}")
        reports.append(run_fleet_chaos(
            root, shards=4, requests=240, rate=80.0, seed=SEED,
        ))
    return reports


class TestFleetChaosAcceptance:
    def test_availability_floor(self, chaos_runs):
        for report in chaos_runs:
            assert report.deterministic["invariants"][
                "availability_floor_met"
            ], report.measured
            assert report.measured["availability_pct"] >= 99.0

    def test_no_hangs_and_all_well_formed(self, chaos_runs):
        for report in chaos_runs:
            invariants = report.deterministic["invariants"]
            assert invariants["no_client_hangs"], report.measured
            assert invariants["all_well_formed"], report.measured
            assert report.measured["counts"]["hang"] == 0
            assert report.measured["counts"]["malformed"] == 0

    def test_killed_shard_warm_restarted_from_journal(self, chaos_runs):
        for report in chaos_runs:
            assert report.deterministic["invariants"]["warm_restart_ok"]
            assert report.measured["restarts"] >= 1

    def test_report_is_ok_and_renders(self, chaos_runs):
        for report in chaos_runs:
            assert report.ok
            line = report.render()
            assert line.startswith("fleet: 4 shard(s)")
            assert "[PASS]" in line

    def test_same_seed_deterministic_sections_byte_identical(
        self, chaos_runs, tmp_path,
    ):
        blobs = []
        for attempt, report in enumerate(chaos_runs):
            path = tmp_path / f"FLEET_report_{attempt}.json"
            report.write(path)
            record = json.loads(path.read_text(encoding="utf-8"))
            blobs.append(json.dumps(
                record["deterministic"], sort_keys=True,
            ).encode("utf-8"))
        assert blobs[0] == blobs[1]

    def test_deterministic_section_is_byte_identical_to_the_parents(
        self, chaos_runs,
    ):
        """Recorded at ``1105716``, before the router and the shards kept
        connections open between tiers."""
        fixture = (
            Path(__file__).resolve().parents[1]
            / "fixtures" / "fleet_chaos_deterministic_parent.json"
        )
        for report in chaos_runs:
            assert (
                json.dumps(report.deterministic, indent=1, sort_keys=True)
                == fixture.read_text(encoding="utf-8")
            )

    def test_the_fault_actually_fired(self, chaos_runs):
        for report in chaos_runs:
            rules = report.deterministic["plan"]["rules"]
            assert any(rule["kind"] == "kill_shard" for rule in rules)

    def test_telemetry_collected_and_config_deterministic(self, chaos_runs):
        """The aggregator ran at least one round; the SLO configuration
        and rollup family names land in the deterministic section (so
        the byte-identity test above covers them), while the measured
        telemetry document carries the live rollups."""
        for report in chaos_runs:
            assert report.deterministic["invariants"]["telemetry_collected"]
            config = report.deterministic["telemetry"]
            assert [s["name"] for s in config["slo"]["specs"]] == [
                "availability", "latency_p95", "hit_ratio_floor",
            ]
            assert all(
                name.startswith("repro_fleet_")
                for name in config["rollup_families"]
            )
            doc = report.measured["telemetry"]
            assert doc["rounds"] >= 1
            assert set(doc["shards"]) == {"0", "1", "2", "3"}
            assert "objectives" in doc["slo"]

    def test_status_reports_per_shard_scrape_freshness(self, chaos_runs):
        for report in chaos_runs:
            for shard in report.measured["status"]["shards"]:
                telemetry = shard["telemetry"]
                assert "last_scrape_age_s" in telemetry
                assert "consecutive_scrape_failures" in telemetry
                assert telemetry["stale"] in (True, False)
