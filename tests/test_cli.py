"""Tests for the command-line interface."""

import argparse
import re

import pytest

import repro.cli
from repro.cli import build_parser, main, parse_capacity, parse_policy
from repro.core.policy import DynamicPolicy, KeyPolicy


class TestParseCapacity:
    def test_plain_bytes(self):
        assert parse_capacity("1024") == 1024

    def test_si_units(self):
        assert parse_capacity("10MB") == 10_000_000
        assert parse_capacity("64kB") == 64_000
        assert parse_capacity("1GB") == 10**9

    def test_binary_units(self):
        assert parse_capacity("1MiB") == 2**20
        assert parse_capacity("2GiB") == 2 * 2**30

    def test_fractional(self):
        assert parse_capacity("1.5MB") == 1_500_000

    def test_case_and_spaces(self):
        assert parse_capacity(" 10 mb ") == 10_000_000

    def test_invalid(self):
        for bad in ("", "abc", "-5MB", "10XB"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_capacity(bad)


class TestParsePolicy:
    def test_literature_names(self):
        assert parse_policy("LRU").name == "LRU"
        assert parse_policy("lru-min").name == "LRU-MIN"
        assert isinstance(parse_policy("Pitkow/Recker"), DynamicPolicy)

    def test_key_stack(self):
        policy = parse_policy("SIZE,ATIME")
        assert isinstance(policy, KeyPolicy)
        assert [k.name for k in policy.keys[:2]] == ["SIZE", "ATIME"]

    def test_single_key(self):
        assert parse_policy("NREF").keys[0].name == "NREF"

    def test_adaptive_policies(self):
        assert parse_policy("GDS").name == "GDS"
        assert parse_policy("gdsf").name == "GDSF"
        assert parse_policy("GDSF-BYTES").name == "GDSF(bytes)"
        assert parse_policy("gds-bytes").name == "GDS(bytes)"

    def test_unknown(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_policy("SHOE-SIZE")


class TestCommands:
    def test_generate_and_characterize(self, tmp_path, capsys):
        out = tmp_path / "c.log"
        assert main([
            "generate", "C", "--scale", "0.01", "--seed", "3",
            "--out", str(out),
        ]) == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "valid requests" in captured

        assert main(["characterize", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "Workload summary" in captured
        assert "Table 4" in captured

    def test_simulate(self, tmp_path, capsys):
        out = tmp_path / "c.log"
        main(["generate", "C", "--scale", "0.01", "--out", str(out)])
        capsys.readouterr()
        assert main([
            "simulate", str(out),
            "--policy", "SIZE", "--policy", "LRU",
            "--fraction", "0.1",
        ]) == 0
        captured = capsys.readouterr().out
        assert "infinite" in captured
        assert "SIZE @" in captured
        assert "LRU @" in captured

    def test_simulate_with_capacity(self, tmp_path, capsys):
        out = tmp_path / "c.log"
        main(["generate", "C", "--scale", "0.01", "--out", str(out)])
        capsys.readouterr()
        assert main([
            "simulate", str(out), "--policy", "LRU-MIN",
            "--capacity", "200kB",
        ]) == 0
        assert "LRU-MIN @" in capsys.readouterr().out

    def test_simulate_empty_trace_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.log"
        empty.write_text("")
        assert main(["simulate", str(empty)]) == 1

    def test_characterize_explains_a_trace_with_no_valid_request(
        self, tmp_path, capsys,
    ):
        """The one diagnostic command still reports on the trace that
        most needs it: every replaying command refuses it instead."""
        malformed = tmp_path / "malformed.log"
        malformed.write_text("garbage line one\nnot a clf line either\n")
        assert main(["characterize", str(malformed)]) == 0
        captured = capsys.readouterr()
        assert "quarantined 2 malformed line(s) of 2" in captured.err
        assert "Validation (Section 1.1)" in captured.out
        assert "Workload summary" in captured.out
        assert main(["simulate", str(malformed)]) == 1
        assert capsys.readouterr().err.endswith(
            "simulate: trace contains no valid requests\n"
        )

    @pytest.mark.parametrize("number,expect", [
        (1, "Experiment 1"),
        (2, "Experiment 2"),
        (3, "Experiment 3"),
    ])
    def test_experiments(self, number, expect, capsys):
        assert main([
            "experiment", str(number), "--workload", "C",
            "--scale", "0.01",
        ]) == 0
        assert expect in capsys.readouterr().out

    def test_experiment_4(self, capsys):
        assert main([
            "experiment", "4", "--workload", "BR", "--scale", "0.05",
        ]) == 0
        assert "audio WHR%" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "C"])

    def test_workload_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate", "XX", "--out", "x.log"]
            )


    def test_module_docstring_names_every_subcommand(self):
        (commands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        listed = set(re.findall(
            r"^\* ``(\w+)``", repro.cli.__doc__, flags=re.MULTILINE,
        ))
        assert listed == set(commands.choices)


class TestSweepCommand:
    def test_sweep_on_synthetic_workload(self, capsys):
        assert main([
            "sweep", "--workload", "C", "--scale", "0.01",
        ]) == 0
        captured = capsys.readouterr().out
        assert "36-policy sweep" in captured
        assert "sweep engine: 36 runs" in captured
        assert "SIZE/RANDOM" in captured

    def test_sweep_result_cache_round_trip(self, tmp_path, capsys):
        cache_dir = tmp_path / "sweep-cache"
        args = [
            "sweep", "--workload", "C", "--scale", "0.01",
            "--cache-dir", str(cache_dir),
        ]
        assert main(args) == 0
        assert "36 misses" in capsys.readouterr().out
        assert main(args) == 0
        assert "36 hits / 0 misses" in capsys.readouterr().out

    def test_sweep_on_trace_file(self, tmp_path, capsys):
        out = tmp_path / "c.log"
        main(["generate", "C", "--scale", "0.01", "--out", str(out)])
        capsys.readouterr()
        assert main(["sweep", str(out), "--workers", "2"]) == 0
        assert str(out) in capsys.readouterr().out

    def test_sweep_empty_trace(self, tmp_path):
        empty = tmp_path / "empty.log"
        empty.write_text("")
        assert main(["sweep", str(empty)]) == 1

    def test_experiment_2_accepts_workers(self, capsys):
        assert main([
            "experiment", "2", "--workload", "C", "--scale", "0.01",
            "--workers", "2",
        ]) == 0
        assert "Experiment 2" in capsys.readouterr().out


class TestMrcCommand:
    def test_mrc_output(self, tmp_path, capsys):
        out = tmp_path / "c.log"
        main(["generate", "C", "--scale", "0.01", "--out", str(out)])
        capsys.readouterr()
        assert main([
            "mrc", str(out),
            "--policy", "SIZE", "--policy", "LRU",
            "--fractions", "0.1", "0.5",
        ]) == 0
        captured = capsys.readouterr().out
        assert "miss ratio" in captured
        assert "SIZE" in captured and "LRU" in captured

    def test_mrc_weighted(self, tmp_path, capsys):
        out = tmp_path / "c.log"
        main(["generate", "C", "--scale", "0.01", "--out", str(out)])
        capsys.readouterr()
        assert main([
            "mrc", str(out), "--weighted", "--fractions", "0.2",
        ]) == 0
        assert "byte miss ratio" in capsys.readouterr().out

    def test_mrc_empty_trace(self, tmp_path):
        empty = tmp_path / "empty.log"
        empty.write_text("")
        assert main(["mrc", str(empty)]) == 1


class TestOneErrorExit:
    """A command fails in one ``<command>: <message>`` stderr line."""

    @pytest.mark.parametrize("before,after", [
        (["characterize"], []),
        (["simulate"], []),
        (["mrc"], []),
        (["clone"], ["--out", "clone.log"]),
        (["sweep"], []),
        (["chaos"], []),
    ])
    def test_a_missing_trace_file(self, tmp_path, capsys, before, after):
        missing = tmp_path / "absent.log"
        assert main([*before, str(missing), *after]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"{before[0]}: {missing}: No such file or directory\n"
        )
        assert captured.out == ""

    def test_a_missing_fault_plan(self, tmp_path, capsys):
        missing = tmp_path / "plan.json"
        assert main([
            "sweep", "--workload", "C", "--scale", "0.01",
            "--fault-plan", str(missing),
        ]) == 1
        err = capsys.readouterr().err
        assert err == f"sweep: {missing}: No such file or directory\n"

    @pytest.mark.parametrize("argv", [
        ["simulate", "t.log", "--policy", "BOGUS"],
        ["mrc", "t.log", "--policy", "BOGUS"],
        ["proxy", "--policy", "BOGUS"],
        ["chaos", "--policy", "BOGUS"],
        ["fleet", "serve", "--state-dir", "d", "--policy", "BOGUS"],
        ["fleet", "chaos", "--state-dir", "d", "--policy", "BOGUS"],
    ])
    def test_a_bad_policy_is_refused_before_any_work(self, argv, capsys):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert "argument --policy:" in err and "BOGUS" in err

    @pytest.mark.parametrize("argv", [
        ["characterize", "t.log", "--seed", "1"],
        ["experiment", "1", "some.log"],
        ["experiment", "1", "--epoch", "0"],
    ])
    def test_a_value_the_command_never_reads_is_refused(self, argv, capsys):
        """``characterize`` draws nothing at random and ``experiment``
        only synthesises its workload."""
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestOneShardSpec:
    def test_the_spec_round_trips_through_the_state_dir(self, tmp_path):
        from repro.proxy.fleet import ShardSpec

        spec = ShardSpec(
            shard_id=3, state_dir=tmp_path, capacity=123, policy="LRU",
            origin="127.0.0.1:9", timeout=1.5, max_inflight=7,
            max_clients=2, read_deadline=0.5,
        )
        spec.write()
        assert ShardSpec.read(str(tmp_path)) == spec

    def test_fleet_shard_takes_nothing_but_its_state_dir(self):
        parser = build_parser()
        assert parser.parse_args(
            ["fleet", "shard", "--state-dir", "d"],
        ).state_dir == "d"
        for flag in ("--shard-id", "--capacity", "--policy", "--origin",
                     "--timeout", "--max-inflight", "--max-clients",
                     "--read-deadline"):
            with pytest.raises(SystemExit):
                parser.parse_args(
                    ["fleet", "shard", "--state-dir", "d", flag, "1"],
                )

    def test_fleet_chaos_hands_its_shard_flags_to_the_spec(
        self, tmp_path, monkeypatch, capsys,
    ):
        """``--timeout`` is the origin timeout of ``fleet serve`` only;
        ``--max-inflight`` reaches the harness, and an omitted flag keeps
        :class:`ShardSpec`'s default."""
        seen = {}

        class Report:
            ok = True

            def render(self):
                return "fleet: stub"

        def run_fleet_chaos(**kwargs):
            seen.update(kwargs)
            return Report()

        monkeypatch.setattr(
            "repro.proxy.fleet.run_fleet_chaos", run_fleet_chaos,
        )
        with pytest.raises(SystemExit) as raised:
            main([
                "fleet", "chaos", "--state-dir", str(tmp_path),
                "--timeout", "2.5",
            ])
        assert raised.value.code == 2
        assert "unrecognized arguments: --timeout" in capsys.readouterr().err
        assert main([
            "fleet", "chaos", "--state-dir", str(tmp_path),
            "--max-inflight", "3",
        ]) == 0
        assert seen["shard_max_inflight"] == 3
        assert "capacity" not in seen and "policy" not in seen
