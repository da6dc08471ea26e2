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
