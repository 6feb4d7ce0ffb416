"""CLI subcommands, exit codes, and file handling."""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import MIRROR_WITNESS_TEXT, input_argv
from ncgames import cli, experiments, solver, witness
from ncgames.cli import run_cli
from ncgames.errors import (
    CapacityError,
    ExtractionError,
    NcgameError,
    ParseError,
    StrategyError,
    ValidationError,
)
from ncgames.experiments import ALL_STRATEGIES
from ncgames.graph import generate_random, parse_game_graph, serialize_game_graph, validate
from ncgames.reductions import MAX_GAME_NODES
from ncgames.testplan import parse_suite
from ncgames.witness import parse_witness

FIG_CNF = "p cnf 3 2\n1 2 3 0\n-1 -2 0\n"


class TestSolve:
    def test_solve_prints_value_and_move(self, mirror_file, capsys):
        assert run_cli(["solve", "--graph", mirror_file]) == 0
        out = capsys.readouterr().out
        assert "mcg=3" in out
        assert "first_move=" in out

    def test_solve_restart(self, mirror_file, capsys):
        assert run_cli(["solve", "--graph", mirror_file, "--restart"]) == 0
        assert "mcg_restart=4" in capsys.readouterr().out

    def test_cap_exceeded_exit_code(self, mirror_file, capsys):
        assert run_cli(["solve", "--graph", mirror_file, "--cap", "2"]) == 4
        assert capsys.readouterr().err.startswith("error:")

    def test_sink_rejected(self, tmp_path, capsys):
        path = tmp_path / "sink.ncgame"
        path.write_text(
            "ncgame 1\nnode a owner=tester gain=1\nnode s owner=sut gain=1\n"
            "edge a s\ninit a\n"
        )
        assert run_cli(["solve", "--graph", str(path)]) == 3


class TestProcessEntry:
    def test_module_invocation(self, mirror_file):
        proc = subprocess.run(
            [sys.executable, "-m", "ncgames", "solve", "--graph", mirror_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "mcg=3" in proc.stdout

    def test_module_invocation_error_path(self, tmp_path):
        bad = tmp_path / "bad.ncgame"
        bad.write_text("ncgame 1\nedge a b\n")
        proc = subprocess.run(
            [sys.executable, "-m", "ncgames", "validate", "--graph", str(bad)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")


class TestExitCodes:
    @pytest.mark.parametrize(
        "error, code",
        [
            (ParseError("bad"), 2),
            (OSError("bad"), 2),
            (ValidationError("bad"), 3),
            (ValueError("bad"), 3),
            (NcgameError("bad"), 3),
            (CapacityError("bad"), 4),
            (StrategyError("bad"), 5),
            (ExtractionError("bad"), 4),
        ],
        ids=lambda x: type(x).__name__ if isinstance(x, Exception) else str(x),
    )
    def test_each_error_type_has_its_exit_code(self, error, code, monkeypatch, capsys):
        def fail(args):
            raise error

        monkeypatch.setattr(cli, "_cmd_gen_suite", fail)
        assert run_cli(["gen-suite", "--graph", "unused.ncgame"]) == code
        assert capsys.readouterr().err == "error: bad\n"


class TestValidate:
    def test_valid_graph(self, mirror_file, capsys):
        assert run_cli(["validate", "--graph", mirror_file]) == 0
        assert "ok" in capsys.readouterr().out

    def test_sink_fails_strict_and_passes_non_strict(self, tmp_path, capsys):
        path = tmp_path / "sink.ncgame"
        path.write_text(
            "ncgame 1\nnode a owner=tester gain=1\nnode s owner=sut gain=1\n"
            "edge a s\ninit a\n"
        )
        assert run_cli(["validate", "--graph", str(path)]) == 3
        assert "sink: s" in capsys.readouterr().out
        assert run_cli(["validate", "--graph", str(path), "--non-strict"]) == 0

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.ncgame"
        path.write_text("ncgame 1\nedge a b\n")
        assert run_cli(["validate", "--graph", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run_cli(["validate", "--graph", "/nonexistent.ncgame"]) == 2

    def test_non_ascii_digit_gain_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "sup.ncgame"
        path.write_text("ncgame 1\nnode a owner=tester gain=\u00b2\nedge a a\ninit a\n")
        assert run_cli(["validate", "--graph", str(path)]) == 2
        assert "line 2: gain must be a nonnegative integer" in capsys.readouterr().err


class TestWitnessCommands:
    def test_check_accepts_good_witness(self, mirror_file, tmp_path, capsys):
        wpath = tmp_path / "good.ncwitness"
        wpath.write_text(MIRROR_WITNESS_TEXT)
        assert run_cli(["witness-check", "--graph", mirror_file, "--witness", str(wpath)]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_check_rejects_perturbed_witness(self, mirror_file, tmp_path, capsys):
        wpath = tmp_path / "bad.ncwitness"
        wpath.write_text(MIRROR_WITNESS_TEXT.replace("entry v0 c=3", "entry v0 c=2"))
        assert run_cli(["witness-check", "--graph", mirror_file, "--witness", str(wpath)]) == 3
        assert "violation:" in capsys.readouterr().out

    def test_non_ascii_digit_bound_is_a_parse_error(self, mirror_file, tmp_path, capsys):
        wpath = tmp_path / "sup.ncwitness"
        wpath.write_text(MIRROR_WITNESS_TEXT.replace("entry v0 c=3", "entry v0 c=\u00b2"))
        assert run_cli(["witness-check", "--graph", mirror_file, "--witness", str(wpath)]) == 2
        assert "line 2: bound must be a nonnegative integer" in capsys.readouterr().err

    def test_extract_writes_consistent_witness(self, mirror_file, tmp_path, capsys):
        out = tmp_path / "w.ncwitness"
        assert run_cli(["witness-extract", "--graph", mirror_file, "--out", str(out)]) == 0
        assert "c_init=3" in capsys.readouterr().out
        w = parse_witness(out.read_text())
        assert w.entries["v0"].bound == 3
        assert run_cli(["witness-check", "--graph", mirror_file, "--witness", str(out)]) == 0

    def test_extract_without_out_keeps_stdout_parseable(self, mirror_file, capsys):
        assert run_cli(["witness-extract", "--graph", mirror_file]) == 0
        captured = capsys.readouterr()
        assert parse_witness(captured.out).entries["v0"].bound == 3
        assert "c_init=3" in captured.err


class TestReduceSat:
    def test_reduce_prints_threshold_and_writes_game(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(FIG_CNF)
        out = tmp_path / "f.ncgame"
        assert run_cli(["reduce-sat", "--cnf", str(cnf), "--out", str(out)]) == 0
        assert "threshold=9" in capsys.readouterr().out
        g = parse_game_graph(out.read_text())
        assert len(g.nodes) == 12
        assert validate(g, strict=True) == []

    def test_bad_cnf_exit_code_and_no_partial_file(self, tmp_path, capsys):
        cnf = tmp_path / "broken.cnf"
        cnf.write_text("p cnf 1 1\n0\n")
        out = tmp_path / "should_not_exist.ncgame"
        assert run_cli(["reduce-sat", "--cnf", str(cnf), "--out", str(out)]) == 2
        assert not out.exists()

    def test_without_out_keeps_stdout_machine_readable(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(FIG_CNF)
        assert run_cli(["reduce-sat", "--cnf", str(cnf)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "threshold=9\n"
        assert parse_game_graph(captured.err).init == "dx1"

    def test_huge_declared_variable_count_exits_4_without_output(self, tmp_path, capsys):
        cnf = tmp_path / "huge.cnf"
        cnf.write_text("p cnf 1000000000 1\n1 0\n")
        out = tmp_path / "huge.ncgame"
        assert run_cli(["reduce-sat", "--cnf", str(cnf), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"error: formula needs 3000000002 game nodes, cap is {MAX_GAME_NODES}\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.cnf"]


class TestTransformAndGen:
    def test_transform_restart(self, mirror_file, tmp_path):
        out = tmp_path / "doubled.ncgame"
        assert run_cli(["transform-restart", "--graph", mirror_file, "--out", str(out)]) == 0
        doubled = parse_game_graph(out.read_text())
        assert len(doubled.nodes) == 8
        assert doubled.init == "v0__in"

    def test_gen_random_deterministic(self, tmp_path):
        a = tmp_path / "a.ncgame"
        b = tmp_path / "b.ncgame"
        args = ["gen-random", "--nodes", "9", "--sut-fraction", "0.5", "--seed", "4"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()
        g = parse_game_graph(a.read_text())
        assert len(g.nodes) == 9 and validate(g, strict=True) == []

    def test_out_file_honours_umask(self, mirror_file, tmp_path):
        out = tmp_path / "mirror.ncsuite"
        old = os.umask(0o022)
        try:
            assert run_cli(["gen-suite", "--graph", mirror_file, "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o644

    def test_gen_suite(self, mirror_file, tmp_path):
        out = tmp_path / "mirror.ncsuite"
        assert run_cli(["gen-suite", "--graph", mirror_file, "--out", str(out)]) == 0
        suite = parse_suite(out.read_text())
        assert suite.node_union() == {"v0", "v1", "v2", "v3"}


class TestSimulateAndExperiment:
    def test_simulate_smoke(self, mirror_file, capsys):
        code = run_cli(
            [
                "simulate",
                "--graph",
                mirror_file,
                "--strategy",
                "s2",
                "--budget",
                "40",
                "--trials",
                "10",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean_pct=" in out and "mean_resets=" in out

    def test_experiment_flags(self, mirror_file, tmp_path, capsys):
        out = tmp_path / "cells.csv"
        code = run_cli(
            [
                "experiment",
                "--graph",
                mirror_file,
                "--budgets",
                "20,40",
                "--strategies",
                "s2,rdm",
                "--trials",
                "5",
                "--base-seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("graph,strategy,budget")
        assert len(lines) == 5  # header + 2 strategies x 2 budgets

    def test_experiment_config_file_with_flag_override(self, mirror_file, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"graph={mirror_file}\nbudgets=20\nstrategies=s2\ntrials=4\nbase_seed=9\n"
        )
        assert run_cli(["experiment", "--config", str(cfg)]) == 0
        first = capsys.readouterr().out
        assert ",s2,20,4," in first.splitlines()[1]
        assert run_cli(["experiment", "--config", str(cfg), "--trials", "6"]) == 0
        assert ",s2,20,6," in capsys.readouterr().out.splitlines()[1]

    def test_experiment_config_rejects_unknown_key(self, mirror_file, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(f"graph={mirror_file}\nbudgets=20\ntrial=3\n")
        assert run_cli(["experiment", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "line 3: unknown config key `trial`" in captured.err
        assert captured.out == ""

    def test_experiment_requires_budgets(self, mirror_file, capsys):
        assert run_cli(["experiment", "--graph", mirror_file]) == 3

    def test_simulate_with_explicit_suite_file(self, mirror_file, tmp_path, capsys):
        suite_path = tmp_path / "mirror.ncsuite"
        assert run_cli(["gen-suite", "--graph", mirror_file, "--out", str(suite_path)]) == 0
        code = run_cli(
            [
                "simulate",
                "--graph",
                mirror_file,
                "--suite",
                str(suite_path),
                "--strategy",
                "s3",
                "--budget",
                "30",
                "--trials",
                "5",
            ]
        )
        assert code == 0
        assert "mean_pct=" in capsys.readouterr().out

    def test_simulate_rejects_foreign_suite(self, mirror_file, tmp_path, capsys):
        suite_path = tmp_path / "bad.ncsuite"
        suite_path.write_text("ncsuite 1\ncase t0: v1 v3\n")
        code = run_cli(
            [
                "simulate",
                "--graph",
                mirror_file,
                "--suite",
                str(suite_path),
                "--strategy",
                "s2",
                "--budget",
                "30",
            ]
        )
        assert code == 3

    # simulate stdout captured before simulate ran as a one-cell campaign:
    # generate_random(14, 0.5, 1, 2, 3), budget 70, 25 trials, seed 5, reset cost 4
    SIMULATE_LINES = {
        "GMU-static": "mean_pct=61.43 stderr_pct=2.92 mean_resets=5.00 mean_executions=6.00\n",
        "rdm": "mean_pct=72.29 stderr_pct=3.26 mean_resets=0.00 mean_executions=1.00\n",
        "s1.5": "mean_pct=74.29 stderr_pct=2.37 mean_resets=9.20 mean_executions=10.20\n",
        "s2": "mean_pct=79.14 stderr_pct=2.70 mean_resets=9.36 mean_executions=10.36\n",
        "s3": "mean_pct=84.29 stderr_pct=2.64 mean_resets=9.16 mean_executions=10.16\n",
        "s4": "mean_pct=82.57 stderr_pct=1.85 mean_resets=9.20 mean_executions=10.20\n",
    }

    @pytest.fixture
    def random14_file(self, tmp_path):
        path = tmp_path / "rg14.ncgame"
        path.write_text(serialize_game_graph(generate_random(14, 0.5, 1, 2, 3)))
        return str(path)

    @pytest.mark.parametrize("strategy", sorted(SIMULATE_LINES))
    def test_simulate_output_is_pinned(self, random14_file, strategy, capsys):
        argv = ["simulate", "--graph", random14_file, "--strategy", strategy, "--budget", "70",
                "--trials", "25", "--seed", "5", "--reset-cost", "4"]
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == self.SIMULATE_LINES[strategy]

    def test_simulate_single_trial_with_suite_file_is_pinned(self, random14_file, tmp_path, capsys):
        suite_path = tmp_path / "rg14.ncsuite"
        assert run_cli(["gen-suite", "--graph", random14_file, "--out", str(suite_path)]) == 0
        argv = ["simulate", "--graph", random14_file, "--suite", str(suite_path),
                "--strategy", "s3", "--budget", "40", "--trials", "1"]
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == (
            "mean_pct=42.86 stderr_pct=0.00 mean_resets=3.00 mean_executions=4.00\n"
        )

    def test_simulate_zero_trials_is_invalid(self, mirror_file, capsys):
        argv = ["simulate", "--graph", mirror_file, "--strategy", "s2", "--budget", "40",
                "--trials", "0"]
        assert run_cli(argv) == 3
        captured = capsys.readouterr()
        assert "trials must be >= 1" in captured.err
        assert captured.out == ""

    def test_experiment_non_integer_config_value_is_a_parse_error(
        self, mirror_file, tmp_path, capsys
    ):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"graph={mirror_file}\nbudgets=20\ntrials=x\n")
        assert run_cli(["experiment", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "line 3: `trials` must be an integer, got `x`" in captured.err
        assert captured.out == ""

    def test_experiment_non_integer_budget_flag_is_a_parse_error(self, mirror_file, capsys):
        assert run_cli(["experiment", "--graph", mirror_file, "--budgets", "5,y"]) == 2
        assert "`budgets` must be an integer, got `y`" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["trials", "reset-cost", "base-seed"])
    @pytest.mark.parametrize("value", ["\u0663", "1_0", "+3"])
    def test_experiment_integer_flags_take_ascii_digits_only(self, mirror_file, flag, value, capsys):
        argv = ["experiment", "--graph", mirror_file, "--budgets", "5", f"--{flag}", value]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        key = flag.replace("-", "_")
        assert f"`{key}` must be an integer, got `{value}`" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_simulate_rejects_empty_suite_before_any_trial(
        self, mirror_file, tmp_path, strategy, capsys
    ):
        suite_path = tmp_path / "empty.ncsuite"
        suite_path.write_text("ncsuite 1\n")
        argv = ["simulate", "--graph", mirror_file, "--suite", str(suite_path),
                "--strategy", strategy, "--budget", "8"]
        assert run_cli(argv) == 3
        assert capsys.readouterr() == ("", "error: empty test suite\n")

    @pytest.mark.parametrize("text", [" s2 , rdm", "s2, rdm", "s2 ,rdm"])
    def test_strategy_list_items_are_stripped(self, mirror_file, tmp_path, text, capsys):
        argv = ["experiment", "--graph", mirror_file, "--budgets", "5", "--trials", "2"]
        assert run_cli(argv + ["--strategies", "rdm,s2"]) == 0
        expected = capsys.readouterr().out
        assert run_cli(argv + ["--strategies", text]) == 0
        assert capsys.readouterr().out == expected
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"strategies={text}\n")
        assert run_cli(argv + ["--config", str(cfg)]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("strategy", ["GMU-static", "rdm", "s2"])
    def test_simulate_negative_reset_cost_is_invalid(self, mirror_file, strategy, capsys):
        argv = ["simulate", "--graph", mirror_file, "--strategy", strategy, "--budget", "40",
                "--reset-cost", "-5"]
        assert run_cli(argv) == 3
        captured = capsys.readouterr()
        assert "reset_cost must be >= 0" in captured.err
        assert captured.out == ""


# Every integer flag, by subcommand, and a command line that is valid without it;
# the flag goes last, so it overrides a value the base line already gives.
INT_FLAGS = [
    ("gen-random", "nodes"), ("gen-random", "min-out"), ("gen-random", "max-out"),
    ("gen-random", "seed"), ("solve", "cap"), ("witness-extract", "cap"),
    ("simulate", "budget"), ("simulate", "reset-cost"), ("simulate", "seed"),
    ("simulate", "trials"),
]
BASE_ARGV = {
    "gen-random": ["--nodes", "5"],
    "solve": ["--graph", "{graph}"],
    "witness-extract": ["--graph", "{graph}"],
    "simulate": ["--graph", "{graph}", "--strategy", "s2", "--budget", "8", "--trials", "1"],
}


class TestSettingChecks:
    @pytest.mark.parametrize("command, flag", INT_FLAGS, ids=[f"{c} --{f}" for c, f in INT_FLAGS])
    @pytest.mark.parametrize("value", ["\u0663", "1_0", "+3"])
    def test_integer_flags_take_ascii_digits_only(
        self, mirror_file, tmp_path, command, flag, value, capsys
    ):
        out = tmp_path / "out.txt"
        argv = [command, *(a.format(graph=mirror_file) for a in BASE_ARGV[command])]
        if command in ("gen-random", "witness-extract"):
            argv += ["--out", str(out)]
        assert run_cli(argv + [f"--{flag}", value]) == 2
        captured = capsys.readouterr()
        key = flag.replace("-", "_")
        assert captured.err == f"error: `{key}` must be an integer, got `{value}`\n"
        assert captured.out == ""
        assert not out.exists()

    GEN_RANDOM = ["gen-random", "--nodes", "5", "--sut-fraction"]

    @pytest.mark.parametrize("value", ["x", "\u0660.\u0665", "1_0", "+0.5"])
    def test_sut_fraction_takes_ascii_decimals_only(self, tmp_path, value, capsys):
        out = tmp_path / "out.ncgame"
        assert run_cli(self.GEN_RANDOM + [value, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: `sut_fraction` must be a decimal number, got `{value}`\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0.5", ".5", "1", "1.", "0"])
    def test_sut_fraction_decimal_forms(self, tmp_path, value):
        out = tmp_path / "out.ncgame"
        assert run_cli(self.GEN_RANDOM + [value, "--out", str(out)]) == 0
        assert out.read_text() == serialize_game_graph(generate_random(5, float(value), 1, 3, 0))

    @pytest.mark.parametrize("value", ["1.5", "-0.5"])
    def test_sut_fraction_outside_unit_interval_is_invalid(self, tmp_path, value, capsys):
        out = tmp_path / "out.ncgame"
        assert run_cli(self.GEN_RANDOM + [value, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: sut_fraction must be in [0, 1]\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["solve", "--graph", "g"], ("cap",)),
            (["witness-extract", "--graph", "g"], ("cap",)),
            (["simulate", "--graph", "g", "--strategy", "s2", "--budget", "8"],
             ("reset_cost", "seed", "trials")),
        ],
        ids=["solve", "witness-extract", "simulate"],
    )
    def test_parser_leaves_library_defaults_unset(self, argv, keys):
        args = cli.build_parser().parse_args(argv)
        assert {key: getattr(args, key) for key in keys} == dict.fromkeys(keys)

    @pytest.mark.parametrize(
        "argv, module, name",
        [
            (["solve"], solver, "solve_mcg"),
            (["solve", "--restart"], solver, "solve_mcg_restart"),
            (["witness-extract"], witness, "extract_witness"),
        ],
        ids=["solve", "solve-restart", "witness-extract"],
    )
    def test_omitted_cap_is_not_passed(self, mirror_file, argv, module, name, monkeypatch):
        calls = []
        real = getattr(module, name)

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        assert run_cli(argv + ["--graph", mirror_file]) == 0
        assert run_cli(argv + ["--graph", mirror_file, "--cap", "7"]) == 0
        assert calls == [{}, {"cap": 7}]

    @pytest.mark.parametrize(
        "argv, given, passed",
        [
            (["simulate", "--strategy", "s2", "--budget", "8"],
             ["--trials", "3", "--seed", "4", "--reset-cost", "5"],
             {"trials": 3, "base_seed": 4, "reset_cost": 5}),
            (["experiment", "--budgets", "8"],
             ["--trials", "3", "--base-seed", "4", "--reset-cost", "5", "--strategies", "s2",
              "--denominator", "reachable", "--spread", "stddev"],
             {"trials": 3, "base_seed": 4, "reset_cost": 5, "strategies": ("s2",),
              "denominator": "reachable", "spread": "stddev"}),
        ],
        ids=["simulate", "experiment"],
    )
    def test_omitted_settings_are_not_passed(
        self, mirror_file, argv, given, passed, monkeypatch, capsys
    ):
        calls = []
        real = experiments.ExperimentConfig

        def spy(**kwargs):
            calls.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(experiments, "ExperimentConfig", spy)
        assert run_cli([argv[0], "--graph", mirror_file, *argv[1:]]) == 0
        assert run_cli([argv[0], "--graph", mirror_file, *argv[1:], *given]) == 0
        omitted, full = calls
        assert omitted.keys() & passed.keys() == set()
        assert full == {**omitted, **passed}

    def test_parser_declares_no_types(self):
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        typed = [
            (name, action.dest)
            for name, sub in commands.choices.items()
            for action in sub._actions
            if action.type is not None
        ]
        assert typed == []

    @pytest.mark.parametrize(
        "argv, config_line, message",
        [
            (["simulate", "--strategy", "bogus", "--budget", "8"], "strategies=bogus",
             "unknown strategy `bogus`"),
            (["experiment", "--budgets", "8", "--denominator", "foo"], "denominator=foo",
             "denominator must be `total` or `reachable`"),
            (["experiment", "--budgets", "8", "--spread", "foo"], "spread=foo",
             "spread must be `stderr` or `stddev`"),
        ],
        ids=["strategy", "denominator", "spread"],
    )
    def test_value_outside_its_set_fails_like_its_config_key(
        self, mirror_file, tmp_path, argv, config_line, message, capsys
    ):
        assert run_cli([argv[0], "--graph", mirror_file, *argv[1:]]) == 3
        from_flag = capsys.readouterr()
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"graph={mirror_file}\nbudgets=8\n{config_line}\n")
        assert run_cli(["experiment", "--config", str(cfg)]) == 3
        from_config = capsys.readouterr()
        assert from_flag.err == from_config.err == f"error: {message}\n"
        assert from_flag.out == from_config.out == ""

    @pytest.mark.parametrize(
        "command, values",
        [("simulate", ALL_STRATEGIES), ("experiment", ("total", "reachable", "stderr", "stddev"))],
    )
    def test_help_names_the_allowed_values(self, command, values, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "200")  # no line break inside a value
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert [v for v in values if v not in out] == []


INPUT_KINDS = ("graph", "witness", "suite", "config", "cnf")


class TestReadFailures:
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_non_utf8_input_is_a_parse_error(self, kind, mirror_file, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes("ncgame 1\n# café\n".encode("latin-1"))
        assert run_cli(input_argv(kind, str(path), mirror_file)) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_directory_input_is_a_parse_error(self, kind, mirror_file, tmp_path, capsys):
        assert run_cli(input_argv(kind, str(tmp_path), mirror_file)) == 2
        assert "Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_unreadable_input_is_a_parse_error(
        self, kind, mirror_file, tmp_path, monkeypatch, capsys
    ):
        locked = tmp_path / "locked.txt"
        locked.write_text("")
        real_open = Path.open

        def open_(self, *args, **kwargs):
            if self == locked:  # chmod cannot lock a file away from root, so deny it here
                raise PermissionError(13, "Permission denied", str(self))
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", open_)
        assert run_cli(input_argv(kind, str(locked), mirror_file)) == 2
        assert "Permission denied" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_read_errors_name_the_file(self, kind, mirror_file, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("ncgame 1\n# café\n".encode("latin-1"))
        assert run_cli(input_argv(kind, str(bad), mirror_file)) == 2
        assert f"error: `{bad}` is not UTF-8 text" in capsys.readouterr().err

        locked = tmp_path / "locked.txt"
        locked.write_text("")
        real_open = Path.open

        def open_(self, *args, **kwargs):
            if self == locked:  # an OSError that does not carry the file name itself
                raise PermissionError(13, "Permission denied")
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", open_)
        assert run_cli(input_argv(kind, str(locked), mirror_file)) == 2
        assert f"error: cannot read `{locked}`: Permission denied" in capsys.readouterr().err

    def test_out_naming_a_directory_is_a_parse_error(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.mkdir()
        assert run_cli(["gen-random", "--nodes", "3", "--out", str(target)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]  # no temp file left

    def test_experiment_duplicate_config_key_is_a_parse_error(self, mirror_file, tmp_path, capsys):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text(f"graph={mirror_file}\ntrials=2\nbudgets=20\ntrials=3\n")
        assert run_cli(["experiment", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "line 4: duplicate config key `trials`" in captured.err
        assert captured.out == ""
