"""CLI subcommands, exit codes, and file handling."""
from __future__ import annotations

import os
import subprocess
import sys

import pytest

from conftest import MIRROR_TEXT, MIRROR_WITNESS_TEXT
from ncgames.cli import run_cli
from ncgames.graph import generate_random, parse_game_graph, serialize_game_graph, validate
from ncgames.testplan import parse_suite
from ncgames.witness import parse_witness

FIG_CNF = "p cnf 3 2\n1 2 3 0\n-1 -2 0\n"


@pytest.fixture
def mirror_file(tmp_path):
    path = tmp_path / "mirror.ncgame"
    path.write_text(MIRROR_TEXT)
    return str(path)


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
