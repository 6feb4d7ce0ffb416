"""Campaign runner: determinism, statistics shape, CSV output."""
from __future__ import annotations

import csv
import hashlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ncgames
from conftest import graph_of
from ncgames import experiments
from ncgames.cli import run_cli
from ncgames.errors import ValidationError
from ncgames.experiments import (
    ALL_STRATEGIES,
    CSV_HEADER,
    ExperimentConfig,
    ExperimentResult,
    derive_seed,
    emit_csv,
    fnv1a64,
    run_experiment,
    run_one,
)
from ncgames.graph import SUT, TESTER, generate_random, serialize_game_graph
from ncgames.testplan import TestCase as Case, TestSuite as Suite, generate_static_suite


def cycle_graph():
    return graph_of(
        {
            "a": (TESTER, 1, ("b",)),
            "b": (TESTER, 1, ("c",)),
            "c": (TESTER, 1, ("a",)),
        },
        init="a",
    )


class TestSeeding:
    def test_fnv_is_stable(self):
        # frozen reference values pin the hash across platforms
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    def test_derive_seed_separates_streams(self):
        a = derive_seed(1, "s2", 100, 0, "sut")
        b = derive_seed(1, "s2", 100, 0, "pick")
        c = derive_seed(1, "s2", 100, 1, "sut")
        assert len({a, b, c}) == 3

    def test_continued_hash_equals_derive_seed(self, monkeypatch):
        # FNV-1a continued from a prefix's state is the hash of the whole key
        for strategy in ALL_STRATEGIES:
            for budget in (1, 9, 10, 57, 304, 10**9):
                cell = fnv1a64(f"{strategy}|{budget}|".encode())
                for trial in (0, 1, 9, 10, 99, 100, 12345):
                    for stream in ("sut", "pick"):
                        assert derive_seed(42, strategy, budget, trial, stream) == (
                            42 ^ fnv1a64(f"{trial}|{stream}".encode(), cell)
                        )
        # and run_experiment hands every trial derive_seed's two seeds
        seen = []
        run = experiments.run_one

        def recorded(g, suite, strategy, budget, reset_cost, sut_seed, pick_seed):
            seen.append((strategy, budget, sut_seed, pick_seed))
            return run(g, suite, strategy, budget, reset_cost, sut_seed, pick_seed)

        monkeypatch.setattr(experiments, "run_one", recorded)
        cfg = ExperimentConfig("c", budgets=(3, 12), trials=11, base_seed=7)
        run_experiment(cycle_graph(), cfg)
        assert seen == [
            (s, b, derive_seed(7, s, b, t, "sut"), derive_seed(7, s, b, t, "pick"))
            for s in sorted(ALL_STRATEGIES) for b in (3, 12) for t in range(11)
        ]


class TestRunExperiment:
    def test_golden_trend_csv(self):
        # the rg19 trend campaign (all six strategies), pinned by the sha256
        # of its CSV so that the seeded streams stay byte-identical
        cfg = ExperimentConfig(
            graph_name="rg19", budgets=(57, 152, 304), trials=100, reset_cost=10, base_seed=42
        )
        csv = emit_csv(run_experiment(generate_random(19, 0.3, 1, 2, 7), cfg))
        assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == (
            "d285fb661dd53eee2c056755f0abcaa249f6b746050cacfca977d5a20d439e91"
        )

    def test_deterministic_graph_hits_100_percent(self):
        cfg = ExperimentConfig(
            graph_name="cycle", budgets=(30,), strategies=ALL_STRATEGIES, trials=10
        )
        res = run_experiment(cycle_graph(), cfg)
        for cell in res.cells:
            assert cell.mean_pct == 100.0
            assert cell.spread_pct == 0.0

    def test_repetition_beats_single_walk_on_mirror(self, mirror):
        # the budget must fund a couple of resets (d=10) before repetition
        # can outrun the walk on a graph this small
        cfg = ExperimentConfig(
            graph_name="mirror",
            budgets=(16,),
            strategies=("s2", "rdm"),
            trials=100,
            base_seed=7,
        )
        res = run_experiment(mirror, cfg)
        means = {c.strategy: c.mean_pct for c in res.cells}
        assert means["s2"] >= means["rdm"]

    def test_s2_saturates_mirror_at_budget_60(self, mirror):
        # the mirror suite is divergence-free, so a budget covering a few
        # resets reaches every node in every trial
        cfg = ExperimentConfig(
            graph_name="mirror", budgets=(60,), strategies=("s2",), trials=50, base_seed=5
        )
        (cell,) = run_experiment(mirror, cfg).cells
        assert cell.mean_pct == 100.0

    def test_identical_seed_gives_identical_csv(self):
        g = generate_random(12, 0.4, 1, 2, seed=5)
        cfg = ExperimentConfig(graph_name="g12", budgets=(40, 80), trials=20, base_seed=3)
        a = emit_csv(run_experiment(g, cfg))
        b = emit_csv(run_experiment(g, cfg))
        assert a == b

    def test_budget_monotone_under_common_random_numbers(self):
        g = generate_random(10, 0.5, 1, 2, seed=9)
        suite = generate_static_suite(g)
        for strategy in ALL_STRATEGIES:
            for trial in range(10):
                small = run_one(g, suite, strategy, 25, 10, 100 + trial, 200 + trial)
                large = run_one(g, suite, strategy, 60, 10, 100 + trial, 200 + trial)
                assert small.covered <= large.covered

    def test_stderr_shrinks_with_more_trials(self, mirror):
        def spread(trials: int) -> float:
            cfg = ExperimentConfig(
                graph_name="m", budgets=(8,), strategies=("rdm",), trials=trials, base_seed=1
            )
            (cell,) = run_experiment(mirror, cfg).cells
            return cell.spread_pct

        assert spread(400) < spread(100) * 0.75

    def test_reachable_denominator_option(self):
        g = graph_of(
            {
                "a": (TESTER, 1, ("b",)),
                "b": (TESTER, 1, ("a",)),
                "orphan": (SUT, 1, ("orphan",)),
            },
            init="a",
        )
        total = run_experiment(
            g, ExperimentConfig(graph_name="g", budgets=(10,), strategies=("s2",), trials=5)
        )
        reach = run_experiment(
            g,
            ExperimentConfig(
                graph_name="g",
                budgets=(10,),
                strategies=("s2",),
                trials=5,
                denominator="reachable",
            ),
        )
        assert total.cells[0].mean_pct == pytest.approx(100 * 2 / 3)
        assert reach.cells[0].mean_pct == 100.0

    def test_stddev_spread_option(self, mirror):
        stderr_cfg = ExperimentConfig(
            graph_name="m", budgets=(8,), strategies=("rdm",), trials=25, base_seed=2
        )
        stddev_cfg = ExperimentConfig(
            graph_name="m",
            budgets=(8,),
            strategies=("rdm",),
            trials=25,
            base_seed=2,
            spread="stddev",
        )
        (se,) = run_experiment(mirror, stderr_cfg).cells
        (sd,) = run_experiment(mirror, stddev_cfg).cells
        assert sd.spread_pct == pytest.approx(se.spread_pct * 5.0)

    def test_unknown_strategy_rejected(self, mirror):
        cfg = ExperimentConfig(graph_name="m", budgets=(5,), strategies=("s9",))
        with pytest.raises(ValueError, match="unknown strategy"):
            run_experiment(mirror, cfg)

    def test_negative_reset_cost_rejected_before_any_cell(self, mirror, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "run_one", no_trial)
        cfg = ExperimentConfig(graph_name="m", budgets=(5,), reset_cost=-1)
        with pytest.raises(ValueError, match="reset_cost must be >= 0"):
            run_experiment(mirror, cfg)

    def test_negative_base_seed_rejected_before_any_cell(self, mirror, monkeypatch):
        """Random seeds on abs(), so base seeds 1 and -1 would share trial streams."""
        def no_trial(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "run_one", no_trial)
        cfg = ExperimentConfig(graph_name="m", budgets=(5,), base_seed=-1)
        with pytest.raises(ValueError, match="base_seed must be >= 0"):
            run_experiment(mirror, cfg)

    @pytest.mark.parametrize(
        "path, problem",
        [(("v0", "v9"), "t0: unknown node `v9`"), (("v0", "v3"), "t0: `v0 v3` is not an edge")],
    )
    def test_given_suite_checked_before_any_cell(self, mirror, monkeypatch, path, problem):
        def no_trial(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "run_one", no_trial)
        suite = Suite((Case("t0", path),))
        cfg = ExperimentConfig(graph_name="m", budgets=(5,))
        with pytest.raises(ValidationError, match=problem):
            run_experiment(mirror, cfg, suite)

    def test_empty_given_suite_rejected_before_any_cell(self, mirror, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "run_one", no_trial)
        cfg = ExperimentConfig(graph_name="m", budgets=(5,), strategies=("rdm", "s2"))
        with pytest.raises(ValidationError, match="^empty test suite$"):
            run_experiment(mirror, cfg, Suite(()))

    def test_negative_reset_cost_exits_3(self, mirror, tmp_path, capsys):
        path = tmp_path / "mirror.ncgame"
        path.write_text(serialize_game_graph(mirror))
        argv = ["experiment", "--graph", str(path), "--budgets", "5", "--strategies", "rdm",
                "--reset-cost", "-1"]
        assert run_cli(argv) == 3
        captured = capsys.readouterr()
        assert "reset_cost must be >= 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("how", ["--base-seed", "--seed", "config"])
    def test_negative_base_seed_exits_3(self, mirror, tmp_path, capsys, how):
        path = tmp_path / "mirror.ncgame"
        path.write_text(serialize_game_graph(mirror))
        if how == "--seed":
            argv = ["simulate", "--graph", str(path), "--strategy", "s2", "--budget", "5",
                    "--seed=-1"]
        else:
            argv = ["experiment", "--graph", str(path), "--budgets", "5", "--strategies", "s2"]
            if how == "config":
                cfg = tmp_path / "exp.cfg"
                cfg.write_text("base_seed=-1\n")
                argv += ["--config", str(cfg)]
            else:
                argv += ["--base-seed", "-1"]
        assert run_cli(argv) == 3
        captured = capsys.readouterr()
        assert "base_seed must be >= 0" in captured.err
        assert captured.out == ""


class TestCsv:
    def test_header_and_formatting(self):
        res = run_experiment(
            cycle_graph(),
            ExperimentConfig(graph_name="cycle", budgets=(30,), strategies=("s2",), trials=4),
        )
        text = emit_csv(res)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("cycle,s2,30,4,100.00,0.00,")

    def test_stddev_names_its_column(self, mirror):
        cfg = ExperimentConfig(
            graph_name="m", budgets=(8,), strategies=("rdm",), trials=5, spread="stddev"
        )
        header = emit_csv(run_experiment(mirror, cfg)).splitlines()[0]
        assert header == CSV_HEADER.replace("stderr_pct", "stddev_pct")

    def test_stddev_flag_names_its_column(self, mirror_file, capsys):
        argv = ["experiment", "--graph", mirror_file, "--budgets", "3", "--trials", "5",
                "--strategies", "rdm", "--spread", "stddev"]
        assert run_cli(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            "graph,strategy,budget,trials,mean_pct,stddev_pct,mean_resets,mean_executions",
            "mirror,rdm,3,5,75.00,0.00,0.00,1.00",
        ]

    def test_empty_result_is_header_only(self):
        assert emit_csv(ExperimentResult("g", ())) == CSV_HEADER + "\n"

    def test_rows_sorted_by_strategy_then_budget(self):
        g = generate_random(8, 0.5, 1, 2, seed=13)
        cfg = ExperimentConfig(
            graph_name="g8", budgets=(30, 10), strategies=("s2", "rdm", "GMU-static"), trials=3
        )
        rows = emit_csv(run_experiment(g, cfg)).splitlines()[1:]
        keys = [(r.split(",")[1], int(r.split(",")[2])) for r in rows]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("name", ["g,x", 'a"b', "a\nb", "a\rb"])
    def test_name_with_csv_specials_reads_back_intact(self, name):
        cfg = ExperimentConfig(graph_name=name, budgets=(10, 30), strategies=("s2",), trials=2)
        text = emit_csv(run_experiment(cycle_graph(), cfg))
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows[0] == CSV_HEADER.split(",")
        assert [len(row) for row in rows] == [8, 8, 8]
        assert [row[0] for row in rows[1:]] == [name, name]
        assert text.count('"' + name.replace('"', '""') + '",s2,') == 2

    def test_graph_stem_with_comma_is_quoted(self, mirror, tmp_path, capsys):
        path = tmp_path / "g,x.ncgame"
        path.write_text(serialize_game_graph(mirror))
        argv = ["experiment", "--graph", str(path), "--budgets", "10", "--trials", "2",
                "--strategies", "s2"]
        assert run_cli(argv) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith('"g,x",s2,10,2,')

    def test_duplicate_grid_entries_collapse(self, mirror):
        cfg = ExperimentConfig(
            graph_name="m", budgets=(10, 10), strategies=("s2", "s2"), trials=3
        )
        assert len(run_experiment(mirror, cfg).cells) == 1


class TestPickGenerator:
    def test_only_picking_strategies_seed_a_pick_generator(self, mirror, monkeypatch):
        seeds = []

        class CountingRandom:
            @staticmethod
            def Random(seed):
                seeds.append(seed)
                return random.Random(seed)

        monkeypatch.setattr(experiments, "random", CountingRandom)
        run_experiment(mirror, ExperimentConfig("m", (10, 20), ("GMU-static",), trials=5))
        assert seeds == []
        run_experiment(mirror, ExperimentConfig("m", (10,), ("rdm", "s2"), trials=5))
        assert len(seeds) == 10


# Runs the CLI with every import of numpy failing, as on a machine without it.
NO_NUMPY_SCRIPT = """
import sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is blocked")

sys.meta_path.insert(0, BlockNumpy())
try:
    import numpy
except ImportError:
    pass
else:
    sys.exit("numpy import was not blocked")
import ncgames
import ncgames.cli

code = ncgames.cli.run_cli(sys.argv[1:])
assert "numpy" not in sys.modules
sys.exit(code)
"""


class TestWithoutNumpy:
    def test_cli_experiment_runs_and_matches_in_process_csv(self, tmp_path):
        g = generate_random(9, 0.4, 1, 3, seed=21)
        graph_file = tmp_path / "g9.ncgame"
        graph_file.write_text(serialize_game_graph(g))
        out = tmp_path / "g9.csv"
        src = str(Path(ncgames.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", NO_NUMPY_SCRIPT, "experiment", "--graph", str(graph_file),
             "--budgets", "12,40", "--trials", "9", "--base-seed", "5", "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        cfg = ExperimentConfig(graph_name="g9", budgets=(12, 40), trials=9, base_seed=5)
        assert out.read_text() == emit_csv(run_experiment(g, cfg))
