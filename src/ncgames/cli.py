"""Command-line interface: every toolkit operation as one subcommand.

Exit codes are stable for scripting:

* 0 - success
* 2 - parse error in an input file (or bad command line)
* 3 - validation failure or inconsistent witness
* 4 - a capacity cap was exceeded
* 5 - internal invariant violation (e.g. witness extraction failure)

All error text goes to stderr with an ``error:`` prefix.  Output files are
written to a temporary sibling and renamed into place, so failures never
leave partial files behind.
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import experiments, graph, reductions, solver, testplan, witness
from .errors import (
    CapacityError,
    ExtractionError,
    NcgameError,
    ParseError,
    StrategyError,
    ValidationError,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_CAPACITY = 4
EXIT_INTERNAL = 5


def _write_atomic(path: str, text: str) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), prefix=target.name)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out, text)


def _load_graph(path: str) -> graph.GameGraph:
    return graph.parse_game_graph(Path(path).read_text(encoding="utf-8"))


def _cmd_validate(args) -> int:
    g = _load_graph(args.graph)
    violations = graph.validate(g, strict=not args.non_strict)
    for violation in violations:
        print(f"violation: {violation}")
    if violations:
        return EXIT_INVALID
    print("ok")
    return EXIT_OK


def _cmd_gen_random(args) -> int:
    g = graph.generate_random(
        args.nodes, args.sut_fraction, args.min_out, args.max_out, args.seed
    )
    _emit(graph.serialize_game_graph(g), args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    if args.restart:
        value = solver.solve_mcg_restart(g, g.init, cap=args.cap)
        print(f"mcg_restart={value}")
        return EXIT_OK
    res = solver.solve_mcg(g, g.init, cap=args.cap)
    print(f"mcg={res.value}")
    if g.is_tester(g.init):
        print(f"first_move={res.tester_move(g.init, [g.init])}")
    else:
        print("first_move=none")
    return EXIT_OK


def _cmd_witness_extract(args) -> int:
    g = _load_graph(args.graph)
    w = witness.extract_witness(g, g.init, cap=args.cap)
    summary = f"entries={len(w.entries)} c_init={w.entries[g.init].bound}"
    if args.out is None:
        sys.stdout.write(witness.serialize_witness(w))
        print(summary, file=sys.stderr)  # keep stdout a parseable document
    else:
        _write_atomic(args.out, witness.serialize_witness(w))
        print(summary)
    return EXIT_OK


def _cmd_witness_check(args) -> int:
    g = _load_graph(args.graph)
    w = witness.parse_witness(Path(args.witness).read_text(encoding="utf-8"))
    violations = witness.check_witness(g, w)
    for violation in violations:
        print(f"violation: {violation}")
    if violations:
        return EXIT_INVALID
    print("consistent")
    return EXIT_OK


def _cmd_reduce_sat(args) -> int:
    f = reductions.parse_dimacs(Path(args.cnf).read_text(encoding="utf-8"))
    g, threshold = reductions.sat_to_ncgame(f)
    text = graph.serialize_game_graph(g)
    if args.out is None:
        sys.stderr.write(text)  # keep stdout a single machine-readable line
    else:
        _write_atomic(args.out, text)
    print(f"threshold={threshold}")
    return EXIT_OK


def _cmd_transform_restart(args) -> int:
    g = _load_graph(args.graph)
    _emit(graph.serialize_game_graph(reductions.restart_double(g)), args.out)
    return EXIT_OK


def _cmd_gen_suite(args) -> int:
    g = _load_graph(args.graph)
    _emit(testplan.serialize_suite(testplan.generate_static_suite(g)), args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    g = _load_graph(args.graph)
    graph.ensure_valid(g, strict=True)
    if args.suite is not None:
        suite = testplan.parse_suite(Path(args.suite).read_text(encoding="utf-8"))
        problems = testplan.validate_suite(g, suite)
        if problems:
            raise ValidationError("; ".join(problems))
    else:
        suite = testplan.generate_static_suite(g)
    pcts, resets, execs = [], [], []
    denom = len(g.nodes)
    for trial in range(args.trials):
        res = experiments.run_one(
            g,
            suite,
            args.strategy,
            args.budget,
            args.reset_cost,
            experiments.derive_seed(args.seed, args.strategy, args.budget, trial, "sut"),
            experiments.derive_seed(args.seed, args.strategy, args.budget, trial, "pick"),
        )
        pcts.append(100.0 * len(res.covered) / denom)
        resets.append(res.resets)
        execs.append(res.executions)
    mean = float(np.mean(pcts))
    stderr = float(np.std(pcts, ddof=1) / len(pcts) ** 0.5) if len(pcts) > 1 else 0.0
    print(
        f"mean_pct={mean:.2f} stderr_pct={stderr:.2f} "
        f"mean_resets={float(np.mean(resets)):.2f} "
        f"mean_executions={float(np.mean(execs)):.2f}"
    )
    return EXIT_OK


_CONFIG_KEYS = frozenset(
    ("graph", "strategies", "budgets", "name", "trials", "reset_cost", "base_seed",
     "denominator", "spread")
)


def _parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value config text; `#` starts a comment line."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError("expected `key=value`", lineno)
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown config key `{key}`", lineno)
        out[key] = value.strip()
    return out


def _cmd_experiment(args) -> int:
    settings: dict[str, str] = {}
    if args.config is not None:
        settings = _parse_config_file(args.config)
    graph_path = args.graph or settings.get("graph")
    if graph_path is None:
        raise ValidationError("no graph given (flag --graph or config key `graph`)")
    g = _load_graph(graph_path)

    def pick(flag_value, key: str, fallback):
        if flag_value is not None:
            return flag_value
        return settings.get(key, fallback)

    strategies = pick(args.strategies, "strategies", ",".join(experiments.ALL_STRATEGIES))
    budgets = pick(args.budgets, "budgets", None)
    if budgets is None:
        raise ValidationError("no budgets given (flag --budgets or config key `budgets`)")
    cfg = experiments.ExperimentConfig(
        graph_name=str(pick(args.name, "name", Path(graph_path).stem)),
        budgets=tuple(int(b) for b in str(budgets).split(",")),
        strategies=tuple(str(strategies).split(",")),
        trials=int(pick(args.trials, "trials", 100)),
        reset_cost=int(pick(args.reset_cost, "reset_cost", 10)),
        base_seed=int(pick(args.base_seed, "base_seed", 0)),
        denominator=str(pick(args.denominator, "denominator", "total")),
        spread=str(pick(args.spread, "spread", "stderr")),
    )
    res = experiments.run_experiment(g, cfg)
    _emit(experiments.emit_csv(res), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncgame",
        description="Node coverage games: solve, certify, reduce, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--non-strict", action="store_true", help="allow sinks")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("gen-random", help="generate a random strict game graph")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--sut-fraction", type=float, default=0.5)
    p.add_argument("--min-out", type=int, default=1)
    p.add_argument("--max-out", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_gen_random)

    p = sub.add_parser("solve", help="exact coverage guarantee from the initial node")
    p.add_argument("--graph", required=True)
    p.add_argument("--restart", action="store_true", help="tester may restart at any time")
    p.add_argument("--cap", type=int, default=20, help="reachable-node cap")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("witness-extract", help="extract a consistent coverage certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.add_argument("--cap", type=int, default=20)
    p.set_defaults(fn=_cmd_witness_extract)

    p = sub.add_parser("witness-check", help="check a coverage certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--witness", required=True)
    p.set_defaults(fn=_cmd_witness_check)

    p = sub.add_parser("reduce-sat", help="turn a DIMACS CNF into a coverage game")
    p.add_argument("--cnf", required=True)
    p.add_argument("--out", help="game file (stderr when omitted)")
    p.set_defaults(fn=_cmd_reduce_sat)

    p = sub.add_parser("transform-restart", help="double a graph for restart analysis")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_transform_restart)

    p = sub.add_parser("gen-suite", help="deterministic node-coverage test suite")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_gen_suite)

    p = sub.add_parser("simulate", help="budgeted test-plan execution trials")
    p.add_argument("--graph", required=True)
    p.add_argument("--suite", help="ncsuite file (generated when omitted)")
    p.add_argument(
        "--strategy",
        required=True,
        choices=sorted(experiments.ALL_STRATEGIES),
    )
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--reset-cost", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("experiment", help="Monte Carlo campaign, CSV output")
    p.add_argument("--graph")
    p.add_argument("--config", help="flat key=value config file; flags win")
    p.add_argument("--name", help="graph name for the CSV (default: file stem)")
    p.add_argument("--strategies", help="comma-separated strategy list")
    p.add_argument("--budgets", help="comma-separated budget list")
    p.add_argument("--trials", type=int)
    p.add_argument("--reset-cost", type=int, dest="reset_cost")
    p.add_argument("--base-seed", type=int, dest="base_seed")
    p.add_argument("--denominator", choices=["total", "reachable"])
    p.add_argument("--spread", choices=["stderr", "stddev"])
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_experiment)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    """Run one invocation; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (StrategyError, ExtractionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, NcgameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def console_entry() -> None:
    sys.exit(run_cli())
