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
import re
import sys
import tempfile
from pathlib import Path

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
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # the mode a plain open() would give, not 0600
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
    suite = None
    if args.suite is not None:
        graph.ensure_valid(g, strict=True)  # a broken graph is reported before its suite
        suite = testplan.parse_suite(Path(args.suite).read_text(encoding="utf-8"))
        problems = testplan.validate_suite(g, suite)
        if problems:
            raise ValidationError("; ".join(problems))
    cfg = experiments.ExperimentConfig(
        graph_name=Path(args.graph).stem,
        budgets=(args.budget,),
        strategies=(args.strategy,),
        trials=args.trials,
        reset_cost=args.reset_cost,
        base_seed=args.seed,
    )
    (cell,) = experiments.run_experiment(g, cfg, suite).cells
    print(
        f"mean_pct={cell.mean_pct:.2f} stderr_pct={cell.spread_pct:.2f} "
        f"mean_resets={cell.mean_resets:.2f} "
        f"mean_executions={cell.mean_executions:.2f}"
    )
    return EXIT_OK


_CONFIG_KEYS = frozenset(
    ("graph", "strategies", "budgets", "name", "trials", "reset_cost", "base_seed",
     "denominator", "spread")
)


def _parse_config_file(path: str) -> dict[str, tuple[str, int]]:
    """Flat key=value config text; `#` starts a comment line.

    Maps each key to its value and the line it came from.
    """
    out: dict[str, tuple[str, int]] = {}
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
        out[key] = (value.strip(), lineno)
    return out


_INT_RE = re.compile(r"-?[0-9]+")


def _to_int(value: int | str, key: str, line: int | None) -> int:
    """An integer setting; ASCII digits only, else a ParseError naming the key."""
    if isinstance(value, int):
        return value
    text = value.strip()
    if not _INT_RE.fullmatch(text):
        raise ParseError(f"`{key}` must be an integer, got `{text}`", line)
    return int(text)


def _cmd_experiment(args) -> int:
    settings = _parse_config_file(args.config) if args.config is not None else {}

    def pick(key: str, fallback):
        """(value, config line): the flag wins, then the config file, then the fallback."""
        flag_value = getattr(args, key)
        if flag_value is not None:
            return flag_value, None
        return settings.get(key, (fallback, None))

    def pick_int(key: str, fallback: int) -> int:
        value, line = pick(key, fallback)
        return _to_int(value, key, line)

    graph_path = args.graph or settings.get("graph", (None, None))[0]
    if graph_path is None:
        raise ValidationError("no graph given (flag --graph or config key `graph`)")
    g = _load_graph(graph_path)
    strategies, _ = pick("strategies", ",".join(experiments.ALL_STRATEGIES))
    budgets, budgets_line = pick("budgets", None)
    if budgets is None:
        raise ValidationError("no budgets given (flag --budgets or config key `budgets`)")
    cfg = experiments.ExperimentConfig(
        graph_name=pick("name", Path(graph_path).stem)[0],
        budgets=tuple(_to_int(b, "budgets", budgets_line) for b in budgets.split(",")),
        strategies=tuple(strategies.split(",")),
        trials=pick_int("trials", 100),
        reset_cost=pick_int("reset_cost", 10),
        base_seed=pick_int("base_seed", 0),
        denominator=pick("denominator", "total")[0],
        spread=pick("spread", "stderr")[0],
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
