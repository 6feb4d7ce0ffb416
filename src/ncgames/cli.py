"""Command-line interface: every toolkit operation as one subcommand.

Exit codes are stable for scripting:

* 0 - success
* 2 - parse error in an input file, an input that cannot be read as UTF-8
  text, an output that cannot be written (or bad command line)
* 3 - validation failure or inconsistent witness
* 4 - a capacity cap was exceeded (also witness extraction's subset_cap)
* 5 - a strategy broke its contract

argparse only collects text: integers take ASCII digits only and
``--sut-fraction`` ASCII digits with at most one point (exit 2, naming the
key), and ``run_experiment`` checks strategies, denominator, spread and a
given suite (exit 3), from a flag as from a config key.  A setting left out
is not passed on, so every default is the library's; the ``experiment``
config keys are its long flags.  All error text goes
to stderr with an ``error:`` prefix.  Output files are written to a temporary
sibling and renamed into place, so failures never leave partial files behind.
"""
from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import tempfile
from pathlib import Path

from . import experiments, graph, reductions, solver, testplan, witness
from .errors import (
    CapacityError,
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

# Exit code of each failure run_cli reports; the first row that matches wins.
_EXIT_CODES = (
    (ParseError, EXIT_PARSE),
    (ValidationError, EXIT_INVALID),
    (CapacityError, EXIT_CAPACITY),
    (StrategyError, EXIT_INTERNAL),
    (OSError, EXIT_PARSE),  # an output stream that fails
    ((ValueError, NcgameError), EXIT_INVALID),
)


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to a temporary sibling of ``path`` and rename it into place.

    An output that cannot be written is a ParseError naming the path; no temporary
    file is left behind.
    """
    target = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name)
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
    except OSError as exc:
        raise ParseError(f"cannot write `{path}`: {exc.strerror or exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out, text)


def _read_text(path: str) -> str:
    """UTF-8 file text with line ends untranslated, so the format readers see every byte.

    A file that cannot be read or decoded is a ParseError naming the path.
    """
    try:
        return Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read `{path}`: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"`{path}` is not UTF-8 text: {exc}") from None


def _load_graph(path: str) -> graph.GameGraph:
    return graph.parse_game_graph(_read_text(path))


def _to_int(value: str, key: str, line: int | None = None) -> int:
    """An integer setting; ASCII digits only, else a ParseError naming the key."""
    text = value.strip()
    number = graph.read_int(text)
    if number is None:
        raise ParseError(f"`{key}` must be an integer, got `{text}`", line)
    return number


def _to_decimal(value: str, key: str) -> float:
    """A decimal setting; ASCII digits with at most one point, else a ParseError naming the key."""
    text = value.strip()
    if not re.fullmatch(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)", text):
        raise ParseError(f"`{key}` must be a decimal number, got `{text}`")
    return float(text)


def _int_flags(args, *keys: str) -> dict[str, int]:
    """The integer flags given, by key and in order; a flag left out takes the library default."""
    return {key: _to_int(getattr(args, key), key) for key in keys if getattr(args, key) is not None}


def _report(violations: list[str], verdict: str) -> int:
    """Print each violation and exit 3, or print ``verdict`` and exit 0."""
    for violation in violations:
        print(f"violation: {violation}")
    if violations:
        return EXIT_INVALID
    print(verdict)
    return EXIT_OK


def _cmd_validate(args) -> int:
    g = _load_graph(args.graph)
    return _report(graph.validate(g, strict=not args.non_strict), "ok")


def _cmd_gen_random(args) -> int:
    nodes, min_out, max_out, seed = _int_flags(args, "nodes", "min_out", "max_out", "seed").values()
    sut_fraction = _to_decimal(args.sut_fraction, "sut_fraction")
    g = graph.generate_random(nodes, sut_fraction, min_out, max_out, seed)
    _emit(graph.serialize_game_graph(g), args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    given = _int_flags(args, "cap")
    g = _load_graph(args.graph)
    if args.restart:
        value = solver.solve_mcg_restart(g, g.init, **given)
        print(f"mcg_restart={value}")
        return EXIT_OK
    res = solver.solve_mcg(g, g.init, **given)
    print(f"mcg={res.value}")
    if g.is_tester(g.init):
        print(f"first_move={res.tester_move(g.init, [g.init])}")
    else:
        print("first_move=none")
    return EXIT_OK


def _cmd_witness_extract(args) -> int:
    given = _int_flags(args, "cap")
    g = _load_graph(args.graph)
    w = witness.extract_witness(g, g.init, **given)
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
    w = witness.parse_witness(_read_text(args.witness))
    return _report(witness.check_witness(g, w), "consistent")


def _cmd_reduce_sat(args) -> int:
    f = reductions.parse_dimacs(_read_text(args.cnf))
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
    given = _int_flags(args, "budget", "reset_cost", "seed", "trials")
    if "seed" in given:
        given["base_seed"] = given.pop("seed")
    g = _load_graph(args.graph)
    suite = None
    if args.suite is not None:
        graph.ensure_valid(g, strict=True)  # a broken graph is reported before its suite
        suite = testplan.parse_suite(_read_text(args.suite))
    cfg = experiments.ExperimentConfig(
        graph_name=Path(args.graph).stem,
        budgets=(given.pop("budget"),),
        strategies=(args.strategy,),
        **given,
    )
    (cell,) = experiments.run_experiment(g, cfg, suite).cells
    print(
        f"mean_pct={cell.mean_pct:.2f} stderr_pct={cell.spread_pct:.2f} "
        f"mean_resets={cell.mean_resets:.2f} "
        f"mean_executions={cell.mean_executions:.2f}"
    )
    return EXIT_OK


# The experiment's settings: its config keys, and its long flags with `_` for `-`.
# The graph is read first, then the others convert in this order.
_SETTINGS = ("graph", "name", "budgets", "strategies", "trials", "reset_cost", "base_seed",
             "denominator", "spread")


def _parse_config(text: str) -> dict[str, tuple[str, int]]:
    """Flat key=value config text; maps each key to its value and its line."""
    out: dict[str, tuple[str, int]] = {}
    for lineno, line in graph.read_lines(text, None):
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError("expected `key=value`", lineno)
        key = key.strip()
        if key not in _SETTINGS:
            raise ParseError(f"unknown config key `{key}`", lineno)
        if key in out:
            raise ParseError(f"duplicate config key `{key}`", lineno)
        out[key] = (value.strip(), lineno)
    return out


def _setting(key: str, text: str, line: int | None):
    """An experiment setting's text as ExperimentConfig takes it; list items are stripped."""
    if key == "budgets":
        return tuple(_to_int(b, key, line) for b in text.split(","))
    if key == "strategies":
        return tuple(s.strip() for s in text.split(","))
    if key in ("trials", "reset_cost", "base_seed"):
        return _to_int(text, key, line)
    return text


def _cmd_experiment(args) -> int:
    settings = _parse_config(_read_text(args.config)) if args.config is not None else {}
    graph_path = args.graph or settings.get("graph", ("", None))[0]
    if not graph_path:  # an empty value from the flag or the config is no graph
        raise ValidationError("no graph given (flag --graph or config key `graph`)")
    g = _load_graph(graph_path)
    settings.update(
        (key, (getattr(args, key), None)) for key in _SETTINGS if getattr(args, key) is not None
    )
    if "budgets" not in settings:
        raise ValidationError("no budgets given (flag --budgets or config key `budgets`)")
    given = {key: _setting(key, *settings[key]) for key in _SETTINGS[1:] if key in settings}
    cfg = experiments.ExperimentConfig(graph_name=given.pop("name", Path(graph_path).stem), **given)
    res = experiments.run_experiment(g, cfg)
    _emit(experiments.emit_csv(res), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each subcommand's name picks
    its handler, ``_cmd_<name>`` with ``_`` for ``-``, when it runs."""
    parser = argparse.ArgumentParser(
        prog="ncgame",
        description="Node coverage games: solve, certify, reduce, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--non-strict", action="store_true", help="allow sinks")

    p = sub.add_parser("gen-random", help="generate a random strict game graph")
    p.add_argument("--nodes", required=True)
    p.add_argument("--sut-fraction", default="0.5")
    p.add_argument("--min-out", default="1")
    p.add_argument("--max-out", default="3")
    p.add_argument("--seed", default="0")
    p.add_argument("--out")

    p = sub.add_parser("solve", help="exact coverage guarantee from the initial node")
    p.add_argument("--graph", required=True)
    p.add_argument("--restart", action="store_true", help="tester may restart at any time")
    p.add_argument("--cap", help="reachable-node cap")

    p = sub.add_parser("witness-extract", help="extract a consistent coverage certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.add_argument("--cap")

    p = sub.add_parser("witness-check", help="check a coverage certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--witness", required=True)

    p = sub.add_parser("reduce-sat", help="turn a DIMACS CNF into a coverage game")
    p.add_argument("--cnf", required=True)
    p.add_argument("--out", help="game file (stderr when omitted)")

    p = sub.add_parser("transform-restart", help="double a graph for restart analysis")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")

    p = sub.add_parser("gen-suite", help="deterministic node-coverage test suite")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")

    p = sub.add_parser("simulate", help="budgeted test-plan execution trials")
    p.add_argument("--graph", required=True)
    p.add_argument("--suite", help="ncsuite file (generated when omitted)")
    strategies = ", ".join(sorted(experiments.ALL_STRATEGIES))
    p.add_argument("--strategy", required=True, help=f"one of {strategies}")
    p.add_argument("--budget", required=True)
    p.add_argument("--reset-cost")
    p.add_argument("--seed")
    p.add_argument("--trials")

    p = sub.add_parser("experiment", help="Monte Carlo campaign, CSV output")
    p.add_argument("--graph")
    p.add_argument("--config", help="flat key=value config file; flags win")
    p.add_argument("--name", help="graph name for the CSV (default: file stem)")
    p.add_argument("--strategies", help="comma-separated strategy list")
    p.add_argument("--budgets", help="comma-separated budget list")
    p.add_argument("--trials")
    p.add_argument("--reset-cost", dest="reset_cost")
    p.add_argument("--base-seed", dest="base_seed")
    p.add_argument("--denominator", help="total (default) or reachable")
    p.add_argument("--spread", help="stderr (default) or stddev")
    p.add_argument("--out")

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    """Run one invocation; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return globals()[f"_cmd_{args.command.replace('-', '_')}"](args)
    except (NcgameError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


def console_entry() -> None:
    sys.exit(run_cli())
