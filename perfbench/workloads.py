"""Workload instances, their input files, the ops that drive the CLI, and
the checks of every op's output against the stored references.

An op is one unit of user-visible work: one or more in-process calls of
``ncgames.cli.run_cli`` (plus, for ``certify``, a library best-response
test).  ``execute`` is timed; ``check`` is not.

The workload seed changes the inputs without changing how much work they
take, apart from the two small SAT formulas, so runs with different seeds
stay comparable:

* ``solve``: the random graphs are relabelled by a seeded permutation of
  their node ids (an isomorphic game: same value, same number of product
  states and layers) and the two SAT formulas are drawn from the seed;
* all workloads: the order of the ops in a pass is a seeded shuffle.

The graphs of ``certify`` and ``campaign`` are not relabelled: witness
extraction enumerates candidate sets in node-id order and the campaign's
suite generation breaks ties by node id, so a relabelling would change
their work and the stored campaign CSV hashes.  Seed 0 reproduces the
listed instances in the listed order.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# (node count, generator seed) pairs for generate_random(n, 0.3, 1, 2, seed)
TREND_PICKS = ((19, 7), (30, 2), (40, 11), (46, 0), (60, 20), (75, 7), (95, 4), (100, 10))

SIZES = {
    "full": {
        "solve": ((24, 1), (26, 1), (26, 2), (26, 3), (28, 1), (28, 3)),
        "restart": ((18, 1), (20, 0)),
        "sat": (2, 4, 7),  # formulas, variables, clauses
        "certify": tuple((n, s) for n in (16, 18, 20) for s in (0, 1, 2)),
        "campaign": (TREND_PICKS, 100),  # graphs, trials per cell
    },
    "small": {
        "solve": ((10, 1), (12, 2)),
        "restart": ((8, 1),),
        "sat": (1, 3, 4),
        "certify": ((8, 0), (10, 1)),
        "campaign": (((19, 7),), 5),
    },
}
WORKLOADS = ("solve", "certify", "campaign")
SUT_FRACTION = 0.3
CAMPAIGN_BASE_SEED = 42
CAMPAIGN_RESET_COST = 10


def instance_key(n: int, seed: int, *more: int) -> str:
    return "-".join(str(x) for x in (n, seed, *more))


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


@dataclass
class CliResult:
    code: int
    out: str
    err: str

    def field(self, key: str) -> str | None:
        """Value of the first ``key=value`` token printed on stdout."""
        for token in self.out.split():
            name, sep, value = token.partition("=")
            if sep and name == key:
                return value
        return None


def cli(nc, argv: list[str]) -> CliResult:
    """One in-process ``ncgame`` invocation with stdout/stderr captured.

    ``run_cli`` is looked up on every call so that a traced run sees the
    wrapped entry point.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = nc.cli.run_cli(argv)
        except SystemExit as exc:  # argparse rejects a bad command line this way
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


@dataclass
class Outcome:
    """What one op did: the exit codes it saw and what it printed."""

    codes: list[int] = field(default_factory=list)
    values: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return any(code != 0 for code in self.codes)


@dataclass
class Op:
    name: str
    execute: Callable[[], Outcome]
    check: Callable[[Outcome], list[str]]  # problems with an exit-0 output
    cleanup: Callable[[], None] = lambda: None


def _relabel(nc, g, seed: int, tag: str):
    """Isomorphic copy of g with node ids permuted by a seeded shuffle."""
    if seed == 0:
        return g, {v: v for v in g.nodes}
    ids = g.node_ids()
    shuffled = list(ids)
    random.Random(f"perfbench-relabel:{seed}:{tag}").shuffle(shuffled)
    name = dict(zip(ids, shuffled))
    nodes = {name[v]: info for v, info in g.nodes.items()}
    edges = {name[v]: tuple(name[w] for w in ws) for v, ws in g.edges.items()}
    return nc.graph.GameGraph(nodes, edges, name[g.init]), name


def _random_cnf(seed: int, index: int, variables: int, clauses: int) -> list[list[int]]:
    rng = random.Random(f"perfbench-sat:{seed}:{index}")
    out = []
    for _ in range(clauses):
        picked = rng.sample(range(1, variables + 1), 3)
        out.append([v if rng.random() < 0.5 else -v for v in picked])
    return out


def _dimacs(variables: int, clauses: list[list[int]]) -> str:
    lines = [f"p cnf {variables} {len(clauses)}"]
    lines += [" ".join(str(lit) for lit in clause) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


def _write_graph(nc, path: Path, g) -> str:
    path.write_text(nc.graph.serialize_game_graph(g), encoding="utf-8")
    return str(path)


def _unlink(*paths: Path) -> Callable[[], None]:
    def run() -> None:
        for p in paths:
            p.unlink(missing_ok=True)
    return run


def _solve_op(nc, workdir: Path, n: int, gseed: int, seed: int, ref: dict) -> Op:
    base = nc.graph.generate_random(n, SUT_FRACTION, 1, 2, gseed)
    g, name = _relabel(nc, base, seed, f"{n}:{gseed}")
    path = _write_graph(nc, workdir / f"solve-{n}-{gseed}.ncgame", g)
    expect = ref["solve"][instance_key(n, gseed)]
    moves = {name[u] for u in expect["optimal_first_moves"]} or {"none"}

    def execute() -> Outcome:
        r = cli(nc, ["solve", "--graph", path, "--cap", "64"])
        return Outcome([r.code], {"mcg": r.field("mcg"), "first_move": r.field("first_move")})

    def check(o: Outcome) -> list[str]:
        problems = []
        if o.values["mcg"] != str(expect["value"]):
            problems.append(f"mcg={o.values['mcg']}, oracle says {expect['value']}")
        if o.values["first_move"] not in moves:
            problems.append(f"first_move={o.values['first_move']} not in {sorted(moves)}")
        return problems

    return Op(f"solve n={n} seed={gseed}", execute, check)


def _restart_op(nc, workdir: Path, n: int, gseed: int, seed: int, ref: dict) -> Op:
    base = nc.graph.generate_random(n, SUT_FRACTION, 1, 2, gseed)
    g, _ = _relabel(nc, base, seed, f"restart:{n}:{gseed}")
    path = _write_graph(nc, workdir / f"restart-{n}-{gseed}.ncgame", g)
    expect = str(ref["restart"][instance_key(n, gseed)])

    def execute() -> Outcome:
        r = cli(nc, ["solve", "--restart", "--graph", path, "--cap", "64"])
        return Outcome([r.code], {"mcg_restart": r.field("mcg_restart")})

    def check(o: Outcome) -> list[str]:
        got = o.values["mcg_restart"]
        return [] if got == expect else [f"mcg_restart={got}, reference says {expect}"]

    return Op(f"solve --restart n={n} seed={gseed}", execute, check)


def _sat_op(nc, workdir: Path, index: int, variables: int, clauses: int, seed: int) -> Op:
    formula = _random_cnf(seed, index, variables, clauses)
    cnf_path = workdir / f"sat-{index}.cnf"
    cnf_path.write_text(_dimacs(variables, formula), encoding="utf-8")
    game_path = workdir / f"sat-{index}.ncgame"
    cnf = nc.reductions.Cnf(variables, tuple(frozenset(c) for c in formula))
    satisfiable = nc.reductions.brute_force_sat(cnf)
    threshold = clauses + 2 * variables + 1

    def execute() -> Outcome:
        r1 = cli(nc, ["reduce-sat", "--cnf", str(cnf_path), "--out", str(game_path)])
        if r1.code != 0:
            return Outcome([r1.code])
        r2 = cli(nc, ["solve", "--graph", str(game_path), "--cap", "64"])
        return Outcome(
            [r1.code, r2.code],
            {"threshold": r1.field("threshold"), "mcg": r2.field("mcg"),
             "first_move": r2.field("first_move")},
        )

    def check(o: Outcome) -> list[str]:
        if o.values["threshold"] != str(threshold):
            return [f"threshold={o.values['threshold']}, expected {threshold}"]
        value = int(o.values["mcg"])
        holds = value == threshold if satisfiable else value > threshold
        problems = [] if holds else [
            f"mcg={value} against threshold {threshold}, brute force says "
            f"{'satisfiable' if satisfiable else 'unsatisfiable'}"
        ]
        if o.values["first_move"] != "none":  # the SAT game starts at an SUT node
            problems.append(f"first_move={o.values['first_move']}, expected none")
        return problems

    return Op(f"reduce-sat+solve formula={index}", execute, check, _unlink(game_path))


def _certify_op(nc, workdir: Path, n: int, gseed: int, ref: dict) -> Op:
    g = nc.graph.generate_random(n, SUT_FRACTION, 1, 2, gseed)
    path = workdir / f"certify-{n}-{gseed}.ncgame"
    _write_graph(nc, path, g)
    wpath = workdir / f"certify-{n}-{gseed}.ncwitness"
    expect = ref["certify"][instance_key(n, gseed)]

    def execute() -> Outcome:
        r1 = cli(nc, ["witness-extract", "--graph", str(path), "--out", str(wpath)])
        if r1.code != 0:
            return Outcome([r1.code])
        r2 = cli(nc, ["witness-check", "--graph", str(path), "--witness", str(wpath)])
        graph = nc.graph.parse_game_graph(path.read_text(encoding="utf-8"))
        w = nc.witness.parse_witness(wpath.read_text(encoding="utf-8"))
        best = nc.play.best_response_gain(graph, graph.init, nc.witness.witness_guided_sut(graph, w))
        return Outcome(
            [r1.code, r2.code],
            {"entries": r1.field("entries"), "c_init": r1.field("c_init"),
             "check": r2.out.strip(), "best_response": best},
        )

    def check(o: Outcome) -> list[str]:
        v = o.values
        problems = []
        if v["c_init"] != str(expect["value"]):
            problems.append(f"c_init={v['c_init']}, oracle says {expect['value']}")
        if v["entries"] != str(expect["reachable"]):
            problems.append(f"entries={v['entries']}, {expect['reachable']} nodes are reachable")
        if v["check"] != "consistent":
            problems.append(f"witness-check printed {v['check']!r}")
        if str(v["best_response"]) != v["c_init"]:
            problems.append(f"best response {v['best_response']} != bound {v['c_init']}")
        return problems

    return Op(f"certify n={n} seed={gseed}", execute, check, _unlink(wpath))


def _campaign_op(nc, workdir: Path, n: int, gseed: int, trials: int, ref: dict) -> Op:
    g = nc.graph.generate_random(n, SUT_FRACTION, 1, 2, gseed)
    path = _write_graph(nc, workdir / f"rg{n}.ncgame", g)  # the stem names the CSV rows
    csv_path = workdir / f"rg{n}.csv"
    argv = [
        "experiment", "--graph", path, "--budgets", f"{3 * n},{8 * n},{16 * n}",
        "--trials", str(trials), "--reset-cost", str(CAMPAIGN_RESET_COST),
        "--base-seed", str(CAMPAIGN_BASE_SEED), "--out", str(csv_path),
    ]
    expect = ref["campaign"][instance_key(n, gseed, trials)]

    def execute() -> Outcome:
        r = cli(nc, argv)
        if r.code != 0:
            return Outcome([r.code])
        return Outcome([r.code], {"sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest()})

    def check(o: Outcome) -> list[str]:
        got = o.values["sha256"]
        return [] if got == expect else [f"CSV sha256 {got[:12]}… differs from the reference"]

    return Op(f"experiment rg{n} seed={gseed}", execute, check, _unlink(csv_path))


def build_ops(nc, workload: str, seed: int, workdir: Path, size: str = "full") -> list[Op]:
    """Write the workload's inputs into workdir; return its ops in pass order."""
    spec = SIZES[size]
    ref = load_reference()
    if workload == "solve":
        ops = [_solve_op(nc, workdir, n, s, seed, ref) for n, s in spec["solve"]]
        ops += [_restart_op(nc, workdir, n, s, seed, ref) for n, s in spec["restart"]]
        count, variables, clauses = spec["sat"]
        ops += [_sat_op(nc, workdir, i, variables, clauses, seed) for i in range(count)]
    elif workload == "certify":
        ops = [_certify_op(nc, workdir, n, s, ref) for n, s in spec["certify"]]
    elif workload == "campaign":
        picks, trials = spec["campaign"]
        ops = [_campaign_op(nc, workdir, n, s, trials, ref) for n, s in picks]
    else:
        raise ValueError(f"unknown workload `{workload}`")
    if seed != 0:
        random.Random(f"perfbench-order:{seed}").shuffle(ops)
    return ops
