"""Budgeted execution of static test suites against a random-responding SUT.

A test case is a prescribed play prefix starting at the initial node.
Executing one walks the prefix while the SUT re-resolves every choice at
its own nodes; a response that departs from the prescription ends the
case (the diverging node is still visited and paid for).  Every visited
node costs one dollar; the first start of a run is free and every later
start (a reset) costs a flat fee on top.

``nt_plan`` repeatedly picks a case until the budget cannot fund another
start or everything the suite prescribes has been covered.  It keeps, per
case, the count u of its prescribed nodes not yet covered (after each
execution only the newly covered nodes are walked) and the list of live
cases (u > 0) in suite order.  A round picks uniformly among the
candidates of one of four strategies:

* ``s1.5`` - round-robin passes: the cases whose id has not run in the
  current pass (passes restart, so leftover budget keeps buying
  repetition while coverage is incomplete);
* ``s2``   - the live cases;
* ``s3``   - the live cases with the greatest score (``pgain``), a
  uniform random draw in [0, u]; if every draw is 0.0, all cases;
* ``s4``   - as s3 but with u divided by the number of SUT positions in
  the case, favoring cases the SUT interferes with less.

Baselines: ``random_walk`` wanders edge-by-edge until the budget is gone;
``static_once`` runs each case exactly once in suite order.  Suites are
written in the ``ncsuite 1`` format::

    ncsuite 1
    case <id>: <node> <node> ...

A uniform pick among n options is this package's k-bit rejection draw, not ``randrange``'s:
``getrandbits(k)``, k = n.bit_length(), until below n (``randrange(n)``'s stream on CPython
3.10-3.13).  A ``random.Random`` subclass feeds the picks through its ``getrandbits``.
``execute_case`` and ``random_walk`` take each node's successors, n, k and owner from the
graph's draw table (``GameGraph._draws``, built on first use) and draw inline; an execution
draws only at SUT positions and returns a slice of the prescribed path.

Each run owns its responder and RNG; independent runs execute
concurrently without coordination.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import ParseError, ValidationError
from .graph import ID_RE, GameGraph, ensure_valid, read_lines

PGAIN_STRATEGIES = ("s1.5", "s2", "s3", "s4")


@dataclass(frozen=True)
class TestCase:
    id: str
    path: tuple[str, ...]


@dataclass(frozen=True)
class TestSuite:
    cases: tuple[TestCase, ...]

    def node_union(self) -> frozenset[str]:
        return frozenset(self._targets[1])

    @cached_property
    def _targets(self) -> tuple[tuple[int, ...], dict[str, tuple[int, ...]]]:
        """Distinct prescribed nodes per case; node -> indices of the cases prescribing it."""
        holders: dict[str, tuple[int, ...]] = {}
        for i, tc in enumerate(self.cases):
            for v in set(tc.path):
                holders[v] = holders.get(v, ()) + (i,)
        return tuple(len(set(tc.path)) for tc in self.cases), holders

    @cached_property
    def _same_id(self) -> dict[str, tuple[int, ...]]:
        """Case id -> indices of the cases with that id: an ``s1.5`` pass drops them together."""
        same: dict[str, tuple[int, ...]] = {}
        for i, tc in enumerate(self.cases):
            same[tc.id] = same.get(tc.id, ()) + (i,)
        return same

    @cached_property
    def _alphas(self) -> dict[int, tuple[GameGraph, tuple[int, ...]]]:
        """id(g) -> (g, ``alpha`` of every case on g); holding g keeps its id unused."""
        return {}

    def _sut_positions(self, g: GameGraph) -> tuple[int, ...]:
        """``alpha`` of every case on g, computed on the suite's first ``s4`` run on g."""
        cached = self._alphas.get(id(g))
        if cached is None:
            cached = self._alphas[id(g)] = (g, tuple(alpha(tc, g) for tc in self.cases))
        return cached[1]


class ExecutionRecord(NamedTuple):
    """One execution: the case run, the prefix it realized, whether the SUT left the path."""

    case_id: str
    realized: tuple[str, ...]
    diverged: bool


@dataclass(frozen=True)
class RunResult:
    """Outcome of one budgeted run: what was covered, what it cost, and one
    record per execution; every start after the first is a reset."""

    covered: frozenset[str]
    spent: int
    log: tuple[ExecutionRecord, ...]

    @property
    def executions(self) -> int:
        return len(self.log)

    @property
    def resets(self) -> int:
        return max(len(self.log) - 1, 0)


def _below(getrandbits, n: int) -> int:
    """Uniform pick in [0, n), as CPython's ``Random._randbelow_with_getrandbits``."""
    if n < 1:
        raise ValueError("empty range")  # getrandbits(0) is 0: the loop would never end
    r = getrandbits(k := n.bit_length())
    while r >= n:
        r = getrandbits(k)
    return r


class SutResponder:
    """Seeded resolver of SUT choices: a uniform pick over successors from ``Random(seed)``.

    ``execute_case`` and ``random_walk`` draw straight from its ``getrandbits`` stream
    (``_bits``), the same draws ``choose`` makes; overriding ``choose`` does not reach
    them.  ``choose`` is the one-pick convenience.
    """

    def __init__(self, seed: int):
        self._bits = random.Random(seed).getrandbits

    def choose(self, g: GameGraph, v: str) -> str:
        succs = g.edges[v]
        return succs[_below(self._bits, len(succs))]


def validate_suite(g: GameGraph, suite: TestSuite) -> list[str]:
    """Suite invariants: at least one case, distinct ids, paths start at init and follow edges."""
    violations = [] if suite.cases else ["empty test suite"]
    seen_ids: set[str] = set()
    for tc in suite.cases:
        if tc.id in seen_ids:
            violations.append(f"duplicate case id `{tc.id}`")
        seen_ids.add(tc.id)
        if not tc.path:
            violations.append(f"{tc.id}: empty path")
            continue
        if tc.path[0] != g.init:
            violations.append(f"{tc.id}: path starts at `{tc.path[0]}`, not init")
        for v in tc.path:
            if v not in g.nodes:
                violations.append(f"{tc.id}: unknown node `{v}`")
                break
        else:
            for a, b in zip(tc.path, tc.path[1:]):
                if b not in g.edges[a]:
                    violations.append(f"{tc.id}: `{a} {b}` is not an edge")
                    break
    return violations


def generate_static_suite(g: GameGraph) -> TestSuite:
    """Deterministic node-coverage suite for the deterministic reading of g.

    Nodes are targeted in lexicographic order; each still-uncovered target
    gets the shortest initial-node path to it (lexicographic tie-break on
    every step), greedily extended while the smallest successor of the
    path's end still adds an uncovered node.  One breadth-first search from
    the initial node gives every target's path: successors are sorted, so
    it reaches each node first along that path.  Cases that end up as a
    prefix of another case are dropped.  The suite prescribes every
    reachable node.
    """
    ensure_valid(g, strict=True)
    parent = {g.init: g.init}
    order = [g.init]
    for v in order:
        for w in g.edges[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    covered: set[str] = set()
    paths: list[tuple[str, ...]] = []
    for target in sorted(parent):
        if target in covered:
            continue
        path = [target]
        while path[-1] != g.init:
            path.append(parent[path[-1]])
        path.reverse()
        while True:
            nxt = min(g.edges[path[-1]])
            if nxt in covered or nxt in path:
                break
            path.append(nxt)
        covered.update(path)
        paths.append(tuple(path))
    kept = [
        p
        for p in paths
        if not any(q != p and q[: len(p)] == p for q in paths)
    ]
    return TestSuite(tuple(TestCase(f"t{i}", p) for i, p in enumerate(kept)))


def alpha(tc: TestCase, g: GameGraph) -> int:
    """Number of SUT-owned positions in the case's path (positions, not nodes)."""
    draws = g._draws
    return [draws[v][3] for v in tc.path].count(True)


def pgain(
    strategy: str,
    live: list[int],
    uncovered: list[int],
    sut_positions: tuple[int, ...],
    rng: random.Random,
) -> list[float]:
    """Random selection scores of the live cases under ``s3`` or ``s4``.

    `live` lists, in suite order, the indices of the cases that can still
    add coverage; `uncovered` and `sut_positions` hold, per case, the
    number of its distinct prescribed nodes not yet covered and its
    ``alpha``.  Each live case takes one draw from `rng`, in order: u times
    ``rng.random()`` for ``s3``, u / max(1, alpha) times it for ``s4``
    (the floats of ``rng.uniform(0.0, bound)``).  Dead cases take no draw.
    """
    rnd = rng.random
    if strategy == "s3":
        return [uncovered[i] * rnd() for i in live]
    if strategy == "s4":
        return [uncovered[i] / (sut_positions[i] or 1) * rnd() for i in live]
    raise ValueError(f"`{strategy}` has no random score")


def execute_case(
    g: GameGraph, tc: TestCase, budget: int, sut: SutResponder
) -> tuple[tuple[str, ...], bool, int]:
    """Run one test case within `budget` dollars.

    Returns (realized prefix, diverged flag, cost).  Every visited node
    costs one dollar, including a diverging successor chosen by the SUT;
    execution stops on divergence, on path exhaustion, or when the budget
    cannot pay the next visit.
    """
    if budget < 1:
        return (), False, 0
    path = tc.path
    if not path:
        raise IndexError("empty test case path")
    draws, bits = g._draws, sut._bits
    stop = min(len(path), budget)  # the first visit, then budget-1 more
    for i in range(stop - 1):
        succs, n, k, sut_owned = draws[path[i]]
        if sut_owned:  # the responder's pick, as SutResponder.choose draws it
            if not n:
                raise ValueError("empty range")
            r = bits(k)
            while r >= n:
                r = bits(k)
            if succs[r] != path[i + 1]:
                return path[: i + 1] + (succs[r],), True, i + 2
    return path[:stop], False, stop


def _check_run(suite: TestSuite, budget: int, reset_cost: int) -> None:
    """Arguments that ``nt_plan`` and ``static_once`` reject alike."""
    if not suite.cases:
        raise ValidationError("empty test suite")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if reset_cost < 0:
        raise ValueError("reset_cost must be >= 0")


def nt_plan(
    g: GameGraph,
    suite: TestSuite,
    budget: int,
    strategy: str,
    reset_cost: int,
    sut: SutResponder,
    rng: random.Random,
) -> RunResult:
    """Repetitive suite execution: keep picking a case by `strategy`.

    Stops when everything the suite prescribes is covered or the leftover
    budget cannot fund another start (one visit, plus the reset fee for
    every start after the first).  Each round takes one uniform pick from
    ``rng.getrandbits`` over the strategy's candidates, after the ``pgain``
    draws for ``s3`` and ``s4``.  A suite builds its node tables on its first run.
    """
    _check_run(suite, budget, reset_cost)
    if strategy not in PGAIN_STRATEGIES:
        raise ValueError(f"unknown strategy `{strategy}`")

    cases, (counts, holders) = suite.cases, suite._targets  # shared by all runs: read only
    uncovered = list(counts)  # per case: distinct prescribed nodes not yet covered
    sut_positions = suite._sut_positions(g) if strategy == "s4" else ()
    target_left = len(holders)  # prescribed nodes not yet covered
    live = [i for i, u in enumerate(uncovered) if u]  # cases that can add coverage
    pending: list[int] = []  # s1.5: cases whose id has not run in this pass
    covered: set[str] = set()
    log: list[ExecutionRecord] = []
    bits = rng.getrandbits
    spent = 0
    while target_left:
        start_cost = reset_cost if log else 0
        if spent + start_cost + 1 > budget:
            break
        if strategy == "s2":
            candidates = live
        elif strategy == "s1.5":
            candidates = pending = pending or list(range(len(cases)))  # new pass
        else:
            scores = pgain(strategy, live, uncovered, sut_positions, rng)
            top = max(scores)
            ties = [j for j, x in zip(live, scores) if x == top]
            candidates = ties if top else range(len(cases))  # all 0.0: dead cases tie too
        tc = cases[candidates[_below(bits, len(candidates))]]
        spent += start_cost
        realized, diverged, cost = execute_case(g, tc, budget - spent, sut)
        spent += cost
        emptied = False
        for v in realized:
            if v not in covered:
                covered.add(v)
                if v in holders:
                    target_left -= 1
                    for j in holders[v]:
                        uncovered[j] -= 1
                        emptied = emptied or not uncovered[j]
        if emptied:
            live = [j for j in live if uncovered[j]]
        if pending:  # tc came from it, and with tc every case that shares its id
            for j in suite._same_id[tc.id]:
                pending.remove(j)
        log.append(ExecutionRecord(tc.id, realized, diverged))
    return RunResult(frozenset(covered), spent, tuple(log))


def static_once(
    g: GameGraph,
    suite: TestSuite,
    budget: int,
    reset_cost: int,
    sut: SutResponder,
) -> RunResult:
    """Execute each case exactly once, in suite order, within the budget.

    This is the deterministic-model baseline: no repetition after a
    divergence, and typically the budget is not exhausted.  Starts are
    charged as in ``nt_plan``.
    """
    _check_run(suite, budget, reset_cost)
    covered: set[str] = set()
    log: list[ExecutionRecord] = []
    spent = 0
    for tc in suite.cases:
        start_cost = reset_cost if log else 0
        if spent + start_cost + 1 > budget:
            break
        spent += start_cost
        realized, diverged, cost = execute_case(g, tc, budget - spent, sut)
        spent += cost
        covered.update(realized)
        log.append(ExecutionRecord(tc.id, realized, diverged))
    return RunResult(frozenset(covered), spent, tuple(log))


def random_walk(
    g: GameGraph,
    budget: int,
    sut: SutResponder,
    rng: random.Random,
) -> RunResult:
    """Single continuous random walk from the initial node until the budget
    runs out.  Tester choices are uniform picks from ``rng.getrandbits``; SUT
    choices come from the responder.  Never resets on strict graphs: no reset fee."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    draws, tester_bits, sut_bits = g._draws, rng.getrandbits, sut._bits
    v = g.init
    realized = [v]
    for _ in range(budget - 1):
        succs, n, k, sut_owned = draws[v]
        if not n:
            raise ValidationError(f"sink: {v}")
        bits = sut_bits if sut_owned else tester_bits
        r = bits(k)
        while r >= n:
            r = bits(k)
        v = succs[r]
        realized.append(v)
    record = ExecutionRecord("walk", tuple(realized), False)
    return RunResult(frozenset(realized), len(realized), (record,))


def parse_suite(text: str) -> TestSuite:
    """Parse ``ncsuite 1`` text."""
    cases: list[TestCase] = []
    seen: set[str] = set()
    for lineno, line in read_lines(text, "ncsuite 1"):
        if not line.startswith("case "):
            raise ParseError("expected `case <id>: <node> <node> ...`", lineno)
        head, _, tail = line[len("case "):].partition(":")
        case_id = head.strip()
        if not ID_RE.fullmatch(case_id):
            raise ParseError(f"invalid case id `{case_id}`", lineno)
        if case_id in seen:
            raise ParseError(f"duplicate case id `{case_id}`", lineno)
        seen.add(case_id)
        path = tuple(tail.split())
        if not path or any(not ID_RE.fullmatch(v) for v in path):
            raise ParseError("case path must list node ids", lineno)
        cases.append(TestCase(case_id, path))
    return TestSuite(tuple(cases))


def serialize_suite(suite: TestSuite) -> str:
    """Render a suite in ``ncsuite 1`` text (case order preserved)."""
    lines = ["ncsuite 1"]
    for tc in suite.cases:
        lines.append(f"case {tc.id}: {' '.join(tc.path)}")
    return "\n".join(lines) + "\n"
