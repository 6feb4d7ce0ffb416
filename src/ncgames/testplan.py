"""Budgeted execution of static test suites against a random-responding SUT.

A test case is a prescribed play prefix starting at the initial node.
Executing one walks the prefix while the SUT re-resolves every choice at
its own nodes; a response that departs from the prescription ends the
case (the diverging node is still visited and paid for).  Every visited
node costs one dollar; starting a case after the first costs a flat reset
fee on top.

``nt_plan`` repeatedly picks the case with the greatest selection score
(``pgain``) until the budget cannot fund another start or everything the
suite prescribes has been covered.  Scores are computed from counts that
``nt_plan`` maintains incrementally: each case's node set and SUT-position
count are computed once per run, and after each execution only the newly
covered nodes are walked to decrement the uncovered counts of the cases
holding them, so a score costs O(1).  Four scores are provided:

* ``s1.5`` - round-robin passes: 1 for cases not yet run in the current
  pass, else 0 (passes restart, so leftover budget keeps buying
  repetition while coverage is incomplete);
* ``s2``   - 1 for cases that could still add coverage, else 0;
* ``s3``   - a uniform random draw in [0, u] where u counts the case's
  still-uncovered prescribed nodes;
* ``s4``   - as s3 but with u divided by the number of SUT positions in
  the case, favoring cases the SUT interferes with less.

Baselines: ``random_walk`` wanders edge-by-edge until the budget is gone;
``static_once`` runs each case exactly once in suite order.  Suites are
written in the ``ncsuite 1`` format::

    ncsuite 1
    case <id>: <node> <node> ...

Each run owns its responder and RNG; independent runs execute
concurrently without coordination.
"""
from __future__ import annotations

import random
import re
from collections import deque
from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .graph import SUT, GameGraph, ensure_valid, reachable

_ID_RE = re.compile(r"^[A-Za-z0-9_]+$")

PGAIN_STRATEGIES = ("s1.5", "s2", "s3", "s4")


@dataclass(frozen=True)
class TestCase:
    id: str
    path: tuple[str, ...]

    def node_set(self) -> frozenset[str]:
        return frozenset(self.path)


@dataclass(frozen=True)
class TestSuite:
    cases: tuple[TestCase, ...]

    def node_union(self) -> frozenset[str]:
        out: set[str] = set()
        for tc in self.cases:
            out.update(tc.path)
        return frozenset(out)


@dataclass(frozen=True)
class ExecutionRecord:
    case_id: str
    realized: tuple[str, ...]
    diverged: bool


@dataclass(frozen=True)
class RunResult:
    """Outcome of one budgeted run: what was covered and what it cost."""

    covered: frozenset[str]
    spent: int
    resets: int
    executions: int
    log: tuple[ExecutionRecord, ...]


class SutResponder:
    """Seeded random resolver of SUT choices: uniform over successors."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, g: GameGraph, v: str) -> str:
        succs = g.edges[v]
        return succs[self._rng.randrange(len(succs))]


def validate_suite(g: GameGraph, suite: TestSuite) -> list[str]:
    """Suite invariants: distinct ids, paths start at init and follow edges."""
    violations = []
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
    path's end still adds an uncovered node.  Cases that end up as a
    prefix of another case are dropped.  The suite prescribes every
    reachable node.
    """
    ensure_valid(g, strict=True)
    reach = reachable(g, g.init)
    covered: set[str] = set()
    paths: list[tuple[str, ...]] = []
    for target in sorted(reach):
        if target in covered:
            continue
        dist = _distances_to(g, target, reach)
        path = [g.init]
        while path[-1] != target:
            step = min(
                w for w in g.edges[path[-1]] if dist.get(w, -1) == dist[path[-1]] - 1
            )
            path.append(step)
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


def _distances_to(g: GameGraph, target: str, universe: frozenset[str]) -> dict[str, int]:
    """BFS distance to `target` over reversed edges, within `universe`."""
    preds: dict[str, list[str]] = {v: [] for v in universe}
    for v in universe:
        for w in g.edges[v]:
            if w in universe:
                preds[w].append(v)
    dist = {target: 0}
    queue = deque([target])
    while queue:
        v = queue.popleft()
        for u in preds[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def alpha(tc: TestCase, g: GameGraph) -> int:
    """Number of SUT-owned positions in the case's path (positions, not nodes)."""
    nodes = g.nodes
    return [nodes[v].owner for v in tc.path].count(SUT)


def pgain(
    strategy: str,
    uncovered: int,
    sut_positions: int,
    ran: bool,
    rng: random.Random,
) -> float:
    """Selection score of a test case under one of the four strategies.

    The score reads only counts that ``nt_plan`` maintains incrementally:
    `uncovered` is the number of the case's distinct prescribed nodes not
    yet covered, `sut_positions` its ``alpha`` and `ran` whether it already
    ran in the current pass (read by ``s1.5`` only).  ``s3`` and ``s4``
    draw from `rng` only when the case can still add coverage.
    """
    if strategy == "s1.5":
        return 0.0 if ran else 1.0
    if strategy == "s2":
        return 1.0 if uncovered else 0.0
    if strategy == "s3":
        return rng.uniform(0.0, uncovered) if uncovered else 0.0
    if strategy == "s4":
        bound = uncovered / max(1, sut_positions)
        return rng.uniform(0.0, bound) if bound else 0.0
    raise ValueError(f"unknown strategy `{strategy}`")


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
    nodes, path = g.nodes, tc.path
    realized = [path[0]]
    diverged = False
    for cur, prescribed in zip(path, path[1:budget]):  # the budget pays budget-1 more visits
        if nodes[cur].owner == SUT:
            actual = sut.choose(g, cur)
            realized.append(actual)
            if actual != prescribed:
                diverged = True
                break
        else:
            realized.append(prescribed)
    return tuple(realized), diverged, len(realized)


def nt_plan(
    g: GameGraph,
    suite: TestSuite,
    budget: int,
    strategy: str,
    reset_cost: int,
    sut: SutResponder,
    rng: random.Random,
    charge_first_start: bool = False,
) -> RunResult:
    """Repetitive suite execution: keep picking the highest-scoring case.

    Stops when everything the suite prescribes is covered or the leftover
    budget cannot fund another start (reset fee plus one visit; the first
    start is free unless `charge_first_start`).  Ties on the score are
    broken uniformly at random.
    """
    if not suite.cases:
        raise ValidationError("empty test suite")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if reset_cost < 0:
        raise ValueError("reset_cost must be >= 0")
    if strategy not in PGAIN_STRATEGIES:
        raise ValueError(f"unknown strategy `{strategy}`")

    cases = suite.cases
    ids = [tc.id for tc in cases]
    sut_positions = [alpha(tc, g) for tc in cases]
    uncovered: list[int] = []  # per case: distinct prescribed nodes not yet covered
    holders: dict[str, list[int]] = {}  # node -> indices of the cases prescribing it
    for i, tc in enumerate(cases):
        nodes = tc.node_set()
        uncovered.append(len(nodes))
        for v in nodes:
            holders.setdefault(v, []).append(i)
    target_left = len(holders)  # prescribed nodes not yet covered
    pass_size = len(set(ids))
    covered: set[str] = set()
    executed_ids: set[str] = set()  # s1.5: ids run in the current pass
    log: list[ExecutionRecord] = []
    spent = resets = executions = 0
    while target_left:
        first = executions == 0 and not charge_first_start
        start_cost = 0 if first else reset_cost
        if spent + start_cost + 1 > budget:
            break
        if len(executed_ids) == pass_size:
            executed_ids.clear()  # new pass, run everything again
        scores = [
            pgain(strategy, u, a, case_id in executed_ids, rng)
            for u, a, case_id in zip(uncovered, sut_positions, ids)
        ]
        top = max(scores)
        ties = [tc for tc, s in zip(cases, scores) if s == top]
        tc = ties[rng.randrange(len(ties))]
        spent += start_cost
        if not first:
            resets += 1
        realized, diverged, cost = execute_case(g, tc, budget - spent, sut)
        spent += cost
        executions += 1
        for v in realized:
            if v not in covered:
                covered.add(v)
                if v in holders:
                    target_left -= 1
                    for i in holders[v]:
                        uncovered[i] -= 1
        if strategy == "s1.5":
            executed_ids.add(tc.id)
        log.append(ExecutionRecord(tc.id, realized, diverged))
    return RunResult(frozenset(covered), spent, resets, executions, tuple(log))


def static_once(
    g: GameGraph,
    suite: TestSuite,
    budget: int,
    reset_cost: int,
    sut: SutResponder,
    charge_first_start: bool = False,
) -> RunResult:
    """Execute each case exactly once, in suite order, within the budget.

    This is the deterministic-model baseline: no repetition after a
    divergence, and typically the budget is not exhausted.
    """
    if not suite.cases:
        raise ValidationError("empty test suite")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    covered: set[str] = set()
    log: list[ExecutionRecord] = []
    spent = resets = executions = 0
    for tc in suite.cases:
        first = executions == 0 and not charge_first_start
        start_cost = 0 if first else reset_cost
        if spent + start_cost + 1 > budget:
            break
        spent += start_cost
        if not first:
            resets += 1
        realized, diverged, cost = execute_case(g, tc, budget - spent, sut)
        spent += cost
        executions += 1
        covered.update(realized)
        log.append(ExecutionRecord(tc.id, realized, diverged))
    return RunResult(frozenset(covered), spent, resets, executions, tuple(log))


def random_walk(
    g: GameGraph,
    budget: int,
    sut: SutResponder,
    rng: random.Random,
) -> RunResult:
    """Single continuous random walk from the initial node until the budget
    runs out.  Tester choices are uniform; SUT choices come from the
    responder.  Never resets on strict graphs, so no reset fee applies."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    nodes, edges = g.nodes, g.edges
    v = g.init
    realized = [v]
    for _ in range(budget - 1):
        succs = edges[v]
        if not succs:
            raise ValidationError(f"sink: {v}")
        if nodes[v].owner == SUT:
            v = sut.choose(g, v)
        else:
            v = succs[rng.randrange(len(succs))]
        realized.append(v)
    record = ExecutionRecord("walk", tuple(realized), False)
    return RunResult(frozenset(realized), len(realized), 0, 1, (record,))


def parse_suite(text: str) -> TestSuite:
    """Parse ``ncsuite 1`` text."""
    cases: list[TestCase] = []
    seen: set[str] = set()
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != "ncsuite 1":
                raise ParseError("expected `ncsuite 1` header", lineno)
            header_seen = True
            continue
        if not line.startswith("case "):
            raise ParseError("expected `case <id>: <node> <node> ...`", lineno)
        head, _, tail = line[len("case "):].partition(":")
        case_id = head.strip()
        if not _ID_RE.match(case_id):
            raise ParseError(f"invalid case id `{case_id}`", lineno)
        if case_id in seen:
            raise ParseError(f"duplicate case id `{case_id}`", lineno)
        seen.add(case_id)
        path = tuple(tail.split())
        if not path or any(not _ID_RE.match(v) for v in path):
            raise ParseError("case path must list node ids", lineno)
        cases.append(TestCase(case_id, path))
    if not header_seen:
        raise ParseError("empty input: expected `ncsuite 1` header", None)
    return TestSuite(tuple(cases))


def serialize_suite(suite: TestSuite) -> str:
    """Render a suite in ``ncsuite 1`` text (case order preserved)."""
    lines = ["ncsuite 1"]
    for tc in suite.cases:
        lines.append(f"case {tc.id}: {' '.join(tc.path)}")
    return "\n".join(lines) + "\n"
