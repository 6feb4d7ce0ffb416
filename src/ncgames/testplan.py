"""Budgeted execution of static test suites against a random-responding SUT.

A test case is a prescribed play prefix starting at the initial node.
Executing one walks the prefix while the SUT re-resolves every choice at
its own nodes; a response that departs from the prescription ends the
case (the diverging node is still visited and paid for).  Every visited
node costs one dollar; the first start of a run is free and every later
start (a reset) costs a flat fee on top.

``nt_plan`` repeatedly picks a case until the budget cannot fund another
start or everything the suite prescribes has been covered.  It keeps, per
case, the count u of its prescribed nodes not yet covered (only newly
covered nodes update it) and the list of live cases (u > 0) in suite
order.  A round picks uniformly among the candidates of one of four
strategies:

* ``s1.5`` - round-robin passes: the cases not yet run in this pass
  (passes restart, so leftover budget keeps buying repetition while
  coverage is incomplete);
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
The runners work on node indices, built on first use: the graph's index (``GameGraph._index``)
holds each node's successor indices, n, k and owner, and a suite's case plan on a graph holds
each path as indices, its count of distinct nodes and its SUT steps, so an execution draws only
at SUT positions.  A plan is built only for a suite that ``validate_suite`` accepts: the
runners raise ``ValidationError`` for any other before a draw.  A run keeps coverage in a
bytearray and a compact log; its ``RunResult`` decodes node ids only when ``covered`` or
``log`` is read.

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
        return frozenset(v for tc in self.cases for v in tc.path)

    @cached_property
    def _plans(self) -> dict[int, _CasePlan]:
        """id(g) -> the cases' plan on g; a plan holds g, which keeps its id unused."""
        return {}

    def _plan(self, g: GameGraph) -> _CasePlan:
        """The cases' plan on g, built on the suite's first run on g."""
        return self._plans.get(id(g)) or self._plans.setdefault(id(g), _CasePlan(self, g))


class _CasePlan:
    """A suite's cases on one graph's index: per case, the path as node indices, its count
    of distinct nodes and the SUT steps ``(i, successors, n, k, next)`` at its SUT positions
    i before the last; per node index, the cases prescribing it.  Raises ``ValidationError``
    for a suite that ``validate_suite`` rejects."""

    def __init__(self, suite: TestSuite, g: GameGraph):
        if problems := validate_suite(g, suite):
            raise ValidationError("; ".join(problems))
        ids, pos, rows = g._index
        self.g, self.ids, self.cases = g, ids, suite.cases
        self.paths = tuple(tuple(pos[v] for v in tc.path) for tc in self.cases)
        self.steps = tuple(tuple((i, *rows[v][:3], p[i + 1]) for i, v in enumerate(p[:-1])
                                 if rows[v][3]) for p in self.paths)
        sets = [set(p) for p in self.paths]
        self.counts = tuple(map(len, sets))
        self.holders = {v: tuple(c for c, s in enumerate(sets) if v in s) for v in set().union(*sets)}

    @cached_property
    def alphas(self) -> tuple[int, ...]:
        """``alpha`` of every case, computed on the suite's first ``s4`` run on the graph."""
        return tuple(alpha(tc, self.g) for tc in self.cases)

    def decode(self, log: list[tuple[int, int, int]]) -> tuple[ExecutionRecord, ...]:
        """The records of a compact log of (case, prescribed nodes realized, divergence or -1)."""
        cases, ids = self.cases, self.ids
        return tuple(ExecutionRecord(cases[c].id, cases[c].path[:m] + (ids[d],) * (d >= 0), d >= 0)
                     for c, m, d in log)


class ExecutionRecord(NamedTuple):
    """One execution: the case run, the prefix it realized, whether the SUT left the path."""

    case_id: str
    realized: tuple[str, ...]
    diverged: bool


@dataclass(frozen=True)
class RunResult:
    """Outcome of one budgeted run: what was covered, what it cost, and one
    record per execution; every start after the first is a reset.

    The runners build it lazily: ``covered_count``, ``executions`` and ``resets``
    are counts, and ``covered`` and ``log`` are decoded on first access.  Equality
    and hashing compare the decoded fields, as for ``RunResult(covered, spent, log)``.
    """

    covered: frozenset[str]
    spent: int
    log: tuple[ExecutionRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "_counts", (len(self.covered), len(self.log), None))

    @classmethod
    def _lazy(cls, spent: int, covered_count: int, executions: int, decode) -> RunResult:
        """A result whose ``log`` is ``decode()`` and whose covered nodes are the log's."""
        res = object.__new__(cls)
        res.__dict__.update(spent=spent, _counts=(covered_count, executions, decode))
        return res

    def __getattr__(self, name: str):  # reached only by a lazy result's covered and log
        if name not in ("covered", "log"):
            raise AttributeError(name)
        log = self._counts[2]()
        self.__dict__.update(log=log, covered=frozenset(v for rec in log for v in rec.realized))
        return self.__dict__[name]

    def __reduce__(self):  # pickles as its decoded fields: the decoder is a closure
        return RunResult, (self.covered, self.spent, self.log)

    covered_count = property(lambda self: self._counts[0])
    executions = property(lambda self: self._counts[1])
    resets = property(lambda self: max(self._counts[1] - 1, 0))


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

    The runners draw straight from its ``getrandbits`` stream (``_bits``), the same draws
    ``choose`` makes; overriding ``choose`` does not reach them.  ``choose`` is the
    one-pick convenience.
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
    _, pos, rows = g._index
    return [rows[pos[v]][3] for v in tc.path].count(True)


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


def _execute(steps: tuple, stop: int, bits) -> tuple[int, int]:
    """Realize a case's first `stop` nodes, drawing at its SUT steps below stop - 1: (stop,
    -1), or (i + 1, the successor drawn) when the SUT leaves the path at position i."""
    for i, succs, n, k, nxt in steps:
        if i >= stop - 1:
            break
        r = bits(k)  # the responder's pick, as SutResponder.choose draws it
        while r >= n:
            r = bits(k)
        if succs[r] != nxt:
            return i + 1, succs[r]
    return stop, -1


def execute_case(
    g: GameGraph, tc: TestCase, budget: int, sut: SutResponder
) -> tuple[tuple[str, ...], bool, int]:
    """Run one test case within `budget` dollars.

    Returns (realized prefix, diverged flag, cost).  Every visited node
    costs one dollar, including a diverging successor chosen by the SUT;
    execution stops on divergence, on path exhaustion, or when the budget
    cannot pay the next visit.  Raises ``ValidationError``, whatever the
    budget, for a case that ``validate_suite`` rejects as a suite of its own.
    """
    steps = _CasePlan(TestSuite((tc,)), g).steps[0]
    if budget < 1:
        return (), False, 0
    path = tc.path
    m, div = _execute(steps, min(len(path), budget), sut._bits)
    if div < 0:
        return path[:m], False, m
    return path[:m] + (g._index[0][div],), True, m + 1


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
    draws for ``s3`` and ``s4``.  A suite builds its case plan on its first run
    on g; one that ``validate_suite`` rejects raises ``ValidationError`` first.
    """
    _check_run(suite, budget, reset_cost)
    if strategy not in PGAIN_STRATEGIES:
        raise ValueError(f"unknown strategy `{strategy}`")

    plan = suite._plan(g)  # shared by all runs: read only
    paths, steps, holders = plan.paths, plan.steps, plan.holders
    uncovered = list(plan.counts)  # per case: distinct prescribed nodes not yet covered
    sut_positions = plan.alphas if strategy == "s4" else ()
    target_left = len(holders)  # prescribed nodes not yet covered
    live = [i for i, u in enumerate(uncovered) if u]  # cases that can add coverage
    pending: list[int] = []  # s1.5: cases not yet run in this pass
    seen = bytearray(len(plan.ids))  # per node index: covered
    log: list[tuple[int, int, int]] = []
    bits, sut_bits = rng.getrandbits, sut._bits
    spent = 0
    while target_left:
        start_cost = reset_cost if log else 0
        if spent + start_cost + 1 > budget:
            break
        if strategy == "s2":
            candidates = live
        elif strategy == "s1.5":
            candidates = pending = pending or list(range(len(paths)))  # new pass
        else:
            scores = pgain(strategy, live, uncovered, sut_positions, rng)
            top = max(scores)
            if not top:  # all 0.0: dead cases tie too
                candidates = range(len(paths))
            elif scores.count(top) == 1:
                candidates = (live[scores.index(top)],)
            else:
                candidates = [j for j, x in zip(live, scores) if x == top]
        c = candidates[_below(bits, len(candidates))]
        spent += start_cost
        path = paths[c]
        m, div = _execute(steps[c], min(len(path), budget - spent), sut_bits)
        realized = path[:m] + (div,) * (div >= 0)
        spent += len(realized)
        emptied = False
        for v in realized:
            if not seen[v]:
                seen[v] = 1
                if v in holders:
                    target_left -= 1
                    for j in holders[v]:
                        uncovered[j] -= 1
                        emptied = emptied or not uncovered[j]
        if emptied:
            live = [j for j in live if uncovered[j]]
        if pending:  # c came from it
            pending.remove(c)
        log.append((c, m, div))
    return RunResult._lazy(spent, seen.count(1), len(log), lambda: plan.decode(log))


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
    charged, and suites checked, as in ``nt_plan``.
    """
    _check_run(suite, budget, reset_cost)
    plan = suite._plan(g)
    seen = bytearray(len(plan.ids))
    log: list[tuple[int, int, int]] = []
    spent = 0
    for c, path in enumerate(plan.paths):
        start_cost = reset_cost if log else 0
        if spent + start_cost + 1 > budget:
            break
        spent += start_cost
        m, div = _execute(plan.steps[c], min(len(path), budget - spent), sut._bits)
        realized = path[:m] + (div,) * (div >= 0)
        spent += len(realized)
        for v in realized:
            seen[v] = 1
        log.append((c, m, div))
    return RunResult._lazy(spent, seen.count(1), len(log), lambda: plan.decode(log))


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
    ids, pos, rows = g._index
    tester_bits, sut_bits = rng.getrandbits, sut._bits
    v = pos[g.init]
    walk = [v]
    for _ in range(budget - 1):
        succs, n, k, sut_owned = rows[v]
        if not n:
            raise ValidationError(f"sink: {ids[v]}")
        bits = sut_bits if sut_owned else tester_bits
        r = bits(k)
        while r >= n:
            r = bits(k)
        v = succs[r]
        walk.append(v)
    return RunResult._lazy(len(walk), len(set(walk)), 1,
                           lambda: (ExecutionRecord("walk", tuple(ids[v] for v in walk), False),))


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
