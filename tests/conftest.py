"""Shared fixtures: the 4-node mirror graph, small helpers, the hypothesis profile,
and the reference test-plan runners.

The mirror graph is the smallest game where the SUT needs memory: from
the hub it must return to whichever branch the tester already took, or
the tester collects all four nodes instead of three.
"""
from __future__ import annotations

import random
from itertools import combinations

import pytest

from ncgames.errors import ValidationError
from ncgames.graph import GameGraph, NodeInfo, SUT, TESTER, reachable
from ncgames.testplan import (
    PGAIN_STRATEGIES,
    ExecutionRecord,
    RunResult,
    SutResponder,
    TestCase,
    TestSuite,
    _check_run,
    pgain,
)
from ncgames.witness import Witness, WitnessEntry, check_witness

try:
    from hypothesis import settings
except ImportError:  # the fuzz tests skip themselves without hypothesis
    pass
else:
    # Same examples on every run and machine, no example database, no timing flakes.
    settings.register_profile("ncgames", deadline=None, derandomize=True, database=None)
    settings.load_profile("ncgames")

MIRROR_TEXT = """\
ncgame 1
node v0 owner=tester gain=1
node v1 owner=tester gain=1
node v2 owner=tester gain=1
node v3 owner=sut gain=1
edge v0 v1
edge v0 v2
edge v1 v3
edge v2 v3
edge v3 v1
edge v3 v2
init v0
"""

# Two forced cycles behind a tester choice: a <-> b and c <-> d each keep one
# position, so a restart game must offer the restart there to collect both.
FORCED_CYCLES_TEXT = """\
ncgame 1
node r owner=tester gain=1
node a owner=tester gain=2
node b owner=sut gain=2
node c owner=sut gain=2
node d owner=sut gain=3
edge r a
edge r c
edge a b
edge b a
edge c d
edge d c
init r
"""

MIRROR_WITNESS_TEXT = """\
ncwitness 1
entry v0 c=3 P=v0
entry v1 c=2 P=v1,v3
entry v2 c=2 P=v2,v3
entry v3 c=2 P=v2,v3
"""


@pytest.fixture
def mirror() -> GameGraph:
    nodes = {
        "v0": NodeInfo(TESTER, 1),
        "v1": NodeInfo(TESTER, 1),
        "v2": NodeInfo(TESTER, 1),
        "v3": NodeInfo(SUT, 1),
    }
    edges = {
        "v0": ("v1", "v2"),
        "v1": ("v3",),
        "v2": ("v3",),
        "v3": ("v1", "v2"),
    }
    return GameGraph(nodes, edges, "v0")


@pytest.fixture
def mirror_file(tmp_path) -> str:
    path = tmp_path / "mirror.ncgame"
    path.write_text(MIRROR_TEXT)
    return str(path)


def graph_of(layout: dict[str, tuple[int, int, tuple[str, ...]]], init: str) -> GameGraph:
    """Compact builder: node -> (owner, gain, successors)."""
    nodes = {v: NodeInfo(owner, gain) for v, (owner, gain, _) in layout.items()}
    edges = {v: succs for v, (_, _, succs) in layout.items()}
    return GameGraph(nodes, edges, init)


def input_argv(kind: str, path: str, graph_path: str) -> list[str]:
    """A command line that reads `path` as its `kind` input and any other input from
    `graph_path`; flags keep `simulate` and `experiment` runs small."""
    return {
        "graph": ["validate", "--graph", path],
        "witness": ["witness-check", "--graph", graph_path, "--witness", path],
        "suite": ["simulate", "--graph", graph_path, "--suite", path, "--strategy", "s2",
                  "--budget", "8", "--trials", "1"],
        "config": ["experiment", "--config", path, "--graph", graph_path, "--budgets", "5",
                   "--trials", "1"],
        "cnf": ["reduce-sat", "--cnf", path],
    }[kind]


def first_consistent(g: GameGraph, w: Witness, v: str) -> tuple[int, frozenset[str]] | None:
    """(candidate number, set) of the first containment set for v, in the order
    extraction searches, that check_witness accepts in place of v's entry in w."""
    others = sorted(reachable(g, v) - {v})
    number = 0
    for size in range(len(others) + 1):
        for extra in combinations(others, size):
            number += 1
            p = frozenset((v,) + extra)
            if not check_witness(g, Witness({**w.entries, v: WitnessEntry(w.entries[v].bound, p)})):
                return number, p
    return None


# Reference runners: the test-plan runners as they were before they read the
# graph's draw table (one attribute lookup, one ``_below`` call and one append
# per visit).  Kept verbatim, apart from the names they call one another by and
# the targets ``oracle_nt_plan`` counts from the cases itself, not from the
# suite's cache under test, as the oracle of the differential property in
# test_testplan.py.


def oracle_below(getrandbits, n: int) -> int:
    """Uniform pick in [0, n), as CPython's ``Random._randbelow_with_getrandbits``."""
    if n < 1:
        raise ValueError("empty range")  # getrandbits(0) is 0: the loop would never end
    r = getrandbits(k := n.bit_length())
    while r >= n:
        r = getrandbits(k)
    return r


def oracle_choose(sut: SutResponder, g: GameGraph, v: str) -> str:
    succs = g.edges[v]
    return succs[oracle_below(sut._bits, len(succs))]


def oracle_alpha(tc: TestCase, g: GameGraph) -> int:
    nodes = g.nodes
    return [nodes[v].owner for v in tc.path].count(SUT)


def oracle_execute_case(
    g: GameGraph, tc: TestCase, budget: int, sut: SutResponder
) -> tuple[tuple[str, ...], bool, int]:
    if budget < 1:
        return (), False, 0
    nodes, path = g.nodes, tc.path
    realized = [path[0]]
    diverged = False
    for cur, prescribed in zip(path, path[1:budget]):  # the budget pays budget-1 more visits
        if nodes[cur].owner == SUT:
            actual = oracle_choose(sut, g, cur)
            realized.append(actual)
            if actual != prescribed:
                diverged = True
                break
        else:
            realized.append(prescribed)
    return tuple(realized), diverged, len(realized)


def oracle_nt_plan(
    g: GameGraph,
    suite: TestSuite,
    budget: int,
    strategy: str,
    reset_cost: int,
    sut: SutResponder,
    rng: random.Random,
) -> RunResult:
    _check_run(suite, budget, reset_cost)
    if strategy not in PGAIN_STRATEGIES:
        raise ValueError(f"unknown strategy `{strategy}`")

    cases = suite.cases
    holders: dict[str, list[int]] = {}  # node -> indices of the cases prescribing it
    for i, tc in enumerate(cases):
        for v in set(tc.path):
            holders.setdefault(v, []).append(i)
    uncovered = [len(set(tc.path)) for tc in cases]  # per case: distinct nodes not yet covered
    sut_positions = [oracle_alpha(tc, g) for tc in cases] if strategy == "s4" else []
    target_left = len(holders)  # prescribed nodes not yet covered
    live = [i for i, u in enumerate(uncovered) if u]  # cases that can add coverage
    pending: list[int] = []  # s1.5: cases whose id has not run in this pass
    covered: set[str] = set()
    log: list[ExecutionRecord] = []
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
        tc = cases[candidates[oracle_below(rng.getrandbits, len(candidates))]]
        spent += start_cost
        realized, diverged, cost = oracle_execute_case(g, tc, budget - spent, sut)
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
        if pending:
            pending = [j for j in pending if cases[j].id != tc.id]
        log.append(ExecutionRecord(tc.id, realized, diverged))
    return RunResult(frozenset(covered), spent, tuple(log))


def oracle_static_once(
    g: GameGraph,
    suite: TestSuite,
    budget: int,
    reset_cost: int,
    sut: SutResponder,
) -> RunResult:
    _check_run(suite, budget, reset_cost)
    covered: set[str] = set()
    log: list[ExecutionRecord] = []
    spent = 0
    for tc in suite.cases:
        start_cost = reset_cost if log else 0
        if spent + start_cost + 1 > budget:
            break
        spent += start_cost
        realized, diverged, cost = oracle_execute_case(g, tc, budget - spent, sut)
        spent += cost
        covered.update(realized)
        log.append(ExecutionRecord(tc.id, realized, diverged))
    return RunResult(frozenset(covered), spent, tuple(log))


def oracle_random_walk(
    g: GameGraph,
    budget: int,
    sut: SutResponder,
    rng: random.Random,
) -> RunResult:
    if budget < 1:
        raise ValueError("budget must be >= 1")
    nodes, edges, bits = g.nodes, g.edges, rng.getrandbits
    v = g.init
    realized = [v]
    for _ in range(budget - 1):
        succs = edges[v]
        if not succs:
            raise ValidationError(f"sink: {v}")
        if nodes[v].owner == SUT:
            v = oracle_choose(sut, g, v)
        else:
            v = succs[oracle_below(bits, len(succs))]
        realized.append(v)
    record = ExecutionRecord("walk", tuple(realized), False)
    return RunResult(frozenset(realized), len(realized), (record,))


def oracle_run(
    g: GameGraph,
    suite: TestSuite,
    strategy: str,
    budget: int,
    reset_cost: int,
    sut: SutResponder,
    rng: random.Random,
) -> RunResult:
    """One run of `strategy` on the reference runners, as ``experiments.run_one`` dispatches."""
    if strategy == "rdm":
        return oracle_random_walk(g, budget, sut, rng)
    if strategy == "GMU-static":
        return oracle_static_once(g, suite, budget, reset_cost, sut)
    return oracle_nt_plan(g, suite, budget, strategy, reset_cost, sut, rng)
