"""Shared fixtures: the 4-node mirror graph, small helpers, and the hypothesis profile.

The mirror graph is the smallest game where the SUT needs memory: from
the hub it must return to whichever branch the tester already took, or
the tester collects all four nodes instead of three.
"""
from __future__ import annotations

from itertools import combinations

import pytest

from ncgames.graph import GameGraph, NodeInfo, SUT, TESTER, reachable
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
