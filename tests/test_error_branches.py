"""Every error branch of the readers, the checkers and the library's argument
checks, one table row each.

A file input's row also runs the command that reads it: a parse error
exits 2 with ``error: line N: ...`` on stderr, a violation exits 3 with
``violation: ...`` on stdout.  ``graph.validate``'s structural branches
cannot be reached from a file, since the parser rejects their causes
first, so its rows build the graph directly.  So do the rows of the
library calls whose arguments the CLI checks before it calls them.
"""
from __future__ import annotations

import random

import pytest

from conftest import MIRROR_TEXT, MIRROR_WITNESS_TEXT, input_argv
from ncgames.cli import _to_int, run_cli
from ncgames.errors import ParseError, StrategyError, ValidationError
from ncgames.experiments import ExperimentConfig, run_experiment, run_one
from ncgames.graph import (
    SUT,
    TESTER,
    GameGraph,
    NodeInfo,
    generate_random,
    is_trap,
    parse_game_graph,
    validate,
)
from ncgames.play import PositionalStrategy, best_response_gain, enumerate_positional, simulate_play
from ncgames.reductions import Cnf, parse_dimacs, sat_to_ncgame
from ncgames.testplan import (
    SutResponder,
    nt_plan,
    parse_suite,
    random_walk,
    static_once,
    validate_suite,
)
from ncgames.testplan import TestCase as Case, TestSuite as Suite
from ncgames.witness import check_witness, parse_witness, witness_guided_sut


def _graph_text(*lines: str) -> str:
    return "\n".join(("ncgame 1",) + lines) + "\n"


BIG = "7" * 5000  # past int()'s default limit of 4,300 digits, where it raises ValueError


# (text, line, reason) for parse_game_graph
GRAPH_ERRORS = {
    "node token count": (_graph_text("node a owner=tester"), 2,
                         "expected `node <id> owner=<tester|sut> gain=<uint>`"),
    "invalid node id": (_graph_text("node a-b owner=tester gain=1"), 2, "invalid node id `a-b`"),
    "owner prefix": (_graph_text("node a tester gain=1"), 2,
                     "expected `owner=<tester|sut> gain=<uint>`"),
    "gain prefix": (_graph_text("node a owner=tester 1"), 2,
                    "expected `owner=<tester|sut> gain=<uint>`"),
    "edge token count": (_graph_text("node a owner=tester gain=1", "edge a"), 3,
                         "expected `edge <src> <dst>`"),
    "init token count": (_graph_text("node a owner=tester gain=1", "init a a"), 3,
                         "expected `init <id>`"),
    "duplicate init": (_graph_text("node a owner=tester gain=1", "init a", "init a"), 4,
                       "duplicate init line"),
    "unknown edge target": (_graph_text("node a owner=tester gain=1", "edge a b", "init a"), 3,
                            "unknown node `b`"),
    "unknown init": (_graph_text("node a owner=tester gain=1", "edge a a", "", "init z"), 5,
                     "unknown node `z` in init"),
    "gain past the digit limit": (_graph_text(f"node a owner=tester gain={BIG}"), 2,
                                  f"gain must be a nonnegative integer, got `{BIG}`"),
}

# (text, line, reason) for parse_witness
WITNESS_ERRORS = {
    "invalid node id": ("ncwitness 1\nentry v-0 c=1 P=v0\n", 2, "invalid node id `v-0`"),
    "bound prefix": ("ncwitness 1\nentry v0 1 P=v0\n", 2, "expected `c=<uint> P=<id>[,<id>]*`"),
    "set prefix": ("ncwitness 1\n# comment\nentry v0 c=1 v0\n", 3,
                   "expected `c=<uint> P=<id>[,<id>]*`"),
    "empty member": ("ncwitness 1\nentry v0 c=1 P=v0,,v1\n", 2,
                     "containment set must list node ids separated by commas"),
    "no members": ("ncwitness 1\nentry v0 c=1 P=\n", 2,
                   "containment set must list node ids separated by commas"),
    "bad member": ("ncwitness 1\nentry v0 c=1 P=v0,v-1\n", 2,
                   "containment set must list node ids separated by commas"),
    "bound past the digit limit": (f"ncwitness 1\nentry v0 c={BIG} P=v0\n", 2,
                                   f"bound must be a nonnegative integer, got `{BIG}`"),
}

# (text, line, reason) for parse_suite
SUITE_ERRORS = {
    "invalid case id": ("ncsuite 1\ncase c-1: v0 v1\n", 2, "invalid case id `c-1`"),
    "empty case id": ("ncsuite 1\ncase : v0 v1\n", 2, "invalid case id ``"),
    "empty path": ("ncsuite 1\ncase c1: v0 v1\ncase c2:\n", 3, "case path must list node ids"),
    "bad path": ("ncsuite 1\ncase c1: v0 v-1\n", 2, "case path must list node ids"),
}

# (text, line, reason) for parse_dimacs
DIMACS_ERRORS = {
    "negative variable count": ("c comment\np cnf -1 0\n", 2, "header counts must be nonnegative"),
    "negative clause count": ("p cnf 1 -2\n1 0\n", 1, "header counts must be nonnegative"),
    "count past the digit limit": (f"p cnf 1 {BIG}\n1 0\n", 1, "header counts must be integers"),
    "literal past the digit limit": (f"p cnf 1 1\n1 -{BIG} 0\n", 2, f"bad literal `-{BIG}`"),
}


PARSERS = {"graph": parse_game_graph, "witness": parse_witness, "suite": parse_suite,
           "cnf": parse_dimacs}
PARSE_ERRORS = {(kind, case): row
                for kind, table in (("graph", GRAPH_ERRORS), ("witness", WITNESS_ERRORS),
                                    ("suite", SUITE_ERRORS), ("cnf", DIMACS_ERRORS))
                for case, row in table.items()}


@pytest.mark.parametrize("kind,case", sorted(PARSE_ERRORS))
def test_parse_errors(kind, case, mirror_file, tmp_path, capsys):
    text, line, reason = PARSE_ERRORS[kind, case]
    with pytest.raises(ParseError) as info:
        PARSERS[kind](text)
    assert (info.value.line, info.value.reason) == (line, reason)
    path = tmp_path / f"bad.{kind}"
    path.write_text(text)
    assert run_cli(input_argv(kind, str(path), mirror_file)) == 2
    assert capsys.readouterr().err == f"error: line {line}: {reason}\n"


# (command line without --graph and --config, config text or None, key, line) for cli._to_int
INT_SETTING_ERRORS = {
    "solve --cap": (["solve", "--cap", BIG], None, "cap", None),
    "config reset_cost": (["experiment", "--budgets", "5", "--trials", "1"],
                          f"# campaign\nreset_cost={BIG}\n", "reset_cost", 2),
}


@pytest.mark.parametrize("case", sorted(INT_SETTING_ERRORS))
def test_int_setting_errors(case, mirror_file, tmp_path, capsys):
    argv, config, key, line = INT_SETTING_ERRORS[case]
    reason = f"`{key}` must be an integer, got `{BIG}`"
    with pytest.raises(ParseError) as info:
        _to_int(BIG, key, line)
    assert (info.value.line, info.value.reason) == (line, reason)
    argv = argv + ["--graph", mirror_file]
    if config is not None:
        path = tmp_path / "bad.config"
        path.write_text(config)
        argv += ["--config", str(path)]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == f"error: {info.value}\n"


# A graph whose init loops on itself and whose other nodes are unreachable,
# so entries for them are checked without being required.
CHECK_GRAPH = _graph_text(
    "node r owner=tester gain=1",
    "node s owner=sut gain=1",
    "node t owner=tester gain=1",
    "node x owner=tester gain=1",
    "node y owner=sut gain=1",
    "edge r r",
    "edge s x",
    "edge t x",
    "edge x x",
    "edge y x",
    "edge y y",
    "init r",
)
ROOT_ENTRY = "entry r c=1 P=r"

# (extra witness entries, the one violation reported) for check_witness
WITNESS_VIOLATIONS = {
    "entry for an unknown node": (["entry zz c=1 P=zz"], "entry for unknown node `zz`"),
    "unknown containment member": (["entry t c=2 P=t,zz"], "t: containment names unknown node `zz`"),
    "missing successor entry": (["entry s c=2 P=s"], "s: successor lacks a witness entry"),
    "missing exit entry": (["entry t c=2 P=t"], "t: exit node `x` lacks a witness entry"),
    "node outside its own set": (["entry t c=2 P=x"],
                                 "t: node missing from its own containment set"),
    "SUT member with no move inside": (
        ["entry x c=1 P=x", "entry t c=3 P=s,t"],
        "t: SUT node `s` has no successor inside the containment set",
    ),
    "singleton bound": (["entry x c=1 P=x", "entry s c=5 P=s"],
                        "s: singleton case expects bound 2, got 5"),
    # {y} with y's self-loop is containment case: y may stay, so no exit is forced
    "self-loop SUT singleton bound": (["entry y c=2 P=y"],
                                      "y: containment case expects bound 1, got 2"),
}


@pytest.mark.parametrize("case", sorted(WITNESS_VIOLATIONS))
def test_witness_violations(case, tmp_path, capsys):
    extra, violation = WITNESS_VIOLATIONS[case]
    text = "\n".join(["ncwitness 1", ROOT_ENTRY] + extra) + "\n"
    g = parse_game_graph(CHECK_GRAPH)
    assert check_witness(g, parse_witness("ncwitness 1\n" + ROOT_ENTRY + "\n")) == []
    assert check_witness(g, parse_witness(text)) == [violation]
    graph_path, witness_path = tmp_path / "g.ncgame", tmp_path / "w.ncwitness"
    graph_path.write_text(CHECK_GRAPH)
    witness_path.write_text(text)
    assert run_cli(input_argv("witness", str(witness_path), str(graph_path))) == 3
    assert capsys.readouterr().out == f"violation: {violation}\n"


# (nodes, edges, the one violation reported) for validate; each graph's init is `a`
GRAPH_VIOLATIONS = {
    "invalid owner": ({"a": NodeInfo(7, 1)}, {"a": ("a",)}, "invalid owner on node `a`"),
    "negative gain": ({"a": NodeInfo(SUT, -1)}, {"a": ("a",)}, "negative gain on node `a`"),
    "unknown edge source": ({"a": NodeInfo(TESTER, 1)}, {"a": ("a",), "z": ("a",)},
                            "unknown node `z` used as edge source"),
    "duplicate successor": ({"a": NodeInfo(TESTER, 1)}, {"a": ("a", "a")},
                            "duplicate successor `a` on node `a`"),
    "unknown edge target": ({"a": NodeInfo(TESTER, 1)}, {"a": ("a", "z")},
                            "unknown node `z` in edge from `a`"),
}


@pytest.mark.parametrize("case", sorted(GRAPH_VIOLATIONS))
def test_graph_violations(case):
    nodes, edges, violation = GRAPH_VIOLATIONS[case]
    g = GameGraph(nodes, edges, "a")
    assert validate(g, strict=False) == [violation]
    assert validate(g, strict=True) == [violation]


MIRROR = parse_game_graph(MIRROR_TEXT)
MIRROR_SUITE = Suite((Case("t0", ("v0", "v1", "v3")), Case("t1", ("v0", "v2"))))
TESTER_V0 = PositionalStrategy(TESTER, {"v0": "v1", "v1": "v3", "v2": "v3"})
SUT_V3 = PositionalStrategy(SUT, {"v3": "v1"})
SINK = GameGraph({"a": NodeInfo(TESTER, 1), "b": NodeInfo(SUT, 1)}, {"a": ("b",), "b": ()}, "a")

# (call, exception type, message) for library calls with a bad argument
LIBRARY_ERRORS = {
    "simulate_play unknown root": (lambda: simulate_play(MIRROR, "zz", TESTER_V0, SUT_V3, 5),
                                   ValueError, "unknown node `zz`"),
    "simulate_play no steps": (lambda: simulate_play(MIRROR, "v0", TESTER_V0, SUT_V3, 0),
                               ValueError, "max_steps must be >= 1"),
    "enumerate_positional sink": (lambda: enumerate_positional(SINK, SUT), ValidationError, "sink: b"),
    "best_response_gain unknown root": (lambda: best_response_gain(MIRROR, "zz", SUT_V3),
                                        ValueError, "unknown node `zz`"),
    "best_response_gain non-successor": (
        lambda: best_response_gain(MIRROR, "v0", PositionalStrategy(SUT, {"v3": "v0"})),
        StrategyError, "SUT strategy chose `v0`, not a successor of `v3`"),
    "witness-guided SUT without a move": (
        lambda: witness_guided_sut(MIRROR, parse_witness(MIRROR_WITNESS_TEXT)).choose(
            frozenset({"v0"}), "v3"),
        StrategyError, "certificate corruption: no successor of `v3` inside the granted set ['v0']"),
    "generate_random no nodes": (lambda: generate_random(0, 0.5, 1, 1, 0),
                                 ValueError, "node_count must be >= 1"),
    "generate_random min_out above max_out": (lambda: generate_random(3, 0.5, 2, 1, 0),
                                              ValueError, "need 1 <= min_out <= max_out"),
    "is_trap unknown node": (lambda: is_trap(MIRROR, TESTER, {"v0", "zz"}),
                             ValueError, "unknown node `zz`"),
    "static_once no budget": (lambda: static_once(MIRROR, MIRROR_SUITE, 0, 10, SutResponder(0)),
                              ValueError, "budget must be >= 1"),
    "random_walk no budget": (lambda: random_walk(MIRROR, 0, SutResponder(0), random.Random(0)),
                              ValueError, "budget must be >= 1"),
    "nt_plan unknown strategy": (
        lambda: nt_plan(MIRROR, MIRROR_SUITE, 5, "zz", 10, SutResponder(0), random.Random(0)),
        ValueError, "unknown strategy `zz`"),
    "run_one unknown strategy": (lambda: run_one(MIRROR, MIRROR_SUITE, "zz", 5, 10, 0, 0),
                                 ValueError, "unknown strategy `zz`"),
    "run_experiment budget below 1": (
        lambda: run_experiment(MIRROR, ExperimentConfig("mirror", (5, 0))),
        ValueError, "budgets must be >= 1"),
    "sat_to_ncgame no variables": (lambda: sat_to_ncgame(Cnf(0, (frozenset({1}),))),
                                   ValueError, "formula must have at least one variable"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_ERRORS))
def test_library_errors(case):
    call, kind, message = LIBRARY_ERRORS[case]
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind and str(info.value) == message


# (cases, the violations reported) for validate_suite on the mirror graph
SUITE_VIOLATIONS = {
    "duplicate case id": ((Case("t0", ("v0", "v1")), Case("t0", ("v0", "v2"))),
                          ["duplicate case id `t0`"]),
    "empty path": ((Case("t0", ("v0", "v1")), Case("t1", ())), ["t1: empty path"]),
}


@pytest.mark.parametrize("case", sorted(SUITE_VIOLATIONS))
def test_suite_violations(case):
    cases, violations = SUITE_VIOLATIONS[case]
    assert validate_suite(MIRROR, MIRROR_SUITE) == []
    assert validate_suite(MIRROR, Suite(cases)) == violations
