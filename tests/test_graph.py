"""Graph model: parsing, validation, gains, traps, reachability, generation."""
from __future__ import annotations

import random

import pytest

from conftest import MIRROR_TEXT, graph_of
from ncgames.errors import ParseError
from ncgames.graph import (
    SUT,
    TESTER,
    GameGraph,
    NodeInfo,
    coverage_gain,
    generate_random,
    is_trap,
    parse_game_graph,
    reachable,
    serialize_game_graph,
    validate,
)


class TestParsing:
    def test_minimal_graph(self):
        g = parse_game_graph("ncgame 1\nnode a owner=tester gain=1\nedge a a\ninit a\n")
        assert g.node_ids() == ["a"]
        assert g.edges["a"] == ("a",)
        assert g.init == "a"
        assert g.owner("a") == TESTER and g.gain("a") == 1

    def test_mirror_fixture(self, mirror):
        parsed = parse_game_graph(MIRROR_TEXT)
        assert parsed == mirror
        assert parsed.owner("v3") == SUT
        assert parsed.successors("v3") == ("v1", "v2")

    def test_unknown_node_in_edge(self):
        with pytest.raises(ParseError, match="unknown node `a`"):
            parse_game_graph("ncgame 1\nedge a b")

    def test_missing_init(self):
        with pytest.raises(ParseError, match="missing init"):
            parse_game_graph("ncgame 1\nnode a owner=sut gain=0\nedge a a\n")

    def test_duplicate_node(self):
        text = "ncgame 1\nnode a owner=sut gain=0\nnode a owner=tester gain=1\ninit a\n"
        with pytest.raises(ParseError, match="duplicate node"):
            parse_game_graph(text)

    def test_duplicate_edge(self):
        text = "ncgame 1\nnode a owner=sut gain=0\nedge a a\nedge a a\ninit a\n"
        with pytest.raises(ParseError, match="duplicate edge"):
            parse_game_graph(text)

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_game_graph("ncgraph 2\n")

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nncgame 1\n# another\nnode a owner=sut gain=3\nedge a a\ninit a\n"
        g = parse_game_graph(text)
        assert g.gain("a") == 3

    def test_error_carries_line_number(self):
        try:
            parse_game_graph("ncgame 1\nnode a owner=nobody gain=1\n")
        except ParseError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected ParseError")


class TestValidation:
    def test_mirror_is_strict_valid(self, mirror):
        assert validate(mirror, strict=True) == []

    def test_sink_detected_in_strict_mode_only(self):
        g = graph_of(
            {"a": (TESTER, 1, ("s",)), "s": (TESTER, 1, ())},
            init="a",
        )
        assert validate(g, strict=True) == ["sink: s"]
        assert validate(g, strict=False) == []

    def test_unknown_init(self):
        g = GameGraph({"a": NodeInfo(TESTER, 1)}, {"a": ("a",)}, "zz")
        assert any("init" in v for v in validate(g, strict=False))


class TestCoverageGain:
    def test_unit_gains_count_set_size(self, mirror):
        assert coverage_gain(mirror, {"v0", "v1", "v3"}) == 3

    def test_empty_set(self, mirror):
        assert coverage_gain(mirror, set()) == 0

    def test_additivity(self):
        g = graph_of(
            {"a": (TESTER, 2, ("b",)), "b": (TESTER, 5, ("a",))},
            init="a",
        )
        assert coverage_gain(g, {"a", "b"}) == 7

    def test_unknown_node(self, mirror):
        with pytest.raises(ValueError, match="unknown node"):
            coverage_gain(mirror, {"nope"})

    def test_additive_and_monotone_on_random_sets(self):
        rng = random.Random(101)
        for i in range(100):
            n = rng.randint(1, 10)
            g = generate_random(n, 0.5, 1, min(2, n), seed=i).map_gains(
                lambda _v, _gain: rng.randint(0, 6)
            )
            ids = g.node_ids()
            s = {v for v in ids if rng.random() < 0.4}
            t = {v for v in ids if rng.random() < 0.4} - s
            assert coverage_gain(g, s | t) == coverage_gain(g, s) + coverage_gain(g, t)
            assert coverage_gain(g, s) <= coverage_gain(g, s | t)


class TestTraps:
    def test_mirror_branch_is_tester_trap(self, mirror):
        assert is_trap(mirror, 1, {"v1", "v3"})
        assert is_trap(mirror, 1, {"v2", "v3"})

    def test_open_tester_node_is_not_a_trap(self, mirror):
        assert not is_trap(mirror, 1, {"v0"})

    def test_full_node_set_traps_both_players(self, mirror):
        assert is_trap(mirror, 1, set(mirror.nodes))
        assert is_trap(mirror, 2, set(mirror.nodes))

    def test_full_node_set_traps_on_random_strict_graphs(self):
        for seed in range(50):
            n = 1 + seed % 9
            g = generate_random(n, 0.5, 1, min(3, n), seed=seed)
            assert is_trap(g, 1, set(g.nodes))
            assert is_trap(g, 2, set(g.nodes))

    def test_trap_union_property(self):
        rng = random.Random(99)
        checked = 0
        for i in range(300):
            n = rng.randint(2, 7)
            g = generate_random(n, 0.5, 1, min(3, n), seed=i)
            ids = g.node_ids()
            for p in (1, 2):
                s = {v for v in ids if rng.random() < 0.5}
                t = {v for v in ids if rng.random() < 0.5}
                if is_trap(g, p, s) and is_trap(g, p, t):
                    assert is_trap(g, p, s | t)
                    checked += 1
        assert checked > 20  # the property must actually get exercised


class TestReachability:
    def test_mirror_from_init(self, mirror):
        assert reachable(mirror, "v0") == {"v0", "v1", "v2", "v3"}

    def test_mirror_from_branch(self, mirror):
        assert reachable(mirror, "v1") == {"v1", "v2", "v3"}

    def test_isolated_self_loop(self):
        g = graph_of(
            {"a": (TESTER, 1, ("a",)), "b": (TESTER, 1, ("b",))},
            init="a",
        )
        assert reachable(g, "a") == {"a"}


class TestRandomGeneration:
    def test_node_count_and_strictness(self):
        g = generate_random(19, 0.4, 1, 3, seed=7)
        assert len(g.nodes) == 19
        assert validate(g, strict=True) == []
        assert reachable(g, g.init) == frozenset(g.nodes)

    def test_forced_self_loop(self):
        g = generate_random(1, 0.5, 1, 1, seed=0)
        (v,) = g.node_ids()
        assert g.edges[v] == (v,)

    def test_determinism(self):
        a = generate_random(12, 0.6, 1, 2, seed=321)
        b = generate_random(12, 0.6, 1, 2, seed=321)
        assert serialize_game_graph(a) == serialize_game_graph(b)

    def test_infeasible_parameters(self):
        with pytest.raises(ValueError, match="infeasible"):
            generate_random(2, 0.5, 1, 3, seed=0)

    def test_negative_seed_is_rejected(self):
        # random.Random seeds on the absolute value, so -7 would give the graph of 7
        with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
            generate_random(12, 0.5, 1, 2, seed=-7)

    def test_out_degrees_within_bounds(self):
        for seed in range(20):
            g = generate_random(10, 0.5, 2, 3, seed=seed)
            assert all(2 <= len(g.edges[v]) <= 3 for v in g.node_ids())


class TestSerialization:
    def test_round_trip_mirror(self, mirror):
        assert parse_game_graph(serialize_game_graph(mirror)) == mirror

    def test_round_trip_random(self):
        for seed in range(50):
            g = generate_random(1 + seed % 12, 0.5, 1, min(3, 1 + seed % 12), seed=seed)
            assert parse_game_graph(serialize_game_graph(g)) == g

    def test_declaration_order_is_not_semantic(self):
        a = parse_game_graph(
            "ncgame 1\nnode b owner=sut gain=1\nnode a owner=tester gain=1\n"
            "edge a b\nedge b a\nedge b b\ninit a\n"
        )
        b = parse_game_graph(
            "ncgame 1\nnode a owner=tester gain=1\nnode b owner=sut gain=1\n"
            "edge b b\nedge b a\nedge a b\ninit a\n"
        )
        assert a == b
