"""Play simulation, strategies, log consistency, best-response search."""
from __future__ import annotations

import random

import pytest

from conftest import graph_of
from ncgames.errors import CapacityError, StrategyError
from ncgames.graph import SUT, TESTER, GameGraph, coverage_gain, generate_random, reachable
from ncgames.play import (
    PositionalStrategy,
    StateMachineStrategy,
    best_response_gain,
    check_log_consistency,
    enumerate_positional,
    positional_bound,
    simulate_play,
)
from ncgames.solver import oracle_mcg


class TestSimulatePlay:
    def test_hand_traced_mirror_play(self, mirror):
        s1 = PositionalStrategy(1, {"v0": "v1", "v1": "v3", "v2": "v3"})
        s2 = PositionalStrategy(2, {"v3": "v1"})
        assert simulate_play(mirror, "v0", s1, s2, 5) == ("v0", "v1", "v3", "v1", "v3")

    def test_single_step(self, mirror):
        s1 = PositionalStrategy(1, {"v0": "v1", "v1": "v3", "v2": "v3"})
        s2 = PositionalStrategy(2, {"v3": "v1"})
        assert simulate_play(mirror, "v0", s1, s2, 1) == ("v0",)

    def test_conformance(self, mirror):
        s1 = PositionalStrategy(1, {"v0": "v2", "v1": "v3", "v2": "v3"})
        s2 = PositionalStrategy(2, {"v3": "v2"})
        play = simulate_play(mirror, "v0", s1, s2, 9)
        for i in range(len(play) - 1):
            expected = s1.moves[play[i]] if mirror.owner(play[i]) == TESTER else s2.moves[play[i]]
            assert play[i + 1] == expected

    def test_positional_coverage_stabilizes(self):
        rng = random.Random(5)
        for i in range(40):
            n = rng.randint(1, 6)
            g = generate_random(n, 0.5, 1, min(2, n), seed=i)
            s1 = PositionalStrategy(1, {v: g.edges[v][0] for v in g.node_ids() if g.owner(v) == TESTER})
            s2 = PositionalStrategy(2, {v: g.edges[v][-1] for v in g.node_ids() if g.owner(v) == SUT})
            short = simulate_play(g, g.init, s1, s2, positional_bound(g))
            long = simulate_play(g, g.init, s1, s2, 2 * len(g.nodes) + 2)
            assert frozenset(short) == frozenset(long)

    def test_non_successor_choice_reported(self, mirror):
        bad = PositionalStrategy(1, {"v0": "v3", "v1": "v3", "v2": "v3"})
        s2 = PositionalStrategy(2, {"v3": "v1"})
        with pytest.raises(StrategyError, match="not a successor"):
            simulate_play(mirror, "v0", bad, s2, 5)

    def test_state_machine_transitions_once_per_node(self):
        class CountingSut(StateMachineStrategy):
            """Picks the first successor; the state is the number of nodes seen."""

            def __init__(self):
                self.transitions = 0

            def initial_state(self):
                return 0

            def transition(self, state, node):
                self.transitions += 1
                return state + 1

            def choose(self, state, node):
                return g.edges[node][state % len(g.edges[node])]

        g = generate_random(12, 0.5, 1, 3, seed=4)
        s1 = PositionalStrategy(1, {v: g.edges[v][-1] for v in g.node_ids() if g.owner(v) == TESTER})
        sut = CountingSut()
        play = simulate_play(g, g.init, s1, sut, 60)
        assert len(play) == 60
        assert sut.transitions == 60

    def test_positional_strategy_moves_by_choose(self, mirror):
        # a long play must not hand the growing prefix to __call__ on every move
        class NoPrefix(PositionalStrategy):
            def __call__(self, prefix):
                raise AssertionError("prefix handed to a state-machine strategy")

        s1 = NoPrefix(1, {"v0": "v1", "v1": "v3", "v2": "v3"})
        s2 = NoPrefix(2, {"v3": "v1"})
        assert simulate_play(mirror, "v0", s1, s2, 5) == ("v0", "v1", "v3", "v1", "v3")

    def test_plain_callable_receives_the_prefix(self, mirror):
        seen = []

        def tester(prefix):
            seen.append(prefix)
            return {"v0": "v1", "v1": "v3", "v2": "v3"}[prefix[-1]]

        s2 = PositionalStrategy(2, {"v3": "v1"})
        assert simulate_play(mirror, "v0", tester, s2, 5) == ("v0", "v1", "v3", "v1", "v3")
        assert seen == [("v0",), ("v0", "v1"), ("v0", "v1", "v3", "v1")]

    def test_non_strategy_rejected(self, mirror):
        s2 = PositionalStrategy(2, {"v3": "v1"})
        with pytest.raises(TypeError, match="not a strategy"):
            simulate_play(mirror, "v0", object(), s2, 5)


class TestLogConsistency:
    def test_repeating_choice_is_consistent(self, mirror):
        assert check_log_consistency(("v0", "v1", "v3", "v1", "v3", "v1"), mirror)

    def test_flipping_choice_is_inconsistent(self, mirror):
        assert not check_log_consistency(("v0", "v1", "v3", "v2", "v3", "v1"), mirror)

    def test_vacuous_without_repeated_sut_node(self, mirror):
        assert check_log_consistency(("v0", "v1", "v3", "v2"), mirror)

    def test_positional_sut_is_always_log_consistent(self):
        rng = random.Random(17)
        for i in range(60):
            n = rng.randint(1, 6)
            g = generate_random(n, 0.6, 1, min(3, n), seed=100 + i)
            tester_nodes = [v for v in g.node_ids() if g.owner(v) == TESTER]
            sut_nodes = [v for v in g.node_ids() if g.owner(v) == SUT]
            s1 = PositionalStrategy(1, {v: rng.choice(g.edges[v]) for v in tester_nodes})
            s2 = PositionalStrategy(2, {v: rng.choice(g.edges[v]) for v in sut_nodes})
            play = simulate_play(g, g.init, s1, s2, 3 * n + 2)
            assert check_log_consistency(play, g)


class TestEnumeratePositional:
    def test_mirror_sut_strategies(self, mirror):
        got = list(enumerate_positional(mirror, 2))
        assert got == [
            PositionalStrategy(2, {"v3": "v1"}),
            PositionalStrategy(2, {"v3": "v2"}),
        ]

    def test_player_without_nodes(self, mirror):
        only_tester = graph_of({"a": (TESTER, 1, ("a",))}, init="a")
        assert list(enumerate_positional(only_tester, 2)) == [PositionalStrategy(2, {})]

    def test_product_rule(self):
        g = graph_of(
            {
                "a": (TESTER, 1, ("b", "c")),
                "b": (TESTER, 1, ("a", "b", "c")),
                "c": (SUT, 1, ("a",)),
            },
            init="a",
        )
        assert len(list(enumerate_positional(g, 1))) == 6

    def test_cap(self, mirror):
        with pytest.raises(CapacityError):
            enumerate_positional(mirror, 2, cap=1)


class TestBestResponseGain:
    def test_mirror_vs_committed_sut(self, mirror):
        # the tester covers the other branch first, then walks into v1
        assert best_response_gain(mirror, "v0", PositionalStrategy(2, {"v3": "v1"})) == 4

    def test_sut_free_cycle_is_strategy_independent(self):
        g = graph_of(
            {"a": (TESTER, 1, ("b",)), "b": (TESTER, 1, ("c",)), "c": (TESTER, 1, ("a",))},
            init="a",
        )
        for choice in ("a",):
            assert best_response_gain(g, "a", PositionalStrategy(2, {})) == 3

    def test_bounds(self):
        rng = random.Random(31)
        for i in range(40):
            n = rng.randint(1, 6)
            g = generate_random(n, 0.5, 1, min(2, n), seed=200 + i)
            sut_nodes = [v for v in g.node_ids() if g.owner(v) == SUT]
            sut = PositionalStrategy(2, {v: rng.choice(g.edges[v]) for v in sut_nodes})
            gain = best_response_gain(g, g.init, sut)
            assert coverage_gain(g, {g.init}) <= gain
            assert gain <= coverage_gain(g, reachable(g, g.init))
            cut = GameGraph(dict(g.nodes), {**g.edges, **{v: (u,) for v, u in sut.moves.items()}}, g.init)
            assert gain == oracle_mcg(cut, cut.init)

    def test_state_machine_interface(self, mirror):
        class FlipFlop(StateMachineStrategy):
            def initial_state(self):
                return 0

            def transition(self, state, node):
                return (state + (node == "v3")) % 2

            def choose(self, state, node):
                return "v1" if state % 2 else "v2"

        # alternating SUT still loses everything eventually
        assert best_response_gain(mirror, "v0", FlipFlop()) == 4

    def test_cap(self, mirror):
        with pytest.raises(CapacityError):
            best_response_gain(mirror, "v0", PositionalStrategy(2, {"v3": "v1"}), state_cap=2)
