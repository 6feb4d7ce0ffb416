"""Exact solver: values, policies, restart variant, brute-force oracle."""
from __future__ import annotations

import hashlib
import math
import random
from dataclasses import replace

import pytest

from conftest import FORCED_CYCLES_TEXT, graph_of
from ncgames.arena import _Arena, _forcing_groups
from ncgames.errors import CapacityError, ExtractionError, StrategyError, ValidationError
from ncgames.graph import (
    SUT,
    TESTER,
    GameGraph,
    NodeInfo,
    coverage_gain,
    generate_random,
    parse_game_graph,
    reachable,
)
from ncgames.play import PositionalStrategy, best_response_gain
from ncgames.reductions import parse_dimacs, restart_double, sat_to_ncgame
from ncgames.solver import (
    _node_arena,
    _restart_arena,
    extract_optimal_sut,
    oracle_mcg,
    solve_mcg,
    solve_mcg_restart,
)
from ncgames.witness import extract_witness, witness_guided_sut


def _tester_ring(n: int) -> GameGraph:
    nodes = {f"n{i:02d}": NodeInfo(TESTER, 1) for i in range(n)}
    edges = {f"n{i:02d}": (f"n{(i + 1) % n:02d}",) for i in range(n)}
    return GameGraph(nodes, edges, "n00")


def _split_return(rooted: bool) -> GameGraph:
    """The SUT at x sends the play to a or to b, and each is forced back to r, so the
    tester forces r and x from each other and {r, x} is a forcing group whose own moves
    do not connect it: no play comes back to r with {r, x} covered and neither a nor b.
    Rooted at r, or (``rooted`` false) at s, which moves to r; there r has a self-loop,
    so that it is not forced."""
    loop = () if rooted else ("r",)
    layout = {"r": (TESTER, 1, ("x",) + loop), "x": (SUT, 2, ("a", "b")),
              "a": (TESTER, 4, ("r",)), "b": (TESTER, 8, ("r",))}
    if not rooted:
        layout["s"] = (TESTER, 16, ("r",))
    return graph_of(layout, init="r" if rooted else "s")


class TestSolveValue:
    def test_mirror_value(self, mirror):
        res = solve_mcg(mirror, "v0")
        assert res.value == 3
        assert res.states_explored > 0

    def test_mirror_from_other_roots(self, mirror):
        assert solve_mcg(mirror, "v1").value == 2
        assert solve_mcg(mirror, "v2").value == 2
        assert solve_mcg(mirror, "v3").value == 2

    def test_single_self_loop(self):
        g = graph_of({"a": (TESTER, 1, ("a",))}, init="a")
        assert solve_mcg(g, "a").value == 1

    def test_satisfiable_formula_game(self):
        f = parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 -2 0\n")
        g, threshold = sat_to_ncgame(f)
        value = solve_mcg(g, g.init).value
        assert value == threshold == 9
        assert oracle_mcg(g, g.init) == 9

    def test_value_bounds(self):
        rng = random.Random(3)
        for i in range(40):
            n = rng.randint(1, 6)
            g = generate_random(n, 0.5, 1, min(3, n), seed=400 + i)
            value = solve_mcg(g, g.init).value
            assert coverage_gain(g, {g.init}) <= value
            assert value <= coverage_gain(g, reachable(g, g.init))

    def test_sink_rejected(self):
        g = graph_of({"a": (TESTER, 1, ("b",)), "b": (TESTER, 1, ())}, init="a")
        with pytest.raises(ValidationError, match="sink"):
            solve_mcg(g, "a")

    def test_cap(self, mirror):
        with pytest.raises(CapacityError):
            solve_mcg(mirror, "v0", cap=3)

    def test_negative_cap_is_invalid(self, mirror):
        # a negative cap is no cap to exceed: ValueError (exit 3), not CapacityError
        for call in (solve_mcg, solve_mcg_restart, extract_witness):
            with pytest.raises(ValueError, match="^cap must be >= 0$"):
                call(mirror, "v0", cap=-1)

    def test_cap_governs_above_64_nodes(self):
        # states are packed into Python ints, so no fixed width limits the node count
        ring = _tester_ring(70)
        res = solve_mcg(ring, "n00", cap=70)
        assert (res.value, res.states_explored) == (70, 139)
        assert solve_mcg_restart(ring, "n00", cap=70) == oracle_mcg(ring, "n00") == 70
        with pytest.raises(CapacityError, match="70 reachable nodes exceed the solver cap 69"):
            solve_mcg(ring, "n00", cap=69)

    def test_table_holds_only_unsettled_states(self):
        # a 15-node forcing group and forced positions: states that cover the group in
        # part, and those of forced positions, are counted, not stored
        g = generate_random(18, 0.3, 1, 2, 1)
        res = solve_mcg(g, g.init, cap=64)
        arena = res._arena
        (group,) = _forcing_groups(arena.succ, arena.is_tester)
        assert len(group) == 15
        unsettled = [(mask, p) for mask, members in res._layers.items() for p in members
                     if arena.jump[p] | mask << arena.shift == mask << arena.shift | p]
        assert (res.value, res.states_explored, len(unsettled)) == (17, 19_591, 2_513)
        # one row per layer that holds an unsettled state
        assert res._values.keys() == {mask for mask, _p in unsettled}

    @pytest.mark.parametrize("solve", [solve_mcg, solve_mcg_restart, oracle_mcg])
    def test_unknown_root(self, mirror, solve):
        with pytest.raises(ValueError, match="unknown node `zz`"):
            solve(mirror, "zz")

    def test_zero_gains_allowed(self):
        g = graph_of(
            {"a": (TESTER, 0, ("b",)), "b": (SUT, 2, ("a", "b"))},
            init="a",
        )
        assert solve_mcg(g, "a").value == 2


class TestOracle:
    def test_mirror(self, mirror):
        assert oracle_mcg(mirror, "v0") == 3

    def test_two_node_cycle(self):
        g = graph_of(
            {"a": (TESTER, 1, ("b",)), "b": (SUT, 1, ("a",))},
            init="a",
        )
        assert oracle_mcg(g, "a") == 2

    def test_agrees_with_solver_on_small_graphs(self):
        rng = random.Random(9)
        for i in range(80):
            n = rng.randint(1, 5)
            g = generate_random(n, 0.5, 1, min(3, n), seed=500 + i)
            assert oracle_mcg(g, g.init) == solve_mcg(g, g.init).value

    def test_cap(self, mirror):
        with pytest.raises(CapacityError):
            oracle_mcg(mirror, "v0", cap=2)


class TestRestart:
    def test_single_self_loop(self):
        g = graph_of({"a": (TESTER, 1, ("a",))}, init="a")
        assert solve_mcg_restart(g, "a") == 1

    def test_mirror_restart_reaches_everything(self, mirror):
        assert solve_mcg_restart(mirror, "v0") == 4

    def test_sink_allowed(self):
        g = graph_of(
            {"a": (TESTER, 1, ("b", "s")), "b": (TESTER, 1, ("a",)), "s": (SUT, 1, ())},
            init="a",
        )
        assert solve_mcg_restart(g, "a") == 3

    def test_dominates_plain_value_on_strict_graphs(self):
        rng = random.Random(11)
        for i in range(40):
            n = rng.randint(1, 6)
            g = generate_random(n, 0.5, 1, min(3, n), seed=600 + i)
            assert solve_mcg_restart(g, g.init) >= solve_mcg(g, g.init).value

    def test_restart_from_forced_cycles(self):
        # a plain play ends in one cycle; a restart from the position each cycle keeps
        # reaches the other one
        g = parse_game_graph(FORCED_CYCLES_TEXT)
        doubled = restart_double(g)
        assert (solve_mcg(g, "r").value, solve_mcg_restart(g, "r")) == (6, 10)
        assert oracle_mcg(doubled, doubled.init) == 20

    @pytest.mark.parametrize("n, seed, value", [(18, 1, 17), (20, 0, 19)])
    def test_benchmark_reference_values(self, n, seed, value):
        g = generate_random(n, 0.3, 1, 2, seed)
        assert solve_mcg_restart(g, g.init, cap=64) == value


def _entry_masks(arena: _Arena) -> list[int]:
    """The mask a reduced exploration adds on a move to each position."""
    return [j >> arena.shift for j in arena.jump]


class TestGrouping:
    """Forcing groups, the sets the tester can force the play through and back whatever
    the SUT answers, are covered whole by a move into them, worth their summed gain."""

    def test_tester_ring_is_one_group(self):
        ring = _tester_ring(70)
        arena = _node_arena(ring, "n00", 70)
        (group,) = _forcing_groups(arena.succ, arena.is_tester)
        assert (group, sum(arena.gains[p] for p in group)) == (list(range(70)), 70)
        # every position but the root is forced, so a move into the ring reads the
        # whole-ring state at the root, and the solve enters only it after the root
        # state; so does the restart game, whose restart at the root stays there
        assert arena.jump == [((1 << 70) - 1) << arena.shift] * 70
        assert _restart_arena(ring, "n00", 70).solve()[:2] == (70, 2)
        with pytest.raises(CapacityError, match="70 reachable nodes exceed the solver cap 69"):
            solve_mcg_restart(ring, "n00", cap=69)

    def test_mirror_has_no_group(self, mirror):
        arena = _node_arena(mirror, "v0", 20)
        assert _forcing_groups(arena.succ, arena.is_tester) == []
        # v1 and v2 are forced to the hub v3, so a move to either also covers v3
        assert (_entry_masks(arena), arena.gains) == ([1, 10, 12, 8], [1, 1, 1, 1])
        assert [j & ((1 << arena.shift) - 1) for j in arena.jump] == [0, 3, 3, 3]

    def test_cycle_through_an_sut_node_is_not_a_group(self):
        # s has a second successor, off the cycle, so the SUT chooses there
        g = graph_of(
            {"a": (TESTER, 1, ("b",)), "b": (TESTER, 2, ("s",)), "s": (SUT, 4, ("a", "c")),
             "c": (TESTER, 8, ("c",))},
            init="a",
        )
        arena = _node_arena(g, "a", 20)
        assert _forcing_groups(arena.succ, arena.is_tester) == []
        # no group mask; b is forced to s, so a move to b also covers s
        assert (_entry_masks(arena), arena.gains) == ([1, 10, 4, 8], [1, 2, 8, 4])

    def test_long_tester_ring_is_one_group(self):
        n = 5000  # a best-response arena may have this many positions
        ring = [((p + 1) % n,) for p in range(n)]
        assert _forcing_groups(ring, [True] * n) == [list(range(n))]
        # an SUT position with a second successor, off the ring, breaks it
        ring[2500] = (2501, n)
        assert _forcing_groups(ring + [(n,)], [p != 2500 for p in range(n + 1)]) == []

    def test_tester_self_loop_is_not_a_group(self):
        assert _forcing_groups([(0,)], [True]) == []

    def test_tester_sink_stays_alone(self):
        g = graph_of(
            {"a": (TESTER, 1, ("b", "t")), "b": (TESTER, 2, ("a",)), "t": (TESTER, 4, ())},
            init="a",
        )
        arena = _node_arena(g, "a", 20)
        assert _forcing_groups(arena.succ, arena.is_tester) == [[0, 1]]
        assert (_entry_masks(arena), arena.gains) == ([3, 3, 4], [1, 2, 4])
        assert solve_mcg_restart(g, "a") == 7

    def test_sut_node_joins_when_every_successor_is_forced_back(self):
        # as in the cycle above, but c moves back to a: whatever s answers, the play
        # returns to s; c stays out, since the tester cannot force the play to c
        g = graph_of(
            {"a": (TESTER, 1, ("b",)), "b": (TESTER, 2, ("s",)), "s": (SUT, 4, ("a", "c")),
             "c": (TESTER, 8, ("a",))},
            init="a",
        )
        arena = _node_arena(g, "a", 20)  # a, b, c, s
        assert _forcing_groups(arena.succ, arena.is_tester) == [[0, 1, 3]]
        # b is forced to s and c to the root a, each in the group {a, b, s} of mask 11
        assert (_entry_masks(arena), arena.gains) == ([11, 11, 15, 11], [1, 2, 8, 4])
        assert solve_mcg(g, "a").value == oracle_mcg(g, "a") == solve_mcg_restart(g, "a") == 7

    @pytest.mark.parametrize("rooted", [True, False])
    def test_group_that_its_own_moves_do_not_connect(self, monkeypatch, rooted):
        # r and x force each other, but every return from x to r passes a or b, so the
        # state a move into the group is worth, (r, C | {r, x}), is not reachable from
        # the root state when C lacks a and b: the solve from the root starts there too,
        # and so does the full table's solve, after its exploration along step
        g = _split_return(rooted)
        arena = _node_arena(g, g.init, 20)
        r, x = arena.index["r"], arena.index["x"]
        assert _forcing_groups(arena.succ, arena.is_tester) == [[r, x]]
        calls = []
        explore = _Arena.explore

        def spy(arena, enter, starts, *args, **kwargs):
            calls.append(enter is arena.jump)
            return explore(arena, enter, starts, *args, **kwargs)

        monkeypatch.setattr(_Arena, "explore", spy)
        res = solve_mcg(g, g.init)
        # the SUT always answers a; 12 and 13 reachable states in 5 and 6 layers
        assert (res.value, res.states_explored) == ((7, 12) if rooted else (23, 13))
        assert calls == [True, False, True]
        assert res.value == oracle_mcg(g, g.init)
        assert res.node_values == {v: solve_mcg(g, v).value for v in arena.ids}


class TestForcedChains:
    """A move into a chain of positions with one successor each reads the state at the
    chain's end, with every position of the chain covered."""

    def test_forced_cycle_is_kept_at_its_least_position(self):
        # the chain from a enters the cycle c1 -> c2 -> c3 at c2
        g = graph_of(
            {"r": (TESTER, 1, ("a", "r")), "a": (TESTER, 1, ("c2",)), "c1": (TESTER, 1, ("c2",)),
             "c2": (SUT, 1, ("c3",)), "c3": (TESTER, 1, ("c1",))},
            init="r",
        )
        arena = _node_arena(g, "r", 20)  # a, c1, c2, c3, r
        cycle = 0b1110 << arena.shift | 1
        root = 0b10000 << arena.shift | 4
        assert arena.jump == [cycle | 1 << arena.shift, cycle, cycle, cycle, root]
        # the root state, then the chain and the cycle at c1, whose move stays at c1
        assert arena.solve()[:2] == (5, 2)
        assert solve_mcg(g, "r").tester_move("r", {"r"}) == "a"

    def test_root_with_one_successor_is_not_forced(self):
        g = graph_of({"a": (SUT, 1, ("r",)), "r": (TESTER, 2, ("a",))}, init="r")
        arena = _node_arena(g, "r", 20)  # a, r: one group, and a is forced to r
        assert arena.jump == [0b11 << arena.shift | 1] * 2
        assert solve_mcg_restart(g, "r") == solve_mcg(g, "r").value == 3

    def test_sat_game_reduced_states(self):
        # the dispatcher y picks any clause, every answer of a clause leads along forced
        # positions to the last decision dx4, and both answers of dx4 lead back to y: so
        # y, the clauses and dx4 form one forcing group, with the forced positions
        f = parse_dimacs("p cnf 4 5\n1 2 -3 0\n-1 3 4 0\n-2 -4 0\n2 3 0\n-1 -3 -4 0\n")
        g, threshold = sat_to_ncgame(f)
        arena = _node_arena(g, g.init, 64)
        (group,) = _forcing_groups(arena.succ, arena.is_tester)
        assert [arena.ids[p] for p in group] == ["c1", "c2", "c3", "c4", "c5", "dx4", "y"]
        res = solve_mcg(g, g.init, cap=64)
        assert (res.value, threshold, arena.solve()[1]) == (14, 14, 744)
        assert res.states_explored == 22_804


class TestInvariants:
    def test_gain_scaling(self):
        rng = random.Random(13)
        for i in range(30):
            n = rng.randint(1, 5)
            g = generate_random(n, 0.5, 1, min(3, n), seed=700 + i)
            k = rng.randint(2, 7)
            scaled = g.map_gains(lambda _v, gain: k * gain)
            assert solve_mcg(scaled, scaled.init).value == k * solve_mcg(g, g.init).value

    def test_edge_monotonicity(self):
        rng = random.Random(15)
        tested = 0
        for i in range(60):
            n = rng.randint(2, 5)
            g = generate_random(n, 0.5, 1, 2, seed=800 + i)
            base = solve_mcg(g, g.init).value
            ids = g.node_ids()
            v = rng.choice(ids)
            missing = [w for w in ids if w not in g.edges[v]]
            if not missing:
                continue
            w = rng.choice(missing)
            edges = dict(g.edges)
            edges[v] = edges[v] + (w,)
            bigger = GameGraph(dict(g.nodes), edges, g.init)
            grown = solve_mcg(bigger, bigger.init).value
            if g.owner(v) == TESTER:
                assert grown >= base
            else:
                assert grown <= base
            tested += 1
        assert tested > 30


class TestPolicies:
    def test_mirror_policies_realize_the_value(self, mirror):
        res = solve_mcg(mirror, "v0")
        covered = self._simulate_policies(mirror, res)
        assert coverage_gain(mirror, covered) == res.value

    def test_policy_realizability_random(self):
        rng = random.Random(21)
        for i in range(60):
            n = rng.randint(1, 6)
            g = generate_random(n, 0.5, 1, min(3, n), seed=900 + i)
            res = solve_mcg(g, g.init)
            covered = self._simulate_policies(g, res)
            assert coverage_gain(g, covered) == res.value

    @staticmethod
    def _simulate_policies(g, res) -> set[str]:
        covered = {g.init}
        v = g.init
        seen = set()
        while (v, frozenset(covered)) not in seen:
            seen.add((v, frozenset(covered)))
            if g.owner(v) == TESTER:
                v = res.tester_move(v, covered)
            else:
                v = res.sut_move(v, covered)
            covered.add(v)
        return covered

    def test_policy_moves_are_edges(self, mirror):
        res = solve_mcg(mirror, "v0")
        for (v, _covered), choice in res.tester_policy().items():
            assert choice in mirror.edges[v]
        for (v, _covered), choice in res.sut_policy().items():
            assert choice in mirror.edges[v]


class TestOptimalSut:
    def test_mirror_bound(self, mirror):
        res = solve_mcg(mirror, "v0")
        assert best_response_gain(mirror, "v0", extract_optimal_sut(res)) == 3

    def test_graph_without_sut_nodes(self):
        g = graph_of(
            {"a": (TESTER, 1, ("b",)), "b": (TESTER, 1, ("a", "b"))},
            init="a",
        )
        res = solve_mcg(g, "a")
        gain = best_response_gain(g, "a", extract_optimal_sut(res))
        assert gain == coverage_gain(g, reachable(g, "a")) == 2

    def test_unsatisfiable_formula_game_exceeds_threshold(self):
        f = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
        g, threshold = sat_to_ncgame(f)
        res = solve_mcg(g, g.init)
        gain = best_response_gain(g, g.init, extract_optimal_sut(res))
        assert gain == res.value
        assert gain > threshold == 5

    def test_optimality_against_search(self):
        rng = random.Random(23)
        for i in range(40):
            n = rng.randint(1, 6)
            g = generate_random(n, 0.5, 1, min(3, n), seed=1100 + i)
            res = solve_mcg(g, g.init)
            sut = extract_optimal_sut(res)
            assert best_response_gain(g, g.init, sut) == res.value


def _golden_graphs(mirror) -> dict[str, GameGraph]:
    """Fixed games for the golden digests: the mirror, random graphs of
    8-14 nodes (half of them with unequal gains) and one SAT game."""
    graphs = {"mirror": mirror}
    for n, seed, sut_fraction in [
        (8, 1, 0.3), (9, 2, 0.5), (10, 3, 0.3), (11, 4, 0.5),
        (12, 5, 0.3), (13, 6, 0.5), (14, 7, 0.3), (14, 8, 0.5),
    ]:
        g = generate_random(n, sut_fraction, 1, 3, seed)
        if seed % 2:
            g = g.map_gains(lambda v, _gain: 1 + int(v[1:]) % 4)
        graphs[f"random-{n}-{seed}"] = g
    f = parse_dimacs("p cnf 4 5\n1 2 -3 0\n-1 3 4 0\n-2 -4 0\n2 3 0\n-1 -3 -4 0\n")
    graphs["sat-4-5"], _threshold = sat_to_ncgame(f)
    return graphs


def _policy_digest(res) -> str:
    def items(policy):
        return sorted((v, tuple(sorted(covered)), u) for (v, covered), u in policy.items())

    text = repr((res.value, res.states_explored, items(res.tester_policy()), items(res.sut_policy())))
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of (value, states_explored, sorted tester policy, sorted SUT policy)
GOLDEN_POLICY_DIGESTS = {
    "mirror": "442d0b8312c374f0ff6c55d220552f4fdef196cfae4d6efa25af4839449c16d1",
    "random-10-3": "aa470ebbc8445a1f2e24d582da1701831f9aa7f1c3c67f58ddd9b77b6238977f",
    "random-11-4": "b3d9e7240800c1a782abf621a7f51e8beb30588751694f8013b8b26dc7bc57aa",
    "random-12-5": "74628aa60329fcc795e951517f33374082c5bf291f5604f523668c21d70cbdf7",
    "random-13-6": "b8b060cd5d2f65e3d1c01c9f0209b48ecc547eac74defb6b93db8f9ada5eebf4",
    "random-14-7": "a9db96a8ea308d89f1117d67498185a1ffbda96213b1fc69f080ed2b1988f2c3",
    "random-14-8": "7df5fa1781f7b4ee93fb4b9d7aea3fbecbfa50a70be1a1f96d6bbda5db51a580",
    "random-8-1": "0d39db3656c2d0952fbc46d31fe140f5dd9aea3d3cba0ecc32439e9ffbd20355",
    "random-9-2": "b2ca9edf1c31c0da9aab41543aa5730774538a97308f1d9e4607776ae7766bab",
    "sat-4-5": "2bd744cacc1e0ff3b00261dbe7e5ca198727ab22b233b884469f43c46ac7675e",
}

# solve_mcg_restart value, then best_response_gain against the SUT that
# always takes its first and its last successor
GOLDEN_VALUES = {
    "mirror": (4, 4, 4),
    "random-10-3": (9, 21, 23),
    "random-11-4": (4, 8, 5),
    "random-12-5": (30, 28, 28),
    "random-13-6": (9, 9, 12),
    "random-14-7": (29, 27, 27),
    "random-14-8": (4, 8, 4),
    "random-8-1": (7, 18, 7),
    "random-9-2": (9, 9, 9),
    "sat-4-5": (14, 15, 15),
}


class TestGoldenPolicies:
    """Values, state counts and full policies pinned per graph, so that a
    kernel rewrite must keep every recorded and derived move."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_POLICY_DIGESTS))
    def test_policy_digest(self, mirror, name):
        g = _golden_graphs(mirror)[name]
        assert _policy_digest(solve_mcg(g, g.init)) == GOLDEN_POLICY_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_VALUES))
    def test_restart_and_best_response_values(self, mirror, name):
        g = _golden_graphs(mirror)[name]
        first = PositionalStrategy(2, {v: g.edges[v][0] for v in g.nodes if g.owner(v) == SUT})
        last = PositionalStrategy(2, {v: g.edges[v][-1] for v in g.nodes if g.owner(v) == SUT})
        got = (
            solve_mcg_restart(g, g.init),
            best_response_gain(g, g.init, first),
            best_response_gain(g, g.init, last),
        )
        assert got == GOLDEN_VALUES[name]


class TestLazyTesterChoices:
    """Tester moves come from replaying the looked-up state's layer on the
    first lookup in it; the replay must give the full policy's moves in any
    lookup order and rewrite the value table unchanged."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_POLICY_DIGESTS))
    def test_shuffled_single_lookups_equal_the_policy(self, mirror, name):
        g = _golden_graphs(mirror)[name]
        policy = solve_mcg(g, g.init).tester_policy()
        res = solve_mcg(g, g.init)
        values = {mask: row.copy() for mask, row in res._values.items()}
        keys = sorted(policy, key=lambda key: (key[0], sorted(key[1])))
        random.Random(name).shuffle(keys)
        assert {key: res.tester_move(*key) for key in keys} == policy
        assert res._values == values
        assert res.tester_policy() == policy
        assert res == solve_mcg(g, g.init)  # the lookup cache takes no part in equality

    @pytest.mark.parametrize("name", sorted(GOLDEN_POLICY_DIGESTS))
    def test_bad_lookups_raise_before_any_replay(self, mirror, name, monkeypatch):
        g = _golden_graphs(mirror)[name]
        res = solve_mcg(g, g.init)
        # every reached covered set holds the root, so an empty one is never reached
        bad = [(g.init, set())] + [(v, covered) for v, covered in res.sut_policy()]
        if name == "mirror":
            bad.append(("v1", {"v1"}))  # both successor states reached, this one not

        def no_replay(*args):
            raise AssertionError("layer replayed")

        root_layer = {res._arena.bits[res._arena.root]}
        assert res._choices.keys() == root_layer  # read when the root is solved
        monkeypatch.setattr(_Arena, "choices", no_replay)
        for v, covered in bad:
            with pytest.raises(KeyError):
                res.tester_move(v, covered)
        assert res._choices.keys() == root_layer


class TestTesterChoices:
    """Tester choices read off the solved table (``_Arena.choices``)."""

    def test_least_rank_successor_leaves_the_layer(self):
        """With r, a, b and c covered, a, b and c are all worth 5, but only c can leave
        for x: c has rank 0 for 5, a rank 1 and b rank 2.  a must take c, its successor
        of least rank; b, of equal value and first in a's moves, would close a ↔ b."""
        g = graph_of({"r": (TESTER, 1, ("a",)), "a": (TESTER, 1, ("b", "c")),
                      "b": (TESTER, 1, ("a",)), "c": (TESTER, 1, ("a", "x")),
                      "x": (TESTER, 1, ("x",))}, init="r")
        res = solve_mcg(g, g.init)
        covered = {"r", "a", "b", "c"}
        assert res.value == 5
        assert [res.tester_move(v, covered) for v in "abc"] == ["c", "a", "x"]


def _games(st, sinks: bool, forced: bool = False):
    """Hypothesis strategy: games of 1-9 nodes rooted at v0, any share of SUT nodes,
    gains 0-5 and up to three successors per node, self-loops included (sinks too
    when `sinks`).  With `forced`, a drawn share of the nodes get exactly one
    successor, so forced chains and cycles, a root with one successor and chains
    into sinks are common."""

    @st.composite
    def games(draw):
        ids = [f"v{i}" for i in range(draw(st.integers(1, 9)))]
        sut = set(draw(st.permutations(ids))[:draw(st.integers(0, len(ids)))])
        one = set(draw(st.permutations(ids))[:draw(st.integers(0, len(ids)))]) if forced else set()
        nodes = {v: NodeInfo(SUT if v in sut else TESTER, draw(st.integers(0, 5))) for v in ids}
        edges = {v: (draw(st.sampled_from(ids)),) if v in one
                 else tuple(draw(st.lists(st.sampled_from(ids), min_size=0 if sinks else 1,
                                          max_size=3, unique=True)))
                 for v in ids}
        return GameGraph(nodes, edges, "v0")

    return games()


def _wide_games(st):
    """Hypothesis strategy: ``_games(st, sinks=False, forced=True)`` with some reachable
    gains raised to 256, 300, 2**64 + 3 or 5·2**64 and one in [2**64, 2**70], so that
    ν(all nodes) is at least 256 and the value rows are lists."""

    @st.composite
    def wide_games(draw):
        g = draw(_games(st, sinks=False, forced=True))
        big = draw(st.lists(st.sampled_from(sorted(reachable(g, g.init))), min_size=1, unique=True))
        gains = {v: draw(st.sampled_from([256, 300, 2**64 + 3, 5 * 2**64])) for v in big}
        gains[big[0]] = draw(st.integers(2**64, 2**70))
        return g.map_gains(lambda v, gain: gains.get(v, gain))

    return wide_games()


def _extra_states(arena: _Arena, reachable) -> set[int]:
    """The packed states that the full table explores along ``jump`` beyond the packed
    ``reachable`` ones: those reachable along ``jump`` from the jump states of reachable
    states that are not reachable themselves, less the reachable ones."""
    position = (1 << arena.shift) - 1
    lacking = {(packed - (packed & position)) | arena.jump[packed & position] for packed in reachable}
    lacking.difference_update(reachable)
    if not lacking:
        return set()
    layers = arena.explore(arena.jump, lacking)[0]
    return {mask << arena.shift | p for mask, members in layers.items() for p in members} - set(reachable)


def _kleene_row(arena: _Arena, mask: int, members: list[int], base: int, values: dict):
    """The row of ``members`` of the layer of ``mask`` by plain Kleene iteration: every
    member starts at the floor ``base`` and each round applies the one-step operator to
    all of them at once, the largest option at a tester and the least at the SUT, never
    below the floor, until no value changes.  A move (u, m, t) stays in the layer, to t,
    when mask | m is mask; any other is an exit, worth ``values[mask | m][t]``."""
    row = dict.fromkeys(members, base)
    while True:
        raised = {}
        for p in members:
            options = [row[t] if mask | m == mask else values[mask | m][t] for _, m, t in arena.moves[p]]
            raised[p] = max(base, max(options) if arena.is_tester[p] else min(options))
        if raised == row:
            break
        row = raised
    out = arena.blank.copy()
    for p, v in row.items():
        out[p] = v
    return out


def _layer_by_layer(arena: _Arena, starts=()) -> dict[int, int]:
    """The value of every state reachable from the root state, or from the packed
    ``starts`` when given, by packed state, from a Kleene iteration of each layer with
    all of its members and every exit read through ``step``: nothing settled, forced or
    grouped."""
    no_settling = replace(arena)
    no_settling.jump = step = no_settling.step
    no_settling.moves = [tuple((u, step[u] >> arena.shift, u) for u in s) for s in arena.succ]
    layers, mask_gain = no_settling.explore(step, starts or [step[arena.root]])
    values: dict = {}
    for mask in reversed(layers):
        values[mask] = _kleene_row(no_settling, mask, layers[mask], mask_gain[mask], values)
    return {mask << arena.shift | p: values[mask][p] for mask, members in layers.items() for p in members}


class TestKernelProperties:
    """The layered kernel against independent facts on small games with
    self-loops and one-state layers: the brute-force oracle, the restart
    doubling identity of ``ncgames.reductions``, and the optimality of every
    policy move read off the value table."""

    def test_value_equals_the_oracle(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=100)
        @given(g=_games(st, sinks=False))
        def prop(g):
            assert solve_mcg(g, g.init).value == oracle_mcg(g, g.init)

        prop()

    def test_reduced_value_equals_the_oracle(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=100)
        @given(g=_games(st, sinks=False))
        def prop(g):
            assert _node_arena(g, g.init, 20).solve()[0] == oracle_mcg(g, g.init)

        prop()

    def test_node_values_equal_the_per_node_solves(self):
        """One exploration entered at every reachable node gives each node the value of
        a solve rooted there, on strict games with self-loops, forced chains and cycles
        (a forced position has one successor, not itself, and is not the root) and
        forcing groups; each of the four must occur among the examples."""
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        seen = set()

        @settings(max_examples=300)
        @given(g=_games(st, sinks=False, forced=True))
        def prop(g):
            res = solve_mcg(g, g.init)
            arena = res._arena
            assert res.node_values == {v: solve_mcg(g, v).value for v in arena.ids}
            forced = [p != arena.root and len(s) == 1 and s[0] != p for p, s in enumerate(arena.succ)]
            ends = [j & ((1 << arena.shift) - 1) for j in arena.jump]
            seen.update(
                [("self-loop", any(p in s for p, s in enumerate(arena.succ))),
                 ("forced chain", any(forced[p] and not forced[t] for p, t in enumerate(ends))),
                 ("forced cycle", any(forced[t] for t in ends)),
                 ("forcing group", bool(_forcing_groups(arena.succ, arena.is_tester)))]
            )

        prop()
        assert {name for name, present in seen if present} == {
            "self-loop", "forced chain", "forced cycle", "forcing group"}

    def test_wide_rows_keep_the_values(self):
        """Reachable gains that sum to 256 or more, one of them at least 2**64, take list
        rows rather than bytes: the value must still equal the oracle's, and every node's
        value that of a solve rooted there."""
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=100)
        @given(g=_wide_games(st))
        def prop(g):
            res = solve_mcg(g, g.init)
            assert isinstance(res._arena.blank, list)
            assert res.value == oracle_mcg(g, g.init)
            assert res.node_values == {v: solve_mcg(g, v).value for v in res._arena.ids}

        prop()

    def test_value_layers_equal_the_kleene_ones(self, monkeypatch):
        """The value solve's worklist against plain Kleene iteration: on the plain and
        restart arenas of games with forced chains and cycles, some of them with wide
        gains (list rows), each layer that ``solve()``, ``solve(starts=jump)``,
        ``full_table()`` and ``root_value()``, cut from a first budget of one state,
        solve must get the same row from ``_kleene_row`` on the same members and exits,
        the bound row among them."""
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        value_layer = _Arena.value_layer
        rows = set()  # the row types compared

        def checked(arena, mask, members, base, values):
            value_layer(arena, mask, members, base, values)
            assert _kleene_row(arena, mask, members, base, values) == values[mask]
            rows.add(type(values[mask]))

        monkeypatch.setattr(_Arena, "value_layer", checked)
        monkeypatch.setattr("ncgames.arena._FIRST_BUDGET", 1)

        @settings(max_examples=200)
        @given(g=st.one_of(_games(st, sinks=False, forced=True), _wide_games(st)))
        def prop(g):
            for arena in (_node_arena(g, g.init, 20), _restart_arena(g, g.init, 20)):
                arena.solve()
                arena.solve(starts=arena.jump)
                arena.full_table()
                arena.root_value()

        prop()
        assert rows == {bytearray, list}

    def test_grouped_restart_value_equals_the_per_node_one(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=100)
        @given(g=_games(st, sinks=True))
        def prop(g):
            arena = _restart_arena(g, g.init, 20)
            assert solve_mcg_restart(g, g.init) == _layer_by_layer(arena)[arena.step[arena.root]]

        prop()

    def test_forced_chains_keep_the_oracle_value(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=200)
        @given(g=_games(st, sinks=False, forced=True))
        def prop(g):
            assert _node_arena(g, g.init, 20).solve()[0] == oracle_mcg(g, g.init)

        prop()

    def test_forced_chains_keep_the_per_node_restart_value(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=200)
        @given(g=_games(st, sinks=True, forced=True))
        def prop(g):
            arena = _restart_arena(g, g.init, 20)
            assert solve_mcg_restart(g, g.init) == _layer_by_layer(arena)[arena.step[arena.root]]

        prop()

    def test_settled_tables_equal_the_layer_by_layer_ones(self, monkeypatch):
        """Plain, restart and best-response solves settle the states of forced positions
        and of partly covered forcing groups, and do not store them.  A forced position
        has one successor, not itself, and is not the root; of a cycle of forced
        positions only the least is kept.  Against a solve of every layer with all of
        its members and exits read through ``step`` (no settling), the table must hold
        the reachable unsettled states with the same values, and every settled state
        (p, C) must be worth the value the table holds at ``jump[p]``: the end of p's
        forced chain, with the chain and the end's group covered.  Where that state is
        not reachable, the full table explores along ``jump`` from it, and holds no
        other masks than those of these extra states and of the reachable unsettled
        ones; an extra state's value must equal the reference's explored from it, and
        some examples must have extra states."""
        pytest.importorskip("hypothesis")
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        solved = []
        solve = _Arena.solve
        extras = []

        def recorded(arena, *args, **kwargs):
            solved.append(arena)
            return solve(arena, *args, **kwargs)

        monkeypatch.setattr(_Arena, "solve", recorded)

        @settings(max_examples=100)
        @given(h=_games(st, sinks=True))
        @example(h=_split_return(True))
        @example(h=_split_return(False))
        def prop(h):
            g = GameGraph(h.nodes, {v: moves or (v,) for v, moves in h.edges.items()}, h.init)
            optimal = extract_optimal_sut(solve_mcg(g, g.init))
            last = PositionalStrategy(2, {v: g.edges[v][-1] for v in g.nodes if g.owner(v) == SUT})
            solved.clear()
            best_response_gain(g, g.init, optimal)
            best_response_gain(g, g.init, last)
            plain = _node_arena(g, g.init, 20)
            for arena in [plain, _restart_arena(g, g.init, 20), _restart_arena(h, h.init, 20), *solved]:
                values = arena.full_table()[0]
                reference = _layer_by_layer(arena)
                succ = arena.succ
                cov = list(arena.bits)  # cov(S) at a position of forcing group S
                for group in _forcing_groups(succ, arena.is_tester):
                    f = 0
                    for p in group:
                        f |= arena.bits[p]
                    for p in group:
                        cov[p] = f
                forced = [len(m) == 1 and m[0] != p and p != arena.root for p, m in enumerate(succ)]

                def kept(p):  # not forced, or the least position of a cycle of forced ones
                    cycle, q = [], p
                    while forced[q] and len(cycle) < len(succ):
                        cycle.append(q)
                        q = succ[q][0]
                        if q == p:
                            return p == min(cycle)
                    return not forced[p]

                position = (1 << arena.shift) - 1

                def unsettled_state(packed):
                    p = packed & position
                    return kept(p) and packed >> arena.shift & cov[p] == cov[p]

                unsettled = set(filter(unsettled_state, reference))
                extra = _extra_states(arena, reference)
                if extra:
                    extras.append(len(extra))
                assert values.keys() == {packed >> arena.shift for packed in unsettled | extra}
                for packed, value in reference.items():
                    if packed in unsettled:
                        assert arena.read(values, packed) == value
                    else:
                        p = packed & position
                        assert arena.read(values, (packed - p) | arena.jump[p]) == value
                if extra:
                    extra_reference = _layer_by_layer(arena, sorted(extra))
                    for packed in extra:
                        assert arena.read(values, packed) == extra_reference[packed]

        prop()
        assert extras

    def test_covering_a_group_keeps_every_value(self):
        """The rule that settles a forcing group S: at each reachable state (p, C) with p
        in S, (p, C ∪ cov(S)) has the same value in the no-settling reference, explored
        from those states.  On plain and restart arenas of games with sinks, forced chains
        and cycles; some groups must hold an SUT position that chooses."""
        pytest.importorskip("hypothesis")
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        seen = []

        @settings(max_examples=200)
        @given(h=_games(st, sinks=True, forced=True))
        @example(h=_split_return(True))
        @example(h=_split_return(False))
        def prop(h):
            g = GameGraph(h.nodes, {v: moves or (v,) for v, moves in h.edges.items()}, h.init)
            for arena in (_node_arena(g, g.init, 20), _restart_arena(h, h.init, 20)):
                covering = {}  # position -> cov(S) of its group S
                for group in _forcing_groups(arena.succ, arena.is_tester):
                    f = 0
                    for p in group:
                        f |= arena.bits[p]
                    covering.update(dict.fromkeys(group, f))
                    seen.extend(p for p in group if not arena.is_tester[p] and len(arena.succ[p]) > 1)
                if not covering:
                    continue
                reference = _layer_by_layer(arena)
                position = (1 << arena.shift) - 1
                pairs = [(packed, packed | covering[packed & position] << arena.shift)
                         for packed in reference if packed & position in covering]
                grown = _layer_by_layer(arena, sorted({q for _, q in pairs}))
                for packed, q in pairs:
                    assert grown[q] == reference[packed]

        prop()
        assert seen

    def test_restart_value_is_half_the_doubled_plain_value(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=100)
        @given(g=_games(st, sinks=True))
        def prop(g):
            doubled = restart_double(g)
            assert 2 * solve_mcg_restart(g, g.init) == solve_mcg(doubled, doubled.init).value

        prop()

    def test_restart_value_is_half_the_oracle_on_the_doubled_graph(self):
        """Against the brute-force oracle on the doubled graph, with sinks, forced chains
        and forced cycles.  The explicit games have single-successor positions that are
        not forced, a self-loop and the kept position of a forced cycle, where a restart
        must be offered."""
        pytest.importorskip("hypothesis")
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        loops = graph_of({"v0": (TESTER, 1, ("v1", "v2")), "v1": (SUT, 1, ("v1",)),
                          "v2": (TESTER, 1, ("v2",))}, init="v0")

        @settings(max_examples=100)
        @given(g=_games(st, sinks=True, forced=True))
        @example(g=loops)
        @example(g=parse_game_graph(FORCED_CYCLES_TEXT))
        def prop(g):
            doubled = restart_double(g)
            assert 2 * solve_mcg_restart(g, g.init) == oracle_mcg(doubled, doubled.init)

        prop()

    def test_policy_moves_keep_the_value(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=100)
        @given(g=_games(st, sinks=False))
        def prop(g):
            res = solve_mcg(g, g.init)

            def value(v, covered):  # a settled state reads its value through jump
                packed = res._pack(v, covered)
                p = packed & ((1 << res._arena.shift) - 1)
                return res._arena.read(res._values, (packed - p) | res._arena.jump[p])

            for (v, covered), u in res.tester_policy().items():
                assert value(u, covered | {u}) == value(v, covered)
            for (v, covered), u in res.sut_policy().items():
                assert value(u, covered | {u}) == min(value(w, covered | {w}) for w in g.edges[v])

        prop()


class TestReducedSolve:
    """``solve_mcg`` takes its value from the reduced exploration, in which a move into
    a forcing group covers the whole group, and builds the full table once, only for
    the answers that need it."""

    def test_reduced_tables_agree_with_the_full_ones(self):
        """Plain and restart arenas with sinks and self-loops: the reduced solve gives the
        full table's value and root tester choice, each of its entries equals the full
        table's value at that state (read through ``jump``), and it enters only states
        that are reachable or that the full table explores beyond them: a move into a
        forcing group that no walk inside it covers may be worth an unreachable state.
        A restart arena of an SUT root with moves keeps the root's SUT copy in the root's
        layer, so there the root's layer is the root and its copy."""
        pytest.importorskip("hypothesis")
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        def states(arena, layers):
            return {mask << arena.shift | p for mask, members in layers.items() for p in members}

        @settings(max_examples=100)
        @given(h=_games(st, sinks=True))
        @example(h=_split_return(True))
        @example(h=_split_return(False))
        def prop(h):
            g = GameGraph(h.nodes, {v: moves or (v,) for v, moves in h.edges.items()}, h.init)
            plain = _node_arena(g, g.init, 20)
            for arena in [plain, _restart_arena(g, g.init, 20), _restart_arena(h, h.init, 20)]:
                full, full_layers = arena.full_table()
                value = arena.read(full, arena.jump[arena.root])
                reduced_value, _states, reduced = arena.solve()
                layers = arena.explore(arena.jump, [arena.step[arena.root]])[0]
                assert reduced_value == value
                root, mask = arena.root, arena.bits[arena.root]
                copy = arena.index.get((arena.ids[root], SUT))
                if copy is None:
                    assert layers[mask] == full_layers[mask] == [root]
                    choices = [arena.choices(mask, [root], table) for table in (reduced, full)]
                    assert choices[0] == choices[1]
                else:
                    assert arena is not plain and full_layers[mask] == [root, copy]
                for packed in states(arena, layers):
                    p = packed & ((1 << arena.shift) - 1)
                    assert arena.read(full, (packed - p) | arena.jump[p]) == arena.read(reduced, packed)
                reachable = states(arena, full_layers)
                assert states(arena, layers) <= reachable | _extra_states(arena, reachable)
                if arena is plain and g.is_tester(g.init):
                    expected = arena.ids[choices[1].get(root, arena.succ[root][0])]
                    assert solve_mcg(g, g.init).tester_move(g.init, {g.init}) == expected

        prop()

    def test_reduced_states_with_the_root_in_a_tester_group(self):
        # the full exploration of this graph has 321,853 states
        g = generate_random(26, 0.3, 1, 2, 2)
        res = solve_mcg(g, g.init, cap=64)
        assert (res.value, res._arena.solve()[1]) == (20, 312)
        assert res.tester_move(g.init, {g.init}) == "n01"
        assert "_full" not in vars(res)

    @pytest.mark.parametrize("use", [
        lambda res: res.states_explored,
        lambda res: res._values,
        lambda res: res._layers,
        lambda res: res.tester_policy(),
        lambda res: res.sut_policy(),
        lambda res: res.sut_move("v3", {"v0", "v1", "v3"}),
        lambda res: res.tester_move("v1", {"v0", "v1"}),
        # covers the root and v1, but no play reaches v1 with v2 and not v3
        lambda res: pytest.raises(KeyError, res.tester_move, "v1", {"v0", "v1", "v2"}),
    ], ids=["states_explored", "values", "layers", "tester_policy", "sut_policy", "sut_move",
            "tester_move", "unreached_state"])
    def test_full_table_is_built_once_on_first_use(self, mirror, monkeypatch, use):
        explored, tables = [], []
        explore, full_table = _Arena.explore, _Arena.full_table

        def explore_spy(arena, *args, **kwargs):
            explored.append(arena)
            return explore(arena, *args, **kwargs)

        def full_table_spy(arena, *args, **kwargs):
            tables.append(arena)
            return full_table(arena, *args, **kwargs)

        monkeypatch.setattr(_Arena, "explore", explore_spy)
        monkeypatch.setattr(_Arena, "full_table", full_table_spy)
        res = solve_mcg(mirror, "v0")
        assert (res.value, res.tester_move("v0", {"v0"})) == (3, "v1")
        assert (len(explored), len(tables)) == (1, 0)
        use(res)
        assert len(tables) == 1
        assert res.states_explored > 0
        res.tester_policy()
        res.sut_policy()
        assert len(tables) == 1

    @pytest.mark.parametrize("node, covered", [("v1", {"v1"}), ("v0", set()), ("v3", {"v0", "v1"})])
    def test_lookup_without_the_root_or_the_node_raises_at_once(self, mirror, monkeypatch,
                                                                 node, covered):
        calls = []
        explore = _Arena.explore

        def spy(arena, *args, **kwargs):
            calls.append(arena)
            return explore(arena, *args, **kwargs)

        monkeypatch.setattr(_Arena, "explore", spy)
        res = solve_mcg(mirror, "v0")
        move = res.tester_move if mirror.is_tester(node) else res.sut_move
        with pytest.raises(KeyError):
            move(node, covered)
        assert len(calls) == 1
        assert "_full" not in vars(res)

    def test_lookups_and_the_full_table_take_no_part_in_equality(self, mirror):
        res = solve_mcg(mirror, "v0")
        res.tester_move("v0", {"v0"})
        assert res == solve_mcg(mirror, "v0")
        res.sut_policy()
        assert res == solve_mcg(mirror, "v0") == res


class TestBoundedRootSolve:
    """``solve_mcg`` and ``solve_mcg_restart`` take the root value from
    ``_Arena.root_value``, which explores only the masks of gain below a bound that
    deepens by rounds.  With a first budget of one state, games of 1-9 nodes are cut at
    every gain level, and each answer must still equal the full solve's and the
    oracle's."""

    @staticmethod
    def _rounds(monkeypatch) -> list[tuple[int, bool]]:
        """Record each exploration's states and whether it left masks unexplored."""
        rounds = []
        explore = _Arena.explore

        def spy(arena, *args, **kwargs):
            layers, mask_gain = explore(arena, *args, **kwargs)
            rounds.append((sum(map(len, layers.values())), mask_gain.keys() != layers.keys()))
            return layers, mask_gain

        monkeypatch.setattr(_Arena, "explore", spy)
        return rounds

    @staticmethod
    def _check_cut_solves(g: GameGraph, rounds: list, cuts: set):
        """Value, root tester choices and restart value of the cut root solves against
        ``_Arena.solve()`` and the oracle; ``cuts`` collects the rounds each took."""
        rounds.clear()
        res = solve_mcg(g, g.init)
        cuts.add(len(rounds))
        arena, mask = res._arena, res._arena.bits[res._arena.root]
        value, _states, values = arena.solve()
        assert res.value == value == oracle_mcg(g, g.init)
        assert res._choices == {mask: arena.choices(mask, [arena.root], values)}
        restart = solve_mcg_restart(g, g.init)
        doubled = restart_double(g)
        assert restart == _restart_arena(g, g.init, 20).solve()[0]
        assert 2 * restart == oracle_mcg(doubled, doubled.init)

    @pytest.mark.parametrize("wide", [False, True], ids=["gains_0_5", "wide_rows"])
    def test_cut_at_every_gain_level_keeps_the_answers(self, monkeypatch, wide):
        """Gains 0-5 give masks of equal gain and different popcounts, and wide gains
        list rows; both must be cut, some more than once."""
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        monkeypatch.setattr("ncgames.arena._FIRST_BUDGET", 1)
        rounds, cuts = self._rounds(monkeypatch), set()

        @settings(max_examples=200)
        @given(g=_wide_games(st) if wide else _games(st, sinks=False, forced=True))
        def prop(g):
            self._check_cut_solves(g, rounds, cuts)

        prop()
        assert {2, 3} <= cuts

    def test_bound_of_every_gain_fits_a_byte_row(self, monkeypatch):
        # gains 5, 100 and 150 sum to 255: the second round stops below the gain level
        # 255 and reads its exits from a byte row of 255
        monkeypatch.setattr("ncgames.arena._FIRST_BUDGET", 1)
        g = graph_of({"r": (TESTER, 5, ("a", "b")), "a": (TESTER, 100, ("a",)),
                      "b": (SUT, 150, ("b", "r"))}, init="r")
        arena = _node_arena(g, "r", 20)
        rounds = self._rounds(monkeypatch)
        value, values = arena.root_value()
        assert (value, rounds) == (155, [(1, True), (4, True)])
        assert values[0b111] == bytearray([255] * 3)
        self._check_cut_solves(g, rounds, set())
        assert solve_mcg(g, "r").tester_move("r", {"r"}) == "b"

    @pytest.mark.parametrize("restart, n, seed, value, explored, states", [
        (False, 24, 1, 5, [86], 4_023),
        (False, 26, 1, 11, [76, 427], 24_832),
        (False, 26, 2, 20, [136], 312),
        (False, 26, 3, 20, [67], 537),
        (False, 28, 1, 13, [80, 330], 18_165),
        (False, 28, 3, 7, [66], 9_752),
        (True, 18, 1, 17, [79], 79),
        (True, 20, 0, 19, [73], 73),
    ])
    def test_benchmark_graphs_explore_a_few_states(self, monkeypatch, restart, n, seed, value,
                                                   explored, states):
        """The states each round of the root solve explores on the benchmark's solve
        and restart graphs, against those of ``_Arena.solve()``."""
        g = generate_random(n, 0.3, 1, 2, seed)
        arena = (_restart_arena if restart else _node_arena)(g, g.init, 64)
        assert arena.solve()[:2] == (value, states)
        rounds = self._rounds(monkeypatch)
        if restart:
            assert solve_mcg_restart(g, g.init, cap=64) == value
        else:
            assert solve_mcg(g, g.init, cap=64).value == value
        assert [count for count, _cut in rounds] == explored


def _product_states(g: GameGraph, r: str, sut) -> int:
    """Reachable (node, SUT state, covered set) triples against a fixed SUT,
    counted by a plain search independent of the solver."""
    start = (r, sut.transition(sut.initial_state(), r), frozenset({r}))
    seen = {start}
    stack = [start]
    while stack:
        v, s, covered = stack.pop()
        moves = g.edges[v] if g.owner(v) == TESTER else (sut.choose(s, v),)
        for u in moves:
            nxt = (u, sut.transition(s, u), covered | {u})
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen)


def _best_response_work(g: GameGraph, r: str, sut) -> tuple[int, int, int]:
    """The best response's value, its positions and the states of its one exploration,
    which must run along ``jump``, read with an ``_Arena.explore`` spy."""
    calls = []
    explore = _Arena.explore

    def spy(arena, enter, starts, state_cap=math.inf):
        layers, mask_gain = explore(arena, enter, starts, state_cap)
        calls.append((arena, enter, sum(map(len, layers.values()))))
        return layers, mask_gain

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Arena, "explore", spy)
        value = best_response_gain(g, r, sut)
    [(arena, enter, states)] = calls
    assert enter is arena.jump
    return value, len(arena.succ), states


def _last_successor_sut(g: GameGraph) -> PositionalStrategy:
    return PositionalStrategy(SUT, {v: g.edges[v][-1] for v in g.nodes if g.owner(v) == SUT})


class TestStateCap:
    """An exploration's ``state_cap`` counts the product states it enters, its starts
    included: a cap equal to the count passes, one lower fails, and a start state is
    always admitted, so only a count above max(state_cap, 1) raises.  A best response's
    cap bounds both its (node, SUT state) positions and the states its root solve
    enters, never more than the reachable product states, so a cap of the larger passes
    and one lower fails."""

    @pytest.mark.parametrize("restart", [False, True])
    @pytest.mark.parametrize("seed", [None, 3, 6])
    def test_arena_cap_boundary(self, mirror, restart, seed):
        g = mirror if seed is None else generate_random(10 + seed, 0.4, 1, 3, seed)
        arena = (_restart_arena if restart else _node_arena)(g, g.init, 20)
        start = (arena.step[arena.root],)
        layers = arena.explore(arena.step, start)[0]
        states = sum(map(len, layers.values()))
        assert arena.explore(arena.step, start, states)[0] == layers
        with pytest.raises(CapacityError, match=rf"^search state space exceeds cap {states - 1}$"):
            arena.explore(arena.step, start, states - 1)

    @pytest.mark.parametrize("restart", [False, True])
    def test_root_state_is_always_admitted(self, restart):
        build = _restart_arena if restart else _node_arena
        loop = build(graph_of({"a": (TESTER, 1, ("a",))}, init="a"), "a", 20)
        assert loop.explore(loop.step, (loop.step[loop.root],), 0)[0] == {1: [0]}
        pair = build(graph_of({"a": (TESTER, 1, ("b",)), "b": (SUT, 1, ("a",))}, init="a"), "a", 20)
        for cap in (0, 1):
            with pytest.raises(CapacityError, match=rf"^search state space exceeds cap {cap}$"):
                pair.explore(pair.step, (pair.step[pair.root],), cap)

    @pytest.mark.parametrize("seed", [None, 3, 6])
    def test_best_response_cap_boundary(self, mirror, seed):
        g = mirror if seed is None else generate_random(10 + seed, 0.4, 1, 3, seed)
        sut = _last_successor_sut(g)
        value, positions, states = _best_response_work(g, g.init, sut)
        cap = max(positions, states)
        assert best_response_gain(g, g.init, sut, state_cap=cap) == value
        with pytest.raises(CapacityError, match=rf"^search state space exceeds cap {cap - 1}$"):
            best_response_gain(g, g.init, sut, state_cap=cap - 1)

    def test_best_response_cap_below_the_reachable_states(self):
        """The cap counts the work the search does, not every reachable product state:
        947 are reachable here, but 16 positions and 9 solve states pass a cap of 16."""
        g = generate_random(16, 0.4, 1, 3, 6)
        sut = _last_successor_sut(g)
        assert _product_states(g, g.init, sut) == 947
        assert _best_response_work(g, g.init, sut)[1:] == (16, 9)
        assert best_response_gain(g, g.init, sut, state_cap=16) == best_response_gain(g, g.init, sut)

    def test_best_response_cap_is_never_stricter(self):
        """Every state the solve enters is reachable along ``step`` and every position
        holds one, so neither count exceeds the reachable product states, against the
        optimal SUT and against the witness SUT wherever extraction succeeds."""
        checked = 0
        for seed in range(200):
            g = generate_random(3 + seed % 10, (0, 0.3, 0.6, 1)[seed % 4], 1, 1 + seed // 4 % 3, seed)
            res = solve_mcg(g, g.init)
            res.sut_policy()  # the optimal SUT reads its moves off this full table
            suts = [extract_optimal_sut(res)]
            try:
                suts.append(witness_guided_sut(g, extract_witness(g, g.init, subset_cap=4096)))
            except ExtractionError:
                pass
            for sut in suts:
                _, positions, states = _best_response_work(g, g.init, sut)
                assert max(positions, states) <= _product_states(g, g.init, sut), seed
                checked += 1
        assert checked > 300

    def test_best_response_one_state(self):
        loop = graph_of({"a": (TESTER, 1, ("a",))}, init="a")
        assert best_response_gain(loop, "a", PositionalStrategy(2, {}), state_cap=0) == 1

    def test_best_responses_build_no_full_table(self, mirror, monkeypatch):
        """A best response is one root solve: it explores once, along ``jump``, and
        builds no full table.  The optimal SUT reads its moves off its own solve's full
        table, built before the patch."""
        res = solve_mcg(mirror, "v0")
        res.sut_policy()
        games = [(mirror, extract_optimal_sut(res), 3)]
        for n, seed, bound in [(16, 0, 16), (18, 1, 17)]:
            g = generate_random(n, 0.3, 1, 2, seed)
            w = extract_witness(g, g.init)
            assert w.entries[g.init].bound == bound
            games.append((g, witness_guided_sut(g, w), bound))

        def no_full_table(*args):
            raise AssertionError("full table built")

        monkeypatch.setattr(_Arena, "full_table", no_full_table)
        for g, sut, value in games:
            assert _best_response_work(g, g.init, sut)[0] == value


class TestLookupEdges:
    def test_sut_move_on_tester_state(self, mirror):
        res = solve_mcg(mirror, "v0")
        with pytest.raises(KeyError):
            res.sut_move("v0", {"v0"})

    def test_tester_move_on_sut_state(self, mirror):
        res = solve_mcg(mirror, "v0")
        assert res.sut_move("v3", {"v0", "v1", "v3"}) in mirror.edges["v3"]
        with pytest.raises(KeyError):
            res.tester_move("v3", {"v0", "v1", "v3"})

    def test_unreached_covered_set(self, mirror):
        # plays from v0 reach v3 only through v1 or v2, so (v3, {v0, v3}) is
        # never reached, although both of its successor states are
        res = solve_mcg(mirror, "v0")
        with pytest.raises(KeyError):
            res.tester_move("v1", {"v1"})
        with pytest.raises(StrategyError, match="no policy entry"):
            extract_optimal_sut(res).choose(frozenset({"v0", "v3"}), "v3")
