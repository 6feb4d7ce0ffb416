"""Certificates: consistency check, guided SUT, extraction, normalization."""
from __future__ import annotations

import hashlib
import random

import pytest

from conftest import MIRROR_WITNESS_TEXT, first_consistent, graph_of
from ncgames.errors import CapacityError, ExtractionError, ParseError, StrategyError, ValidationError
from ncgames.graph import SUT, TESTER, coverage_gain, generate_random, reachable
from ncgames.play import PositionalStrategy, best_response_gain, simulate_play
from ncgames.solver import solve_mcg
from ncgames.witness import (
    Witness,
    WitnessEntry,
    check_witness,
    extract_witness,
    normalize_gains,
    parse_witness,
    serialize_witness,
    witness_guided_sut,
)


def mirror_witness() -> Witness:
    return parse_witness(MIRROR_WITNESS_TEXT)


class TestCheckWitness:
    def test_mirror_witness_consistent(self, mirror):
        assert check_witness(mirror, mirror_witness()) == []

    def test_perturbed_bound_rejected(self, mirror):
        w = mirror_witness()
        broken = Witness({**w.entries, "v0": WitnessEntry(2, frozenset(["v0"]))})
        violations = check_witness(mirror, broken)
        assert violations == ["v0: containment case expects bound 3, got 2"]

    def test_forced_singleton_equation(self):
        g = graph_of(
            {"u": (TESTER, 1, ("u",)), "v": (SUT, 1, ("u",))},
            init="v",
        )
        good = Witness(
            {
                "u": WitnessEntry(1, frozenset(["u"])),
                "v": WitnessEntry(2, frozenset(["v"])),
            }
        )
        assert check_witness(g, good) == []
        bad = Witness({**good.entries, "v": WitnessEntry(3, frozenset(["v"]))})
        assert check_witness(g, bad) == ["v: singleton case expects bound 2, got 3"]

    def test_missing_entry_reported(self, mirror):
        w = Witness({"v0": WitnessEntry(3, frozenset(["v0"]))})
        violations = check_witness(mirror, w)
        assert any("missing entry" in v for v in violations)

    def test_structural_rule_violation(self, mirror):
        # v3 is an SUT node; a containment set {v0, v3} leaves it no inside move
        w = mirror_witness()
        broken = Witness({**w.entries, "v0": WitnessEntry(3, frozenset(["v0", "v3"]))})
        violations = check_witness(mirror, broken)
        assert any("no successor inside" in v for v in violations)

    def test_gain_below_one_rejected(self):
        g = graph_of({"a": (TESTER, 0, ("a",))}, init="a")
        w = Witness({"a": WitnessEntry(0, frozenset(["a"]))})
        assert check_witness(g, w) == ["graph has a gain below 1; normalize gains first"]

    def test_self_loop_singleton_is_containment_case(self):
        # singleton SUT entry with a self-loop: the node can sit there forever
        g = graph_of(
            {"a": (SUT, 1, ("a", "b")), "b": (TESTER, 1, ("a",))},
            init="a",
        )
        w = Witness(
            {
                "a": WitnessEntry(1, frozenset(["a"])),
                "b": WitnessEntry(2, frozenset(["a", "b"])),
            }
        )
        assert check_witness(g, w) == []


# a <-> b is all the certificate covers; c, which leads into it, is unreachable from a
UNCOVERED = graph_of(
    {"a": (TESTER, 1, ("b",)), "b": (SUT, 1, ("a",)), "c": (TESTER, 1, ("a",))},
    init="a",
)


class TestGuidedSut:
    def test_mirror_branch_left(self, mirror):
        guided = witness_guided_sut(mirror, mirror_witness())
        s1 = PositionalStrategy(1, {"v0": "v1", "v1": "v3", "v2": "v3"})
        play = simulate_play(mirror, "v0", s1, guided, 8)
        assert set(play) == {"v0", "v1", "v3"}

    def test_mirror_branch_right(self, mirror):
        guided = witness_guided_sut(mirror, mirror_witness())
        s1 = PositionalStrategy(1, {"v0": "v2", "v1": "v3", "v2": "v3"})
        play = simulate_play(mirror, "v0", s1, guided, 8)
        assert set(play) == {"v0", "v2", "v3"}

    def test_mirror_bound_is_tight(self, mirror):
        guided = witness_guided_sut(mirror, mirror_witness())
        assert best_response_gain(mirror, "v0", guided) == 3

    def test_inconsistent_witness_rejected(self, mirror):
        w = mirror_witness()
        broken = Witness({**w.entries, "v0": WitnessEntry(2, frozenset(["v0"]))})
        with pytest.raises(ValidationError, match="inconsistent witness"):
            witness_guided_sut(mirror, broken)

    def test_soundness_on_random_graphs(self):
        rng = random.Random(41)
        for i in range(30):
            n = rng.randint(1, 8)
            g = generate_random(n, 0.5, 1, min(3, n), seed=1300 + i)
            w = extract_witness(g, g.init)
            guided = witness_guided_sut(g, w)
            for v in sorted(reachable(g, g.init)):
                assert best_response_gain(g, v, guided) <= w.entries[v].bound

    @pytest.mark.parametrize(
        "run",
        [
            lambda g, sut: simulate_play(g, "c", lambda prefix: "a", sut, 5),
            lambda g, sut: best_response_gain(g, "c", sut),
        ],
        ids=["simulate_play", "best_response_gain"],
    )
    def test_uncovered_node_is_strategy_error(self, run):
        guided = witness_guided_sut(UNCOVERED, extract_witness(UNCOVERED, UNCOVERED.init))
        with pytest.raises(StrategyError) as info:
            run(UNCOVERED, guided)
        assert str(info.value) == (
            "no witness entry for node `c`; the certificate covers the nodes reachable from `a`"
        )


class TestExtractWitness:
    def test_mirror_extraction(self, mirror):
        w = extract_witness(mirror, "v0")
        assert check_witness(mirror, w) == []
        assert w.entries["v0"].bound == 3
        assert w.entries["v1"].bound == 2

    def test_unknown_root(self, mirror):
        with pytest.raises(ValueError, match="unknown node `zz`"):
            extract_witness(mirror, "zz")

    def test_tester_cycle_containment_is_the_cycle(self):
        g = graph_of(
            {
                "a": (TESTER, 1, ("b",)),
                "b": (TESTER, 1, ("c",)),
                "c": (TESTER, 1, ("a",)),
            },
            init="a",
        )
        w = extract_witness(g, "a")
        assert w.entries["a"] == WitnessEntry(3, frozenset(["a", "b", "c"]))

    def test_matches_solver_on_random_graphs(self):
        rng = random.Random(43)
        for i in range(30):
            n = rng.randint(1, 8)
            g = generate_random(n, 0.5, 1, min(3, n), seed=1400 + i)
            w = extract_witness(g, g.init)
            assert check_witness(g, w) == []
            assert w.entries[g.init].bound == solve_mcg(g, g.init).value

    def test_zero_gain_rejected(self):
        g = graph_of({"a": (TESTER, 0, ("a",))}, init="a")
        with pytest.raises(ValidationError, match="normalize"):
            extract_witness(g, "a")

    def test_node_cap_names_the_first_node_over_it(self):
        # r reaches 4 nodes and a, the first in id order, 3: the cap applies per node
        g = graph_of(
            {"r": (TESTER, 1, ("a",)), "a": (TESTER, 1, ("b",)), "b": (SUT, 1, ("c",)),
             "c": (TESTER, 1, ("a",))},
            init="r",
        )
        with pytest.raises(CapacityError) as exc:
            extract_witness(g, "r", cap=2)
        assert str(exc.value) == "3 reachable nodes exceed the solver cap 2"
        assert not isinstance(exc.value, ExtractionError)
        assert extract_witness(g, "r", cap=4) == extract_witness(g, "r")

    def test_subset_cap_failure_is_reported(self, mirror):
        with pytest.raises(ExtractionError, match="no containment set"):
            extract_witness(mirror, "v0", subset_cap=0)

    @pytest.mark.parametrize(
        "n, seed, digest",
        [
            (9, 0, "344803593b8c43ec8fe88e268017e61a83f71214de8f59750aa61f288572e130"),
            (11, 0, "4f9762857d41438f7df37171fe547cd2f95deb37864e292ba205efdfc22f39ac"),
            (13, 3, "751f97467dc623164d5ea1588d565a15229bc1383d7722519e0c9ab7c0e12aa4"),
            (15, 2, "4ed2014a96a7699bc62ec271a4232dd5d8926a34f1b438a37fecaf4bf710ac5d"),
            (15, 3, "df8480d781b75caaa463bb11afcd48cbcfca8932c3393df70283b9a08fff49f6"),
            (16, 1, "7a0e922fe502c223189be6c8131404929d75f1cb83f1dda94b103a5425355943"),
        ],
    )
    def test_golden_witness_text(self, n, seed, digest):
        # pinned: the search order, and so every extracted set, must not drift
        g = generate_random(n, 0.3, 1, 2, seed)
        text = serialize_witness(extract_witness(g, g.init))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("n, seed", [(9, 1), (10, 2)])
    def test_subset_cap_counts_candidates(self, n, seed):
        g = generate_random(n, 0.3, 1, 2, seed)
        w = extract_witness(g, g.init)
        found_at = {v: first_consistent(g, w, v)[0] for v in sorted(w.entries)}
        assert max(found_at.values()) > 200  # far enough in that blocks are ruled out at once
        for k in sorted(set(found_at.values())):
            # the first node extraction visits whose set lies beyond the cap fails
            short = min(v for v in found_at if found_at[v] >= k)
            with pytest.raises(ExtractionError) as exc:
                extract_witness(g, g.init, subset_cap=k - 1)
            assert str(exc.value).startswith(
                f"no containment set found for `{short}` (bound {w.entries[short].bound}) "
                f"among the first {k - 1} candidates (subset_cap); instance:\n"
            )
        assert extract_witness(g, g.init, subset_cap=k) == w

    def test_skipped_levels_count_in_full_at_the_default_cap(self):
        # 17 of the 18 nodes find their set at candidate 65,526 or 65,527, and only
        # level 15 can hold one: levels 1-14 are skipped whole, charged what a walk would
        g = generate_random(18, 0.3, 1, 2, 1)
        with pytest.raises(ExtractionError) as exc:
            extract_witness(g, g.init, subset_cap=65_526)
        assert str(exc.value).startswith(
            "no containment set found for `n01` (bound 16) among the first 65526 candidates"
        )
        text = serialize_witness(extract_witness(g, g.init, subset_cap=65_527))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "695fc00b1396aa81aaad08c5acc5b4080ef695721fdd7edade38db4e65746f00"
        )

    def test_forced_exits_leave_out_the_sets_own_nodes(self):
        # for n01, {n00, n01} has the exits n02 (bound 1) and n03 (bound 4) and the edge
        # n00 -> n01 inside: one exit above the slack of 1 is forced, so n03 absorbs it
        g = generate_random(4, 0.3, 1, 2, 0)
        entry = extract_witness(g, g.init).entries["n01"]
        assert entry == WitnessEntry(4, frozenset({"n00", "n01", "n03"}))


class TestNormalizeGains:
    def test_formula_instances(self):
        g = graph_of(
            {
                "a": (TESTER, 0, ("b",)),
                "b": (TESTER, 2, ("c",)),
                "c": (SUT, 1, ("d", "a")),
                "d": (TESTER, 0, ("a",)),
            },
            init="a",
        )
        normalized = normalize_gains(g)
        assert normalized.gain("a") == 1
        assert normalized.gain("b") == 9
        assert normalized.gain("c") == 5
        assert len(normalized.nodes) == len(g.nodes)
        assert normalized.edges == g.edges

    def test_zero_gain_graph_certified_after_normalization(self):
        rng = random.Random(48)
        for i in range(10):
            n = rng.randint(2, 6)
            g = generate_random(n, 0.5, 1, 2, seed=1550 + i).map_gains(
                lambda _v, _gain: rng.randint(0, 2)
            )
            normalized = normalize_gains(g)
            w = extract_witness(normalized, normalized.init)
            assert check_witness(normalized, w) == []
            assert w.entries[normalized.init].bound == solve_mcg(
                normalized, normalized.init
            ).value

    def test_normalized_tester_policy_stays_optimal(self):
        # worst case of the normalized policy, evaluated on the original gains
        rng = random.Random(47)
        for i in range(25):
            n = rng.randint(1, 5)
            g = generate_random(n, 0.5, 1, min(2, n), seed=1500 + i).map_gains(
                lambda _v, _gain: rng.randint(0, 3)
            )
            normalized = normalize_gains(g)
            res = solve_mcg(normalized, normalized.init)
            worst = _policy_worst_case(g, res)
            assert worst == solve_mcg(g, g.init).value


def _policy_worst_case(g, res) -> int:
    """Minimum gain (original ν) the SUT can hold a fixed tester policy to.

    Exhaustive min search over (node, covered) states; revisiting a state
    on the current path closes a cycle and pays the covered set's gain.
    """

    def walk(v: str, covered: frozenset[str], path: set) -> int:
        key = (v, covered)
        if key in path:
            return coverage_gain(g, covered)
        path.add(key)
        if g.owner(v) == TESTER:
            u = res.tester_move(v, covered)
            out = walk(u, covered | {u}, path)
        else:
            out = min(walk(u, covered | {u}, path) for u in g.edges[v])
        path.remove(key)
        return out

    return walk(g.init, frozenset([g.init]), set())


class TestWitnessFiles:
    def test_round_trip(self, mirror):
        w = extract_witness(mirror, "v0")
        assert parse_witness(serialize_witness(w)) == w

    def test_round_trip_random(self):
        rng = random.Random(53)
        for i in range(20):
            n = rng.randint(1, 7)
            g = generate_random(n, 0.5, 1, min(3, n), seed=1600 + i)
            w = extract_witness(g, g.init)
            assert parse_witness(serialize_witness(w)) == w

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="header"):
            parse_witness("nope\n")
        with pytest.raises(ParseError, match="duplicate entry"):
            parse_witness("ncwitness 1\nentry a c=1 P=a\nentry a c=2 P=a\n")
        with pytest.raises(ParseError, match="expected"):
            parse_witness("ncwitness 1\nentry a c=1\n")
