"""CNF parsing, the SAT game construction, and restart doubling."""
from __future__ import annotations

import random
from itertools import combinations

import pytest

from conftest import graph_of
from ncgames.errors import CapacityError, ParseError
from ncgames.graph import SUT, TESTER, validate
from ncgames.reductions import (
    Cnf,
    brute_force_sat,
    parse_dimacs,
    restart_double,
    sat_to_ncgame,
)
from ncgames.solver import oracle_mcg, solve_mcg, solve_mcg_restart
from ncgames.graph import generate_random


class TestParseDimacs:
    def test_three_var_two_clause(self):
        f = parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 -2 0\n")
        assert f.variable_count == 3
        assert f.clauses == (frozenset({1, 2, 3}), frozenset({-1, -2}))

    def test_unit_clause(self):
        f = parse_dimacs("p cnf 1 1\n1 0\n")
        assert f == Cnf(1, (frozenset({1}),))

    def test_empty_clause_rejected(self):
        with pytest.raises(ParseError, match="empty clause"):
            parse_dimacs("p cnf 1 1\n0\n")

    def test_comments_and_multiline_clauses(self):
        f = parse_dimacs("c a comment\np cnf 2 1\n1\n-2 0\n")
        assert f.clauses == (frozenset({1, -2}),)

    def test_duplicate_literals_collapse(self):
        f = parse_dimacs("p cnf 1 1\n1 1 1 0\n")
        assert f.clauses == (frozenset({1}),)

    def test_clause_count_mismatch(self):
        with pytest.raises(ParseError, match="declares 2 clauses"):
            parse_dimacs("p cnf 1 2\n1 0\n")

    def test_literal_out_of_range(self):
        with pytest.raises(ParseError, match="outside variable range"):
            parse_dimacs("p cnf 1 1\n2 0\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_dimacs("1 0\n")

    def test_satlib_trailer_ends_input(self):
        text = "p cnf 3 2\n1 2 3 0\n-1 -2 0\n"
        assert parse_dimacs(text + "%\n0\n") == parse_dimacs(text)

    def test_unterminated_clause(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse_dimacs("p cnf 1 1\n1\n")


class TestSatGame:
    def test_sizes_and_threshold(self):
        f = parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 -2 0\n")
        g, threshold = sat_to_ncgame(f)
        assert len(g.nodes) == 12  # m + 3n + 1
        assert threshold == 9  # m + 2n + 1
        assert g.init == "dx1"
        assert validate(g, strict=True) == []

    def test_contradiction_sizes(self):
        g, threshold = sat_to_ncgame(Cnf(1, (frozenset({1}), frozenset({-1}))))
        assert len(g.nodes) == 6
        assert threshold == 5

    def test_ownership_and_wiring(self):
        f = parse_dimacs("p cnf 2 1\n1 -2 0\n")
        g, _ = sat_to_ncgame(f)
        assert g.owner("dx1") == SUT and g.owner("c1") == SUT
        assert g.owner("x1") == TESTER and g.owner("nx2") == TESTER and g.owner("y") == TESTER
        assert g.successors("dx1") == ("nx1", "x1")
        assert g.successors("x1") == ("dx2",)
        assert g.successors("x2") == ("y",)
        assert g.successors("y") == ("c1",)
        assert g.successors("c1") == ("nx2", "x1")

    def test_tautological_clause_kept(self):
        g, _ = sat_to_ncgame(Cnf(1, (frozenset({1, -1}),)))
        assert g.successors("c1") == ("nx1", "x1")
        assert validate(g, strict=True) == []

    def test_clause_free_formula_rejected(self):
        with pytest.raises(ValueError, match="at least one clause"):
            sat_to_ncgame(Cnf(2, ()))

    def test_value_equivalence_sample(self):
        rng = random.Random(61)
        lits3 = [1, 2, 3, -1, -2, -3]
        for _ in range(40):
            m = rng.randint(1, 3)
            clauses = []
            for _ in range(m):
                size = rng.randint(1, 3)
                clauses.append(frozenset(rng.sample(lits3, size)))
            f = Cnf(3, tuple(clauses))
            g, threshold = sat_to_ncgame(f)
            value = solve_mcg(g, g.init).value
            if brute_force_sat(f):
                assert value == threshold
            else:
                assert value > threshold


class TestBruteForceSat:
    def test_satisfiable(self):
        f = parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 -2 0\n")
        assert brute_force_sat(f)

    def test_contradiction(self):
        assert not brute_force_sat(Cnf(1, (frozenset({1}), frozenset({-1}))))

    def test_empty_clause_list(self):
        assert brute_force_sat(Cnf(3, ()))

    def test_variable_cap(self):
        with pytest.raises(CapacityError):
            brute_force_sat(Cnf(25, (frozenset({1}),)))

    def test_agrees_with_resolution_free_cases(self):
        # all single-clause formulas are satisfiable (clauses are nonempty)
        for size in (1, 2, 3):
            for clause in combinations([1, -1, 2, -2], size):
                assert brute_force_sat(Cnf(2, (frozenset(clause),)))


class TestRestartDouble:
    def test_node_count_doubles(self, mirror):
        doubled = restart_double(mirror)
        assert len(doubled.nodes) == 8
        assert doubled.init == "v0__in"
        assert validate(doubled, strict=True) == []

    def test_entry_halves_offer_restart(self, mirror):
        doubled = restart_double(mirror)
        assert doubled.successors("v3__in") == ("v0__in", "v3__out")
        assert doubled.owner("v3__in") == TESTER
        assert doubled.owner("v3__out") == SUT
        assert doubled.successors("v3__out") == ("v1__in", "v2__in")

    def test_sink_exit_half_returns_to_start(self):
        g = graph_of(
            {"a": (TESTER, 1, ("s",)), "s": (SUT, 2, ())},
            init="a",
        )
        doubled = restart_double(g)
        assert doubled.successors("s__out") == ("a__in",)
        assert validate(doubled, strict=True) == []

    def test_total_gain_doubles(self):
        rng = random.Random(67)
        for i in range(20):
            n = rng.randint(1, 6)
            g = generate_random(n, 0.5, 1, min(2, n), seed=1700 + i).map_gains(
                lambda _v, _gain: rng.randint(0, 4)
            )
            doubled = restart_double(g)
            assert sum(info.gain for info in doubled.nodes.values()) == 2 * sum(
                info.gain for info in g.nodes.values()
            )

    def test_self_loop_equivalence(self):
        g = graph_of({"a": (TESTER, 1, ("a",))}, init="a")
        doubled = restart_double(g)
        assert solve_mcg(doubled, doubled.init).value == 2
        assert solve_mcg_restart(g, "a") == 1

    def test_doubling_equality_sample(self):
        rng = random.Random(71)
        for i in range(25):
            n = rng.randint(1, 7)
            g = generate_random(n, 0.5, 1, min(3, n), seed=1800 + i)
            doubled = restart_double(g)
            assert solve_mcg(doubled, doubled.init).value == 2 * solve_mcg_restart(g, g.init)
            assert oracle_mcg(doubled, doubled.init) == 2 * solve_mcg_restart(g, g.init)

    def test_name_collisions_avoided(self):
        g = graph_of(
            {"a": (TESTER, 1, ("a__out",)), "a__out": (SUT, 1, ("a",))},
            init="a",
        )
        doubled = restart_double(g)
        assert len(doubled.nodes) == 4
        assert "a__out__in" in doubled.nodes and "a__out" in doubled.nodes
