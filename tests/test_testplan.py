"""Suite generation, case execution semantics, budgeted planners, baselines."""
from __future__ import annotations

import random

import pytest

from conftest import graph_of
from ncgames.errors import ParseError, ValidationError
from ncgames.graph import SUT, TESTER, generate_random, reachable
from ncgames.testplan import TestCase as Case, TestSuite as Suite
from ncgames.testplan import (
    PGAIN_STRATEGIES,
    SutResponder,
    _below,
    alpha,
    execute_case,
    generate_static_suite,
    nt_plan,
    parse_suite,
    pgain,
    random_walk,
    serialize_suite,
    static_once,
    validate_suite,
)


class TestStaticSuite:
    def test_mirror_suite(self, mirror):
        suite = generate_static_suite(mirror)
        # target v0 extends v0-v1-v3 and stops (v3's smallest successor v1 is
        # already on the path); v2 then gets its own shortest path
        assert suite.cases == (
            Case("t0", ("v0", "v1", "v3")),
            Case("t1", ("v0", "v2")),
        )
        assert suite.node_union() == reachable(mirror, "v0")
        assert validate_suite(mirror, suite) == []

    def test_single_self_loop(self):
        g = graph_of({"a": (TESTER, 1, ("a",))}, init="a")
        suite = generate_static_suite(g)
        assert suite.cases == (Case("t0", ("a",)),)

    def test_prefix_redundant_cases_dropped(self):
        # the first emitted path (a b) is a prefix of the later (a b c)
        g = graph_of(
            {
                "a": (TESTER, 1, ("b",)),
                "b": (TESTER, 1, ("a", "c")),
                "c": (TESTER, 1, ("c",)),
            },
            init="a",
        )
        suite = generate_static_suite(g)
        assert suite.cases == (Case("t0", ("a", "b", "c")),)

    def test_covers_reachable_on_random_graphs(self):
        rng = random.Random(73)
        for i in range(100):
            n = rng.randint(1, 15)
            g = generate_random(n, 0.5, 1, min(3, n), seed=1900 + i)
            suite = generate_static_suite(g)
            assert suite.node_union() == reachable(g, g.init)
            assert validate_suite(g, suite) == []

    def test_deterministic(self):
        g = generate_random(12, 0.5, 1, 2, seed=77)
        assert serialize_suite(generate_static_suite(g)) == serialize_suite(
            generate_static_suite(g)
        )


class TestAlpha:
    def test_single_sut_position(self, mirror):
        assert alpha(Case("t", ("v0", "v1", "v3", "v2")), mirror) == 1

    def test_no_sut_positions(self, mirror):
        assert alpha(Case("t", ("v0", "v1")), mirror) == 0

    def test_positions_not_distinct_nodes(self, mirror):
        assert alpha(Case("t", ("v0", "v1", "v3", "v1", "v3")), mirror) == 2


class TestPgain:
    def test_s2_zero_when_fully_covered(self):
        # s2 has no random score: its gain is 1 while a case has an
        # uncovered node and 0 after, so a covered case leaves the draw
        g = graph_of(
            {
                "a": (TESTER, 1, ("b",)),
                "b": (TESTER, 1, ("c",)),
                "c": (TESTER, 1, ("c",)),
            },
            init="a",
        )
        suite = Suite((Case("t0", ("a", "b")), Case("t1", ("a", "b")), Case("t2", ("a", "b", "c"))))
        for seed in range(30):
            res = nt_plan(g, suite, 100, "s2", 1, SutResponder(seed), random.Random(seed))
            ids = [rec.case_id for rec in res.log]
            assert ids[-1] == "t2" and len(ids) <= 2

    def test_s3_degenerate_interval(self):
        assert pgain("s3", [0], [0], [1], random.Random(0)) == [0.0]
        assert pgain("s4", [0], [0], [1], random.Random(0)) == [0.0]

    def test_s3_range(self):
        rng = random.Random(1)
        for _ in range(50):
            (score,) = pgain("s3", [0], [4], [1], rng)
            assert 0.0 <= score <= 4.0

    def test_s4_range_divides_by_sut_positions(self, mirror):
        tc = Case("t", ("v0", "v1", "v3", "v1", "v3"))  # u=3 uncovered, alpha=2
        rng = random.Random(2)
        for _ in range(50):
            (score,) = pgain("s4", [0], [len(frozenset(tc.path))], [alpha(tc, mirror)], rng)
            assert 0.0 <= score <= 1.5

    @pytest.mark.parametrize("strategy", ["s3", "s4"])
    def test_one_uniform_draw_per_live_case_in_order(self, strategy):
        uncovered, sut_positions, live = [3, 0, 5, 2], [2, 1, 0, 3], [0, 2, 3]
        rng, reference = random.Random(5), random.Random(5)
        scores = pgain(strategy, live, uncovered, sut_positions, rng)
        divisors = [max(1, a) for a in sut_positions] if strategy == "s4" else [1] * 4
        assert scores == [reference.uniform(0.0, uncovered[i] / divisors[i]) for i in live]
        assert rng.getstate() == reference.getstate()

    def test_no_draw_without_uncovered_nodes(self):
        rng = random.Random(4)
        state = rng.getstate()
        assert pgain("s3", [], [0, 0], [2, 2], rng) == []
        assert pgain("s4", [], [0, 0], [2, 2], rng) == []
        assert rng.getstate() == state

    @pytest.mark.parametrize("strategy", ["s1.5", "s2", "s5"])
    def test_only_random_scores(self, strategy):
        with pytest.raises(ValueError):
            pgain(strategy, [0], [1], [0], random.Random(0))


class TestExecuteCase:
    def test_deterministic_path(self, mirror):
        tc = Case("t", ("v0", "v1", "v3"))  # ends before the SUT would move
        realized, diverged, cost = execute_case(mirror, tc, 100, SutResponder(0))
        assert realized == ("v0", "v1", "v3")
        assert not diverged and cost == 3

    def test_divergence_visits_and_charges(self, mirror):
        tc = Case("t", ("v0", "v1", "v3", "v1"))
        seed = next(
            s for s in range(100) if SutResponder(s).choose(mirror, "v3") == "v2"
        )
        realized, diverged, cost = execute_case(mirror, tc, 100, SutResponder(seed))
        assert realized == ("v0", "v1", "v3", "v2")
        assert diverged and cost == 4

    def test_conforming_response_continues(self, mirror):
        tc = Case("t", ("v0", "v1", "v3", "v1"))
        seed = next(
            s for s in range(100) if SutResponder(s).choose(mirror, "v3") == "v1"
        )
        realized, diverged, cost = execute_case(mirror, tc, 100, SutResponder(seed))
        assert realized == tc.path
        assert not diverged and cost == 4

    def test_budget_truncation(self, mirror):
        tc = Case("t", ("v0", "v1", "v3", "v2"))
        realized, diverged, cost = execute_case(mirror, tc, 2, SutResponder(0))
        assert realized == ("v0", "v1")
        assert not diverged and cost == 2


class TestNtPlan:
    def test_single_deterministic_case(self):
        g = graph_of(
            {
                "a": (TESTER, 1, ("b",)),
                "b": (TESTER, 1, ("c",)),
                "c": (TESTER, 1, ("d",)),
                "d": (TESTER, 1, ("e",)),
                "e": (TESTER, 1, ("a",)),
            },
            init="a",
        )
        suite = Suite((Case("t0", ("a", "b", "c", "d", "e")),))
        res = nt_plan(g, suite, 100, "s2", 10, SutResponder(0), random.Random(0))
        assert res.covered == {"a", "b", "c", "d", "e"}
        assert res.spent == 5 and res.resets == 0 and res.executions == 1

    def test_accounting_identity(self, mirror):
        suite = generate_static_suite(mirror)
        for seed in range(40):
            for strategy in ("s1.5", "s2", "s3", "s4"):
                res = nt_plan(
                    mirror, suite, 37, strategy, 10, SutResponder(seed), random.Random(seed)
                )
                costs = sum(len(rec.realized) for rec in res.log)
                assert res.spent == costs + 10 * res.resets
                assert res.spent <= 37

    def test_realized_prefixes_are_valid(self, mirror):
        suite = generate_static_suite(mirror)
        res = nt_plan(mirror, suite, 60, "s3", 10, SutResponder(5), random.Random(5))
        for rec in res.log:
            assert rec.realized[0] == mirror.init
            for a, b in zip(rec.realized, rec.realized[1:]):
                assert b in mirror.edges[a]
            if rec.diverged:
                # the node before the diverging visit belongs to the SUT
                assert mirror.owner(rec.realized[-2]) == SUT

    def test_s2_stops_when_target_covered(self, mirror):
        suite = generate_static_suite(mirror)
        res = nt_plan(mirror, suite, 10_000, "s2", 10, SutResponder(9), random.Random(9))
        assert res.covered >= suite.node_union()
        assert res.spent < 10_000  # stopped by coverage, not by budget

    def test_s2_never_reruns_a_fully_covered_case(self):
        g = generate_random(9, 0.6, 1, 2, seed=31)
        suite = generate_static_suite(g)
        by_id = {tc.id: tc for tc in suite.cases}
        for seed in range(30):
            res = nt_plan(g, suite, 120, "s2", 10, SutResponder(seed), random.Random(seed))
            covered: set[str] = set()
            for rec in res.log:
                assert not frozenset(by_id[rec.case_id].path) <= covered
                covered.update(rec.realized)

    def test_s1_5_repeats_passes_until_coverage(self, mirror):
        # the case prescribes v2 after the SUT node, so a v3->v1 response
        # diverges and forces another pass
        suite = Suite((Case("t0", ("v0", "v1", "v3", "v2")),))

        def draws(s: int) -> list[str]:
            responder = SutResponder(s)
            return [responder.choose(mirror, "v3") for _ in range(3)]

        seed = next(s for s in range(200) if draws(s) == ["v1", "v1", "v2"])
        res = nt_plan(mirror, suite, 200, "s1.5", 10, SutResponder(seed), random.Random(0))
        assert res.executions == 3 and res.resets == 2
        assert res.spent == 3 * 4 + 2 * 10
        assert res.covered == {"v0", "v1", "v2", "v3"}

    def test_s1_5_runs_each_id_once_per_pass(self):
        # a pass is keyed by case id: a repeated id runs once per pass,
        # through whichever of its cases the draw picks
        for i in range(20):
            g = generate_random(10, 0.5, 1, 2, seed=4100 + i)
            cases = generate_static_suite(g).cases
            suite = Suite(cases + (Case(cases[0].id, cases[-1].path),))
            pass_size = len({tc.id for tc in cases})
            res = nt_plan(g, suite, 150, "s1.5", 1, SutResponder(i), random.Random(i))
            ids = [rec.case_id for rec in res.log]
            for start in range(0, len(ids), pass_size):
                chunk = ids[start:start + pass_size]
                assert len(set(chunk)) == len(chunk)

    @pytest.mark.parametrize("strategy", ["s2", "s3", "s4"])
    def test_case_without_nodes_is_never_a_candidate(self, mirror, strategy):
        suite = Suite((Case("e", ()),) + generate_static_suite(mirror).cases)
        for seed in range(20):
            res = nt_plan(mirror, suite, 60, strategy, 1, SutResponder(seed), random.Random(seed))
            assert "e" not in {rec.case_id for rec in res.log}

    def test_empty_suite_rejected(self, mirror):
        with pytest.raises(ValidationError, match="empty"):
            nt_plan(mirror, Suite(()), 10, "s2", 10, SutResponder(0), random.Random(0))


class TestGoldenStreams:
    """Exact nt_plan logs on one seeded graph, pinned so that a change to
    selection cannot silently reorder the seeded tie-break and s3/s4 draws."""

    # generate_random(14, 0.5, 1, 2, seed=3), budget 80, reset cost 3,
    # SutResponder(11), random.Random(11): (case id, realized path, diverged)
    LOGS = {
        "s1.5": (
            ("t3", "n00 n02", True),
            ("t5", "n00 n02", True),
            ("t4", "n00 n02 n07", True),
            ("t1", "n00 n01", True),
            ("t0", "n00 n02", True),
            ("t2", "n00 n01 n06 n11", False),
            ("t4", "n00 n02 n10", False),
            ("t3", "n00 n01 n03 n08", False),
            ("t1", "n00 n01", True),
            ("t0", "n00 n01 n03 n04 n05", False),
            ("t5", "n00 n02", True),
            ("t2", "n00 n02", True),
            ("t1", "n00 n01", True),
            ("t0", "n00 n01 n03 n04 n05", False),
        ),
        "s2": (
            ("t3", "n00 n02", True),
            ("t4", "n00 n02 n10", False),
            ("t3", "n00 n01 n03 n08", False),
            ("t5", "n00 n01 n03 n04 n12", False),
            ("t2", "n00 n02", True),
            ("t2", "n00 n01 n06 n11", False),
            ("t0", "n00 n02", True),
            ("t0", "n00 n02", True),
            ("t1", "n00 n01", True),
            ("t0", "n00 n01 n03 n04 n05", False),
            ("t1", "n00 n01", True),
            ("t1", "n00 n02 n10", True),
            ("t1", "n00 n01", True),
            ("t1", "n00 n01", True),
        ),
        "s3": (
            ("t2", "n00 n02", True),
            ("t0", "n00 n02", True),
            ("t5", "n00 n02", True),
            ("t5", "n00 n01 n03 n04 n12", False),
            ("t1", "n00 n01", True),
            ("t2", "n00 n02", True),
            ("t2", "n00 n01 n06 n11", False),
            ("t1", "n00 n02 n10", True),
            ("t0", "n00 n01 n03 n04 n05", False),
            ("t1", "n00 n01", True),
            ("t1", "n00 n01", True),
            ("t1", "n00 n02 n10", True),
            ("t1", "n00 n01", True),
            ("t1", "n00 n01", True),
        ),
        "s4": (
            ("t5", "n00 n02", True),
            ("t0", "n00 n02", True),
            ("t5", "n00 n02", True),
            ("t5", "n00 n01 n03 n04 n12", False),
            ("t1", "n00 n01", True),
            ("t2", "n00 n02", True),
            ("t2", "n00 n01 n06 n11", False),
            ("t1", "n00 n02 n10", True),
            ("t0", "n00 n01 n03 n04 n05", False),
            ("t1", "n00 n01", True),
            ("t1", "n00 n01", True),
            ("t1", "n00 n02 n10", True),
            ("t1", "n00 n01", True),
            ("t1", "n00 n01", True),
        ),
    }

    @pytest.mark.parametrize("strategy", sorted(LOGS))
    def test_nt_plan_log(self, strategy):
        g = generate_random(14, 0.5, 1, 2, seed=3)
        suite = generate_static_suite(g)
        res = nt_plan(g, suite, 80, strategy, 3, SutResponder(11), random.Random(11))
        got = tuple((rec.case_id, " ".join(rec.realized), rec.diverged) for rec in res.log)
        assert got == self.LOGS[strategy]


class ZeroDraws(random.Random):
    """Every score draw is 0.0; tie-breaks still come from the real stream,
    since uniform picks read ``getrandbits`` directly."""

    def random(self) -> float:
        return 0.0


class TestSelectionGoldens:
    """Exact nt_plan logs for selection cases the trend goldens do not reach:
    a repeated case id under s1.5, all-zero s3/s4 draws, and a tight budget
    that the reset fees use up.  Same graph as TestGoldenStreams, reset
    cost 3."""

    # budget 80, SutResponder(11), random.Random(11); t2 and t0 repeated
    # with the paths of t4 and t5: spent 79, resets 13
    REPEATED_ID_S1_5 = (
        ("t0", "n00 n02", True),
        ("t5", "n00 n02", True),
        ("t4", "n00 n02 n07", True),
        ("t2", "n00 n01", True),
        ("t1", "n00 n02 n07 n09 n13", False),
        ("t3", "n00 n02", True),
        ("t0", "n00 n02", True),
        ("t2", "n00 n01", True),
        ("t3", "n00 n01 n03 n08", False),
        ("t1", "n00 n01", True),
        ("t5", "n00 n02", True),
        ("t4", "n00 n02 n07", True),
        ("t2", "n00 n01 n06 n11", False),
        ("t0", "n00 n01 n03 n04 n05", False),
    )
    # budget 80, SutResponder(11), ZeroDraws(11): spent 80, resets 13
    ZERO_DRAWS = (
        ("t3", "n00 n02", True),
        ("t4", "n00 n02 n10", False),
        ("t3", "n00 n01 n03 n08", False),
        ("t3", "n00 n01 n03 n08", False),
        ("t4", "n00 n02 n07", True),
        ("t4", "n00 n01", True),
        ("t1", "n00 n02 n10", True),
        ("t1", "n00 n01", True),
        ("t4", "n00 n01", True),
        ("t3", "n00 n01 n03 n08", False),
        ("t5", "n00 n02", True),
        ("t4", "n00 n02 n07", True),
        ("t1", "n00 n01", True),
        ("t0", "n00 n01 n03 n04 n05", False),
    )
    # budget 40, SutResponder(5), random.Random(5): (spent, log); the first
    # start is free, every later one pays the reset fee
    CHARGED = {
        "s1.5": (38, (
            ("t4", "n00 n02 n10", False),
            ("t2", "n00 n01 n06 n11", False),
            ("t3", "n00 n01 n03 n08", False),
            ("t5", "n00 n01 n03 n04 n12", False),
            ("t0", "n00 n01 n03 n04 n05", False),
            ("t1", "n00 n01", True),
        )),
        "s3": (37, (
            ("t5", "n00 n02", True),
            ("t0", "n00 n02", True),
            ("t3", "n00 n01 n03 n08", False),
            ("t1", "n00 n02 n07 n09 n13", False),
            ("t0", "n00 n01 n03 n04 n05", False),
            ("t2", "n00 n01 n06 n11", False),
        )),
        "s4": (40, (
            ("t5", "n00 n02", True),
            ("t0", "n00 n02", True),
            ("t3", "n00 n01 n03 n08", False),
            ("t1", "n00 n02 n07 n09 n13", False),
            ("t5", "n00 n01 n03 n04 n12", False),
            ("t4", "n00 n01", True),
            ("t2", "n00 n02", True),
        )),
    }
    CHARGED["s2"] = CHARGED["s1.5"]

    @staticmethod
    def run(suite=None, **kwargs):
        g = generate_random(14, 0.5, 1, 2, seed=3)
        suite = suite or generate_static_suite(g)
        res = nt_plan(g, suite, reset_cost=3, **kwargs)
        log = tuple((rec.case_id, " ".join(rec.realized), rec.diverged) for rec in res.log)
        return res, log

    def test_repeated_id_keys_the_s1_5_pass(self):
        g = generate_random(14, 0.5, 1, 2, seed=3)
        cases = generate_static_suite(g).cases
        by_id = {tc.id: tc for tc in cases}
        suite = Suite(cases + (Case("t2", by_id["t4"].path), Case("t0", by_id["t5"].path)))
        res, log = self.run(
            suite, budget=80, strategy="s1.5", sut=SutResponder(11), rng=random.Random(11)
        )
        assert log == self.REPEATED_ID_S1_5
        assert (res.spent, res.resets) == (79, 13)

    @pytest.mark.parametrize("strategy", ["s3", "s4"])
    def test_all_zero_draws_tie_every_case(self, strategy):
        res, log = self.run(budget=80, strategy=strategy, sut=SutResponder(11), rng=ZeroDraws(11))
        assert log == self.ZERO_DRAWS
        assert (res.spent, res.resets) == (80, 13)
        # the tie spans dead cases too: t3 (n00 n01 n03 n08) is fully
        # covered after the third execution and still runs fourth
        assert {"n00", "n01", "n03", "n08"} <= {v for _, r, _ in log[:3] for v in r.split()}
        assert log[3][0] == "t3"

    @pytest.mark.parametrize("strategy", sorted(CHARGED))
    def test_charged_first_start(self, strategy):
        res, log = self.run(budget=40, strategy=strategy, sut=SutResponder(5), rng=random.Random(5))
        spent, expected = self.CHARGED[strategy]
        assert log == expected
        assert res.spent == spent == sum(len(r.split()) for _, r, _ in log) + 3 * res.resets
        assert res.resets == res.executions - 1 == len(expected) - 1


class TestUniformPick:
    """A uniform pick among n options is k-bit ``getrandbits`` draws, k =
    n.bit_length(), until one is below n: the stream of ``randrange(n)``."""

    SIZES = (1, 2, 3, 7, 8, 9, 63, 64, 65, 1000, 2**20 + 3)  # 2^k - 1, 2^k, 2^k + 1

    def test_draw_for_draw_equal_to_randrange(self):
        for seed in range(200):
            for n in self.SIZES:
                ours, reference = random.Random(seed), random.Random(seed)
                picks = [_below(ours.getrandbits, n) for _ in range(12)]
                assert picks == [reference.randrange(n) for _ in range(12)]
                assert ours.random() == reference.random()  # the streams stay aligned

    def test_sut_choices_equal_randrange_choices(self, mirror):
        g = graph_of({"a": (SUT, 1, ("a", "b", "c")), "b": (TESTER, 1, ("a",)),
                      "c": (TESTER, 1, ("a",))}, init="a")
        for seed in range(100):
            for graph, v in ((mirror, "v3"), (g, "a")):
                sut, reference = SutResponder(seed), random.Random(seed)
                succs = graph.edges[v]
                want = [succs[reference.randrange(len(succs))] for _ in range(30)]
                assert [sut.choose(graph, v) for _ in range(30)] == want

    def test_no_successor_is_an_error(self):
        g = graph_of({"a": (SUT, 1, ())}, init="a")
        with pytest.raises(ValueError, match="empty range"):
            SutResponder(0).choose(g, "a")


class TestSharedSuite:
    def test_runs_on_one_suite_equal_runs_on_fresh_suites(self):
        """A suite's tables are built by its first run and read by every later
        one; no run may change what the next run sees."""
        g = generate_random(14, 0.5, 1, 2, seed=3)
        suite = generate_static_suite(g)
        for strategy in PGAIN_STRATEGIES:
            for budget in (1, 12, 40, 400):
                for fee in (0, 3, 10):
                    for seed in (7, 8):
                        fresh = nt_plan(g, Suite(suite.cases), budget, strategy, fee,
                                        SutResponder(seed), random.Random(seed))
                        for _ in range(2):
                            got = nt_plan(g, suite, budget, strategy, fee,
                                          SutResponder(seed), random.Random(seed))
                            assert got == fresh
        assert suite == Suite(suite.cases)
        assert hash(suite) == hash(Suite(suite.cases))


class TestBaselines:
    def test_random_walk_spends_everything(self, mirror):
        res = random_walk(mirror, 23, SutResponder(1), random.Random(1))
        assert res.spent == 23
        assert len(res.log[0].realized) == 23
        assert res.resets == 0 and res.executions == 1

    def test_random_walk_self_loop(self):
        g = graph_of({"a": (SUT, 1, ("a",))}, init="a")
        res = random_walk(g, 5, SutResponder(2), random.Random(2))
        assert res.covered == {"a"} and res.spent == 5

    def test_random_walk_two_node_cycle(self):
        g = graph_of(
            {"a": (TESTER, 1, ("b",)), "b": (TESTER, 1, ("a",))},
            init="a",
        )
        res = random_walk(g, 3, SutResponder(0), random.Random(0))
        assert res.covered == {"a", "b"}

    def test_random_walk_rejects_sink(self):
        g = graph_of({"a": (TESTER, 1, ("s",)), "s": (TESTER, 1, ())}, init="a")
        with pytest.raises(ValidationError, match="sink"):
            random_walk(g, 10, SutResponder(0), random.Random(0))

    def test_static_once_on_deterministic_graph(self):
        g = graph_of(
            {"a": (TESTER, 1, ("b",)), "b": (TESTER, 1, ("c",)), "c": (TESTER, 1, ("a",))},
            init="a",
        )
        suite = generate_static_suite(g)
        res = static_once(g, suite, 100, 10, SutResponder(0))
        assert res.covered == suite.node_union()
        assert res.executions == len(suite.cases)

    def test_static_once_runs_each_case_at_most_once(self, mirror):
        suite = generate_static_suite(mirror)
        for seed in range(20):
            res = static_once(mirror, suite, 100, 10, SutResponder(seed))
            assert res.executions <= len(suite.cases)
            ids = [rec.case_id for rec in res.log]
            assert len(ids) == len(set(ids))
            assert res.spent <= 100

    def test_static_once_rejects_negative_reset_cost(self):
        g = generate_random(6, 0.5, 1, 2, 1)
        with pytest.raises(ValueError, match="reset_cost must be >= 0"):
            static_once(g, generate_static_suite(g), 12, -5, SutResponder(0))


class TestAccountingRule:
    def test_holds_on_random_runs(self):
        """Every runner: spent is the visits plus the fee for every start after
        the first, within the budget; the counts follow the log; a negative fee
        is rejected."""
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        def check(res, budget, fee):
            assert res.spent == sum(len(rec.realized) for rec in res.log) + fee * res.resets
            assert res.spent <= budget
            assert res.executions == len(res.log)
            assert res.resets == max(len(res.log) - 1, 0)

        @settings(max_examples=150)
        @given(
            n=st.integers(2, 20),
            sut_fraction=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
            max_out=st.integers(1, 3),
            graph_seed=st.integers(0, 10**6),
            budget=st.integers(1, 300),
            fee=st.integers(0, 12),
            bad_fee=st.integers(-12, -1),
            seed=st.integers(0, 10**6),
        )
        def prop(n, sut_fraction, max_out, graph_seed, budget, fee, bad_fee, seed):
            g = generate_random(n, sut_fraction, 1, min(max_out, n), graph_seed)
            suite = generate_static_suite(g)
            for strategy in ("s1.5", "s2", "s3", "s4"):
                res = nt_plan(g, suite, budget, strategy, fee, SutResponder(seed), random.Random(seed))
                check(res, budget, fee)
                with pytest.raises(ValueError, match="reset_cost must be >= 0"):
                    nt_plan(g, suite, budget, strategy, bad_fee, SutResponder(seed), random.Random(seed))
            check(static_once(g, suite, budget, fee, SutResponder(seed)), budget, fee)
            with pytest.raises(ValueError, match="reset_cost must be >= 0"):
                static_once(g, suite, budget, bad_fee, SutResponder(seed))
            check(random_walk(g, budget, SutResponder(seed), random.Random(seed)), budget, 0)

        prop()


class TestSuiteFiles:
    def test_round_trip(self, mirror):
        suite = generate_static_suite(mirror)
        assert parse_suite(serialize_suite(suite)) == suite

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="header"):
            parse_suite("nope\n")
        with pytest.raises(ParseError, match="duplicate case id"):
            parse_suite("ncsuite 1\ncase a: x\ncase a: y\n")
        with pytest.raises(ParseError, match="expected"):
            parse_suite("ncsuite 1\nwalk a: x\n")

    def test_validate_suite_reports_an_empty_suite(self, mirror):
        assert validate_suite(mirror, Suite(())) == ["empty test suite"]

    def test_validate_suite_reports_bad_paths(self, mirror):
        suite = Suite(
            (
                Case("ok", ("v0", "v1")),
                Case("badstart", ("v1", "v3")),
                Case("notedge", ("v0", "v3")),
            )
        )
        problems = validate_suite(mirror, suite)
        assert any("starts at" in p for p in problems)
        assert any("not an edge" in p for p in problems)
