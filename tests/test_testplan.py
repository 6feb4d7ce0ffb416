"""Suite generation, case execution semantics, budgeted planners, baselines."""
from __future__ import annotations

import hashlib
import pickle
import random
import signal
from contextlib import contextmanager

import pytest

from conftest import MIRROR_TEXT, graph_of, oracle_run
from ncgames.errors import ParseError, ValidationError
import ncgames.experiments
from ncgames.experiments import ALL_STRATEGIES, ExperimentConfig, run_experiment, run_one
from ncgames.graph import SUT, TESTER, GameGraph, NodeInfo, generate_random, parse_game_graph, reachable
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


@contextmanager
def _within(seconds: float):
    """Fail, rather than hang, if the block runs longer than `seconds` (where the
    platform has interval timers): a pick among zero options would never end."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def timeout(*_):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# (graph, case paths in suite order) for generate_static_suite
EXACT_SUITES = {
    # target v0 extends v0-v1-v3 and stops (v3's smallest successor v1 is
    # already on the path); v2 then gets its own shortest path
    "mirror": (parse_game_graph(MIRROR_TEXT), (("v0", "v1", "v3"), ("v0", "v2"))),
    # target a extends to a-b and stops at b's self-loop; c's shortest path
    # leaves a through its larger successor (a-b-d-c is longer), and d's
    # passes b, which drops the first case a-b as a prefix of a-b-d
    "larger first step": (
        graph_of(
            {
                "a": (TESTER, 1, ("b", "c")),
                "b": (TESTER, 1, ("b", "d")),
                "c": (SUT, 1, ("c",)),
                "d": (TESTER, 1, ("c",)),
            },
            init="a",
        ),
        (("a", "c"), ("a", "b", "d")),
    ),
}

# sha256 of the serialized suite of each trend campaign graph
# generate_random(n, 0.3, 1, 2, seed) (TREND_PICKS in test_acceptance.py)
TREND_SUITE_DIGESTS = {
    (19, 7): "cdf3bdcbb17655ea292802ec2b73b95876e30bb627bb153f88e873571595cc26",
    (30, 2): "afa4f34e927bd631f0a8b46eee7fdbc3368a55fd7ef865c22e1a539bb9fa2031",
    (40, 11): "47da68aefdbbbea4929660c7ad1812320a280b3a56a406698f8fc73ec5e02d71",
    (46, 0): "e45094e8171eeda798839fc2dc9bdd9fc1d70faed0776986c65e39830e234959",
    (60, 20): "07fa978a03ba0907d62be5800decb73383961aea252af64d7cc3a2d13b2839f0",
    (75, 7): "9d66712e241deda4e77f557f555e8e26789314cd372f722bb492f70f86e8218c",
    (95, 4): "9e29361c3cccdfe07c5507954b84d258efbec2e2230e83d1a1d06c530c36eca4",
    (100, 10): "43dc21c9b3dc4f0c541b420589863cd0804bbd5de6c6c51e542e4c3e690be5ff",
}


class TestStaticSuite:
    @pytest.mark.parametrize("case", sorted(EXACT_SUITES))
    def test_exact_suite(self, case):
        g, paths = EXACT_SUITES[case]
        suite = generate_static_suite(g)
        assert suite.cases == tuple(Case(f"t{i}", p) for i, p in enumerate(paths))
        assert suite.node_union() == reachable(g, g.init)
        assert validate_suite(g, suite) == []

    def test_trend_graph_suites(self):
        for (n, seed), digest in TREND_SUITE_DIGESTS.items():
            text = serialize_suite(generate_static_suite(generate_random(n, 0.3, 1, 2, seed)))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, seed)

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

    def test_sut_node_without_successors_is_an_error(self):
        """A path through an SUT sink is rejected up front, not left to a pick among
        zero options, which would draw getrandbits(0) forever."""
        g = graph_of({"a": (TESTER, 1, ("s",)), "s": (SUT, 1, ())}, init="a")
        with _within(5), pytest.raises(ValidationError, match="^t: `s a` is not an edge$"):
            execute_case(g, Case("t", ("a", "s", "a")), 10, SutResponder(0))


class TestRejectedSuites:
    """A suite that validate_suite rejects fails in every runner with validate_suite's
    text, before any draw: each kind after a valid case that draws at v3."""

    OK = Case("t0", ("v0", "v1", "v3", "v1"))
    # kind -> (the case after OK, or no suite at all, and the error's text)
    KINDS = {
        "unknown node": (Case("t1", ("v0", "v1", "v3", "zz")), "t1: unknown node `zz`"),
        "empty path": (Case("t1", ()), "t1: empty path"),
        "duplicate id": (Case("t0", ("v0", "v2", "v3", "v2")), "duplicate case id `t0`"),
        "wrong start": (Case("t1", ("v1", "v3", "v1")), "t1: path starts at `v1`, not init"),
        "non-edge": (Case("t1", ("v0", "v1", "v3", "v0")), "t1: `v3 v0` is not an edge"),
        "empty suite": (None, "empty test suite"),  # from _check_run, as the runners check it first
    }

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_runners_raise_before_any_draw(self, mirror, kind):
        bad, text = self.KINDS[kind]
        suite = Suite(() if bad is None else (self.OK, bad))
        assert "; ".join(validate_suite(mirror, suite)) == text
        runs = [lambda sut, rng: static_once(mirror, suite, 100, 1, sut)]
        runs += [lambda sut, rng, s=s: nt_plan(mirror, suite, 100, s, 1, sut, rng)
                 for s in PGAIN_STRATEGIES]
        if bad is not None and validate_suite(mirror, Suite((bad,))):  # not a duplicate id
            runs += [lambda sut, rng, b=b: execute_case(mirror, bad, b, sut) for b in (0, 100)]
        for run in runs:
            sut, rng = SutResponder(3), random.Random(4)
            states = sut._bits.__self__.getstate(), rng.getstate()
            with pytest.raises(ValidationError) as info:
                run(sut, rng)
            assert str(info.value) == text
            assert (sut._bits.__self__.getstate(), rng.getstate()) == states


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
        # a pass runs every case once, in the order the draws pick
        for i in range(20):
            g = generate_random(10, 0.5, 1, 2, seed=4100 + i)
            suite = generate_static_suite(g)
            pass_size = len(suite.cases)
            res = nt_plan(g, suite, 150, "s1.5", 1, SutResponder(i), random.Random(i))
            ids = [rec.case_id for rec in res.log]
            for start in range(0, len(ids), pass_size):
                chunk = ids[start:start + pass_size]
                assert len(set(chunk)) == len(chunk)

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
    all-zero s3/s4 draws, and a tight budget that the reset fees use up.
    Same graph as TestGoldenStreams, reset cost 3."""

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
    def run(**kwargs):
        g = generate_random(14, 0.5, 1, 2, seed=3)
        res = nt_plan(g, generate_static_suite(g), reset_cost=3, **kwargs)
        log = tuple((rec.case_id, " ".join(rec.realized), rec.diverged) for rec in res.log)
        return res, log

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

    def test_s4_counts_sut_positions_once_per_graph(self, monkeypatch):
        """``s4`` reads each case's ``alpha`` from the suite, computed on its first run
        on a graph; the same suite on a graph with other owners gets its own counts."""
        calls = []
        counted = alpha

        def spy(tc, g):
            calls.append(g)
            return counted(tc, g)

        monkeypatch.setattr("ncgames.testplan.alpha", spy)
        g = generate_random(14, 0.5, 1, 2, seed=3)
        flipped = GameGraph({v: NodeInfo(TESTER if info.owner == SUT else SUT, info.gain)
                             for v, info in g.nodes.items()}, g.edges, g.init)
        suite = generate_static_suite(g)
        for graph in (g, flipped, g, flipped):
            for seed in (7, 8):
                fresh = nt_plan(graph, Suite(suite.cases), 40, "s4", 3,
                                SutResponder(seed), random.Random(seed))
                got = nt_plan(graph, suite, 40, "s4", 3, SutResponder(seed), random.Random(seed))
                assert got == fresh
        assert [tc for tc in suite.cases if counted(tc, g) != counted(tc, flipped)]
        # two fresh suites per graph and pass, and the shared suite once per graph
        assert len(calls) == len(suite.cases) * (2 * 4 + 2)


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

    def test_random_walk_rejects_sut_sink(self):
        """An SUT node with no successors is a sink too, not a pick among zero options."""
        g = graph_of({"a": (TESTER, 1, ("s",)), "s": (SUT, 1, ())}, init="a")
        with _within(5), pytest.raises(ValidationError, match="sink: s"):
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


class SkewedDraws(random.Random):
    """Picks through its own ``getrandbits`` (every bit flipped) and scores rounded
    to one decimal, so s3/s4 rounds often tie, all-zero rounds included."""

    def getrandbits(self, k: int) -> int:
        return super().getrandbits(k) ^ ((1 << k) - 1)

    def random(self) -> float:
        return round(super().random(), 1)


class TestDifferential:
    """Every runner against the reference runners of conftest.py: whole RunResults,
    and the same draws taken from both streams."""

    @staticmethod
    def _plans(st):
        """Games of 1-10 nodes rooted at v0, any share of SUT nodes, 1-5 successors
        per node (self-loops included), with the generated static suite or random
        walks from v0 under distinct case ids, some of them a repeat or a prefix of
        an earlier case's path."""

        @st.composite
        def plans(draw):
            ids = [f"v{i}" for i in range(draw(st.integers(1, 10)))]
            sut = set(draw(st.permutations(ids))[:draw(st.integers(0, len(ids)))])
            nodes = {v: NodeInfo(SUT if v in sut else TESTER, 1) for v in ids}
            edges = {v: tuple(draw(st.lists(st.sampled_from(ids), min_size=1, max_size=5,
                                            unique=True)))
                     for v in ids}
            g = GameGraph(nodes, edges, "v0")
            if draw(st.booleans()):
                return g, generate_static_suite(g)
            paths: list[tuple[str, ...]] = []
            for _ in range(draw(st.integers(1, 6))):
                if paths and draw(st.booleans()):
                    path = draw(st.sampled_from(paths))
                    paths.append(path[:draw(st.integers(1, len(path)))])
                    continue
                path = ["v0"]
                for _ in range(draw(st.integers(0, 12))):
                    path.append(draw(st.sampled_from(g.edges[path[-1]])))
                paths.append(tuple(path))
            case_ids = draw(st.permutations(["a", "b", "c", "d", "e", "f"]))
            return g, Suite(tuple(map(Case, case_ids, paths)))

        return plans()

    @staticmethod
    def _run(g, suite, strategy, budget, fee, sut, rng):
        """``run_one`` with the responder and the pick stream given."""
        if strategy == "rdm":
            return random_walk(g, budget, sut, rng)
        if strategy == "GMU-static":
            return static_once(g, suite, budget, fee, sut)
        return nt_plan(g, suite, budget, strategy, fee, sut, rng)

    def test_runs_equal_the_reference_runs(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=400)
        @given(
            plan=self._plans(st),
            strategy=st.sampled_from(ALL_STRATEGIES),
            budget=st.integers(1, 150),
            fee=st.integers(0, 10),
            seeds=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
            rng_type=st.sampled_from([random.Random, SkewedDraws]),
        )
        def prop(plan, strategy, budget, fee, seeds, rng_type):
            g, suite = plan
            if rng_type is random.Random:
                assert run_one(g, suite, strategy, budget, fee, *seeds) == oracle_run(
                    g, suite, strategy, budget, fee, SutResponder(seeds[0]), random.Random(seeds[1])
                )
            sides = []
            for run in (self._run, oracle_run):
                sut, rng = SutResponder(seeds[0]), rng_type(seeds[1])
                res = run(g, suite, strategy, budget, fee, sut, rng)
                sides.append((res, sut._bits.__self__.getstate(), rng.getstate()))
            assert sides[0] == sides[1]

        prop()

    # the first three trend graphs of the benchmark's campaign: (nodes, generator seed)
    TREND = ((19, 7), (30, 2), (40, 11))

    def test_trend_runs_equal_the_reference_runs(self):
        """Every strategy on the trend graphs, at the campaign's budgets and two fees."""
        for n, gseed in self.TREND:
            g = generate_random(n, 0.3, 1, 2, gseed)
            suite = generate_static_suite(g)
            for strategy in ALL_STRATEGIES:
                for budget in (3 * n, 8 * n, 16 * n):
                    for fee in (0, 10):
                        for seed in range(4 * n, 4 * n + 4):
                            seeds = (seed, seed ^ 0x5A5A)
                            assert run_one(g, suite, strategy, budget, fee, *seeds) == oracle_run(
                                g, suite, strategy, budget, fee, SutResponder(seeds[0]),
                                random.Random(seeds[1]))
                            sides = []
                            for run in (self._run, oracle_run):
                                sut, rng = SutResponder(seeds[0]), random.Random(seeds[1])
                                res = run(g, suite, strategy, budget, fee, sut, rng)
                                sides.append((res, sut._bits.__self__.getstate(), rng.getstate()))
                            assert sides[0] == sides[1]


class TestLazyResults:
    def test_campaigns_decode_no_result(self, mirror, monkeypatch):
        """``run_experiment`` reads counts only, so it builds no ExecutionRecord; decoded
        afterwards, every run equals the reference runners' eagerly built result."""
        runs = []

        def spy(*args):
            runs.append((args, run_one(*args)))
            return runs[-1][1]

        def unusable(*_):
            raise AssertionError("a campaign built an ExecutionRecord")

        monkeypatch.setattr(ncgames.experiments, "run_one", spy)
        monkeypatch.setattr("ncgames.testplan.ExecutionRecord", unusable)
        for name, g in (("mirror", mirror), ("rg30", generate_random(30, 0.3, 1, 2, 2))):
            n = len(g.nodes)
            run_experiment(g, ExperimentConfig(name, (n, 3 * n, 8 * n), trials=3, reset_cost=2))
        monkeypatch.undo()
        assert len(runs) == 2 * 3 * 3 * len(ALL_STRATEGIES)
        for (g, suite, strategy, budget, fee, sut_seed, pick_seed), res in runs:
            count = res.covered_count
            ref = oracle_run(g, suite, strategy, budget, fee, SutResponder(sut_seed),
                             random.Random(pick_seed))
            assert (res.covered, res.log, res.executions, res.resets, hash(res)) == (
                ref.covered, ref.log, ref.executions, ref.resets, hash(ref))
            assert res == ref and count == len(ref.covered) == ref.covered_count

    def test_a_lazy_result_pickles_as_its_decoded_fields(self, mirror):
        suite = generate_static_suite(mirror)
        for res in (nt_plan(mirror, suite, 30, "s3", 2, SutResponder(1), random.Random(2)),
                    static_once(mirror, suite, 30, 2, SutResponder(1)),
                    random_walk(mirror, 30, SutResponder(1), random.Random(2))):
            copy = pickle.loads(pickle.dumps(res))
            assert copy == res and hash(copy) == hash(res)
            assert (copy.covered_count, copy.executions) == (res.covered_count, res.executions)


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
