"""Line formats: the rules the four readers share, round trips, and fuzzing
of the parsers and of the CLI commands that read them."""
from __future__ import annotations

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import MIRROR_TEXT, MIRROR_WITNESS_TEXT, input_argv  # noqa: E402
from ncgames.cli import _parse_config, run_cli  # noqa: E402
from ncgames.errors import ParseError  # noqa: E402
from ncgames.graph import (  # noqa: E402
    SUT,
    TESTER,
    GameGraph,
    NodeInfo,
    parse_game_graph,
    serialize_game_graph,
)
from ncgames.reductions import Cnf, parse_dimacs  # noqa: E402
from ncgames.testplan import TestCase as Case, TestSuite as Suite  # noqa: E402
from ncgames.testplan import parse_suite, serialize_suite  # noqa: E402
from ncgames.witness import Witness, WitnessEntry, parse_witness, serialize_witness  # noqa: E402

READERS = {
    "graph": (parse_game_graph, "ncgame 1"),
    "witness": (parse_witness, "ncwitness 1"),
    "suite": (parse_suite, "ncsuite 1"),
    "config": (_parse_config, None),
}

# Every character str.splitlines() breaks at, apart from "\n" and "\r\n".
OTHER_BREAKS = ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

ids = st.text("abcXYZ019_", min_size=1, max_size=4)


@st.composite
def graphs(draw) -> GameGraph:
    names = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    nodes = {v: NodeInfo(draw(st.sampled_from([TESTER, SUT])), draw(st.integers(0, 10**12)))
             for v in names}
    edges = {v: tuple(draw(st.lists(st.sampled_from(names), unique=True))) for v in names}
    return GameGraph(nodes, edges, draw(st.sampled_from(names)))


witnesses = st.dictionaries(
    ids, st.builds(WitnessEntry, st.integers(0, 10**12), st.frozensets(ids, min_size=1)),
    max_size=6,
).map(Witness)

suites = st.lists(ids, unique=True, max_size=6).flatmap(
    lambda case_ids: st.tuples(*(st.builds(Case, st.just(c), st.lists(ids, min_size=1).map(tuple))
                                 for c in case_ids))
).map(Suite)

# Comment text may hold any character but "\n", other line breaks included.
comments = st.text(st.characters(blacklist_characters="\n"), max_size=12).map(lambda t: "#" + t)


@st.composite
def noisy(draw, text: str) -> str:
    """`text` with comment and blank lines mixed in and `\\n` or `\\r\\n` line ends."""
    lines = []
    for line in text.splitlines():
        filler = st.one_of(comments, st.sampled_from(["", "  ", "\t"]))
        lines.extend(draw(st.lists(filler, max_size=2)))
        lines.append(line)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


TOKENS = [
    "ncgame 1", "ncwitness 1", "ncsuite 1", "node", "edge", "init", "entry", "case", "a", "b",
    "v0", "a:", "b:", ":", "owner=tester", "owner=sut", "gain=1", "gain=\u00b2", "c=2", "c=x",
    "P=a", "P=a,b", "P=", "#", "=", "trials=3", "budgets=5", "graph=x", "spread=stddev",
    "strategies=s2", "base_seed=-1", "\r", "\t", "\f", "\u2028", "\x85", "\u00e9",
]
texts = st.one_of(
    st.text(max_size=80),
    st.lists(st.lists(st.sampled_from(TOKENS), max_size=5).map(" ".join), max_size=8).flatmap(
        lambda lines: st.sampled_from(["\n", "\r\n"]).map(lambda end: end.join(lines))
    ),
)

# DIMACS has its own reader (`c` comments, a `p cnf` header with arguments, `%` ends input).
CNF_TOKENS = [
    "p cnf", "p", "cnf", "c", "%", "0", "1", "2", "3", "-1", "-2", "-0", "+1", "1_0",
    "\u0663", "\u00b2", "x", "#", "\r", "\t", "\f", "\v", "\u2028", "\x85",
]
cnf_texts = st.one_of(
    st.text(max_size=80),
    st.lists(st.lists(st.sampled_from(CNF_TOKENS), max_size=5).map(" ".join), max_size=8).flatmap(
        lambda lines: st.sampled_from(["\n", "\r\n"]).map(lambda end: end.join(lines))
    ),
).flatmap(lambda t: st.sampled_from([t, "p cnf 3 2\n" + t]))
clause_lists = st.lists(
    st.frozensets(st.sampled_from([1, 2, 3, -1, -2, -3]), min_size=1), min_size=1, max_size=4
)


@st.composite
def dimacs(draw, clauses: list[frozenset[int]]) -> str:
    """`clauses` over 3 variables as DIMACS text with `c` comments mixed in."""
    comment = st.text(st.characters(blacklist_characters="\n"), max_size=12).map(lambda t: "c" + t)
    lines = draw(st.lists(comment, max_size=2)) + [f"p cnf 3 {len(clauses)}"]
    for clause in clauses:
        lines.extend(draw(st.lists(comment, max_size=1)))
        lines.append(" ".join(map(str, sorted(clause))) + " 0")
    return "\n".join(lines) + draw(st.sampled_from(["\n", "\n%\n0\n"]))


class TestSharedRules:
    @pytest.mark.parametrize("brk", OTHER_BREAKS)
    def test_other_line_breaks_inside_a_comment_declare_nothing(self, brk):
        g = parse_game_graph(
            f"ncgame 1\n# note{brk}node b owner=tester gain=5\n"
            "node a owner=tester gain=1\nedge a a\ninit a\n"
        )
        assert set(g.nodes) == {"a"}

    @pytest.mark.parametrize("brk", OTHER_BREAKS)
    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_error_lines_count_newlines_only(self, kind, brk):
        parse, header = READERS[kind]
        text = f"# one{brk}two\n\nbogus\n"
        with pytest.raises(ParseError) as exc:
            parse(text if header is None else f"{header}\n{text}")
        assert exc.value.line == (3 if header is None else 4)

    @pytest.mark.parametrize("kind", ["graph", "witness", "suite"])
    def test_header_comes_first(self, kind):
        parse, header = READERS[kind]
        with pytest.raises(ParseError) as exc:
            parse(" \r\n# only a comment\r\n")
        assert exc.value.reason == f"empty input: expected `{header}` header"
        assert exc.value.line is None
        with pytest.raises(ParseError) as exc:
            parse(f"\n# c\nentry {header}\n{header}\n")
        assert (exc.value.reason, exc.value.line) == (f"expected `{header}` header", 3)


class TestRoundTrips:
    @settings(max_examples=40)
    @given(graphs().flatmap(lambda g: st.tuples(st.just(g), noisy(serialize_game_graph(g)))))
    def test_graph(self, case):
        g, text = case
        assert parse_game_graph(serialize_game_graph(g)) == g
        assert parse_game_graph(text) == g

    @settings(max_examples=40)
    @given(witnesses.flatmap(lambda w: st.tuples(st.just(w), noisy(serialize_witness(w)))))
    def test_witness(self, case):
        w, text = case
        assert parse_witness(serialize_witness(w)) == w
        assert parse_witness(text) == w

    @settings(max_examples=40)
    @given(suites.flatmap(lambda s: st.tuples(st.just(s), noisy(serialize_suite(s)))))
    def test_suite(self, case):
        suite, text = case
        assert parse_suite(serialize_suite(suite)) == suite
        assert parse_suite(text) == suite

    @settings(max_examples=40)
    @given(clause_lists.flatmap(lambda cs: st.tuples(st.just(cs), dimacs(cs))))
    def test_dimacs(self, case):
        clauses, text = case
        assert parse_dimacs(text) == Cnf(3, tuple(clauses))


class TestAnyText:
    @pytest.mark.parametrize("kind", sorted(READERS))
    @settings(max_examples=80)
    @given(text=texts)
    def test_parses_or_raises_parse_error(self, kind, text):
        parse, _ = READERS[kind]
        try:
            parse(text)
        except ParseError as exc:
            assert exc.line is None or exc.line >= 1

    @settings(max_examples=150)
    @given(text=cnf_texts)
    def test_dimacs_parses_or_raises_parse_error(self, text):
        try:
            f = parse_dimacs(text)
        except ParseError as exc:
            assert exc.line is None or 1 <= exc.line <= text.count("\n") + 1
        else:
            assert all(0 < abs(lit) <= f.variable_count for c in f.clauses for lit in c)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "mirror.ncgame").write_text(MIRROR_TEXT)
    return d


SEEDS = {
    "graph": MIRROR_TEXT,
    "witness": MIRROR_WITNESS_TEXT,
    "suite": "ncsuite 1\ncase t0: v0 v1 v3\n",
    "config": "strategies=s2,rdm\nreset_cost=3\nbase_seed=4\nspread=stddev\n",
}


class TestCliFuzz:
    @pytest.mark.parametrize("kind", sorted(READERS))
    @settings(max_examples=25)
    @given(data=st.one_of(
        st.binary(max_size=120),
        texts.map(lambda t: t.encode("utf-8")),
    ))
    def test_run_cli_returns_and_parse_failures_exit_2(self, kind, data, fuzz_dir):
        parse, _ = READERS[kind]
        for payload in (data, SEEDS[kind].encode("utf-8") + data):
            path = fuzz_dir / f"input.{kind}"
            path.write_bytes(payload)
            try:
                parse(payload.decode("utf-8"))
                parse_failed = False
            except (UnicodeDecodeError, ParseError):
                parse_failed = True
            argv = input_argv(kind, str(path), str(fuzz_dir / "mirror.ncgame"))
            quiet = contextlib.redirect_stdout(io.StringIO())
            with quiet, contextlib.redirect_stderr(io.StringIO()):
                code = run_cli(argv)
            if parse_failed:
                assert code == 2
            else:
                assert code in ((0, 2, 3) if kind == "config" else (0, 3))

    @settings(max_examples=60)
    @given(data=st.one_of(
        st.binary(max_size=120),
        st.one_of(cnf_texts, clause_lists.flatmap(dimacs)).map(lambda t: t.encode("utf-8")),
    ))
    def test_reduce_sat_returns_and_parse_failures_exit_2(self, data, fuzz_dir):
        path = fuzz_dir / "input.cnf"
        path.write_bytes(data)
        try:
            parse_dimacs(data.decode("utf-8"))
            parse_failed = False
        except (UnicodeDecodeError, ParseError):
            parse_failed = True
        quiet = contextlib.redirect_stdout(io.StringIO())
        with quiet, contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(input_argv("cnf", str(path), str(fuzz_dir / "mirror.ncgame")))
        if parse_failed:
            assert code == 2
        else:
            assert code in (0, 3)  # 3: a formula with no variable or no clause
