"""Game-graph data model for node coverage games.

A game graph is a finite directed graph whose nodes are split between two
players: the tester (player 1, maximizer) and the SUT (player 2, minimizer).
Every node carries a nonnegative integer gain; the payoff of an infinite
play is the summed gain of the distinct nodes it visits.

Graphs are written in the ``ncgame 1`` text format::

    ncgame 1
    node <id> owner=<tester|sut> gain=<uint>
    edge <src> <dst>
    init <id>

``init`` appears exactly once.  Duplicate ``node`` or ``edge`` lines are
errors.  ``read_lines`` holds the rules that this format shares with the
witness, suite and config formats.

``GameGraph`` is immutable after construction and safe to share across
threads.  Node iteration order is lexicographic everywhere so that every
"first/smallest" tie-break in the package is deterministic.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .errors import ParseError, ValidationError

TESTER = 1
SUT = 2

OWNER_NAMES = {TESTER: "tester", SUT: "sut"}
_OWNER_BY_NAME = {"tester": TESTER, "sut": SUT}
ID_RE = re.compile(r"[A-Za-z0-9_]+")
INT_RE = re.compile(r"-?[0-9]+")  # ASCII digits only, unlike int()


def read_lines(text: str, header: str | None) -> Iterator[tuple[int, str]]:
    r"""Yield ``(line number, stripped line)`` for each record of a line format.

    Lines end at ``\n`` only (a trailing ``\r`` is stripped with the other
    surrounding whitespace) and are numbered from 1; blank lines and lines
    starting with ``#`` are skipped.  When ``header`` is given, the first
    remaining line must equal it and is not yielded.  Raises ParseError only.
    """
    header_seen = header is None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != header:
                raise ParseError(f"expected `{header}` header", lineno)
            header_seen = True
            continue
        yield lineno, line
    if not header_seen:
        raise ParseError(f"empty input: expected `{header}` header", None)


def read_int(text: str) -> int | None:
    """The integer that `text` spells in ``INT_RE`` form, else None (also past int()'s limit)."""
    if INT_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits() converts
            pass
    return None


def read_uint(text: str, what: str, lineno: int) -> int:
    """A nonnegative integer of ASCII digits, else a ParseError naming `what`."""
    value = None if text.startswith("-") else read_int(text)
    if value is None:
        raise ParseError(f"{what} must be a nonnegative integer, got `{text}`", lineno)
    return value


@dataclass(frozen=True)
class NodeInfo:
    """Owner and gain of one node."""

    owner: int
    gain: int


@dataclass(frozen=True)
class GameGraph:
    """Immutable game graph: nodes with owner/gain, edges, initial node.

    Successor tuples are canonicalized to lexicographic order on
    construction, so two graphs with the same node set, edge set, and
    initial node compare equal regardless of declaration order.
    """

    nodes: dict[str, NodeInfo]
    edges: dict[str, tuple[str, ...]]
    init: str

    def __post_init__(self):
        canonical: dict[str, tuple[str, ...]] = {v: () for v in self.nodes}
        for src, dsts in self.edges.items():
            canonical[src] = tuple(sorted(dsts))
        object.__setattr__(self, "edges", canonical)

    def node_ids(self) -> list[str]:
        return sorted(self.nodes)

    def successors(self, v: str) -> tuple[str, ...]:
        return self.edges[v]

    def owner(self, v: str) -> int:
        return self.nodes[v].owner

    def gain(self, v: str) -> int:
        return self.nodes[v].gain

    def is_tester(self, v: str) -> bool:
        return self.nodes[v].owner == TESTER

    @cached_property
    def _index(self) -> tuple[tuple[str, ...], dict[str, int], list[tuple[tuple[int, ...], int, int, bool]]]:
        """(sorted ids, id -> index, per index: (successor indices, their count n,
        n.bit_length(), SUT-owned)): the integer view of the graph that a uniform pick
        among a node's successors reads.  Built on first use."""
        ids = tuple(sorted(self.nodes))
        pos = {v: i for i, v in enumerate(ids)}
        succs = [tuple(pos[w] for w in self.edges[v]) for v in ids]
        sut = [self.nodes[v].owner == SUT for v in ids]
        return ids, pos, [(s, len(s), len(s).bit_length(), o) for s, o in zip(succs, sut)]

    def map_gains(self, fn: Callable[[str, int], int]) -> "GameGraph":
        """Return a copy with every gain replaced by ``fn(node, gain)``."""
        nodes = {v: NodeInfo(info.owner, fn(v, info.gain)) for v, info in self.nodes.items()}
        return GameGraph(nodes, dict(self.edges), self.init)


def parse_game_graph(text: str) -> GameGraph:
    """Parse ``ncgame 1`` text into a GameGraph.

    Raises ParseError (with a line number) on any syntax problem,
    duplicate node/edge, unknown node reference, or missing init.
    """
    nodes: dict[str, NodeInfo] = {}
    edge_list: list[tuple[str, str, int]] = []
    edge_seen: set[tuple[str, str]] = set()
    init: str | None = None
    init_line: int | None = None

    for lineno, line in read_lines(text, "ncgame 1"):
        tokens = line.split()
        kind = tokens[0]
        if kind == "node":
            if len(tokens) != 4:
                raise ParseError("expected `node <id> owner=<tester|sut> gain=<uint>`", lineno)
            name = tokens[1]
            if not ID_RE.fullmatch(name):
                raise ParseError(f"invalid node id `{name}`", lineno)
            if name in nodes:
                raise ParseError(f"duplicate node `{name}`", lineno)
            if not tokens[2].startswith("owner=") or not tokens[3].startswith("gain="):
                raise ParseError("expected `owner=<tester|sut> gain=<uint>`", lineno)
            owner_name = tokens[2][len("owner="):]
            if owner_name not in _OWNER_BY_NAME:
                raise ParseError(f"unknown owner `{owner_name}`", lineno)
            gain = read_uint(tokens[3][len("gain="):], "gain", lineno)
            nodes[name] = NodeInfo(_OWNER_BY_NAME[owner_name], gain)
        elif kind == "edge":
            if len(tokens) != 3:
                raise ParseError("expected `edge <src> <dst>`", lineno)
            pair = (tokens[1], tokens[2])
            if pair in edge_seen:
                raise ParseError(f"duplicate edge `{pair[0]} {pair[1]}`", lineno)
            edge_seen.add(pair)
            edge_list.append((pair[0], pair[1], lineno))
        elif kind == "init":
            if len(tokens) != 2:
                raise ParseError("expected `init <id>`", lineno)
            if init is not None:
                raise ParseError("duplicate init line", lineno)
            init = tokens[1]
            init_line = lineno
        else:
            raise ParseError(f"unknown directive `{kind}`", lineno)

    edges: dict[str, list[str]] = {v: [] for v in nodes}
    for src, dst, lineno in edge_list:
        if src not in nodes:
            raise ParseError(f"unknown node `{src}`", lineno)
        if dst not in nodes:
            raise ParseError(f"unknown node `{dst}`", lineno)
        edges[src].append(dst)
    if init is None:
        raise ParseError("missing init line", None)
    if init not in nodes:
        raise ParseError(f"unknown node `{init}` in init", init_line)
    return GameGraph(nodes, {v: tuple(dsts) for v, dsts in edges.items()}, init)


def serialize_game_graph(g: GameGraph) -> str:
    """Render g in canonical ``ncgame 1`` text (lexicographic node order)."""
    lines = ["ncgame 1"]
    for v in g.node_ids():
        info = g.nodes[v]
        lines.append(f"node {v} owner={OWNER_NAMES[info.owner]} gain={info.gain}")
    for v in g.node_ids():
        for w in g.edges[v]:
            lines.append(f"edge {v} {w}")
    lines.append(f"init {g.init}")
    return "\n".join(lines) + "\n"


def validate(g: GameGraph, strict: bool = True) -> list[str]:
    """Check graph invariants; returns violation messages (empty = valid).

    Structural checks always run: declared endpoints, valid owners,
    nonnegative gains, no duplicate successors.  Strict mode additionally
    rejects sinks, because infinite plays must exist from every node.
    """
    violations = []
    if g.init not in g.nodes:
        violations.append(f"unknown init node `{g.init}`")
    for v in sorted(g.nodes):
        info = g.nodes[v]
        if info.owner not in OWNER_NAMES:
            violations.append(f"invalid owner on node `{v}`")
        if info.gain < 0:
            violations.append(f"negative gain on node `{v}`")
    for src in sorted(g.edges):
        dsts = g.edges[src]
        if src not in g.nodes:
            violations.append(f"unknown node `{src}` used as edge source")
        for prev, cur in zip(dsts, dsts[1:]):
            if prev == cur:
                violations.append(f"duplicate successor `{cur}` on node `{src}`")
        for dst in dsts:
            if dst not in g.nodes:
                violations.append(f"unknown node `{dst}` in edge from `{src}`")
    if strict:
        for v in g.node_ids():
            if not g.edges.get(v):
                violations.append(f"sink: {v}")
    return violations


def ensure_valid(g: GameGraph, strict: bool = True) -> None:
    """Raise ValidationError when validate() reports violations."""
    violations = validate(g, strict=strict)
    if violations:
        raise ValidationError("; ".join(violations))


def coverage_gain(g: GameGraph, node_set: Iterable[str]) -> int:
    """Sum of gains over a set of nodes (0 for the empty set)."""
    total = 0
    for v in set(node_set):
        if v not in g.nodes:
            raise ValueError(f"unknown node `{v}`")
        total += g.nodes[v].gain
    return total


def is_trap(g: GameGraph, player: int, node_set: Iterable[str]) -> bool:
    """True iff the opponent of `player` can confine plays to `node_set`.

    Requires: nodes of `player` inside the set have all successors inside;
    every other node inside has at least one successor inside.
    """
    s = set(node_set)
    for v in s:
        if v not in g.nodes:
            raise ValueError(f"unknown node `{v}`")
    for v in s:
        succs = g.edges[v]
        if g.nodes[v].owner == player:
            if any(w not in s for w in succs):
                return False
        else:
            if not any(w in s for w in succs):
                return False
    return True


def reachable(g: GameGraph, r: str) -> frozenset[str]:
    """Nodes reachable from r along edges, including r itself."""
    if r not in g.nodes:
        raise ValueError(f"unknown node `{r}`")
    seen = {r}
    stack = [r]
    while stack:
        v = stack.pop()
        for w in g.edges[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def generate_random(
    node_count: int,
    sut_fraction: float,
    min_out: int,
    max_out: int,
    seed: int,
) -> GameGraph:
    """Generate a strict-valid random game graph, reproducibly.

    Every node is reachable from the initial node (a random spanning
    arborescence is laid down first), out-degrees land in
    [min_out, max_out], owners are drawn independently (SUT with
    probability sut_fraction), and all gains are 1.  Identical arguments
    give a byte-identical serialization.
    """
    if node_count < 1:
        raise ValueError("node_count must be >= 1")
    if not (1 <= min_out <= max_out):
        raise ValueError("need 1 <= min_out <= max_out")
    if not (0.0 <= sut_fraction <= 1.0):
        raise ValueError("sut_fraction must be in [0, 1]")
    if max_out > node_count:
        raise ValueError("infeasible parameters: max_out exceeds node_count")
    if seed < 0:  # random.Random seeds on the absolute value
        raise ValueError("seed must be >= 0")

    rng = random.Random(seed)
    width = max(2, len(str(node_count - 1)))
    ids = [f"n{i:0{width}d}" for i in range(node_count)]
    owners = [SUT if rng.random() < sut_fraction else TESTER for _ in range(node_count)]

    succ: list[list[int]] = [[] for _ in range(node_count)]
    # spanning arborescence from node 0; parents capped at max_out children
    for i in range(1, node_count):
        candidates = [j for j in range(i) if len(succ[j]) < max_out]
        parent = rng.choice(candidates)
        succ[parent].append(i)
    # pad out-degrees; self-loops are legal targets
    for i in range(node_count):
        want = rng.randint(min_out, max_out)
        want = max(want, len(succ[i]))
        have = set(succ[i])
        pool = [j for j in range(node_count) if j not in have]
        succ[i].extend(rng.sample(pool, want - len(succ[i])))

    nodes = {ids[i]: NodeInfo(owners[i], 1) for i in range(node_count)}
    edges = {ids[i]: tuple(ids[j] for j in succ[i]) for i in range(node_count)}
    return GameGraph(nodes, edges, ids[0])
