"""Coverage-bound certificates for the SUT, their check, and extraction.

A witness assigns every reachable node v a pair: a claimed coverage bound
and a containment set of nodes the SUT is willing to let the tester cover
after arriving at v.  A consistent witness is a polynomial-time-checkable
certificate that the SUT can keep the coverage gain from v at or below the
claimed bound; the certificate is followed at runtime by a small state
machine whose only state is the currently granted containment set.

Every entry is checked under exactly one of two equations:

* singleton case - the containment set is just {v}, v belongs to the SUT,
  has successors, and no self-loop: the bound must equal
  ``gain(v) + min(bound(u) for successors u)``;
* containment case - otherwise: the bound must equal the gain of the
  containment set plus the largest bound over edges that leave the set
  from a tester node inside it (0 when no such edge exists, i.e. the set
  is a tester trap).

Witness files use the ``ncwitness 1`` text format::

    ncwitness 1
    entry <node> c=<uint> P=<id>[,<id>]*
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations

from .errors import ExtractionError, ParseError, StrategyError, ValidationError
from .graph import SUT, GameGraph, coverage_gain, ensure_valid, reachable, serialize_game_graph
from .play import StateMachineStrategy
from .solver import solve_mcg

_ID_RE = re.compile(r"^[A-Za-z0-9_]+$")


@dataclass(frozen=True)
class WitnessEntry:
    bound: int
    containment: frozenset[str]


@dataclass(frozen=True)
class Witness:
    """Per-node certificate entries (claimed bound, containment set)."""

    entries: dict[str, WitnessEntry]


def _singleton_case(g: GameGraph, v: str, containment: frozenset[str]) -> bool:
    """Entry shape that is checked with the singleton equation."""
    return (
        containment == frozenset([v])
        and g.owner(v) == SUT
        and len(g.edges[v]) > 0
        and v not in g.edges[v]
    )


def check_witness(g: GameGraph, w: Witness) -> list[str]:
    """Check witness consistency; returns violations (empty = consistent).

    Needs a strict graph with every gain >= 1 (apply normalize_gains
    first otherwise) and an entry for every node reachable from the
    initial node.  Runs in polynomial time: no subset enumeration, just
    one pass over entries, containment members, and their edges.
    """
    ensure_valid(g, strict=True)
    violations = []
    if any(info.gain < 1 for info in g.nodes.values()):
        violations.append("graph has a gain below 1; normalize gains first")
        return violations
    for v in sorted(reachable(g, g.init)):
        if v not in w.entries:
            violations.append(f"missing entry for reachable node `{v}`")
    if violations:
        return violations

    for v in sorted(w.entries):
        entry = w.entries[v]
        p = entry.containment
        if v not in g.nodes:
            violations.append(f"entry for unknown node `{v}`")
            continue
        unknown = sorted(u for u in p if u not in g.nodes)
        if unknown:
            violations.append(f"{v}: containment names unknown node `{unknown[0]}`")
            continue
        if v not in p:
            violations.append(f"{v}: node missing from its own containment set")
            continue
        singleton_sut = p == frozenset([v]) and g.owner(v) == SUT
        if not singleton_sut:
            for u in sorted(p):
                if g.owner(u) == SUT and not any(x in p for x in g.edges[u]):
                    violations.append(
                        f"{v}: SUT node `{u}` has no successor inside the containment set"
                    )
        if _singleton_case(g, v, p):
            needed = [w.entries[u].bound for u in g.edges[v] if u in w.entries]
            if len(needed) != len(g.edges[v]):
                violations.append(f"{v}: successor lacks a witness entry")
                continue
            expected = g.gain(v) + min(needed)
            if entry.bound != expected:
                violations.append(
                    f"{v}: singleton case expects bound {expected}, got {entry.bound}"
                )
        else:
            exit_bounds = []
            missing = False
            for u in sorted(p):
                if g.owner(u) != SUT:
                    for x in g.edges[u]:
                        if x in p:
                            continue
                        if x not in w.entries:
                            violations.append(
                                f"{v}: exit node `{x}` lacks a witness entry"
                            )
                            missing = True
                            break
                        exit_bounds.append(w.entries[x].bound)
                if missing:
                    break
            if missing:
                continue
            expected = coverage_gain(g, p) + (max(exit_bounds) if exit_bounds else 0)
            if entry.bound != expected:
                violations.append(
                    f"{v}: containment case expects bound {expected}, got {entry.bound}"
                )
    return violations


class WitnessSutStrategy(StateMachineStrategy):
    """Runtime follower of a consistent witness.

    State is the containment set currently granted to the tester (empty
    when none is active).  A node inside the active grant never disturbs
    it: the bound claimed for the grant assumes the SUT stays inside it
    until the tester leaves, so the node's own entry is ignored there
    (even a singleton-case entry, which would otherwise clear the grant
    and leak coverage through an SUT node).  Outside the grant, arriving
    at a singleton-case node clears it and anything else re-grants that
    node's containment set.  At an SUT node the strategy stays inside the
    grant when one is active, otherwise it moves toward the successor
    with the smallest claimed bound.
    """

    def __init__(self, g: GameGraph, w: Witness):
        self._g = g
        self._w = w

    def initial_state(self) -> frozenset[str]:
        return frozenset()

    def transition(self, state: frozenset[str], node: str) -> frozenset[str]:
        if node in state:
            return state
        entry = self._w.entries[node]
        if _singleton_case(self._g, node, entry.containment):
            return frozenset()
        return entry.containment

    def choose(self, state: frozenset[str], node: str) -> str:
        succs = self._g.edges[node]
        if not state:
            bounds = self._w.entries
            return min(succs, key=lambda u: (bounds[u].bound, u))
        candidates = [u for u in succs if u in state]
        if not candidates:
            raise StrategyError(
                f"certificate corruption: no successor of `{node}` inside "
                f"the granted set {sorted(state)}"
            )
        return min(candidates)


def witness_guided_sut(g: GameGraph, w: Witness) -> WitnessSutStrategy:
    """SUT strategy following a consistent witness; rejects inconsistent input."""
    violations = check_witness(g, w)
    if violations:
        raise ValidationError("inconsistent witness: " + "; ".join(violations))
    return WitnessSutStrategy(g, w)


def extract_witness(
    g: GameGraph, r: str, cap: int = 20, subset_cap: int = 1 << 16
) -> Witness:
    """Build a consistent witness whose bounds are the exact game values.

    For every node v reachable from r the bound is solve_mcg(g, v); the
    containment set is the first subset of reachable(v) (ascending
    cardinality, lexicographic order) that contains v and satisfies both
    the structural rule and its case equation for the fixed bounds.
    Gains must all be >= 1.  Failure to find a set within `subset_cap`
    candidates indicates a solver/extraction defect and raises
    ExtractionError with the instance attached.
    """
    ensure_valid(g, strict=True)
    if any(info.gain < 1 for info in g.nodes.values()):
        raise ValidationError("extraction requires every gain >= 1; normalize first")
    if r not in g.nodes:
        raise ValueError(f"unknown node `{r}`")

    bounds = {v: solve_mcg(g, v, cap=cap).value for v in sorted(reachable(g, r))}
    entries: dict[str, WitnessEntry] = {}
    for v in sorted(bounds):
        others = [u for u in sorted(reachable(g, v)) if u != v]
        found = None
        tried = 0
        for size in range(0, len(others) + 1):
            for extra in combinations(others, size):
                tried += 1
                if tried > subset_cap:
                    break
                p = frozenset((v,) + extra)
                if _candidate_consistent(g, v, p, bounds):
                    found = p
                    break
            if found is not None or tried > subset_cap:
                break
        if found is None:
            raise ExtractionError(
                f"no containment set found for `{v}` (bound {bounds[v]}); "
                f"instance:\n{serialize_game_graph(g)}"
            )
        entries[v] = WitnessEntry(bounds[v], found)
    return Witness(entries)


def _candidate_consistent(
    g: GameGraph, v: str, p: frozenset[str], bounds: dict[str, int]
) -> bool:
    """Structural rule plus case equation for one candidate containment set."""
    singleton_sut = p == frozenset([v]) and g.owner(v) == SUT
    if not singleton_sut:
        for u in p:
            if g.owner(u) == SUT and not any(x in p for x in g.edges[u]):
                return False
    if _singleton_case(g, v, p):
        return bounds[v] == g.gain(v) + min(bounds[u] for u in g.edges[v])
    exit_bounds = [
        bounds[x]
        for u in p
        if g.owner(u) != SUT
        for x in g.edges[u]
        if x not in p
    ]
    expected = coverage_gain(g, p) + (max(exit_bounds) if exit_bounds else 0)
    return bounds[v] == expected


def normalize_gains(g: GameGraph) -> GameGraph:
    """Shift every gain to ``1 + n * gain`` (n = node count).

    Makes all gains positive without disturbing which strategies are
    optimal, so certificate operations apply to graphs with zero gains.
    """
    n = len(g.nodes)
    return g.map_gains(lambda _v, gain: 1 + n * gain)


def parse_witness(text: str) -> Witness:
    """Parse ``ncwitness 1`` text."""
    entries: dict[str, WitnessEntry] = {}
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != "ncwitness 1":
                raise ParseError("expected `ncwitness 1` header", lineno)
            header_seen = True
            continue
        tokens = line.split()
        if len(tokens) != 4 or tokens[0] != "entry":
            raise ParseError("expected `entry <node> c=<uint> P=<id>[,<id>]*`", lineno)
        name = tokens[1]
        if not _ID_RE.match(name):
            raise ParseError(f"invalid node id `{name}`", lineno)
        if name in entries:
            raise ParseError(f"duplicate entry for `{name}`", lineno)
        if not tokens[2].startswith("c=") or not tokens[3].startswith("P="):
            raise ParseError("expected `c=<uint> P=<id>[,<id>]*`", lineno)
        bound_text = tokens[2][2:]
        if not (bound_text.isascii() and bound_text.isdigit()):
            raise ParseError(f"bound must be a nonnegative integer, got `{bound_text}`", lineno)
        members = tokens[3][2:].split(",")
        if not members or any(not _ID_RE.match(m) for m in members):
            raise ParseError("containment set must list node ids separated by commas", lineno)
        entries[name] = WitnessEntry(int(bound_text), frozenset(members))
    if not header_seen:
        raise ParseError("empty input: expected `ncwitness 1` header", None)
    return Witness(entries)


def serialize_witness(w: Witness) -> str:
    """Render a witness in canonical ``ncwitness 1`` text."""
    lines = ["ncwitness 1"]
    for v in sorted(w.entries):
        entry = w.entries[v]
        members = ",".join(sorted(entry.containment))
        lines.append(f"entry {v} c={entry.bound} P={members}")
    return "\n".join(lines) + "\n"
