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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import or_

from .errors import CapacityError, ExtractionError, ParseError, StrategyError, ValidationError
from .graph import (
    ID_RE,
    SUT,
    GameGraph,
    coverage_gain,
    ensure_valid,
    reachable,
    read_lines,
    read_uint,
    serialize_game_graph,
)
from .play import StateMachineStrategy
from .solver import solve_mcg


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

    Needs a strict graph with every gain >= 1 (else that is the only
    violation; apply normalize_gains first) and an entry for every node
    reachable from the initial node (else the missing ones are).  Then one
    pass over the entries by id checks, for v with containment set P: v is
    a node; so is every member of P (the first unknown one is named); v is
    in P; unless the entry is singleton case, every SUT member of P has a
    successor in P (each one without is named); every bound the case
    equation reads has an entry (v's successors, or the exits of P in
    member and successor order, the first without one named); the bound
    equals the equation.  Each failure but the SUT-member rule ends v's
    checks.  Polynomial time: no subset enumeration.
    """
    ensure_valid(g, strict=True)
    if any(info.gain < 1 for info in g.nodes.values()):
        return ["graph has a gain below 1; normalize gains first"]
    absent = sorted(reachable(g, g.init) - w.entries.keys())
    if absent:
        return [f"missing entry for reachable node `{v}`" for v in absent]

    violations = []
    bound = {v: entry.bound for v, entry in w.entries.items()}
    for v in sorted(w.entries):
        p = w.entries[v].containment
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
        if _singleton_case(g, v, p):
            if any(u not in bound for u in g.edges[v]):
                violations.append(f"{v}: successor lacks a witness entry")
                continue
            case, expected = "singleton", g.gain(v) + min(bound[u] for u in g.edges[v])
        else:
            members = sorted(p)
            violations += (
                f"{v}: SUT node `{u}` has no successor inside the containment set"
                for u in members
                if g.owner(u) == SUT and p.isdisjoint(g.edges[u])
            )
            exits = [x for u in members if g.owner(u) != SUT for x in g.edges[u] if x not in p]
            lacking = [x for x in exits if x not in bound]
            if lacking:
                violations.append(f"{v}: exit node `{lacking[0]}` lacks a witness entry")
                continue
            case = "containment"
            expected = coverage_gain(g, p) + max((bound[x] for x in exits), default=0)
        if bound[v] != expected:
            violations.append(f"{v}: {case} case expects bound {expected}, got {bound[v]}")
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
        entry = self._w.entries.get(node)
        if entry is None:
            raise StrategyError(
                f"no witness entry for node `{node}`; the certificate covers the nodes "
                f"reachable from `{self._g.init}`"
            )
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

    For every node v reachable from r the bound is the game value from v,
    read from one solve of the game from r whose exploration is entered at
    every such node (``SolveResult.node_values``).  The node cap `cap`
    applies to each v: the CapacityError names the reachable count of the
    first v, in id order, that exceeds it.  The containment set is the
    first subset of reachable(v) (ascending cardinality, lexicographic
    order) that contains v and satisfies both the structural rule and its
    case equation for the fixed bounds.  One call numbers reachable(r) once.
    Gains must all be >= 1.  At most `subset_cap` candidates per node are
    counted, in that order, whether tested or ruled out untested in a
    block or a whole level of one size (``_first_containment_set`` gives the
    rules), and ExtractionError (with the instance attached) is raised when
    none of them is consistent.  The cap bounds a position in that order,
    not work: a ruled-out block or level is charged every candidate it
    stands for.  Exhausting it does not by itself mean a defect, as a
    consistent set may lie beyond it.
    """
    ensure_valid(g, strict=True)
    if any(info.gain < 1 for info in g.nodes.values()):
        raise ValidationError("extraction requires every gain >= 1; normalize first")

    try:
        bounds = solve_mcg(g, r, cap=cap).node_values
    except CapacityError:  # the count of the first node, in id order, that reaches over cap
        counts = (len(reachable(g, v)) for v in sorted(reachable(g, r)))
        count = next(k for k in counts if k > cap)
        raise CapacityError(f"{count} reachable nodes exceed the solver cap {cap}") from None
    # per node: (bit, gain, successor mask as a tester's exits, or as an SUT node's needs)
    order = sorted(bounds, key=lambda u: (bounds[u], u))
    bit = {u: 1 << i for i, u in enumerate(order)}
    table = {}
    for u in order:
        succ = sum(bit[x] for x in g.edges[u])
        table[u] = (bit[u], g.gain(u), 0, succ) if g.owner(u) == SUT else (bit[u], g.gain(u), succ, 0)
    ranks = [bounds[u] for u in order]  # by bit, ascending
    entries: dict[str, WitnessEntry] = {}
    for v in sorted(bounds):
        found = _first_containment_set(g, v, bounds, table, ranks, subset_cap)
        if found is None:
            raise ExtractionError(
                f"no containment set found for `{v}` (bound {bounds[v]}) among the "
                f"first {subset_cap} candidates (subset_cap); "
                f"instance:\n{serialize_game_graph(g)}"
            )
        entries[v] = WitnessEntry(bounds[v], found)
    return Witness(entries)


def _first_containment_set(
    g: GameGraph, v: str, bounds: dict[str, int], table: dict, ranks: list[int], subset_cap: int
) -> frozenset[str] | None:
    """The first consistent containment set for v among `subset_cap` candidates.

    Candidates are {v} plus each subset of the other nodes of reachable(v),
    by ascending size and then in lexicographic node-id order.  Sets are
    bitmasks whose bits follow ascending (bound, id) over reachable(r), as
    ``extract_witness`` numbers it once per call, so the largest bound among
    a set's exits is the bound of the exit mask's highest bit.  As
    gains are >= 1, three rules rule out blocks of candidates untested,
    though the cap still counts them: the block's gain plus a certain exit
    (to a node passed over) already exceeds v's bound; the block has more
    exits above its remaining slack than nodes left to add, and only
    adding its target stops an exit from being one (forced exits); or the
    exits to nodes passed over exceed the room that the nodes still to
    add leave, which rules out the rest of the level.  Before a level is
    walked, one more rule may rule it out whole: its sets gain between v's
    gain plus the `size` least and plus the `size` greatest item gains,
    and their largest exit bound is 0 or another node's bound, so the
    level is skipped when no such bound meets v's bound within that range.
    """
    reach = sorted(reachable(g, v))
    top_bound = [0] + ranks  # indexed by an exit mask's bit_length()
    target = bounds[v]
    if subset_cap < 1:
        return None
    bit_v, gain_v, exits_from, needs = table[v]
    if _singleton_case(g, v, frozenset([v])):
        expected = gain_v + min(bounds[u] for u in g.edges[v])
    else:  # an SUT node here has a self-loop, so {v} meets the structural rule
        expected = gain_v + top_bound[(exits_from & ~bit_v).bit_length()]
    if expected == target:
        return frozenset([v])

    items = [table[u] for u in reach if u != v]  # the other nodes, in id order
    m = len(items)
    decided = list(accumulate((item[0] for item in items), or_))  # bits of items[:i + 1]
    passed = [0] + decided[:-1]  # bits of items[:i]
    after = [decided[-1] ^ d for d in decided]  # bits of items[i + 1:]
    left = subset_cap - 1

    def search(start, size, mask, gain, exits_from, sut_succs):
        """First consistent set of mask plus `size` of items[start:]; spends `left`."""
        nonlocal left
        if size == 1:
            stop = min(m, start + left)
            left -= stop - start
            need = target - gain
            for b, gn, t, s in items[start:stop]:
                p = mask | b
                if (
                    gn + top_bound[((exits_from | t) & ~p).bit_length()] == need
                    and (not s or s & p)
                    and all(x & p for x in sut_succs)
                ):
                    return p
            return None
        room = target - gain - size  # what `size` more gains of at least 1 leave
        for i in range(start, m - size + 1):
            # an exit to a node of items[:i] left out stays one: once those exits
            # alone exceed the room, every later i at this level fails too
            if top_bound[(exits_from & passed[i] & ~mask).bit_length()] > room:
                left -= comb(m - i, size)
                return None
            b, gn, t, s = items[i]
            p = mask | b
            ex = exits_from | t
            slack = room + 1 - gn
            hot = ex & after[i]
            # the same for p at items[:i + 1]; and an exit into items[i + 1:] above the
            # slack stays one unless its target is among the size - 1 items added
            if top_bound[(ex & decided[i] & ~p).bit_length()] > slack or (
                hot.bit_count() >= size and (hot >> bisect_right(ranks, slack)).bit_count() >= size
            ):
                left -= comb(m - i - 1, size - 1)
            else:
                found = search(
                    i + 1, size - 1, p, gain + gn, ex, sut_succs + (s,) if s else sut_succs
                )
                if found is not None:
                    return found
            if left <= 0:
                return None
        return None

    # a level's sets gain v's gain plus between its `size` least and `size` greatest item
    # gains, and their largest exit bound is 0 or a bound in reachable(v); v's own,
    # never an exit's, would need a gain of 0 and so lets no level through
    gains = sorted(item[1] for item in items)
    least = list(accumulate(gains, initial=gain_v))
    most = list(accumulate(reversed(gains), initial=gain_v))
    exit_bounds = sorted({0, *(bounds[u] for u in reach)})
    for size in range(1, m + 1):
        if left <= 0:
            return None
        if not _level_may_hold(exit_bounds, target - most[size], target - least[size]):
            left -= comb(m, size)  # the whole level, as walking it would charge
            continue
        found = search(0, size, bit_v, gain_v, exits_from, (needs,) if needs else ())
        if found is not None:
            return frozenset(u for u in reach if table[u][0] & found)
    return None


def _level_may_hold(exit_bounds: list[int], low: int, high: int) -> bool:
    """Whether some value of the ascending `exit_bounds` lies in [low, high]."""
    i = bisect_left(exit_bounds, low)
    return i < len(exit_bounds) and exit_bounds[i] <= high


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
    for lineno, line in read_lines(text, "ncwitness 1"):
        tokens = line.split()
        if len(tokens) != 4 or tokens[0] != "entry":
            raise ParseError("expected `entry <node> c=<uint> P=<id>[,<id>]*`", lineno)
        name = tokens[1]
        if not ID_RE.fullmatch(name):
            raise ParseError(f"invalid node id `{name}`", lineno)
        if name in entries:
            raise ParseError(f"duplicate entry for `{name}`", lineno)
        if not tokens[2].startswith("c=") or not tokens[3].startswith("P="):
            raise ParseError("expected `c=<uint> P=<id>[,<id>]*`", lineno)
        bound = read_uint(tokens[2][2:], "bound", lineno)
        members = tokens[3][2:].split(",")
        if any(not ID_RE.fullmatch(m) for m in members):
            raise ParseError("containment set must list node ids separated by commas", lineno)
        entries[name] = WitnessEntry(bound, frozenset(members))
    return Witness(entries)


def serialize_witness(w: Witness) -> str:
    """Render a witness in canonical ``ncwitness 1`` text."""
    lines = ["ncwitness 1"]
    for v in sorted(w.entries):
        entry = w.entries[v]
        members = ",".join(sorted(entry.containment))
        lines.append(f"entry {v} c={entry.bound} P={members}")
    return "\n".join(lines) + "\n"
