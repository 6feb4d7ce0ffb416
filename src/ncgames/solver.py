"""Exact solving of node coverage games.

The nodes reachable from the root become the positions of an arena
(``ncgames.arena``), and its layered least-fixed-point kernel evaluates
the max-min coverage value on the product of nodes and covered sets: a
move along an edge (v, v') adds v' to the covered set, and an infinite
play whose covered set stops growing at C pays ν(C).  ``solve_mcg`` also
keeps the value table and the explored layers, which say which states are
reachable; its result reads the optimal policies from them;
``solve_mcg_restart`` runs the same kernel with the tester's restart move.
A tester group is a set S of two or more tester nodes that reach each
other through tester nodes alone, and value(s, C) = value(s, C ∪ S) at s
in S (``ncgames.arena`` states the rule and why it holds).  The restart
arena covers each group as one node of gain ν(S).  ``solve_mcg`` keeps a
bit per node, as its policies must answer at covered sets that hold part
of S; its kernel neither solves nor stores those states, and a move into
one reads the value at C ∪ S.  ``oracle_mcg`` shares only the indexing and
searches the game tree independently.

Solving one instance is single-threaded; distinct instances share no
mutable state and may be solved concurrently.
"""
from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, field, replace
from typing import Iterable

from .arena import _Arena, _tester_groups
from .errors import CapacityError, StrategyError
from .graph import TESTER, GameGraph, ensure_valid, reachable
from .play import StateMachineStrategy


def _node_arena(g: GameGraph, r: str, cap: int) -> _Arena:
    """Arena whose positions are the nodes reachable from r, in id order."""
    ids = sorted(reachable(g, r))
    if len(ids) > cap:
        raise CapacityError(f"{len(ids)} reachable nodes exceed the solver cap {cap}")
    index = {v: i for i, v in enumerate(ids)}
    return _Arena(
        ids=ids,
        index=index,
        succ=[tuple(index[w] for w in g.edges[v]) for v in ids],
        cover=range(len(ids)),
        is_tester=[g.owner(v) == TESTER for v in ids],
        gains=[g.gain(v) for v in ids],
        root=index[r],
    )


def _grouped(arena: _Arena) -> _Arena:
    """A node arena whose tester groups (``ncgames.arena._tester_groups``) share one cover
    bit: the group's least position, carrying the group's summed gain.  Every state of
    a group then covers all of it, so the kernel settles none of them.
    """
    cover, gains = list(arena.cover), list(arena.gains)
    for least, *rest in _tester_groups(arena.succ, arena.is_tester):
        for p in rest:
            cover[p] = least
            gains[least] += gains[p]
            gains[p] = 0
    return replace(arena, cover=cover, gains=gains)


@dataclass
class SolveResult:
    """Game value plus optimal policies on the product arena.

    Policies map (node, covered set) to the chosen successor; they are
    defined for every product state reachable from the solved root, which
    covers every position an opponent can force, and explore's layers say
    which those are.  The solve keeps values only, of the unsettled states,
    and a move is read at ``jump`` of its target (``ncgames.arena``): an SUT
    state moves to its first successor of least value, and the
    first tester lookup in a covered set replays that layer, which names the
    successor that last raised each state, and caches those choices
    (``ncgames.arena`` says why they are exact and cycle-free).  A
    state that is not reached, or of the other owner, raises ``KeyError`` at once.
    ``tester_move`` / ``sut_move`` give single lookups; ``tester_policy`` /
    ``sut_policy`` materialize readable dictionaries (small graphs only).
    """

    value: int
    states_explored: int
    root: str
    _arena: _Arena = field(repr=False)
    _values: dict[int, int] = field(repr=False)
    _layers: dict[int, list[int]] = field(repr=False)
    _choices: dict[int, dict] = field(default_factory=dict, init=False, repr=False, compare=False)

    def _pack(self, node: str, covered: Iterable[str]) -> int:
        idx = self._arena.index
        mask = 0
        for v in covered:
            mask |= 1 << idx[v]
        return (mask << self._arena.shift) | idx[node]

    def _move(self, packed: int, tester: bool) -> int:
        arena = self._arena
        p, mask = packed & ((1 << arena.shift) - 1), packed >> arena.shift
        if p not in self._layers.get(mask, ()) or arena.is_tester[p] != tester:
            raise KeyError(packed)
        here, values, jump = packed - p, self._values, arena.jump  # here = mask << shift
        if not tester:
            return min(arena.succ[p], key=lambda u: values[here | jump[u]])
        if mask not in self._choices:  # replay the layer; its writes stay out of the table
            members = self._layers[mask]
            base = sum(gain for c, gain in enumerate(arena.gains) if mask >> c & 1)
            last = arena.solve_layer(mask, members, base, ChainMap({}, values))
            self._choices[mask] = {q: u for q, u in zip(members, last) if u is not None}
        return self._choices[mask].get(p, arena.succ[p][0])

    def tester_move(self, node: str, covered: Iterable[str]) -> str:
        return self._arena.ids[self._move(self._pack(node, covered), True)]

    def sut_move(self, node: str, covered: Iterable[str]) -> str:
        return self._arena.ids[self._move(self._pack(node, covered), False)]

    def _policy(self, tester: bool) -> dict[tuple[str, frozenset[str]], str]:
        ids, shift, is_tester = self._arena.ids, self._arena.shift, self._arena.is_tester
        out = {}
        for mask, members in self._layers.items():
            covered = frozenset(ids[i] for i in range(len(ids)) if mask & (1 << i))
            for p in members:
                if is_tester[p] == tester:
                    out[(ids[p], covered)] = ids[self._move(mask << shift | p, tester)]
        return out

    def tester_policy(self) -> dict[tuple[str, frozenset[str]], str]:
        return self._policy(True)

    def sut_policy(self) -> dict[tuple[str, frozenset[str]], str]:
        return self._policy(False)


def solve_mcg(g: GameGraph, r: str, cap: int = 20) -> SolveResult:
    """Maximal coverage guarantee from r, with optimal policies.

    The value is the largest coverage gain the tester can force from r no
    matter how the SUT resolves its choices.  Requires a strict graph (no
    sinks) and at most `cap` nodes reachable from r.
    """
    ensure_valid(g, strict=True)
    arena = _node_arena(g, r, cap)
    value, states, values, layers = arena.solve()
    return SolveResult(
        value=value,
        states_explored=states,
        root=r,
        _arena=arena,
        _values=values,
        _layers=layers,
    )


def solve_mcg_restart(g: GameGraph, r: str, cap: int = 20) -> int:
    """Coverage guarantee when the tester may restart the play at r.

    Before the owner of the current node moves, the tester may instead
    send the pebble back to r (keeping the covered set).  Sinks are
    allowed: a play stuck in a sink pays the covered set's gain unless
    restarted.  The accumulated set always contains r, so the restart
    option never leaves the current layer.  Each tester group is covered
    as one node (``_grouped``).
    """
    ensure_valid(g, strict=False)
    return replace(_grouped(_node_arena(g, r, cap)), restart=True).solve()[0]


class OptimalSutStrategy(StateMachineStrategy):
    """SUT strategy replaying a solved game's minimizing policy.

    The strategy state is the covered set; choices follow the solve's SUT
    policy, so they are defined for every position the tester can force
    in plays that start at the solved root.
    """

    def __init__(self, result: SolveResult):
        self._result = result

    def initial_state(self) -> frozenset[str]:
        return frozenset()

    def transition(self, state: frozenset[str], node: str) -> frozenset[str]:
        return state | {node}

    def choose(self, state: frozenset[str], node: str) -> str:
        try:
            return self._result.sut_move(node, state)
        except KeyError:
            raise StrategyError(
                f"no policy entry for node `{node}` with covered set "
                f"{sorted(state)}; strategy is only defined for plays from "
                f"`{self._result.root}`"
            ) from None


def extract_optimal_sut(result: SolveResult) -> OptimalSutStrategy:
    """Finite-state SUT strategy achieving the solved value as its bound."""
    return OptimalSutStrategy(result)


def oracle_mcg(g: GameGraph, r: str, cap: int = 1_000_000) -> int:
    """Independent brute-force value: exhaustive minimax over the product
    arena, exploring every strategy pair through the game tree.

    A play whose (node, covered set) state repeats has closed a cycle both
    players are willing to sustain, so that branch pays the covered set's
    gain.  A position entered with a fresh covered set is history-free and
    is memoized; inside a layer the search carries the exact path, so no
    fixed-point reasoning is shared with solve_mcg.  `cap` bounds the
    number of expanded tree nodes.
    """
    ensure_valid(g, strict=True)
    arena = _node_arena(g, r, len(g.nodes))
    gains = arena.gains
    succ = arena.succ
    is_tester = arena.is_tester
    mask_gain: dict[int, int] = {}
    memo: dict[int, int] = {}
    expanded = 0

    def gain_of(mask: int) -> int:
        cached = mask_gain.get(mask)
        if cached is None:
            cached = sum(gains[i] for i in range(len(gains)) if mask & (1 << i))
            mask_gain[mask] = cached
        return cached

    def layer_val(v: int, mask: int, inpath: set[int]) -> int:
        nonlocal expanded
        expanded += 1
        if expanded > cap:
            raise CapacityError(f"oracle search exceeds {cap} tree nodes")
        options = []
        for u in succ[v]:
            bit = 1 << u
            if mask & bit:
                if u in inpath:
                    options.append(gain_of(mask))
                else:
                    inpath.add(u)
                    options.append(layer_val(u, mask, inpath))
                    inpath.remove(u)
            else:
                options.append(entry_val(u, mask | bit))
        return max(options) if is_tester[v] else min(options)

    def entry_val(v: int, mask: int) -> int:
        packed = (mask << arena.shift) | v
        cached = memo.get(packed)
        if cached is None:
            cached = layer_val(v, mask, {v})
            memo[packed] = cached
        return cached

    return entry_val(arena.root, 1 << arena.root)
