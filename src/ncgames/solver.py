"""Exact solving of node coverage games.

The nodes reachable from the root become the positions of an arena
(``ncgames.arena``), and its layered least-fixed-point kernel evaluates
the max-min coverage value on the product of nodes and covered sets: a
move along an edge (v, v') adds v' to the covered set, and an infinite
play whose covered set stops growing at C pays ν(C).  Two rules settle
states before they are solved (``ncgames.arena`` states them and why they
hold).  A forced node has one successor, not itself, and is not the root,
so a move into a chain of forced nodes is worth the state at the chain's
end with the whole chain covered.  A forcing group is a set S of two or
more nodes that the tester can force the play to reach from each other,
whatever the SUT answers, and value(s, C) = value(s, C ∪ S) at s in S.
The kernel's solve follows both rules, so it enters no state of a forced
node and none that covers a group in part; the state it reads a move at
may lie on no play from the root.  Policies must answer at every
reachable state, so ``SolveResult`` builds the full table, one solve
from the state each reachable state is worth, the first time a policy or
a state count needs it.  The restart game is a plain arena too, with the
restart as one more tester move.
``oracle_mcg`` shares only the indexing and searches the game tree
independently.

Solving one instance is single-threaded; distinct instances share no
mutable state and may be solved concurrently.
"""
from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .arena import _Arena, _gain
from .errors import CapacityError, StrategyError
from .graph import SUT, TESTER, GameGraph, ensure_valid, reachable
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


@dataclass
class SolveResult:
    """Game value plus optimal policies on the product arena.

    The value comes from the solve from the root (``_Arena.solve``), whose value
    table is kept, with the root's layer alone, for the tester's move at the root
    state: the root's layer is the root alone there and in the full table, so its
    replay reads the same exits.  Every other answer reads the full table
    (``_Arena.full_table``): the layers of every reachable state, and the values of
    one solve started at each one's ``jump`` state, the state it is worth.  It is
    built once, on first use of ``states_explored``, ``_values``, ``_layers``, an
    SUT move, a policy, or a tester lookup elsewhere, and takes no part in
    equality.  A value table holds one row per solved layer, keyed by its mask and
    indexed by position (``ncgames.arena``).

    Policies map (node, covered set) to the chosen successor; they are
    defined for every product state reachable from the solved root, which
    covers every position an opponent can force, and the full table's layers
    say which those are.  A move is read at ``jump`` of its target, the end of
    its forced chain (``ncgames.arena``): an SUT state moves to its first
    successor of least value, and the first tester lookup in a covered set
    replays that layer, which names the successor that last raised each state,
    and caches those choices (``ncgames.arena`` says why they are exact and
    cycle-free).  A state that is not reached, or of the other owner, raises
    ``KeyError`` without a replay, and a covered set that lacks the root or the
    looked-up node raises it before the full table is built.  ``tester_move`` /
    ``sut_move`` give single lookups; ``tester_policy`` / ``sut_policy``
    materialize readable dictionaries (small graphs only).

    ``node_values`` gives the value from every reachable node at once, from one
    more solve started at all of them, built on first use and taking no part in
    equality either.
    """

    value: int
    root: str
    _arena: _Arena = field(repr=False)
    _reduced: tuple[dict, dict[int, list[int]]] = field(repr=False)  # values, the root's layer
    _choices: dict[int, dict] = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def _full(self) -> tuple[int, dict, dict[int, list[int]]]:
        """States explored, values and layers of the full table."""
        return self._arena.full_table()[1:]

    @cached_property
    def node_values(self) -> dict[str, int]:
        """Each reachable node's value, the game value were the node the root.

        One solve starts at ``jump[v]`` from the empty mask for every node v, the state
        a move to v is worth, so forced chains and forcing groups settle as in any other
        move; the value of a state does not depend on the root.
        """
        arena = self._arena
        values = arena.solve(starts=arena.jump)[2]
        return {v: arena.read(values, j) for v, j in zip(arena.ids, arena.jump)}

    @property
    def states_explored(self) -> int:
        """Product states reachable from the root."""
        return self._full[0]

    @property
    def _values(self) -> dict:
        return self._full[1]

    @property
    def _layers(self) -> dict[int, list[int]]:
        return self._full[2]

    def _pack(self, node: str, covered: Iterable[str]) -> int:
        idx = self._arena.index
        mask = 0
        for v in covered:
            mask |= 1 << idx[v]
        return (mask << self._arena.shift) | idx[node]

    def _move(self, packed: int, tester: bool) -> int:
        arena = self._arena
        p, mask = packed & ((1 << arena.shift) - 1), packed >> arena.shift
        need = arena.bits[arena.root] | arena.bits[p]  # every reached state covers both
        if arena.is_tester[p] != tester or mask & need != need:
            raise KeyError(packed)
        values, layers = self._reduced if tester and packed == arena.step[arena.root] else self._full[1:]
        if p not in layers.get(mask, ()):
            raise KeyError(packed)
        here, jump = packed - p, arena.jump  # here = mask << shift
        if not tester:
            return min(arena.succ[p], key=lambda u: arena.read(values, here | jump[u]))
        if mask not in self._choices:  # replay the layer; its writes stay out of the table
            members = layers[mask]
            last = arena.solve_layer(mask, members, _gain(arena.gains, mask), ChainMap({}, values))
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
    value, _states, values = arena.solve()
    root = arena.root  # the root's layer is the root alone: no other position covers its bit
    return SolveResult(value=value, root=r, _arena=arena, _reduced=(values, {arena.bits[root]: [root]}))


def _restart_arena(g: GameGraph, r: str, cap: int) -> _Arena:
    """The restart game as a plain arena on the nodes reachable from r, in id order: a
    node that is its own chain end offers the tester one more move, back to r.  A tester
    node or a sink takes r as a move; an SUT node becomes a tester entry that moves to r
    or to a second, SUT-owned position ``(node, SUT)`` with the node's cover bit and
    moves.  A forced node keeps its single move: a restart at its chain's end keeps a
    larger covered set, which never lowers the pay.
    """
    arena = _node_arena(g, r, cap)
    root, position = arena.root, (1 << arena.shift) - 1
    ids, succ = list(arena.ids), list(arena.succ)
    cover, is_tester = list(arena.cover), list(arena.is_tester)
    for p, moves in enumerate(arena.succ):
        if arena.jump[p] & position != p or is_tester[p] and root in moves:  # forced, or moves to r
            continue
        if is_tester[p] or not moves:
            succ[p] = moves + (root,)
        else:
            succ[p], is_tester[p] = (root, len(ids)), True
            ids.append((ids[p], SUT))
            succ.append(moves)
            cover.append(cover[p])
            is_tester.append(False)
    return _Arena(ids=ids, index={v: i for i, v in enumerate(ids)}, succ=succ, cover=cover,
                  is_tester=is_tester, gains=arena.gains, root=root)


def solve_mcg_restart(g: GameGraph, r: str, cap: int = 20) -> int:
    """Coverage guarantee when the tester may restart the play at r.

    Before the owner of the current node moves, the tester may instead
    send the pebble back to r (keeping the covered set).  Sinks are
    allowed: a play stuck in a sink pays the covered set's gain unless
    restarted.  The value is that of ``_restart_arena``, a plain arena.
    """
    ensure_valid(g, strict=False)
    return _restart_arena(g, r, cap).solve()[0]


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
