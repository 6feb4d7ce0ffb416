"""Exact solving of node coverage games.

The nodes reachable from the root become the positions of an arena
(``ncgames.arena``), and its layered least-fixed-point kernel evaluates
the max-min coverage value on the product of nodes and covered sets: a
move along an edge (v, v') adds v' to the covered set, and an infinite
play whose covered set stops growing at C pays ν(C).  ``solve_mcg`` also
records the optimal policies; ``solve_mcg_restart`` runs the same kernel
with the tester's restart move.  ``oracle_mcg`` shares only the indexing
and searches the game tree independently.

Solving one instance is single-threaded; distinct instances share no
mutable state and may be solved concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .arena import _Arena
from .errors import CapacityError, StrategyError
from .graph import TESTER, GameGraph, ensure_valid, reachable
from .play import StateMachineStrategy

_MAX_NODES = 64  # 2^n covered sets: wider games are refused whatever the cap


def _node_arena(g: GameGraph, r: str, cap: int) -> _Arena:
    """Arena whose positions are the nodes reachable from r, in id order."""
    if r not in g.nodes:
        raise ValueError(f"unknown node `{r}`")
    ids = sorted(reachable(g, r))
    limit = min(cap, _MAX_NODES)
    if len(ids) > limit:
        raise CapacityError(f"{len(ids)} reachable nodes exceed the solver cap {limit}")
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

    Policies map (node, covered set) to the chosen successor; they are
    defined for every product state reachable from the solved root, which
    covers every position an opponent can force.  ``tester_move`` /
    ``sut_move`` give single lookups; ``tester_policy`` / ``sut_policy``
    materialize readable dictionaries (small graphs only).
    """

    value: int
    states_explored: int
    root: str
    _arena: _Arena = field(repr=False)
    _tester: dict[int, int] = field(repr=False)
    _sut: dict[int, int] = field(repr=False)

    def _pack(self, node: str, covered: Iterable[str]) -> int:
        idx = self._arena.index
        mask = 0
        for v in covered:
            mask |= 1 << idx[v]
        return (mask << self._arena.shift) | idx[node]

    def tester_move(self, node: str, covered: Iterable[str]) -> str:
        return self._arena.ids[self._tester[self._pack(node, covered)]]

    def sut_move(self, node: str, covered: Iterable[str]) -> str:
        return self._arena.ids[self._sut[self._pack(node, covered)]]

    def _unpack_policy(self, table: dict[int, int]) -> dict[tuple[str, frozenset[str]], str]:
        ids, shift = self._arena.ids, self._arena.shift
        out = {}
        for packed, u in table.items():
            v = ids[packed & ((1 << shift) - 1)]
            mask = packed >> shift
            covered = frozenset(ids[i] for i in range(len(ids)) if mask & (1 << i))
            out[(v, covered)] = ids[u]
        return out

    def tester_policy(self) -> dict[tuple[str, frozenset[str]], str]:
        return self._unpack_policy(self._tester)

    def sut_policy(self) -> dict[tuple[str, frozenset[str]], str]:
        return self._unpack_policy(self._sut)


def solve_mcg(g: GameGraph, r: str, cap: int = 20) -> SolveResult:
    """Maximal coverage guarantee from r, with optimal policies.

    The value is the largest coverage gain the tester can force from r no
    matter how the SUT resolves its choices.  Requires a strict graph (no
    sinks) and at most `cap` nodes reachable from r.
    """
    ensure_valid(g, strict=True)
    arena = _node_arena(g, r, cap)
    value, states, tester, sut = arena.solve(record=True)
    return SolveResult(
        value=value,
        states_explored=states,
        root=r,
        _arena=arena,
        _tester=tester,
        _sut=sut,
    )


def solve_mcg_restart(g: GameGraph, r: str, cap: int = 20) -> int:
    """Coverage guarantee when the tester may restart the play at r.

    Before the owner of the current node moves, the tester may instead
    send the pebble back to r (keeping the covered set).  Sinks are
    allowed: a play stuck in a sink pays the covered set's gain unless
    restarted.  The accumulated set always contains r, so the restart
    option never leaves the current layer.
    """
    ensure_valid(g, strict=False)
    return _node_arena(g, r, cap).solve(restart=True)[0]


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
    arena = _node_arena(g, r, _MAX_NODES)
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
