"""Plays, strategies, bounded play simulation, and exhaustive search helpers.

A play prefix is a tuple of node ids respecting the graph's edges.  A
strategy for a player is any callable mapping a play prefix (whose last
node the player owns) to one successor of that node; positional strategies
specialize this to a per-node choice table.

``StateMachineStrategy`` is the finite-state SUT interface used by
certificate checking and by ``best_response_gain``: the strategy exposes a
hashable state, updates it on every node the pebble visits, and picks a
successor whenever the pebble sits on an SUT node.

Strategy objects are single-play; independent simulations can run
concurrently as long as each gets its own strategy instances and RNG
stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Hashable, Iterator, Mapping

from .arena import _Arena
from .errors import CapacityError, StrategyError, ValidationError
from .graph import SUT, TESTER, GameGraph, ensure_valid

PlayPrefix = tuple[str, ...]
StrategyFn = Callable[[PlayPrefix], str]


class StateMachineStrategy:
    """Finite-state SUT strategy: (state, node) -> next state / chosen successor.

    ``transition`` runs once for every node the pebble arrives at (including
    tester nodes and the initial node); ``choose`` is consulted afterwards
    when the node belongs to the SUT.  States must be hashable and the
    state space finite; both methods must be pure (exhaustive search
    replays them on arbitrary interleavings).
    """

    def initial_state(self) -> Hashable:
        return None

    def transition(self, state: Hashable, node: str) -> Hashable:
        return state

    def choose(self, state: Hashable, node: str) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class PositionalStrategy(StateMachineStrategy):
    """Memoryless strategy: a fixed successor choice per owned node."""

    player: int
    moves: Mapping[str, str]

    def __call__(self, prefix: PlayPrefix) -> str:
        return self.moves[prefix[-1]]

    def choose(self, state: Hashable, node: str) -> str:
        return self.moves[node]


def as_strategy_fn(strategy) -> StrategyFn:
    """Adapt a StateMachineStrategy (or pass through a callable) for
    simulate_play.  The state is recomputed from the prefix on every call,
    so the returned function is stateless and reusable across plays."""
    if isinstance(strategy, StateMachineStrategy) and not callable(strategy):
        def fn(prefix: PlayPrefix) -> str:
            state = strategy.initial_state()
            for node in prefix:
                state = strategy.transition(state, node)
            return strategy.choose(state, prefix[-1])

        return fn
    if callable(strategy):
        return strategy
    raise TypeError(f"not a strategy: {strategy!r}")


def positional_bound(g: GameGraph) -> int:
    """Simulation bound after which positional-pair coverage has stabilized."""
    return len(g.nodes) + 1


def simulate_play(
    g: GameGraph,
    r: str,
    s1: StrategyFn | StateMachineStrategy,
    s2: StrategyFn | StateMachineStrategy,
    max_steps: int,
) -> PlayPrefix:
    """Prefix (at most max_steps nodes) of the unique play from r that
    conforms to tester strategy s1 and SUT strategy s2.

    Raises StrategyError when a strategy returns a non-successor.
    """
    ensure_valid(g, strict=True)
    if r not in g.nodes:
        raise ValueError(f"unknown node `{r}`")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    f1 = as_strategy_fn(s1)
    f2 = as_strategy_fn(s2)
    prefix = [r]
    while len(prefix) < max_steps:
        v = prefix[-1]
        fn = f1 if g.owner(v) == TESTER else f2
        choice = fn(tuple(prefix))
        if choice not in g.edges[v]:
            raise StrategyError(
                f"strategy chose `{choice}`, not a successor of `{v}` "
                f"(prefix: {' '.join(prefix)})"
            )
        prefix.append(choice)
    return tuple(prefix)


def check_log_consistency(prefix: PlayPrefix, g: GameGraph) -> bool:
    """True iff every revisited SUT node repeats its earlier choice.

    Vacuously true when no SUT node occurs twice before the last position.
    """
    first_choice: dict[str, str] = {}
    for i in range(len(prefix) - 1):
        v = prefix[i]
        if g.owner(v) != SUT:
            continue
        nxt = prefix[i + 1]
        if v in first_choice:
            if first_choice[v] != nxt:
                return False
        else:
            first_choice[v] = nxt
    return True


def enumerate_positional(
    g: GameGraph, player: int, cap: int = 1_000_000
) -> Iterator[PositionalStrategy]:
    """Yield every positional strategy of `player`, in deterministic order.

    The number of strategies is the product of out-degrees over the
    player's nodes; exceeding `cap` raises CapacityError before yielding.
    """
    owned = [v for v in g.node_ids() if g.owner(v) == player]
    choice_lists = []
    for v in owned:
        succs = g.edges[v]
        if not succs:
            raise ValidationError(f"sink: {v}")
        choice_lists.append(succs)
    count = math.prod(len(c) for c in choice_lists)
    if count > cap:
        raise CapacityError(f"{count} positional strategies exceed cap {cap}")

    def gen() -> Iterator[PositionalStrategy]:
        for combo in product(*choice_lists):
            yield PositionalStrategy(player, dict(zip(owned, combo)))

    return gen()


def best_response_gain(
    g: GameGraph,
    r: str,
    sut: StateMachineStrategy,
    state_cap: int = 1_000_000,
) -> int:
    """Maximum coverage gain any tester behavior can achieve from r against
    the fixed finite-state SUT strategy.

    The arena's positions are the reachable (node, SUT state) pairs, and
    an SUT position's only successor is the strategy's choice, so the
    tester is left alone in the game.  Its value under the layered
    least-fixed-point kernel (``ncgames.arena``) is the best response.
    ``state_cap`` bounds the number of (node, covered set, SUT state)
    product states.
    """
    ensure_valid(g, strict=True)
    if r not in g.nodes:
        raise ValueError(f"unknown node `{r}`")

    root = (r, sut.transition(sut.initial_state(), r))
    ids = [root]
    index = {root: 0}
    succ = []
    for v, s in ids:  # ids grows while it is walked
        if g.owner(v) == TESTER:
            choices = g.edges[v]
        else:
            chosen = sut.choose(s, v)
            if chosen not in g.edges[v]:
                raise StrategyError(f"SUT strategy chose `{chosen}`, not a successor of `{v}`")
            choices = (chosen,)
        row = []
        for u in choices:
            pos = (u, sut.transition(s, u))
            if pos not in index:
                # each position is at least one product state
                if len(ids) >= state_cap:
                    raise CapacityError(f"search state space exceeds cap {state_cap}")
                index[pos] = len(ids)
                ids.append(pos)
            row.append(index[pos])
        succ.append(tuple(row))

    nodes = g.node_ids()
    bit = {v: i for i, v in enumerate(nodes)}
    arena = _Arena(
        ids=ids,
        index=index,
        succ=succ,
        cover=[bit[v] for v, _ in ids],
        is_tester=[g.owner(v) == TESTER for v, _ in ids],
        gains=[g.gain(v) for v in nodes],
        root=0,
    )
    return arena.solve(state_cap=state_cap)[0]
