"""The layered least-fixed-point kernel behind every exact coverage value.

An arena numbers its positions 0..P-1.  Position p moves to the positions
``succ[p]``, covers the graph node with bit index ``cover[p]`` and belongs
to the tester when ``is_tester[p]``.  A product state pairs a position
with the mask of covered nodes and is packed as ``(mask << shift) | p``
with ``shift = P.bit_length()``.  A move to u lands in
(u, mask | 1 << cover[u]); an infinite play whose mask stops growing at C
pays ν(C), the summed gain of C.

Covered sets only grow, so the states reachable from the root split into
layers, one per mask, and a move either stays in its layer or enters a
mask of popcount one higher.  Exploration therefore visits the masks in
nondecreasing popcount order and finds each layer by a search inside its
mask, started from the positions entered from smaller masks; the solve
walks the layers in the reverse order.  Within a layer, moves that leave
it have settled values and every state is worth at least its floor ν(C),
so the layer's max-min value is the least fixed point of the one-step
operator started at ν(C) everywhere, which synchronous rounds reach by
raising values only.  Every round reads the previous round's values and
applies its raises afterwards; after the first round it re-evaluates only
the states with an in-layer successor that rose in the previous round
(every state, when the floor rose), since no other state can rise.  The
floor is one table slot: ν(C), or the root's value in a restarting arena
(the tester's restart move keeps C), and a sink moves only to it.

Tester policies must avoid value-preserving cycles inside a layer, so a
tester choice is the option that strictly raised the state's value in the
round its final value was reached, judged against the previous round's
table (``succ[p][0]`` if it never rose); an SUT state moves to its first
successor of least value, which is always safe for the minimizer.  The
solve keeps values only: a layer's rounds read just its floor and settled
exits, so running ``solve_layer`` again on a solved layer repeats them and
names the same choices, which ``ncgames.solver.SolveResult`` does on lookup.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Sequence

from .errors import CapacityError


@dataclass
class _Arena:
    ids: list[Hashable]  # position labels
    index: dict[Hashable, int]  # label -> position
    succ: list[tuple[int, ...]]
    cover: Sequence[int]
    is_tester: list[bool]
    gains: list[int]  # by cover bit index
    root: int
    restart: bool = False  # the tester may send the pebble back to the root
    shift: int = field(init=False)
    bits: list[int] = field(init=False)  # 1 << cover[p]

    def __post_init__(self):
        self.shift = len(self.succ).bit_length()
        self.bits = [1 << c for c in self.cover]

    def explore(self, state_cap: float = math.inf):
        """Product states reachable from (root, {root}), layered by mask.

        Returns (layers, mask_gain): layers maps each mask, in nondecreasing
        popcount order, to the sorted positions present with it; mask_gain
        maps it to ν(mask).  A restarting arena has the root in every layer.
        Only a count above max(state_cap, 1) raises, since the root state is
        always admitted.
        """
        succ, cover, gains, bits, root = self.succ, self.cover, self.gains, self.bits, self.root
        mask_gain = {bits[root]: gains[cover[root]]}
        layers: dict[int, list[int]] = {}
        level = {bits[root]: {root}}  # masks of one popcount -> positions reached so far
        count = 0
        while level:
            entered: dict[int, set[int]] = {}  # the next popcount's masks
            for mask, seen in level.items():
                if self.restart:
                    seen.add(root)
                stack = list(seen)
                while stack:
                    for u in succ[stack.pop()]:
                        if mask & bits[u]:
                            if u not in seen:
                                seen.add(u)
                                stack.append(u)
                        else:
                            m2 = mask | bits[u]
                            if m2 in entered:
                                entered[m2].add(u)
                            else:
                                entered[m2] = {u}
                                mask_gain[m2] = mask_gain[mask] + gains[cover[u]]
                count += len(seen)
                if count > state_cap and count > 1:
                    raise CapacityError(f"search state space exceeds cap {state_cap}")
                layers[mask] = sorted(seen)
            level = entered
        return layers, mask_gain

    def solve(self, state_cap: float = math.inf):
        """Root value, number of reachable states and the value table of every packed state."""
        layers, mask_gain = self.explore(state_cap)
        values: dict[int, int] = {}
        for mask in reversed(layers):
            self.solve_layer(mask, layers[mask], mask_gain[mask], values)
        return values[(self.bits[self.root] << self.shift) | self.root], len(values), values

    def solve_layer(self, mask: int, members: list[int], base: int, values: dict):
        """Solve the layer of ``mask`` (sorted ``members``) into ``values``, which holds its
        exits.  The floor is one table slot, ``home``: ``base`` = ν(mask), or the root's
        value in a restarting arena.  Returns each member's row (its successors' table
        slots) and the slot that last raised it, or None.
        """
        succ, is_tester, bits, shift = self.succ, self.is_tester, self.bits, self.shift
        n = len(members)
        slot = {p: i for i, p in enumerate(members)}
        # table[:n] holds the layer's values, table[n] = ν(mask), settled exits follow
        table = [base] * (n + 1)
        home = slot[self.root] if self.restart else n
        rows = []
        preds: list[list[int]] = [[] for _ in range(n)]  # in-layer predecessors
        for i, p in enumerate(members):
            row = []
            for u in succ[p]:
                if mask & bits[u]:
                    row.append(slot[u])
                    preds[slot[u]].append(i)
                else:
                    row.append(len(table))
                    table.append(values[((mask | bits[u]) << shift) | u])
            rows.append(row or [home])  # a sink only reaches its floor
        last: list[int | None] = [None] * n
        todo = range(n)
        while todo:
            floor = table[home]
            raised = []
            for i in todo:
                row = rows[i]
                if is_tester[members[i]]:
                    best, arg = floor, None  # a rise to the floor has no slot
                    for k in row:
                        if table[k] > best:
                            best = table[k]
                            arg = k  # the first slot of the largest value
                else:
                    best, arg = table[row[0]], None
                    for k in row:
                        if table[k] < best:
                            best = table[k]
                    if best < floor:
                        best = floor
                if best > table[i]:
                    raised.append((i, best, arg))
            todo = set()
            for i, best, arg in raised:
                table[i] = best
                last[i] = arg
                todo.update(preds[i])
            if table[home] > floor:
                todo = range(n)
        values.update(zip([(mask << shift) | p for p in members], table))
        return rows, last
