"""The layered least-fixed-point kernel behind every exact coverage value.

An arena numbers its positions 0..P-1.  Position p moves to the positions
``succ[p]``, covers the graph node with bit index ``cover[p]`` and belongs
to the tester when ``is_tester[p]``.  A product state pairs a position
with the mask of covered nodes and is packed as ``(mask << shift) | p``
with ``shift = P.bit_length()``.  A move to u lands in
(u, mask | 1 << cover[u]); an infinite play whose mask stops growing at C
pays ν(C), the summed gain of C.

Covered sets only grow, so the states reachable from the root split into
layers, one per mask, solved in decreasing popcount order.  Within a layer,
moves that leave it have settled values and every state is worth at least
its floor ν(C), so the layer's max-min value is the least fixed point of
the one-step operator started at ν(C) everywhere, which synchronous
rounds reach by raising values only.

Tester policies must avoid value-preserving cycles inside a layer, so a
recorded tester choice is the option that strictly raised the state's
value in the round its final value was reached, judged against the
previous round's table; a state that never rose keeps ``succ[p][0]``.  The
SUT choice is the first argmin at the fixed point, which is always safe
for the minimizer.
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
    shift: int = field(init=False)
    bits: list[int] = field(init=False)  # 1 << cover[p]

    def __post_init__(self):
        self.shift = len(self.succ).bit_length()
        self.bits = [1 << c for c in self.cover]

    def explore(self, restart: bool = False, state_cap: float = math.inf):
        """Product states reachable from (root, {root}), layered by mask.

        Returns (layers, mask_gain): layers maps a mask to the sorted
        positions present with it, mask_gain maps it to ν(mask).  With
        ``restart`` every state also reaches (root, same mask).
        """
        succ, cover, gains, bits, shift, root = (
            self.succ, self.cover, self.gains, self.bits, self.shift, self.root
        )
        mask_gain = {bits[root]: gains[cover[root]]}
        start = (bits[root] << shift) | root
        low = (1 << shift) - 1
        seen = {start}
        layers: dict[int, list[int]] = {}
        stack = [start]
        while stack:
            key = stack.pop()
            p = key & low
            mask = key >> shift
            layers.setdefault(mask, []).append(p)
            for u in succ[p] + (root,) if restart else succ[p]:
                m2 = mask | bits[u]
                if m2 not in mask_gain:
                    mask_gain[m2] = mask_gain[mask] + gains[cover[u]]
                nxt = (m2 << shift) | u
                if nxt not in seen:
                    if len(seen) >= state_cap:
                        raise CapacityError(f"search state space exceeds cap {state_cap}")
                    seen.add(nxt)
                    stack.append(nxt)
        for members in layers.values():
            members.sort()
        return layers, mask_gain

    def solve(self, restart: bool = False, record: bool = False, state_cap: float = math.inf):
        """Root value, number of reachable states, tester and SUT policies.

        With ``restart`` a state's floor is the value of (root, same mask)
        rather than ν(C), and a sink's only value is its floor.  With
        ``record`` (plain arenas only) the policies map each packed state
        to the chosen successor position; otherwise they stay empty.
        """
        layers, mask_gain = self.explore(restart, state_cap)
        succ, is_tester, bits, shift = self.succ, self.is_tester, self.bits, self.shift
        values: dict[int, int] = {}
        tester: dict[int, int] = {}
        sut: dict[int, int] = {}
        for mask in sorted(layers, key=lambda m: (-m.bit_count(), m)):
            members = layers[mask]
            n = len(members)
            base = mask_gain[mask]
            hi = mask << shift
            slot = {p: i for i, p in enumerate(members)}
            # table[:n] holds the layer's values, settled exits follow
            table = [base] * n
            work = []
            live = []  # states whose value can still change after the first round
            for i, p in enumerate(members):
                row = []
                inside = restart
                for u in succ[p]:
                    if mask & bits[u]:
                        row.append(slot[u])
                        inside = True
                    else:
                        row.append(len(table))
                        table.append(values[((mask | bits[u]) << shift) | u])
                if not row:
                    row.append(len(table))
                    table.append(base)
                item = (i, p, is_tester[p], row)
                work.append(item)
                if inside:
                    live.append(item)
            home = slot[self.root] if restart else 0
            todo = work
            while todo:
                prev = table[:]
                floor = prev[home] if restart else base
                changed = False
                for i, p, own, row in todo:
                    if own:
                        best = floor
                        for k in row:
                            if prev[k] > best:
                                best = prev[k]
                    else:
                        best = prev[row[0]]
                        for k in row:
                            if prev[k] < best:
                                best = prev[k]
                        if best < floor:
                            best = floor
                    if best > prev[i]:
                        table[i] = best
                        changed = True
                        if record and own:
                            tester[hi | p] = succ[p][[prev[k] for k in row].index(best)]
                todo = live if changed else ()
            for i, p, own, row in work:
                key = hi | p
                values[key] = table[i]
                if record:
                    if own:
                        tester.setdefault(key, succ[p][0])
                    else:
                        vals = [table[k] for k in row]
                        sut[key] = succ[p][vals.index(min(vals))]
        return values[(bits[self.root] << shift) | self.root], len(values), tester, sut
