"""The layered least-fixed-point kernel behind every exact coverage value.

An arena numbers its positions 0..P-1.  Position p moves to the positions
``succ[p]``, at least one, covers the graph node with bit index ``cover[p]``
and belongs to the tester when ``is_tester[p]``.  A product state pairs a
position with the mask of covered nodes and is packed as
``(mask << shift) | p`` with ``shift = P.bit_length()``.  A move to u lands
in (u, mask | 1 << cover[u]); an infinite play whose mask stops growing at
C pays ν(C), the summed gain of C.

Covered sets only grow, so the states reachable from the exploration's
start states, the root state (root, {root}) unless others are given, split
into layers, one per mask, and a move either stays in its layer or enters a
strictly larger mask, of higher popcount.  Exploration keeps the masks
entered so far in buckets by gain and popcount and takes them in
nondecreasing (ν(mask), popcount) order, which puts every mask after its
subsets even where gains are 0, and is the popcount order when every gain
is 1; it finds each layer by a search inside its mask, started from the
positions entered from smaller masks, and the solve walks the layers in
the reverse order.  Within a layer, moves that leave it have
settled values and every state is worth at least its floor ν(C), so the
layer's max-min value is the least fixed point of the one-step operator
started at ν(C) everywhere.  Any iteration that applies the operator to
some of the states at a time, and so raises values only, stays at or below
that fixed point, and once no state can rise it has reached it.

Some states are settled before their layer is solved, by two rules.  A
position is forced when it has exactly one successor, that successor is
not itself, and it is not the root.  At a forced p moving to u,
value(p, C) = value(u, C ∪ {u}): in a layer the least fixed point gives p
the value of u.  Following forced positions from u ends at the first
position t that is not forced, with every position on the way covered.  A
walk that closes a cycle of forced positions ends at the cycle's least
position, with the whole cycle covered: that position's only move comes
back to it inside its layer, so it is worth the floor, as every state of
the cycle is.  The root is never forced, so that its states, the root
state above all, where a solve from the root starts and the tester's
first move is looked up, are solved and stored as themselves: forcing it
would keep every value but drop them from the full table below.  A
forcing group S (``_forcing_groups``) is a class of two or more positions
each of which the tester can force the play to reach from any other,
whatever the SUT answers; cov(S) is the mask of their cover bits.  At p
in S, value(p, C) = value(p, C ∪ cov(S)).  (≥) Composing its attractor
strategies (Zielonka 1998), the tester forces the play from p to each
position of S in turn and back to p, in finitely many moves, with some
C' ⊇ C ∪ cov(S) covered, and then plays on as from (p, C'), which is
worth at least value(p, C ∪ cov(S)).  (≤) A larger covered set never
lowers the pay.

So ``jump[u]`` packs the state that a move to u is worth, with the mask
it adds: the chain's end t (u itself when u is not forced), and the
chain's cover bits with cov(S) if t is in a group S.  A move to u from
mask C is worth the value at (C << shift) | ``jump[u]``; ``moves[p]``
holds, per successor u of p, the triple (u, m, t) of that mask m and
position t, so the state is (t, C | m).  A state (p, C) is unsettled when
that state is (p, C) itself, that is when p is not forced, or is the
position its cycle keeps, and C covers its group and cycle; every other
state is settled, and is worth the unsettled state (C << shift) |
``jump[p]``.

That state need not be reachable along ``step`` from the state it
settles: the plays the tester forces between members of S may pass
positions outside S, so no play may come back to t with exactly
C ∪ cov(S) and the chain covered.

A value table maps the mask of each solved layer to one row indexed by
position, which holds the values of the layer's solved members and 0
elsewhere: a ``bytearray`` of P when ν(all nodes) < 256, since every value
lies between 0 and ν(all nodes), and a list otherwise.  The value of (t, C)
is ``values[C][t]``, and ``read`` takes it at a packed state.  A row costs
P bytes, or P list slots, per layer, however few states the layer holds.

The solve explores along ``jump``: a move to u enters the chain's end with
jump[u]'s mask added, so one move may add several bits, and a start state
is entered as it is.  It enters no settled state but its starts, and its
values are exact: both rules hold at every state, reachable or not.  Each
of its layers is a set of unsettled states that is closed under the
moves staying in the mask, and reads every other move at its ``jump``
state; the least fixed point of such a closed set is that of the whole
layer restricted to it.  A settled start, such as the root state of a
root in a forcing group, is solved in its layer like any other, and its
exits are exact, so it is too.  The solve from the root starts at two
states: the root state, in whose layer the tester's first move is read,
and jump[root], where the root value is read, since the moves from the
root state may not reach that state.

The root value needs only the states whose gain lies below it, since every
other state is worth at least its floor.  ``root_value`` solves from the
same two starts in rounds.  Each explores with a budget, ``_FIRST_BUDGET``
states at first, and starts no further gain level once the budget is
entered, so every mask it leaves unexplored has gain at least ``bound``,
the least gain among them.  Every exit into such a mask reads one shared
row of ``bound``; bound ≤ ν(all nodes), so the row fits a byte whenever
rows are bytes.  An unexplored state is worth at least its floor, so at
least ``bound``, and min(·, bound) commutes with max and min: the round's
table holds min(value, bound) at every state it solves.  So once the root
reads below ``bound`` its value is exact, and so are the tester's choices
in the root's layer, since each exit of that layer is worth at most the
root value and reads exactly.  Otherwise the budget is multiplied by 4 and
the next round explores afresh; a round that leaves nothing unexplored is
the full solve.  This is iterative deepening (Korf 1985) on the threshold
the tester can guarantee.

A solve may start at many states.  Started at jump[v], from the empty
mask, for every position v, it values every position: that state is worth
value(v, {v}), the value of the game rooted at v, since both rules hold at
any root and a state's value does not depend on the root.  The full table
is the only exploration along ``step`` (a move to u adds ``bits[u]``): it
explores every state reachable from the root state, keeps those layers,
and takes its values from one solve started at every reachable state's
``jump`` state.  A move from (p, C) to u lands in the reachable state
(u, C | bits[u]) and is read at (C | bits[u]) | jump[u], since jump[u]'s
mask holds bits[u]; so every exit and every lookup finds its state.  Only
``SolveResult``'s policies and state count read the full table.

The solve values each layer with ``value_layer``, which needs every
member that is not a start of the solve to be unsettled, as the solve's
layers are.  In a layer of mask C it takes a move (u, m, t) as in-layer
exactly when C | m is C: the chain stays in the layer and the move goes to
its end t, which is unsettled there and so a member, entered by the
exploration.  Any other move is an exit, worth ``values[C | m][t]``; that
includes a move to a settled start, whose value the exit gives exactly.

Round 1 reads the floor in every in-layer state, so it runs while the
layer's in-layer moves are listed: a tester takes the larger of its floor
and its best exit, and an SUT state takes its floor if it has an in-layer
move, else the larger of the floor and its least exit.  ``value_layer``
keeps its values in the layer's row and then runs a worklist of the
members raised: taking q at value v, it raises each in-layer tester
predecessor below v to v, and takes each in-layer SUT predecessor below v
to the larger of its floor and the least of its least exit and its
in-layer successors; whatever rises is pushed.  No state is read again
unless a successor rose, and each raise is passed on once.

Tester policies must avoid value-preserving cycles inside a layer.
``choices`` reads them off a solved table and solves nothing.  It takes
all of a layer's reachable members, each worth the value at its ``jump``
state, and a move to a member as in-layer to that member; its exits lie
in larger masks, whose values settling leaves unchanged.  Synchronous
rounds from the floor, each applying the one-step operator to every
member at once, start with round 1 above and first raise a state to at
least v in round k + 1 exactly when it has rank k in the tester attractor
of the members whose round-1 value is at least v: a tester joins at rank
r + 1 once one in-layer successor has joined by rank r, and an SUT member
whose exits are all at least v once every in-layer successor has.  A
tester rising in a round takes its first successor of the largest value
in the previous round, and in-layer those of value v are those of least
rank for v.  So a tester worth its best exit, above the floor, takes the
first exit of that value; one worth v above both takes its first in-layer
successor, in move order, of least rank for v; and any other, worth its
floor, moves to ``succ[p][0]``.  These are the rounds' choices, which the
pinned policies record.  An SUT state moves to its first successor of
least value, which is always safe for the minimizer.  Inside a layer the
policy's plays never lose value, and while the value stays at v above the
floor the rank for v falls at every move: an in-layer tester choice lowers
it by one, and every in-layer successor of an SUT member of rank r has a
lower rank, so the play leaves the layer.  In an arena with one position
per cover bit, the root's layer is the root alone in the solve from the
root and in the full table, with the same exits, so its choices may be
read off either table, or off the last table of ``root_value``, whose
exits from that layer are exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Collection, Hashable, Iterable, Sequence

from .errors import CapacityError


def _components(succ: Sequence[Sequence[int]], positions: Iterable[int]) -> list[list[int]]:
    """The strongly connected components of two or more of ``positions`` under the moves
    between them, found by an iterative Tarjan pass in time linear in those positions and
    their moves.
    """
    low = dict.fromkeys(positions, 0)  # 0 unvisited, else the least visit number reached
    done = len(low) + 1  # the low of a position whose component is finished
    stack: list[int] = []  # visited positions not yet in a finished component
    components = []
    count = 0
    for s in low:
        if low[s]:
            continue
        count += 1
        low[s] = count
        # position, visit number, stack height at its visit, moves left
        work = [(s, count, len(stack), iter(succ[s]))]
        stack.append(s)
        while work:
            p, number, height, moves = work[-1]
            for u in moves:
                reached = low.get(u)
                if reached is None:  # not among the positions
                    continue
                if not reached:
                    count += 1
                    low[u] = count
                    work.append((u, count, len(stack), iter(succ[u])))
                    stack.append(u)
                    break
                if reached < low[p]:
                    low[p] = reached
            else:
                work.pop()
                if work and low[p] < low[work[-1][0]]:
                    low[work[-1][0]] = low[p]
                if low[p] == number:
                    component = stack[height:]
                    del stack[height:]
                    for u in component:
                        low[u] = done
                    if len(component) > 1:
                        components.append(component)
    return components


def _attractor_classes(succ: Sequence[Sequence[int]], is_tester: Sequence[bool],
                       component: list[int]) -> list[list[int]]:
    """The classes of two or more positions of ``component`` that the tester can force the
    play to reach from each other, each sorted, when every successor of its SUT positions
    lies in it: the tester attractor of each position, computed inside the component,
    holds the positions that can be forced to reach it.
    """
    index = {p: i for i, p in enumerate(component)}
    preds: list[list[int]] = [[] for _ in component]
    need = []  # the successors a position waits for: one for the tester, all for the SUT
    for i, p in enumerate(component):
        moves = set(succ[p]) & index.keys()
        for u in moves:
            preds[index[u]].append(i)
        need.append(1 if is_tester[p] else len(moves))
    attractors = []  # as bit sets over the component's indices
    for q in range(len(component)):
        left, reached, queue = need.copy(), 1 << q, [q]
        for x in queue:
            for i in preds[x]:
                if not reached >> i & 1:
                    left[i] -= 1
                    if not left[i]:
                        reached |= 1 << i
                        queue.append(i)
        attractors.append(reached)
    classes, taken = [], 0
    for q, reached in enumerate(attractors):
        if not taken >> q & 1:
            members = [i for i in range(len(component)) if reached >> i & 1 and attractors[i] >> q & 1]
            for i in members:
                taken |= 1 << i
            if len(members) > 1:
                classes.append(sorted(component[i] for i in members))
    return classes


def _forcing_groups(succ: Sequence[Sequence[int]], is_tester: Sequence[bool]) -> list[list[int]]:
    """The classes of two or more positions p, q such that the tester can force the play
    from p to q and from q to p whatever the SUT answers, each sorted, in increasing order
    of their least positions.

    Such a class lies in one strongly connected component of the moves.  A position of
    the SUT with a successor outside its component is in none: that successor cannot
    reach back, so the SUT can always escape.  The components are found again without
    such positions, until every SUT position left has all of its successors in its
    component.  A component in which the SUT chooses nowhere is a class, which the
    tester walks alone; any other is split into the classes of mutual tester attractors
    computed inside it, which are the classes of the whole arena, since a play the
    tester forces between two members visits only positions that survive the dropping.
    Where the SUT never chooses, as in a best-response arena, this is one Tarjan pass,
    linear in positions and moves.
    """
    groups = []
    work: list[Iterable[int]] = [range(len(succ))]
    while work:
        for component in _components(succ, work.pop()):
            inside = set(component)
            stay = [p for p in component if is_tester[p] or inside.issuperset(succ[p])]
            if len(stay) < len(component):
                work.append(stay)
            elif all(is_tester[p] or len(succ[p]) == 1 for p in component):
                groups.append(sorted(component))
            else:
                groups += _attractor_classes(succ, is_tester, component)
    return sorted(groups)


_FIRST_BUDGET = 64  # the states the first round of ``_Arena.root_value`` explores


def _gain(gains: Sequence[int], mask: int) -> int:
    """ν(mask): the summed gains of its cover bits."""
    total = 0
    while mask:
        low = mask & -mask
        total += gains[low.bit_length() - 1]
        mask ^= low
    return total


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
    step: list[int] = field(init=False)  # a move to p from any mask lands in (mask << shift) | step[p]
    jump: list[int] = field(init=False)  # ... and is worth the value at (mask << shift) | jump[p]
    moves: list[tuple[tuple[int, int, int], ...]] = field(init=False)  # (u, mask, position) of jump[u]
    blank: bytearray | list[int] = field(init=False)  # a value row of P zeros

    def __post_init__(self):
        succ, root = self.succ, self.root
        self.shift = shift = len(succ).bit_length()
        self.bits = bits = [1 << c for c in self.cover]
        self.step = [(b << shift) | p for p, b in enumerate(bits)]
        full = list(bits)  # cov(S) at p in a forcing group S, else bits[p]
        for group in _forcing_groups(succ, self.is_tester):
            f = 0
            for p in group:
                f |= bits[p]
            for p in group:
                full[p] = f
        # Each position is resolved once: a walk stops at a resolved position, so the
        # table takes time linear in the positions.
        jump: list = [None] * len(succ)  # -1 on the current walk
        for s in range(len(succ)):
            path = []  # the forced positions walked from s
            p = s
            while jump[p] is None and len(succ[p]) == 1 and succ[p][0] != p and p != root:
                jump[p] = -1
                path.append(p)
                p = succ[p][0]
            if jump[p] is None:  # not forced: the chain ends at p
                jump[p] = (full[p] << shift) | p
            elif jump[p] < 0:  # the walk closed a forced cycle, kept at its least position
                t = min(path[path.index(p):])
                jump[p] = (full[t] << shift) | t  # the cycle is a group
            e = jump[p]
            for q in reversed(path):
                e |= bits[q] << shift
                jump[q] = e
        self.jump = jump
        position = (1 << shift) - 1
        self.moves = [tuple((u, jump[u] >> shift, jump[u] & position) for u in s) for s in succ]
        # every value lies between 0 and ν(all nodes), so it fits a byte below 256
        self.blank = bytearray(len(succ)) if sum(self.gains) < 256 else [0] * len(succ)

    def read(self, values: dict, packed: int) -> int:
        """The value that the table ``values`` holds at a packed state."""
        return values[packed >> self.shift][packed & ((1 << self.shift) - 1)]

    def explore(self, enter: Sequence[int], starts: Iterable[int], state_cap: float = math.inf,
                budget: float = math.inf):
        """Product states reachable from the packed states ``starts`` when a move to u
        from mask C enters the packed state ``enter[u]`` or'ed with C, layered by mask.

        Masks are taken in nondecreasing (ν(mask), popcount) order, which puts every
        mask after its subsets.  Once ``budget`` states are in explored layers, no
        further gain level is started: the masks entered but left unexplored all have
        a gain above every explored one.

        Returns (layers, mask_gain): layers maps each explored mask, in that order, to
        the sorted positions present with it; mask_gain maps every entered mask,
        explored or not, to ν(mask).  Only a count above max(state_cap, 1) raises,
        since a start state is always admitted.
        """
        gains, shift = self.gains, self.shift
        position = (1 << shift) - 1
        moves = [[(enter[u] >> shift, enter[u] & position) for u in s] for s in self.succ]
        mask_gain: dict[int, int] = {}
        layers: dict[int, list[int]] = {}
        entered: dict[int, set[int]] = {}  # mask -> positions entered with it, not yet searched
        width = len(gains) + 1  # a key gain * width + popcount orders by (gain, popcount)
        buckets: dict[int, list[int]] = {}  # key -> the masks entered with it
        keys: list[int] = []  # a heap of the buckets' keys
        for start in starts:
            mask = start >> shift
            if mask not in entered:
                entered[mask] = set()
                mask_gain[mask] = gain = _gain(gains, mask)
                key = gain * width + mask.bit_count()
                if key not in buckets:
                    heappush(keys, key)
                    buckets[key] = []
                buckets[key].append(mask)
            entered[mask].add(start & position)
        count = level = 0
        while keys and (count < budget or keys[0] // width == level):
            key = heappop(keys)
            level = key // width
            for mask in buckets.pop(key):
                seen = entered.pop(mask)
                stack = list(seen)
                while stack:
                    for m, t in moves[stack.pop()]:
                        m2 = mask | m
                        if m2 == mask:
                            if t not in seen:
                                seen.add(t)
                                stack.append(t)
                        elif m2 in entered:
                            entered[m2].add(t)
                        else:
                            entered[m2] = {t}
                            mask_gain[m2] = gain = mask_gain[mask] + _gain(gains, m2 ^ mask)
                            key = gain * width + m2.bit_count()
                            if key not in buckets:
                                heappush(keys, key)
                                buckets[key] = []
                            buckets[key].append(m2)
                count += len(seen)
                if count > state_cap and count > 1:
                    raise CapacityError(f"search state space exceeds cap {state_cap}")
                layers[mask] = sorted(seen)
        return layers, mask_gain

    def solve(self, starts: Collection[int] = (), state_cap: float = math.inf):
        """Root value, number of explored states and the value table, exploring along
        ``jump`` from the root state (root, {root}) and jump[root], or from the packed
        ``starts`` when given, which must include jump[root], and raising CapacityError
        past ``state_cap`` states.  Layers are popped as they are solved, to free them.
        """
        starts = starts or (self.step[self.root], self.jump[self.root])
        layers, mask_gain = self.explore(self.jump, starts, state_cap)
        states = sum(map(len, layers.values()))
        values: dict = {}
        for mask in reversed(list(layers)):
            self.value_layer(mask, layers.pop(mask), mask_gain[mask], values)
        return self.read(values, self.jump[self.root]), states, values

    def root_value(self):
        """Root value and the table of the round that found it, which holds
        min(value, bound) at every state it solves.  Each round explores along ``jump``
        from the root state and jump[root] under a budget, ``_FIRST_BUDGET`` states at
        first, and solves the explored layers while every exit into an unexplored mask
        reads one shared row of ``bound``, the least gain among those masks.  It returns
        once the root reads below ``bound``, which is infinite when nothing is left
        unexplored; otherwise the budget is multiplied by 4 and the next round explores
        afresh.
        """
        starts = (self.step[self.root], self.jump[self.root])
        budget = _FIRST_BUDGET
        while True:
            layers, mask_gain = self.explore(self.jump, starts, budget=budget)
            rest = mask_gain.keys() - layers.keys()
            bound = min(map(mask_gain.__getitem__, rest), default=math.inf)
            values: dict = {}
            if rest:
                wall = self.blank.copy()
                wall[:] = [bound] * len(wall)  # bound <= ν(all nodes), so it fits the row
                values = dict.fromkeys(rest, wall)
            for mask in reversed(list(layers)):
                self.value_layer(mask, layers.pop(mask), mask_gain[mask], values)
            value = self.read(values, self.jump[self.root])
            if value < bound:
                return value, values
            budget *= 4

    def full_table(self):
        """The value table of a solve from every reachable state's ``jump`` state and the
        layers of the reachable states, explored along ``step``.
        """
        layers = self.explore(self.step, (self.step[self.root],))[0]
        shift, jump = self.shift, self.jump
        starts = {mask << shift | jump[p] for mask, members in layers.items() for p in members}
        return self.solve(starts)[2], layers

    def value_layer(self, mask: int, members: list[int], base: int, values: dict):
        """Solve ``members`` of the layer of ``mask`` and store their values as the row
        ``values[mask]``, indexed by position; the row holds 0 at every other position.
        The floor is ``base``, ν(mask).  Each member that is not a start of the solve must be unsettled, so a move
        (u, m, t) stays in the layer exactly when mask | m is this mask, to t, and is
        otherwise an exit.  The row is the working table: round 1 writes every member's
        value, and a worklist then passes each raise on to its in-layer predecessors.
        """
        moves, is_tester, inf = self.moves, self.is_tester, math.inf
        row = self.blank.copy()
        values[mask] = row  # exits read larger masks only
        preds: dict[int, list[int]] = {p: [] for p in members}  # in-layer predecessors
        sut: dict[int, tuple[float, list[int]]] = {}  # an SUT member's least exit, in-layer successors
        work = []  # the members raised but not yet passed on
        for p in members:
            best = base
            if is_tester[p]:
                for _, m, t in moves[p]:
                    if mask | m == mask:
                        preds[t].append(p)
                    else:
                        v = values[mask | m][t]
                        if v > best:
                            best = v
            else:
                low, link = inf, []
                for _, m, t in moves[p]:
                    if mask | m == mask:
                        link.append(t)
                        preds[t].append(p)
                    else:
                        v = values[mask | m][t]
                        if v < low:
                            low = v
                if link:
                    sut[p] = low, link
                elif low > best:
                    best = low
            row[p] = best
            if best > base:
                work.append(p)
        while work:
            q = work.pop()
            v = row[q]
            for p in preds[q]:
                if row[p] >= v:  # q rising to v cannot raise p
                    continue
                if is_tester[p]:
                    row[p] = v
                    work.append(p)
                else:
                    low, link = sut[p]
                    for t in link:
                        if row[t] < low:
                            low = row[t]
                    if low > row[p]:
                        row[p] = low
                        work.append(p)

    def choices(self, mask: int, members: list[int], values: dict) -> dict[int, int]:
        """The tester choices in the layer of ``mask``, read off the solved table ``values``
        for ``members``, all of the layer's reachable positions, each worth the value at
        its ``jump`` state.  A move to a member u stays in the layer, to u; any other move
        (u, m, t) is an exit, worth ``values[mask | m][t]``.  A tester worth its best exit,
        above the floor, takes the first exit of that value; one worth v above both takes
        its first in-layer successor of least rank for v; any other is left out.
        """
        moves, is_tester, jump = self.moves, self.is_tester, self.jump
        here, base = mask << self.shift, _gain(self.gains, mask)
        slot = dict(zip(members, range(len(members))))
        links: list[list[int]] = []  # in-layer successors' slots, in move order
        preds: list[list[int]] = [[] for _ in members]  # in-layer predecessors' slots
        first = []  # the value in round 1
        lows = []  # the least exit value
        need = []  # the in-layer successors that must join the attractor first
        ranked: dict[int, list[int]] = {}  # v -> the testers worth v above round 1
        out = {}
        for i, p in enumerate(members):
            link, tester = [], is_tester[p]
            best, arg, low = base, None, math.inf
            for u, m, t in moves[p]:
                k = slot.get(u)
                if k is not None:
                    link.append(k)
                    preds[k].append(i)
                    continue
                v = values[mask | m][t]
                if tester:
                    if v > best:
                        best, arg = v, u  # the first exit of the largest value
                elif v < low:
                    low = v
            if not (tester or link) and low > base:
                best = low
            links.append(link)
            first.append(best)
            lows.append(low)
            need.append(1 if tester else len(link))
            if tester:
                v = self.read(values, here | jump[p])
                if v > best:
                    ranked.setdefault(v, []).append(i)
                elif arg is not None:
                    out[p] = arg
        for v, testers in ranked.items():
            # the tester attractor of the members worth at least v in round 1, by rank; an
            # SUT member with an exit below v never counts down to 0
            rank = [0 if w >= v else -1 for w in first]
            left = [k if low >= v else 0 for k, low in zip(need, lows)]
            queue = [i for i, r in enumerate(rank) if not r]
            for q in queue:
                for i in preds[q]:
                    left[i] -= 1
                    if not left[i] and rank[i] < 0:
                        rank[i] = rank[q] + 1
                        queue.append(i)
            for i in testers:
                out[members[i]] = next(members[k] for k in links[i] if rank[k] == rank[i] - 1)
        return out
