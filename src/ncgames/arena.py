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
entered so far in buckets by popcount and takes them in nondecreasing
popcount order; it finds each layer by a search inside its mask, started
from the positions entered from smaller masks, and the solve walks the
layers in the reverse order.  Within a layer, moves that leave it have
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
settles.  The plays the tester forces between members of S may pass
positions outside S, and when S's own moves do not connect it, no play
may come back to t with exactly C ∪ cov(S) and the chain covered.
``detour[u]`` marks the positions u whose chain ends in such a group; a
chain that ends in a group its own moves connect, or in none, is walked
to that state.  A best-response arena leaves the tester alone (its SUT
positions have one successor each), so every group is a strongly
connected set of its moves and no position is a detour.

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
states: the root state, whose layer the tester's first move is replayed
in, and jump[root], where the root value is read, since the moves from
the root state may not reach that state.

A solve may start at many states.  Started at jump[v], from the empty
mask, for every position v, it values every position: that state is worth
value(v, {v}), the value of the game rooted at v, since both rules hold at
any root and a state's value does not depend on the root.  The full table
explores every state reachable from the root state along ``step`` (a move
to u adds ``bits[u]``), keeps those layers, and solves in each its
unsettled members, if any, those whose ``jump`` state is themselves.  A
settled state of a detour position may find its ``jump`` state in no
layer; the full table then explores along ``jump`` from each such state,
entering no state that a layer holds, adds the states found to the
layers' unsettled members by mask, and solves all of them in decreasing
popcount, so that every exit and every lookup finds its state.  A state
such an exploration skips is unsettled and reachable, so its in-layer
moves and exits lead to reachable states or to jump states the full
table explores.  These are the states, and so the values, of a solve
from every explored state's ``jump``.

The solve and the full table solve each layer with ``value_layer``, which
finds values alone and needs every member that is not a start of the solve
to be unsettled, as the solve's layers and the full table's filtered
members are.  In a layer of mask C it takes a move (u, m, t) as in-layer
exactly when C | m is C: the chain stays in the layer and the move goes
to its end t, which is unsettled there and so a member, entered by the
exploration.  Any other move is an exit, worth ``values[C | m][t]``; that
includes a move to a settled start, whose value the exit gives exactly.
``solve_layer`` also takes a move to a member u as in-layer to u itself,
so that it can replay a layer with all of its members, settled ones
included.

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

``solve_layer`` runs synchronous rounds instead.  A one-state layer needs
no more than round 1: its in-layer moves are self-loops or chains back to
it, worth the floor.  Every later round reads the previous round's values
and applies its raises afterwards.  It re-evaluates an SUT state whose
in-layer successor rose and a tester whose in-layer successor rose above
it, since no other state can rise; a tester's exits are already in its
value, so it reads only its in-layer successors.  It writes the layer's
row once, after its last round.

Tester policies must avoid value-preserving cycles inside a layer, so a
tester choice is the option that strictly raised the state's value in
the round its final value was reached, judged against the previous
round's table (``succ[p][0]`` if it never rose); an SUT state moves to
its first successor of least value, which is always safe for the
minimizer.  The solve keeps values only, and frees each layer once its
row is written; ``ncgames.solver.SolveResult`` reads a tester choice by
running ``solve_layer`` again on all members of the looked-up layer of
the full table.  With all of them, every move inside the layer is a move
to a member, which takes its own slot before any chain is followed, so
these are the rounds of a solve that settles nothing; they read only the
floor and the exits, at states of larger masks whose values settling
leaves unchanged, so they recompute the same values and name the same
choices.  The replay writes its row into a ``collections.ChainMap`` over
the table, so the table keeps its own row, without the settled members
the replay solves.  In an arena with one position per cover bit, the
root's layer is the root alone in the solve from the root and in the
full table, with the same exits, so its replay may read either table.
Replays keep the synchronous rounds because the choices are those the
rounds name, which the pinned policies record: a worklist raises states
in another order and would name other successors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    detour: list[bool] = field(init=False)  # jump[p] may be unreachable along step
    blank: bytearray | list[int] = field(init=False)  # a value row of P zeros

    def __post_init__(self):
        succ, root = self.succ, self.root
        self.shift = shift = len(succ).bit_length()
        self.bits = bits = [1 << c for c in self.cover]
        self.step = [(b << shift) | p for p, b in enumerate(bits)]
        full = list(bits)  # cov(S) at p in a forcing group S, else bits[p]
        walked = [True] * len(succ)  # False in a group that its own moves do not connect
        for group in _forcing_groups(succ, self.is_tester):
            f = 0
            for p in group:
                f |= bits[p]
            connected = [len(c) for c in _components(succ, group)] == [len(group)]
            for p in group:
                full[p] = f
                walked[p] = connected
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
        self.detour = [not walked[j & position] for j in jump]
        self.moves = [tuple((u, jump[u] >> shift, jump[u] & position) for u in s) for s in succ]
        # every value lies between 0 and ν(all nodes), so it fits a byte below 256
        self.blank = bytearray(len(succ)) if sum(self.gains) < 256 else [0] * len(succ)

    def read(self, values: dict, packed: int) -> int:
        """The value that the table ``values`` holds at a packed state."""
        return values[packed >> self.shift][packed & ((1 << self.shift) - 1)]

    def explore(self, enter: Sequence[int], starts: Iterable[int], state_cap: float = math.inf,
                known: dict[int, list[int]] | None = None):
        """Product states reachable from the packed states ``starts`` when a move to u
        from mask C enters the packed state ``enter[u]`` or'ed with C, layered by mask.

        Returns (layers, mask_gain): layers maps each mask, in nondecreasing
        popcount order, to the sorted positions present with it; mask_gain
        maps it to ν(mask).  Only a count above max(state_cap, 1) raises,
        since a start state is always admitted.  A state whose position
        ``known`` lists under its mask is neither searched from nor returned,
        and a mask with no other state gets no layer.
        """
        gains, shift = self.gains, self.shift
        position = (1 << shift) - 1
        moves = [[(enter[u] >> shift, enter[u] & position) for u in s] for s in self.succ]
        mask_gain: dict[int, int] = {}
        layers: dict[int, list[int]] = {}
        entered: dict[int, set[int]] = {}  # mask -> positions entered with it, not yet searched
        buckets: dict[int, list[int]] = {}  # popcount -> the masks entered with it
        for start in starts:
            mask = start >> shift
            if mask not in entered:
                entered[mask] = set()
                buckets.setdefault(mask.bit_count(), []).append(mask)
                mask_gain[mask] = _gain(gains, mask)
            entered[mask].add(start & position)
        count = 0
        known = known or {}
        while buckets:
            for mask in buckets.pop(min(buckets)):
                seen = entered.pop(mask)
                old = known.get(mask, ())
                seen.difference_update(old)
                stack = list(seen)
                seen.update(old)
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
                            buckets.setdefault(m2.bit_count(), []).append(m2)
                            mask_gain[m2] = mask_gain[mask] + _gain(gains, m2 ^ mask)
                seen.difference_update(old)
                if not seen:
                    continue
                count += len(seen)
                if count > state_cap and count > 1:
                    raise CapacityError(f"search state space exceeds cap {state_cap}")
                layers[mask] = sorted(seen)
        return layers, mask_gain

    def solve(self, starts: Collection[int] = ()):
        """Root value, number of explored states and the value table, exploring along
        ``jump`` from the root state (root, {root}) and jump[root], or from the packed
        ``starts`` when given, which must include jump[root].  Each layer is taken out of
        explore's layers as it is solved, so it is freed once its row is written.
        """
        root = self.root
        layers, mask_gain = self.explore(self.jump, starts or (self.step[root], self.jump[root]))
        states = sum(map(len, layers.values()))
        values: dict = {}
        for mask in reversed(list(layers)):
            self.value_layer(mask, layers.pop(mask), mask_gain[mask], values)
        return self.read(values, self.jump[self.root]), states, values

    def full_table(self, state_cap: float = math.inf):
        """Root value, number of reachable states, the value table of the unsettled ones
        and the layers of all, explored along ``step``; ``state_cap`` counts them all.
        The jump states of detour positions' states that no layer holds are explored
        along ``jump`` too, past no state a layer holds, uncounted, and solved with the
        unsettled ones.
        """
        layers, mask_gain = self.explore(self.step, (self.step[self.root],), state_cap)
        shift, jump, detour = self.shift, self.jump, self.detour
        solved = {}  # mask -> the members to solve
        for mask, members in layers.items():
            here = mask << shift
            solved[mask] = [p for p in members if here | jump[p] == here | p]  # the unsettled
        lacking = ()  # the jump states of detour positions' states that no layer holds
        if True in detour:
            ends = {mask << shift | jump[p] for mask, members in layers.items() for p in members if detour[p]}
            position = (1 << shift) - 1
            lacking = [j for j in ends if j & position not in layers.get(j >> shift, ())]
        order = reversed(list(layers))
        if lacking:
            extra, extra_gain = self.explore(jump, lacking, known=layers)
            for mask, members in extra.items():
                solved[mask] = solved.get(mask, []) + members
                mask_gain.setdefault(mask, extra_gain[mask])
            order = sorted(solved, key=int.bit_count, reverse=True)  # larger masks first
        values: dict = {}
        for mask in order:
            if solved[mask]:
                self.value_layer(mask, solved[mask], mask_gain[mask], values)
        return self.read(values, jump[self.root]), sum(map(len, layers.values())), values, layers

    def value_layer(self, mask: int, members: list[int], base: int, values: dict):
        """Solve ``members`` of the layer of ``mask`` for their values alone and store them
        as the row ``values[mask]``, as ``solve_layer`` does, but name no tester choices.
        Each member that is not a start of the solve must be unsettled, so a move
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

    def solve_layer(self, mask: int, members: list[int], base: int, values: dict):
        """Solve ``members`` (sorted positions) of the layer of ``mask`` and store their
        values as the row ``values[mask]``, indexed by position; the row holds 0 at every
        other position.  A move to u, read from its triple (u, m, t) in ``moves``, is
        in-layer to u's slot when u is a member, else to t's slot when mask | m is this
        mask; any other move is an exit, worth ``values[mask | m][t]``.  The floor is
        ``base``, ν(mask).  Round 1 runs while the lists of in-layer successors are
        built, and a one-state layer is solved outright.  Returns each member's tester
        choice: the position that last raised it, a successor when all of the layer's
        members are given, or None.
        """
        moves, is_tester, inf = self.moves, self.is_tester, math.inf
        row = self.blank.copy()
        values[mask] = row  # exits read larger masks only
        n = len(members)
        if n == 1:  # its in-layer moves are self-loops or chains back to it, worth the floor
            p = members[0]
            best, arg = base, None
            if is_tester[p]:
                for u, m, t in moves[p]:
                    if u != p and mask | m != mask:
                        v = values[mask | m][t]
                        if v > best:
                            best, arg = v, u
            elif all(u != p and mask | m != mask for u, m, _ in moves[p]):
                best = max(base, min(values[mask | m][t] for _, m, t in moves[p]))
            row[p] = best
            return [arg]
        slot = dict(zip(members, range(n)))
        table = [base] * n
        links: list[list[int]] = []  # in-layer successors' slots
        lows: list[float] = []  # an SUT state's least exit value
        spreds: list[list[int]] = [[] for _ in members]  # in-layer SUT predecessors
        tpreds: list[list[int]] = [[] for _ in members]  # in-layer tester predecessors
        raised = []  # round 1: every in-layer slot still holds base
        for i, p in enumerate(members):
            link, tester = [], is_tester[p]
            preds = tpreds if tester else spreds
            best, arg, low = base, None, inf
            for u, m, t in moves[p]:
                k = slot.get(u)
                if k is None:
                    if mask | m != mask:
                        v = values[mask | m][t]
                        if tester:
                            if v > best:
                                best, arg = v, u  # the first exit of the largest value
                        elif v < low:
                            low = v
                        continue
                    k = slot[t]  # a forced chain that ends in the layer
                link.append(k)
                preds[k].append(i)
            if not (tester or link) and low > base:
                best = low
            links.append(link)
            lows.append(low)
            if best > base:
                raised.append((i, best, arg))
        last: list[int | None] = [None] * n
        while raised:
            todo = set()
            for i, best, arg in raised:
                table[i] = best
                last[i] = arg
                todo.update(spreds[i])
                for j in tpreds[i]:
                    if table[j] < best:  # a tester at least as high cannot rise by i
                        todo.add(j)
            raised = []
            for i in todo:
                link = links[i]
                if is_tester[members[i]]:  # exits are already in its value
                    best, arg = base, None
                    for k in link:
                        if table[k] > best:
                            best = table[k]
                            arg = k  # the first slot of the largest value
                else:
                    best, arg = lows[i], None
                    for k in link:
                        if table[k] < best:
                            best = table[k]
                    if best < base:
                        best = base
                if best > table[i]:
                    raised.append((i, best, arg if arg is None else members[arg]))
        for p, v in zip(members, table):
            row[p] = v
        return last
