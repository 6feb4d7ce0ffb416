#!/usr/bin/env python3
"""Model a coverage game and compute what the tester can guarantee.

Walks through the core workflow: parse a graph from text, validate it,
solve for the guaranteed coverage value, and replay the optimal policies
against each other.

The example graph is the smallest one where the SUT needs memory: after
the tester commits to one branch, the hub must keep sending the play back
into that branch, or the tester collects all four nodes.
"""
from ncgames import (
    PositionalStrategy,
    extract_optimal_sut,
    parse_game_graph,
    simulate_play,
    solve_mcg,
    validate,
)

TEXT = """\
ncgame 1
node v0 owner=tester gain=1
node v1 owner=tester gain=1
node v2 owner=tester gain=1
node v3 owner=sut gain=1
edge v0 v1
edge v0 v2
edge v1 v3
edge v2 v3
edge v3 v1
edge v3 v2
init v0
"""

g = parse_game_graph(TEXT)
print("violations:", validate(g, strict=True) or "none")

res = solve_mcg(g, g.init)
print(f"guaranteed coverage from {g.init}: {res.value} of {len(g.nodes)} nodes")
print(f"product states explored: {res.states_explored}")

# the optimal SUT mirrors the tester's first branch choice forever
print("\nSUT policy (node, covered so far) -> move:")
# frozensets compare by inclusion, so order the covered sets by size and members
for (node, covered), move in sorted(
    res.sut_policy().items(), key=lambda item: (item[0][0], len(item[0][1]), sorted(item[0][1]))
):
    print(f"  {node} with {{{', '.join(sorted(covered))}}} -> {move}")

# a committed (memoryless) SUT leaks the fourth node
committed = PositionalStrategy(2, {"v3": "v1"})
tester = PositionalStrategy(1, {"v0": "v2", "v1": "v3", "v2": "v3"})
play = simulate_play(g, g.init, tester, committed, max_steps=6)
print("\nagainst a committed SUT the tester covers:", sorted(set(play)))

# replaying both optimal policies realizes the value exactly
play = simulate_play(
    g, g.init, lambda prefix: res.tester_move(prefix[-1], prefix), extract_optimal_sut(res), 9
)
print("optimal vs optimal covers:", sorted(set(play)))
