"""Hypothesis properties of certificates on small random graphs: extraction
returns the first consistent containment set, `subset_cap` counts every
candidate before it, and check_witness rejects single-field mutations of an
extracted witness."""
from __future__ import annotations

import sys
from bisect import bisect_right
from collections import Counter
from math import comb
from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import first_consistent, graph_of  # noqa: E402
from ncgames.errors import ExtractionError  # noqa: E402
from ncgames.graph import TESTER, generate_random  # noqa: E402
from ncgames.witness import (  # noqa: E402
    Witness,
    WitnessEntry,
    check_witness,
    extract_witness,
    normalize_gains,
)


@st.composite
def graphs(draw, min_nodes=1, max_nodes=8):
    """generate_random graphs of 1-8 nodes (by default) with unit, drawn or normalized gains."""
    n = draw(st.integers(min_nodes, max_nodes))
    g = generate_random(
        n, draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])), 1, draw(st.integers(1, min(3, n))),
        draw(st.integers(0, 10**6)),
    )
    mode = draw(st.sampled_from(["unit", "drawn", "normalized"]))
    if mode == "unit":
        return g
    gains = {v: draw(st.integers(0 if mode == "normalized" else 1, 4)) for v in sorted(g.nodes)}
    g = g.map_gains(lambda v, _gain: gains[v])
    return normalize_gains(g) if mode == "normalized" else g


def gapped_graph():
    """20 tester nodes: r moves to the cycle c0 -> ... -> c8 -> c0, whose c8 also exits
    to the loop z, or to the chain t1 -> ... -> t9, a loop.  The cycle reaches 10 of the
    20 nodes, with bounds 10 and z's 1, and the chain's bounds 2 to 9 fall between
    them, so a cycle node's bits have gaps; its first consistent set is the cycle, a
    candidate past the default cap were every node of reachable(r) a candidate."""
    layout = {"r": (TESTER, 1, ("c0", "t1")), "z": (TESTER, 1, ("z",)), "t9": (TESTER, 1, ("t9",))}
    layout.update({f"c{i}": (TESTER, 1, (f"c{i + 1}",)) for i in range(8)})
    layout["c8"] = (TESTER, 1, ("c0", "z"))
    layout.update({f"t{i}": (TESTER, 1, (f"t{i + 1}",)) for i in range(1, 9)})
    return graph_of(layout, "r")


class TestExtraction:
    @settings(max_examples=120)
    @given(g=graphs())
    @example(g=gapped_graph())
    def test_each_set_is_the_first_that_check_witness_accepts(self, g):
        w = extract_witness(g, g.init)
        assert check_witness(g, w) == []
        for v, entry in w.entries.items():
            _, first = first_consistent(g, w, v)
            assert entry.containment == first


class TestSubsetCap:
    def test_cap_counts_the_candidates_of_ruled_out_blocks(self, monkeypatch):
        """With subset_cap = k - 1 the first node in id order whose first consistent set
        is candidate k or later fails, and with subset_cap = k extraction succeeds, so
        every block of candidates ruled out untested counts in full.  Spies on `comb`
        and `bisect_right` tell the rules apart: a whole level is charged comb(m, size)
        from `_first_containment_set` itself, and in the search frame, by its `i` and
        `size`, the rest of a level comb(m - i, size) and a block comb(m - i - 1, size -
        1), which fell to the forced exits when their bisect at the same i came just
        before.  All three rules must fire."""
        fired = Counter()
        last_bisect = None

        def bisect_spy(ranks, slack):
            nonlocal last_bisect
            frame = sys._getframe(1)
            last_bisect = (frame, frame.f_locals["i"])
            return bisect_right(ranks, slack)

        def comb_spy(n, k):
            frame = sys._getframe(1)
            if frame.f_code.co_name == "_first_containment_set":
                fired["whole level"] += 1
            elif k == frame.f_locals["size"]:
                fired["rest of a level"] += 1
            elif last_bisect == (frame, frame.f_locals["i"]):
                fired["forced exits"] += 1
            return comb(n, k)

        monkeypatch.setattr("ncgames.witness.bisect_right", bisect_spy)
        monkeypatch.setattr("ncgames.witness.comb", comb_spy)

        @settings(max_examples=40)
        @given(g=graphs(7, 10))
        @example(g=generate_random(4, 0.3, 1, 2, 0))
        def prop(g):
            w = extract_witness(g, g.init)
            found_at = {v: first_consistent(g, w, v)[0] for v in sorted(w.entries)}
            for k in sorted(set(found_at.values())):
                short = min(v for v in found_at if found_at[v] >= k)
                with pytest.raises(ExtractionError) as exc:
                    extract_witness(g, g.init, subset_cap=k - 1)
                assert str(exc.value).startswith(
                    f"no containment set found for `{short}` (bound {w.entries[short].bound}) "
                    f"among the first {k - 1} candidates (subset_cap); instance:\n"
                )
            assert extract_witness(g, g.init, subset_cap=k) == w

        prop()
        assert fired["whole level"] and fired["rest of a level"] and fired["forced exits"]


class TestLevelRule:
    @settings(max_examples=60)
    @given(g=graphs(5, 10))
    def test_ruling_out_whole_levels_changes_no_outcome(self, g):
        """The level check only saves work: with it passing every level, extraction
        returns the same witness and, at the cap k - 1 and k around each first
        consistent candidate k, the same witness or the same ExtractionError text."""
        w = extract_witness(g, g.init)
        found_at = {first_consistent(g, w, v)[0] for v in w.entries}
        caps = sorted(found_at | {k - 1 for k in found_at})

        def outcomes():
            out = []
            for cap in caps:
                try:
                    out.append(extract_witness(g, g.init, subset_cap=cap))
                except ExtractionError as exc:
                    out.append(str(exc))
            return out

        expected = outcomes()
        with patch("ncgames.witness._level_may_hold", lambda *_: True):
            assert extract_witness(g, g.init) == w
            assert outcomes() == expected


class TestCheckWitnessMutations:
    @settings(max_examples=120)
    @given(g=graphs())
    def test_single_field_mutations_are_violations(self, g):
        w = extract_witness(g, g.init)
        for v, entry in w.entries.items():
            for bound in (entry.bound - 1, entry.bound + 1):
                changed = Witness({**w.entries, v: WitnessEntry(bound, entry.containment)})
                assert any(
                    m.startswith(f"{v}: ") and m.endswith(f"expects bound {entry.bound}, got {bound}")
                    for m in check_witness(g, changed)
                )
            dropped = Witness({**w.entries, v: WitnessEntry(entry.bound, entry.containment - {v})})
            assert f"{v}: node missing from its own containment set" in check_witness(g, dropped)
            deleted = Witness({u: e for u, e in w.entries.items() if u != v})
            assert check_witness(g, deleted) == [f"missing entry for reachable node `{v}`"]
