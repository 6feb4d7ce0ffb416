"""Hypothesis properties of certificates on small random graphs: extraction
returns the first consistent containment set, and check_witness rejects
single-field mutations of an extracted witness."""
from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import first_consistent  # noqa: E402
from ncgames.graph import generate_random  # noqa: E402
from ncgames.witness import (  # noqa: E402
    Witness,
    WitnessEntry,
    check_witness,
    extract_witness,
    normalize_gains,
)


@st.composite
def graphs(draw):
    """generate_random graphs of 1-8 nodes with unit, drawn or normalized gains."""
    n = draw(st.integers(1, 8))
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


class TestExtraction:
    @settings(max_examples=120)
    @given(g=graphs())
    def test_each_set_is_the_first_that_check_witness_accepts(self, g):
        w = extract_witness(g, g.init)
        assert check_witness(g, w) == []
        for v, entry in w.entries.items():
            _, first = first_consistent(g, w, v)
            assert entry.containment == first


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
