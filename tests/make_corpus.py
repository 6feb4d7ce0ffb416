"""The behaviour corpus: one short digest per output of the solver, the best
responses and witness extraction on 600 seeded games, plus the CSV hash of a
small campaign.  ``tests/test_corpus.py`` recomputes it and names the first
(game, output) that differs.

Regenerate ``tests/data/corpus.json`` after a change that is meant to alter
an output, and say which outputs changed and why::

    PYTHONPATH=src python tests/make_corpus.py

Game i is ``generate_random(n, sut_share, 1, max_out, i)`` with n = 3 + i % 10,
the SUT share the (i // 10) % 5-th of 0, 0.25, 0.5, 0.75, 1 and max_out
1 + (i // 50) % 3; every third game (i % 3 == 2) draws its gains from 1-5
(``random.Random(i)``, in id order) and normalizes them.  Every digest is the
first 12 hex digits of the sha256 of a canonical ``repr`` (sorted, so string
hashing cannot reorder it).
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from ncgames.errors import ExtractionError
from ncgames.experiments import ExperimentConfig, emit_csv, run_experiment
from ncgames.graph import SUT, GameGraph, generate_random
from ncgames.play import PositionalStrategy, best_response_gain
from ncgames.solver import extract_optimal_sut, solve_mcg, solve_mcg_restart
from ncgames.witness import extract_witness, normalize_gains, serialize_witness

CORPUS = Path(__file__).with_name("data") / "corpus.json"
GAMES = 600
SMALL_SUBSET_CAP = 8
OUTPUTS = (
    "value", "states_explored", "tester_policy", "sut_policy", "node_values", "restart",
    "br_optimal_sut", "br_last_successor_sut", "witness", "witness_small_cap",
)
EXPERIMENT = ExperimentConfig("corpus", budgets=(12, 40), trials=10, base_seed=11)


def game(i: int) -> GameGraph:
    """Seeded game i of the corpus (see the module docstring)."""
    n = 3 + i % 10
    g = generate_random(n, (0.0, 0.25, 0.5, 0.75, 1.0)[i // 10 % 5], 1, 1 + i // 50 % 3, i)
    if i % 3 == 2:
        rng = random.Random(i)
        gains = {v: rng.randint(1, 5) for v in sorted(g.nodes)}
        g = normalize_gains(g.map_gains(lambda v, _gain: gains[v]))
    return g


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:12]


def _witness_text(g: GameGraph, subset_cap: int) -> str:
    try:
        return serialize_witness(extract_witness(g, g.init, subset_cap=subset_cap))
    except ExtractionError as exc:
        return f"ExtractionError: {exc}"


def outputs(g: GameGraph) -> dict[str, object]:
    """Every output of the corpus for g, keyed as in OUTPUTS, undigested."""
    res = solve_mcg(g, g.init)

    def items(policy):
        return sorted((v, tuple(sorted(covered)), u) for (v, covered), u in policy.items())

    last = PositionalStrategy(SUT, {v: g.edges[v][-1] for v in g.nodes if g.owner(v) == SUT})
    return {
        "value": (res.value, res.tester_move(g.init, [g.init]) if g.is_tester(g.init) else None),
        "states_explored": res.states_explored,
        "tester_policy": items(res.tester_policy()),
        "sut_policy": items(res.sut_policy()),
        "node_values": sorted(res.node_values.items()),
        "restart": solve_mcg_restart(g, g.init),
        "br_optimal_sut": best_response_gain(g, g.init, extract_optimal_sut(res)),
        "br_last_successor_sut": best_response_gain(g, g.init, last),
        "witness": _witness_text(g, 1 << 16),
        "witness_small_cap": _witness_text(g, SMALL_SUBSET_CAP),
    }


def experiment_sha256() -> str:
    """sha256 of the CSVs of EXPERIMENT on games 79, 127 and 138, in that order."""
    csv = "".join(emit_csv(run_experiment(game(i), EXPERIMENT)) for i in (79, 127, 138))
    return hashlib.sha256(csv.encode()).hexdigest()


def build() -> dict:
    return {
        "outputs": list(OUTPUTS),
        "games": [[digest(v) for v in outputs(game(i)).values()] for i in range(GAMES)],
        "experiment_sha256": experiment_sha256(),
    }


def main() -> int:
    CORPUS.parent.mkdir(exist_ok=True)
    corpus = build()
    text = "{\n" + f'"outputs": {json.dumps(corpus["outputs"])},\n"games": [\n'
    text += ",\n".join(json.dumps(row) for row in corpus["games"])
    text += f'\n],\n"experiment_sha256": {json.dumps(corpus["experiment_sha256"])}\n}}\n'
    CORPUS.write_text(text)
    print(f"wrote {CORPUS} ({GAMES} games)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
