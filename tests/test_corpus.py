"""The behaviour corpus (``tests/data/corpus.json``, written by
``tests/make_corpus.py``): every solver, best-response and witness output of
600 seeded games and the CSV hash of a small campaign must match the checked-in
digests, and the brute-force oracle must agree with the solver on the games of
at most 8 nodes.  The digests pin behaviour; the oracle pins correctness."""
from __future__ import annotations

import json

from make_corpus import CORPUS, GAMES, OUTPUTS, digest, experiment_sha256, game, outputs
from ncgames.solver import oracle_mcg, solve_mcg


def test_corpus_outputs_are_unchanged():
    corpus = json.loads(CORPUS.read_text())
    assert tuple(corpus["outputs"]) == OUTPUTS
    assert len(corpus["games"]) == GAMES
    for i, expected in enumerate(corpus["games"]):
        got = [digest(v) for v in outputs(game(i)).values()]
        if got != expected:
            k = next(k for k in range(len(OUTPUTS)) if got[k] != expected[k])
            raise AssertionError(
                f"game {i}: output `{OUTPUTS[k]}` differs ({got[k]} != {expected[k]}); "
                "regenerate with tests/make_corpus.py only if the change is meant"
            )
    assert experiment_sha256() == corpus["experiment_sha256"], "experiment CSV differs"


def test_oracle_agrees_on_the_small_games():
    for i in range(GAMES):
        g = game(i)
        if len(g.nodes) <= 8:
            assert oracle_mcg(g, g.init) == solve_mcg(g, g.init).value, f"game {i}"
