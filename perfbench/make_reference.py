"""Build perfbench/reference.json: the expected output of every op.

The values come from checks that do not share code with what the ops run:

* solve: ``oracle_mcg`` (exhaustive minimax) gives the value; a first move
  u is optimal when gain(init) + oracle value from u, with init's gain set
  to 0, equals it;
* solve --restart: ``oracle_mcg`` does not finish on the doubled graphs
  (more than 1e8 tree nodes), so the value is half the plain value of
  ``restart_double(g)``, the identity of acceptance criterion 5, which
  runs the plain fixpoint instead of the restart one;
* certify: ``oracle_mcg`` gives the root bound, ``reachable`` the entry
  count;
* campaign: the sha256 of the CSV that the library emits at the commit
  the file is built from.

SAT references need no file: the benchmark asks ``brute_force_sat``.
Building takes a few minutes and about 1.5 GB of memory for the restart
identity on n=20.  Run it from the repository root:

    python3 perfbench/make_reference.py
"""
from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import ncgames as nc  # noqa: E402
from workloads import (  # noqa: E402
    CAMPAIGN_BASE_SEED,
    CAMPAIGN_RESET_COST,
    REFERENCE_FILE,
    SIZES,
    SUT_FRACTION,
    instance_key,
)

ORACLE_CAP = 10**9


def _graph(n: int, seed: int):
    return nc.generate_random(n, SUT_FRACTION, 1, 2, seed)


def solve_reference(n: int, seed: int) -> dict:
    g = _graph(n, seed)
    value = nc.oracle_mcg(g, g.init, cap=ORACLE_CAP)
    moves = []
    if g.is_tester(g.init):
        rest = g.map_gains(lambda v, gain: 0 if v == g.init else gain)
        moves = [
            u for u in g.edges[g.init]
            if g.gain(g.init) + nc.oracle_mcg(rest, u, cap=ORACLE_CAP) == value
        ]
    return {"value": value, "optimal_first_moves": moves}


def restart_reference(n: int, seed: int) -> int:
    doubled = nc.restart_double(_graph(n, seed))
    value = nc.solve_mcg(doubled, doubled.init, cap=64).value
    assert value % 2 == 0, "doubled value must be even"
    return value // 2


def certify_reference(n: int, seed: int) -> dict:
    g = _graph(n, seed)
    return {
        "value": nc.oracle_mcg(g, g.init, cap=ORACLE_CAP),
        "reachable": len(nc.reachable(g, g.init)),
    }


def campaign_reference(n: int, seed: int, trials: int) -> str:
    cfg = nc.ExperimentConfig(
        graph_name=f"rg{n}",
        budgets=(3 * n, 8 * n, 16 * n),
        trials=trials,
        reset_cost=CAMPAIGN_RESET_COST,
        base_seed=CAMPAIGN_BASE_SEED,
    )
    csv = nc.emit_csv(nc.run_experiment(_graph(n, seed), cfg))
    return hashlib.sha256(csv.encode("utf-8")).hexdigest()


def main() -> None:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    ref: dict = {"source_commit": commit, "solve": {}, "restart": {}, "certify": {}, "campaign": {}}
    started = time.perf_counter()
    for size in ("small", "full"):
        spec = SIZES[size]
        for n, s in spec["solve"]:
            ref["solve"][instance_key(n, s)] = solve_reference(n, s)
        for n, s in spec["restart"]:
            ref["restart"][instance_key(n, s)] = restart_reference(n, s)
        for n, s in spec["certify"]:
            ref["certify"][instance_key(n, s)] = certify_reference(n, s)
        picks, trials = spec["campaign"]
        for n, s in picks:
            ref["campaign"][instance_key(n, s, trials)] = campaign_reference(n, s, trials)
        print(f"{size}: done after {time.perf_counter() - started:.1f} s", file=sys.stderr)
    REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"wrote {REFERENCE_FILE} (peak RSS {peak:.0f} MB)", file=sys.stderr)


if __name__ == "__main__":
    main()
