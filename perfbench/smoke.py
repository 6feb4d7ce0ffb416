"""Smoke check of the benchmark itself, at small instance sizes.

Asserts, for every workload:

* every end-to-end and per-layer metric in BENCHMARK.json is emitted with
  its unit, and every output is correct;
* the work counters are identical across two traced runs;
* no tracing wrapper is left in any ncgames module after a traced run.

Takes a few seconds.  Run it from the repository root:

    python3 perfbench/smoke.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTERS = (
    "solver.states",
    "solver.layers",
    "testplan.pgain_calls",
    "testplan.execute_calls",
    "testplan.visits",
    "witness.extract_solve_calls",
    "experiments.trials",
)
# the counter each workload must move, so that the repeat check is not vacuous
BUSY = {"solve": "solver.states", "certify": "witness.extract_solve_calls",
        "campaign": "testplan.pgain_calls"}


def bindings(nc) -> dict:
    """Every attribute of every ncgames module, plus the traced class."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key == nc.__name__ or key.startswith(nc.__name__ + "."):
            out.update({(key, attr): value for attr, value in vars(module).items()})
    out.update({("_Arena", attr): value for attr, value in vars(nc.solver._Arena).items()})
    return out


def check_metrics(result: dict, wanted: dict[str, str], where: str) -> list[str]:
    problems = []
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        wrong = sorted(k for k in set(got) & set(wanted) if got[k] != wanted[k])
        problems.append(f"{where}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    if not result["correct"]:
        problems.append(f"{where}: an output differs from its reference")
    return problems


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    nc = bench.load_program()
    before = bindings(nc)
    problems = []
    for workload in WORKLOADS:
        args = SimpleNamespace(workload=workload, seed=0, seconds=0, trace=0, size="small")
        result, _ = bench.run(args, probes=1)
        problems += check_metrics(result, end_to_end, f"{workload} --trace 0")
        counters = []
        for attempt in (1, 2):
            args.trace = 1
            result, _ = bench.run(args)
            problems += check_metrics(result, per_layer, f"{workload} --trace 1 (run {attempt})")
            after = bindings(nc)
            left = sorted(f"{m}.{a}" for m, a in before if after.get((m, a)) is not before[(m, a)])
            if left or set(after) != set(before):
                problems.append(f"{workload}: bindings changed after tracing: {left}")
            counters.append({k: result["metrics"][k]["value"] for k in COUNTERS})
        if counters[0] != counters[1]:
            problems.append(f"{workload}: counters differ between runs: {counters}")
        if not counters[0][BUSY[workload]]:
            problems.append(f"{workload}: {BUSY[workload]} is 0, tracing saw nothing")
        print(f"{workload}: {counters[0]}", file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
