"""ncgames benchmark: seeded CLI workloads, checked outputs, layer tracing.

Run from the repository root:

    python3 perfbench/run.py --workload solve --seed 0 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``solve``    - exact values of random games, restart games and reduced
                 SAT formulas; the solver does nearly all the work;
* ``certify``  - witness extraction, witness check and a best-response
                 tightness test; dominated by the subset search;
* ``campaign`` - the eight trend-graph Monte Carlo campaigns; dominated by
                 test-case selection inside ``nt_plan``.

A pass runs every op of the workload once, in a seeded order.  The
measured phase repeats passes while the next one is expected to end
within ``--seconds`` (at least two passes untraced, one traced), and every
op's output is checked against perfbench/reference.json or an oracle.

A fixed calibration workload (perfbench/calibrate.py) runs between the
ops of an untraced pass and, on a timer, during them.  Each op's latency
is divided by the mean calibration time around and during it: its cost in
calibration units ("cal"), which does not move when the shared host
slows down as a whole.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
seven fresh processes, spread over the run, that start, import ncgames
and write the inputs), ``wall_cal`` (median over passes of the pass's
summed op costs in cal) and ``peak_rss_mb``.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of
perfbench/tracing.py (medians over traced passes), the untraced pass
time in seconds with its throughput and calibration time, and the tracing
overhead.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (machine facts, run
parameters, every op's latency and outcome) is written to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.  Each run is one
process with no extra threads; the setup probes run before the measured
phase and are waited for.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7
CALIB_WINDOW_S = 0.05  # calibration before the first op and after each op
CALIB_INTERVAL_S = 0.1  # period of the calibration samples taken during an op
PROBE_TIMEOUT_S = 120

# numpy's BLAS would start a thread pool at import; this benchmark is single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(HERE))
import numpy  # noqa: E402
import tracing  # noqa: E402
import calibrate  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_cal": "cal",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def load_program():
    """Import ncgames from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "ncgames" / "__init__.py").is_file():
        raise SystemExit(f"error: no ncgames sources under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    import ncgames
    import ncgames.cli  # the package __init__ does not import the CLI

    if Path(ncgames.__file__).resolve().parent != (src / "ncgames").resolve():
        raise SystemExit(f"error: imported ncgames from {ncgames.__file__}, not {src}")
    return ncgames


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def make_workdir(tag: str) -> Path:
    path = OUT_DIR / f"work-{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=False)
    return path


def probe_setup(args) -> None:
    """Child process of measure_setup: set up, report seconds since spawn."""
    nc = load_program()
    workdir = make_workdir("probe")
    try:
        workloads.build_ops(nc, args.workload, args.seed, workdir, args.size)
        print(time.monotonic() - args.probe_setup)  # CLOCK_MONOTONIC is system-wide
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args, count: int) -> list[float]:
    """Start-to-first-op time of `count` fresh processes, one at a time."""
    samples = []
    for _ in range(count):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--probe-setup", repr(started)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_pass(ops, sample: bool = True) -> list[dict]:
    """Execute every op once; time each; check each result afterwards.

    With ``sample``, the calibration workload runs for ``CALIB_WINDOW_S``
    before the first op and after every op, and every ``CALIB_INTERVAL_S``
    during an op.  An op's ``latency_s`` excludes the calibrations run
    during it, and its ``cost_cal`` is that latency divided by the mean
    calibration time before, during and after it: its cost in calibration
    units.  Traced passes run without calibration, so that no layer time
    includes it.
    """
    gc.collect()
    records = []
    before = calibrate.window(CALIB_WINDOW_S) if sample else []
    for op in ops:
        op.cleanup()
        sampler = calibrate.Sampler(CALIB_INTERVAL_S)
        started = time.perf_counter()
        try:
            if sample:
                with sampler:
                    outcome, error = op.execute(), None
            else:
                outcome, error = op.execute(), None
        except Exception as exc:  # a crash is a wrong result, not a benchmark error
            outcome, error = None, exc
        latency = time.perf_counter() - started - sampler.paused
        record = {"op": op.name, "latency_s": latency}
        if sample:
            after = calibrate.window(CALIB_WINDOW_S)
            samples = before + sampler.samples + after
            record.update(calib_s=statistics.fmean(samples), calib_samples=len(samples),
                          cost_cal=latency / statistics.fmean(samples))
            before = after
        if error is not None:
            status, problems = "crashed", [f"{type(error).__name__}: {error}"]
        elif outcome.failed:
            status, problems = "failed", [f"exit codes {outcome.codes}"]
        else:
            problems = op.check(outcome)
            status = "wrong" if problems else "ok"
        records.append({**record, "status": status, "problems": problems})
    return records


def pass_time(records: list[dict]) -> float:
    return sum(r["latency_s"] for r in records)


def pass_cost(records: list[dict]) -> float:
    return sum(r["cost_cal"] for r in records)


def run(args, probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, full record)."""
    nc = load_program()
    workdir = make_workdir(args.workload)
    try:
        ops = workloads.build_ops(nc, args.workload, args.seed, workdir, args.size)
        # the host's speed drifts over seconds: spread the setup probes over the run
        setup_samples = [] if args.trace else measure_setup(args, 1)
        untraced: list[list[dict]] = []
        traced: list[list[dict]] = []
        layers: list[dict] = []
        min_rounds = 1 if args.trace else 2
        phase_start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            untraced.append(run_pass(ops))
            if args.trace:
                with tracing.Tracer(nc) as tracer:
                    traced.append(run_pass(ops, sample=False))
                layers.append(tracer.layer_metrics())
            else:
                setup_samples += measure_setup(args, 1)
            now = time.perf_counter()
            rounds = len(untraced)
            if rounds >= min_rounds and (now - phase_start) + (now - round_start) > args.seconds:
                break
        if not args.trace:
            setup_samples += measure_setup(args, probes - len(setup_samples))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    executed = [r for p in untraced + traced for r in p]
    failed = sum(r["status"] != "ok" for r in executed)
    correct = not any(r["status"] in ("wrong", "crashed") for r in executed)
    untraced_wall = statistics.median(pass_time(p) for p in untraced)
    untraced_cost = statistics.median(pass_cost(p) for p in untraced)
    calib = statistics.median(r["calib_s"] for p in untraced for r in p)
    per_op = [statistics.median(p[i]["latency_s"] for p in untraced) for i in range(len(ops))]

    if args.trace:
        values = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
        traced_wall = statistics.median(pass_time(p) for p in traced)
        values["run.wall_s"] = untraced_wall
        values["run.ops_per_s"] = len(ops) / untraced_wall
        values["run.calib_s"] = calib
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - untraced_wall
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_cal": untraced_cost,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    result = {"correct": correct, "attempted": len(executed), "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "git_commit": git_commit(),
        },
        "op_count": len(ops),
        "ops": [op.name for op in ops],
        "error_rate": failed / len(executed),
        "wall_s": untraced_wall,
        "ops_per_s": len(ops) / untraced_wall,
        "wall_cal": untraced_cost,
        "calib_median_s": calib,
        "op_median_latency_s": dict(zip((op.name for op in ops), per_op)),
        "op_max_s": max(per_op),
        "setup_samples_s": setup_samples,
        "passes_untraced": untraced,
        "passes_traced": traced,
        "layers_per_traced_pass": layers,
        "result": result,
    }
    return result, record


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0, help="workload seed; 0 gives the listed instances")
    p.add_argument("--seconds", type=int, default=30, help="length of the measured phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                   help="instance sizes; `small` is for perfbench/smoke.py")
    p.add_argument("--probe-setup", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main() -> None:
    args = parse_args()
    if args.probe_setup is not None:
        probe_setup(args)
        return
    result, record = run(args)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(
        f"{args.workload}: {len(record['passes_untraced'])} passes, "
        f"{result['failed']}/{result['attempted']} ops failed, record in {out.relative_to(ROOT)}",
        file=sys.stderr,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
