"""Monte Carlo campaigns over (strategy, budget) grids with CSV output.

Each grid cell runs a fixed number of independent trials; a trial's SUT
responder and tie-breaking stream are seeded from a stable 64-bit FNV-1a
hash of (strategy, budget, trial) XOR the campaign's base seed, so results
are bit-identical across machines and independent of execution order.

Reported numbers per cell: mean covered percent, its spread (standard
error by default, standard deviation on request), mean resets, and mean
executions.  The coverage denominator is the total node count by default;
the reachable-node count is available as an option.  The float statistics
add in NumPy's pairwise summation order, so every CSV matches, byte for
byte, the output of the earlier NumPy-based implementation.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import reduce
from operator import add

from .errors import ValidationError
from .graph import GameGraph, ensure_valid, reachable
from .testplan import (
    PGAIN_STRATEGIES,
    SutResponder,
    TestSuite,
    generate_static_suite,
    nt_plan,
    random_walk,
    static_once,
    validate_suite,
)

ALL_STRATEGIES = ("GMU-static", "s1.5", "s2", "s3", "s4", "rdm")


@dataclass(frozen=True)
class ExperimentConfig:
    graph_name: str
    budgets: tuple[int, ...]
    strategies: tuple[str, ...] = ALL_STRATEGIES
    trials: int = 100
    reset_cost: int = 10
    base_seed: int = 0
    denominator: str = "total"  # or "reachable"
    spread: str = "stderr"  # or "stddev"


@dataclass(frozen=True)
class CellStats:
    strategy: str
    budget: int
    trials: int
    mean_pct: float
    spread_pct: float
    mean_resets: float
    mean_executions: float


@dataclass(frozen=True)
class ExperimentResult:
    graph_name: str
    cells: tuple[CellStats, ...] = field(default_factory=tuple)
    spread: str = "stderr"  # the spread the cells hold, which names the CSV column


def fnv1a64(data: bytes, h: int = 0xCBF29CE484222325) -> int:
    """64-bit FNV-1a hash; stable across platforms and Python versions.

    ``h`` is the state to continue from, by default the FNV offset basis:
    ``fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b)``.
    """
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def derive_seed(base_seed: int, strategy: str, budget: int, trial: int, stream: str) -> int:
    """Per-trial seed: base_seed XOR FNV-1a of the cell coordinates.

    ``run_experiment`` gets the same seeds by hashing each cell's
    ``strategy|budget|`` once and continuing from that state per trial.
    """
    return base_seed ^ fnv1a64(f"{strategy}|{budget}|{trial}|{stream}".encode())


def _sum(xs: list[float]) -> float:
    """Float sum in NumPy 2.x's pairwise order, equal to ``np.sum`` bit for bit.

    Builtin ``sum`` compensates rounding from Python 3.12 on, so it is not used.
    """
    n = len(xs)
    if n < 8:
        return reduce(add, xs, 0.0)
    if n <= 128:  # 8 strided accumulators, then the tail in sequence
        r = [reduce(add, xs[j : n - n % 8 : 8]) for j in range(8)]
        head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, xs[n - n % 8 :], head)
    half = n // 2 - (n // 2) % 8
    return _sum(xs[:half]) + _sum(xs[half:])


def _mean_sd(xs: list[float]) -> tuple[float, float]:
    """``np.mean`` and ``np.std(ddof=1)`` bit for bit; the deviation of one value is 0.0."""
    n = len(xs)
    mean = _sum(xs) / n
    squares = _sum([(x - mean) * (x - mean) for x in xs])
    return mean, math.sqrt(squares / (n - 1)) if n > 1 else 0.0


def run_one(
    g: GameGraph,
    suite: TestSuite,
    strategy: str,
    budget: int,
    reset_cost: int,
    sut_seed: int,
    pick_seed: int,
):
    """Run a single trial of one strategy; returns its RunResult."""
    sut = SutResponder(sut_seed)
    if strategy == "rdm":
        return random_walk(g, budget, sut, random.Random(pick_seed))
    if strategy == "GMU-static":
        return static_once(g, suite, budget, reset_cost, sut)
    if strategy in PGAIN_STRATEGIES:
        return nt_plan(g, suite, budget, strategy, reset_cost, sut, random.Random(pick_seed))
    raise ValueError(f"unknown strategy `{strategy}`")


def run_experiment(
    g: GameGraph, cfg: ExperimentConfig, suite: TestSuite | None = None
) -> ExperimentResult:
    """Full campaign over the configured (strategy, budget) grid.

    The suite is the generated static suite of `g`; a given one is checked before any cell runs.
    """
    ensure_valid(g, strict=True)
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")
    if any(b < 1 for b in cfg.budgets):
        raise ValueError("budgets must be >= 1")
    if cfg.reset_cost < 0:
        raise ValueError("reset_cost must be >= 0")
    if cfg.base_seed < 0:  # Random seeds on abs(): base seeds s and -s would share streams
        raise ValueError("base_seed must be >= 0")
    if cfg.denominator not in ("total", "reachable"):
        raise ValueError("denominator must be `total` or `reachable`")
    if cfg.spread not in ("stderr", "stddev"):
        raise ValueError("spread must be `stderr` or `stddev`")
    unknown = [s for s in cfg.strategies if s not in ALL_STRATEGIES]
    if unknown:
        raise ValueError(f"unknown strategy `{unknown[0]}`")

    if suite is None:
        suite = generate_static_suite(g)
    elif problems := validate_suite(g, suite):
        raise ValidationError("; ".join(problems))
    denom = len(g.nodes) if cfg.denominator == "total" else len(reachable(g, g.init))

    cells = []
    for strategy in sorted(set(cfg.strategies)):
        for budget in sorted(set(cfg.budgets)):
            pcts = []
            resets = executions = 0  # int sums are exact in any order
            cell = fnv1a64(f"{strategy}|{budget}|".encode())  # derive_seed's key, hashed once
            for trial in range(cfg.trials):
                res = run_one(
                    g,
                    suite,
                    strategy,
                    budget,
                    cfg.reset_cost,
                    cfg.base_seed ^ fnv1a64(f"{trial}|sut".encode(), cell),
                    cfg.base_seed ^ fnv1a64(f"{trial}|pick".encode(), cell),
                )
                pcts.append(100.0 * res.covered_count / denom)
                resets += res.resets
                executions += res.executions
            mean_pct, spread = _mean_sd(pcts)
            if cfg.spread == "stderr":
                spread /= cfg.trials ** 0.5
            means = (resets / cfg.trials, executions / cfg.trials)
            cells.append(CellStats(strategy, budget, cfg.trials, mean_pct, spread, *means))
    return ExperimentResult(cfg.graph_name, tuple(cells), cfg.spread)


CSV_HEADER = "graph,strategy,budget,trials,mean_pct,stderr_pct,mean_resets,mean_executions"


def emit_csv(res: ExperimentResult) -> str:
    """Render cells as CSV, one row per (strategy, budget), sorted; the spread names its column."""
    name = res.graph_name
    if any(c in name for c in ',"\r\n'):  # quoted as RFC 4180 says, inner quotes doubled
        name = '"' + name.replace('"', '""') + '"'
    lines = [CSV_HEADER.replace("stderr_pct", f"{res.spread}_pct")]
    for cell in sorted(res.cells, key=lambda c: (c.strategy, c.budget)):
        lines.append(
            f"{name},{cell.strategy},{cell.budget},{cell.trials},"
            f"{cell.mean_pct:.2f},{cell.spread_pct:.2f},"
            f"{cell.mean_resets:.2f},{cell.mean_executions:.2f}"
        )
    return "\n".join(lines) + "\n"
