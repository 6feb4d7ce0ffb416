"""Monte Carlo campaigns over (strategy, budget) grids with CSV output.

Each grid cell runs a fixed number of independent trials; a trial's SUT
responder and tie-breaking stream are seeded from a stable 64-bit FNV-1a
hash of (strategy, budget, trial) XOR the campaign's base seed, so results
are bit-identical across machines and independent of execution order.

Reported numbers per cell: mean covered percent, its spread (standard
error by default, standard deviation on request), mean resets, and mean
executions.  The coverage denominator is the total node count by default;
the reachable-node count is available as an option.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .graph import GameGraph, ensure_valid, reachable
from .testplan import (
    PGAIN_STRATEGIES,
    SutResponder,
    TestSuite,
    generate_static_suite,
    nt_plan,
    random_walk,
    static_once,
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


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash; stable across platforms and Python versions."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def derive_seed(base_seed: int, strategy: str, budget: int, trial: int, stream: str) -> int:
    """Per-trial seed: base_seed XOR FNV-1a of the cell coordinates."""
    return base_seed ^ fnv1a64(f"{strategy}|{budget}|{trial}|{stream}".encode())


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
    rng = random.Random(pick_seed)
    if strategy == "rdm":
        return random_walk(g, budget, sut, rng)
    if strategy == "GMU-static":
        return static_once(g, suite, budget, reset_cost, sut)
    if strategy in PGAIN_STRATEGIES:
        return nt_plan(g, suite, budget, strategy, reset_cost, sut, rng)
    raise ValueError(f"unknown strategy `{strategy}`")


def run_experiment(
    g: GameGraph, cfg: ExperimentConfig, suite: TestSuite | None = None
) -> ExperimentResult:
    """Full campaign over the configured (strategy, budget) grid.

    The suite is the generated static suite of `g` unless one is given.
    """
    ensure_valid(g, strict=True)
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")
    if any(b < 1 for b in cfg.budgets):
        raise ValueError("budgets must be >= 1")
    if cfg.denominator not in ("total", "reachable"):
        raise ValueError("denominator must be `total` or `reachable`")
    if cfg.spread not in ("stderr", "stddev"):
        raise ValueError("spread must be `stderr` or `stddev`")
    unknown = [s for s in cfg.strategies if s not in ALL_STRATEGIES]
    if unknown:
        raise ValueError(f"unknown strategy `{unknown[0]}`")

    if suite is None:
        suite = generate_static_suite(g)
    denom = len(g.nodes) if cfg.denominator == "total" else len(reachable(g, g.init))

    cells = []
    for strategy in sorted(set(cfg.strategies)):
        for budget in sorted(set(cfg.budgets)):
            pcts = np.empty(cfg.trials)
            resets = np.empty(cfg.trials)
            execs = np.empty(cfg.trials)
            for trial in range(cfg.trials):
                res = run_one(
                    g,
                    suite,
                    strategy,
                    budget,
                    cfg.reset_cost,
                    derive_seed(cfg.base_seed, strategy, budget, trial, "sut"),
                    derive_seed(cfg.base_seed, strategy, budget, trial, "pick"),
                )
                pcts[trial] = 100.0 * len(res.covered) / denom
                resets[trial] = res.resets
                execs[trial] = res.executions
            if cfg.trials > 1:
                spread = float(np.std(pcts, ddof=1))
                if cfg.spread == "stderr":
                    spread /= cfg.trials ** 0.5
            else:
                spread = 0.0
            cells.append(
                CellStats(
                    strategy,
                    budget,
                    cfg.trials,
                    float(np.mean(pcts)),
                    spread,
                    float(np.mean(resets)),
                    float(np.mean(execs)),
                )
            )
    return ExperimentResult(cfg.graph_name, tuple(cells))


CSV_HEADER = "graph,strategy,budget,trials,mean_pct,stderr_pct,mean_resets,mean_executions"


def emit_csv(res: ExperimentResult) -> str:
    """Render cells as CSV, one row per (strategy, budget), sorted."""
    lines = [CSV_HEADER]
    for cell in sorted(res.cells, key=lambda c: (c.strategy, c.budget)):
        lines.append(
            f"{res.graph_name},{cell.strategy},{cell.budget},{cell.trials},"
            f"{cell.mean_pct:.2f},{cell.spread_pct:.2f},"
            f"{cell.mean_resets:.2f},{cell.mean_executions:.2f}"
        )
    return "\n".join(lines) + "\n"
