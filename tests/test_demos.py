"""The demos run as scripts, and demos 01, 04 and 05 print fixed texts."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

DEMO_01_STDOUT = """\
violations: none
guaranteed coverage from v0: 3 of 4 nodes
product states explored: 10

SUT policy (node, covered so far) -> move:
  v3 with {v0, v1, v3} -> v1
  v3 with {v0, v2, v3} -> v2
  v3 with {v0, v1, v2, v3} -> v1

against a committed SUT the tester covers: ['v0', 'v1', 'v2', 'v3']
optimal vs optimal covers: ['v0', 'v1', 'v3']
"""

DEMO_04_STDOUT = """\
plain value: 3  (the SUT traps the play in one branch)
with restart: 4  (restart after the trap, take the other branch)

doubled graph: 8 nodes, init v0__in
plain value of the doubled graph: 8
twice the restart value:          8

the identity holds on random graphs:
  seed 0: doubled 12 == 2 x restart 6 -> True
  seed 1: doubled 6 == 2 x restart 3 -> True
  seed 2: doubled 12 == 2 x restart 6 -> True
  seed 3: doubled 12 == 2 x restart 6 -> True
  seed 4: doubled 4 == 2 x restart 2 -> True
"""

DEMO_05_STDOUT = """\
graph: 30 nodes; suite: 7 cases, prescribing 30 nodes

single s2 run at budget 240: covered 30/30, spent 233 (resets 15, executions 16)
executions that diverged: 9/16

campaign (100 trials per cell):
graph,strategy,budget,trials,mean_pct,stderr_pct,mean_resets,mean_executions
demo30,GMU-static,90,100,54.27,1.49,5.43,6.43
demo30,GMU-static,240,100,58.93,1.74,6.00,7.00
demo30,GMU-static,480,100,58.60,1.52,6.00,7.00
demo30,rdm,90,100,34.40,1.74,0.00,1.00
demo30,rdm,240,100,31.77,1.47,0.00,1.00
demo30,rdm,480,100,33.77,1.63,0.00,1.00
demo30,s1.5,90,100,53.80,1.35,5.53,6.53
demo30,s1.5,240,100,76.80,1.59,15.30,16.30
demo30,s1.5,480,100,91.07,1.25,27.36,28.36
demo30,s2,90,100,50.77,1.50,5.54,6.54
demo30,s2,240,100,89.37,1.46,13.42,14.42
demo30,s2,480,100,99.47,0.38,15.42,16.42
demo30,s3,90,100,65.73,1.79,4.92,5.92
demo30,s3,240,100,93.10,1.21,13.15,14.15
demo30,s3,480,100,99.93,0.07,16.47,17.47
demo30,s4,90,100,57.50,1.86,5.28,6.28
demo30,s4,240,100,93.17,1.21,13.62,14.62
demo30,s4,480,100,99.87,0.07,16.20,17.20
"""


def _run(script: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_all_demos_present():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_demo_01_stdout_is_pinned():
    proc = _run(ROOT / "demos" / "01_model_and_solve.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == DEMO_01_STDOUT


def test_demo_04_stdout_is_pinned():
    proc = _run(ROOT / "demos" / "04_restart_games.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == DEMO_04_STDOUT


def test_demo_05_stdout_is_pinned():
    proc = _run(ROOT / "demos" / "05_testplan_simulation.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == DEMO_05_STDOUT
