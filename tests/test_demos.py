"""The demos run as scripts and demo 01 prints a fixed text."""
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
