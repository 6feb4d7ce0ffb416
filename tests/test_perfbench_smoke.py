"""The benchmark's own smoke check, run as part of the test suite.

perfbench binds its tracing to names inside ncgames (``testplan.pgain``,
``witness.solve_mcg``, ``_Arena.explore``) and requires the counters behind
them to move.  Running ``perfbench/smoke.py`` here makes a rename of one of
those names fail the tests instead of only the manual smoke run.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke: ok")
