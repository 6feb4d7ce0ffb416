"""The repository's pytest settings, run on a throwaway suite.

``filterwarnings`` turns every warning into an error.  Hypothesis's failure report
imports ``libcst``, which reads the deprecated ``mypy_extensions.TypedDict``; unless
that warning is ignored, a failing property aborts the whole session with an
INTERNALERROR, reports only its own failure and runs no other test.  Where ``libcst``
is not installed the report imports nothing deprecated and this passes either way.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PROBE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_is_reported_with_the_rest(tmp_path):
    pytest.importorskip("hypothesis")
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
