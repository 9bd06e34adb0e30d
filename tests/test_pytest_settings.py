"""The repository's pytest settings let a failing test report as a failure."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

PLANTED = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n != 0


def test_a_passing_test():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_not_a_crash(tmp_path):
    # Hypothesis reports a failure through its patching module, which imports
    # libcst; libcst's DeprecationWarning must not turn into INTERNALERROR
    pytest.importorskip("libcst")
    (tmp_path / "test_planted.py").write_text(PLANTED)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(REPO / "pyproject.toml"),
         "--rootdir", str(REPO), "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
