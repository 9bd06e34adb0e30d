"""The scripts under ``scripts/`` run against the library under test."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from quograph.cli import main

from conftest import subprocess_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=120,
    )


def test_run_verification_writes_the_cli_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    proc = run_script("run_verification.py", "--max-vertices", "3", "--random", "10", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert main(["verify", "--max-vertices", "3", "--random", "10"]) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode()


def test_run_verification_refuses_a_bound_beyond_the_limit():
    proc = run_script("run_verification.py", "--max-vertices", "7")
    assert proc.returncode == 2
    assert "at most 6 source, 3 target vertices" in proc.stderr
    assert "Traceback" not in proc.stderr
