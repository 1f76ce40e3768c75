"""Smoke tests for the shipped scripts, run as a user would run them."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k not in ("ADCUT_CONFIG", "ADCUT_CI")}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name)], capture_output=True, text=True, env=env, timeout=120
    )


def test_demo_pipeline_prints_one_table_per_mode_reproducibly():
    first, second = run_script("demo_pipeline.py"), run_script("demo_pipeline.py")
    assert first.returncode == 0, first.stderr
    modes = [line for line in first.stdout.splitlines() if line.startswith("== generation endpoint:")]
    tables = [line for line in first.stdout.splitlines() if line.split()[:2] == ["CRA", "CSA"]]
    assert len(modes) == len(tables) == 4
    assert second.stdout == first.stdout


def test_token_budget_sweep_runs():
    done = run_script("token_budget_sweep.py")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("== fast:2/4 slow:0.5/16")
