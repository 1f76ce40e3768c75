"""Smoke tests for the shipped scripts, run as a user would run them, and a
check that every ``adcut`` name the benchmark tracer wraps still exists."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


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


def test_every_name_the_benchmark_tracer_wraps_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = [(module, name) for module, name, *_ in (*tracing.SPANS, *tracing.COUNTERS)]
    assert wrapped
    missing = [f"{module}.{name}" for module, name in wrapped
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
    from adcut.backends import Client

    assert callable(getattr(Client, "call", None))
