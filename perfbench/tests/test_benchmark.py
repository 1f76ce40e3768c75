"""Tiny-size self-test of the benchmark.

Checks that every metric declared in ``BENCHMARK.json`` is printed with its
unit, that every output check passes at one seed, and that the benchmark
refuses to run without the ``adcut`` sources. Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
TINY = workloads.Sizes(jobs=2, corpus_videos=3, http_videos=2, edit_requests=40, probes=1, trace_blocks=2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit_and_checks_pass(workload, trace, capsys):
    result = run.run(workload, seed=5, seconds=0.2, trace=bool(trace), sizes=TINY)
    printed = capsys.readouterr().out.splitlines()

    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[0::2] == [name, unit] for line in printed if line.startswith("  ")), name
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "edit", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
