"""Smoke tests for the shipped scripts, run as a user would run them.
``test_benchmark_harness.py`` checks that every ``adcut`` name the benchmark
tracer wraps still exists."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(name: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "ADCUT_CONFIG"}
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


STAND_IN_RUN = '''\
import argparse, json
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds"):
    parser.add_argument(flag, required=True)
args = parser.parse_args()
speed = float(open("speed.txt").read())
print("  build_per_s", speed * 2, "1/s")
print("sha256 job0/report", "ab" * 32)
print(json.dumps({"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {"items_per_s": {"value": speed, "unit": "1/s"},
                              "latency_p50_ms": {"value": 1000.0 / speed, "unit": "ms"},
                              "seed": {"value": int(args.seed), "unit": ""},
                              "seconds": {"value": float(args.seconds), "unit": "s"}}}))
'''


def test_bench_pairs_records_alternating_pairs_with_a_stand_in_run(tmp_path):
    repo = tmp_path / "repo"
    for name in ("scripts", "perfbench"):
        (repo / name).mkdir(parents=True)
    (repo / "scripts" / "bench_pairs.py").write_bytes((SCRIPTS / "bench_pairs.py").read_bytes())
    (repo / "perfbench" / "run.py").write_text(STAND_IN_RUN)
    (repo / "speed.txt").write_text("100")
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"], "run_seconds": 0.1,
        "workloads": [{"name": "corpus"}], "end_to_end": [{"name": "latency_p50_ms", "better": "lower"}],
    }))
    git = ["git", "-C", str(repo), "-c", "user.name=bench", "-c", "user.email=bench@example.invalid"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "parent"]):
        subprocess.run([*git, *args], check=True, capture_output=True)
    record = [sys.executable, str(repo / "scripts" / "bench_pairs.py"), "--pr", "7"]

    same = subprocess.run(record, capture_output=True, text=True, timeout=120)
    assert same.returncode == 2
    assert "--parent HEAD is HEAD and the working tree is clean" in same.stderr
    assert not (repo / "BENCH_7.json").exists()

    (repo / "speed.txt").write_text("150")  # the change, uncommitted
    done = subprocess.run(record, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    doc = json.loads((repo / "BENCH_7.json").read_text())
    assert doc["machine"]["python"] == platform.python_version()
    assert doc["change"]["uncommitted_changes"] is True
    corpus = doc["workloads"]["corpus"]
    base = int(doc["parent"]["commit"][:6], 16)
    assert corpus["seeds"] == [base + 1 + i for i in range(10)]
    assert [p["first"] for p in corpus["pairs"]] == ["parent", "change"] * 5
    for p in corpus["pairs"]:
        assert (p["parent"]["values"]["items_per_s"], p["change"]["values"]["items_per_s"]) == (100.0, 150.0)
        assert p["parent"]["values"]["seed"] == p["change"]["values"]["seed"] == p["seed"]
        assert p["parent"]["values"]["seconds"] == p["change"]["values"]["seconds"] == 0.1
    assert corpus["pairs"][0]["change"]["sha256"] == {"job0/report": "ab" * 32}
    assert corpus["sha256_identical"] is True
    summary = corpus["summary"]
    assert summary["items_per_s"]["change"]["median"] == 150.0
    assert summary["items_per_s"]["change_wins"] == summary["build_per_s"]["change_wins"] == 10
    assert summary["latency_p50_ms"]["better"] == "lower" and summary["latency_p50_ms"]["change_wins"] == 10
    assert summary["items_per_s"]["median_gain_exceeds_parent_iqr"] is True
    assert sorted(p.name for p in repo.iterdir()) == [
        ".git", "BENCHMARK.json", "BENCH_7.json", "perfbench", "scripts", "speed.txt"
    ]


def test_bench_trajectory_chains_the_within_file_ratios_in_pr_order(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "items_per_s"}, {"name": "latency_p99_ms"}]}))
    for pr, parent, change in ((10, 200.0, 250.0), (9, 100.0, 110.0)):
        summary = {"items_per_s": {"parent": {"median": parent}, "change": {"median": change}}}
        (tmp_path / f"BENCH_{pr}.json").write_text(json.dumps({"workloads": {"http": {"summary": summary}}}))
    (tmp_path / "BENCH_notes.json").write_text("{}")  # not a numbered recording
    done = subprocess.run([sys.executable, str(SCRIPTS / "bench_trajectory.py"), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["http items_per_s 9:1.100(1.100) 10:1.250(1.375)", "http latency_p99_ms"]


def test_artifact_digests_prints_one_sorted_line_per_artifact_of_the_small_grid_reproducibly():
    first, second = run_script("artifact_digests.py"), run_script("artifact_digests.py")
    assert first.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    names = [line.split()[1] for line in lines]
    assert all(line.split()[0] == "sha256" and len(line.split()[2]) == 64 for line in lines)
    assert names == sorted(names) and len(set(names)) == len(names)
    # 2 builds, 2 modes x (2 generates + 16 evaluates), 6 validate/plan runs and 1 align: each an output and an
    # exit; and one line each for the edit requests of seed 9 and for those with escaped texts
    assert len(lines) == 2 * (2 + 2 * (2 + 16) + 6 + 1) + 2
    assert {"s7/build-c1.jsonl", "s7/swap_adjacent/evaluate-table-judge-vsr-c2", "align/template.json",
            "edit/s9", "edit/text"} <= set(names)
    assert second.stdout == first.stdout
