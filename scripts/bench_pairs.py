#!/usr/bin/env python3
"""Record alternating parent/change benchmark pairs in ``BENCH_<pr>.json``.

Usage (from the repository root):

    python3 scripts/bench_pairs.py --pr N [--parent REV]

The change side is this working tree. The parent side is ``--parent``
(default ``HEAD``, the commit the working tree's changes sit on), exported
with ``git archive`` into a temporary directory that is removed at exit. An
export holds exactly the committed files, as a fresh checkout does, and
leaves nothing registered in ``.git``. A parent that is ``HEAD`` of a clean
working tree is a usage error: both sides would run the same code.

``BENCHMARK.json`` fixes what a run is: its ``command`` runs in each side's
root with ``--workload W --seed S --seconds T`` appended, for each of its
``workloads`` and with ``T`` its ``run_seconds``.

Each workload runs ``PAIRS`` (10) pairs. Pair ``i`` runs both sides on seed
``B + 1 + i``, parent first on even ``i`` and change first on odd ``i``, so
neither side always runs on the warmer or the quieter host. ``B`` is the
first six hex digits of the parent commit id read as a number, so the seed
block is fixed by the parent and is not a round number picked by habit; a
prototype that sizes a change on the parent should not use seeds from it.

The file records the machine, the Python version, the seeds and, per run,
every metric of the result line, every ``<stage>_per_s`` line and the
``sha256 job0/*`` lines. Per workload and metric it adds each side's median
and quartiles, the pairs the change wins, and whether the change's median
beats the parent's by more than the parent's interquartile range. It is
rewritten after every pair, so an interrupted recording keeps its pairs.
Exit code 1 if any run failed or reported failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # the fewest pairs a claimed gain is judged on


def export(repo: Path, commit: str, dest: Path) -> None:
    """Write the files of ``commit`` to ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True, text=True).stdout.strip()


def machine() -> dict:
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu": model,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
    }


def run_once(root: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One run of ``command`` in ``root``: its values, sha256 lines and failures."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    record: dict = {"seed": seed}
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if done.returncode != 0 or not isinstance(result, dict):
        record["error"] = f"exit {done.returncode}: {done.stderr.strip()[-500:]}"
        return record
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    sha256 = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and line.startswith("  ") and parts[0].endswith("_per_s"):
            values.setdefault(parts[0], float(parts[1]))
        elif len(parts) == 3 and parts[0] == "sha256" and parts[1].startswith("job0/"):
            sha256[parts[1]] = parts[2]
    record.update(correct=result["correct"], attempted=result["attempted"], failed=result["failed"],
                  values=values, sha256=sha256)
    return record


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], directions: dict[str, str]) -> dict:
    """Per metric: each side's spread, and how the change compares pair by pair.

    ``directions`` maps a metric to ``"higher"`` or ``"lower"``; any other
    ``*_per_s`` is better higher."""
    whole = [p for p in pairs if "values" in p["parent"] and "values" in p["change"]]
    names = sorted({name for p in whole for name in p["parent"]["values"]} &
                   {name for p in whole for name in p["change"]["values"]})
    out = {}
    for name in names:
        both = [(p["parent"]["values"][name], p["change"]["values"][name]) for p in whole
                if name in p["parent"]["values"] and name in p["change"]["values"]]
        parent, change = spread([a for a, _ in both]), spread([b for _, b in both])
        entry = {"pairs": len(both), "parent": parent, "change": change}
        better = directions.get(name, "higher" if name.endswith("_per_s") else None)
        if better:
            sign = 1.0 if better == "higher" else -1.0
            entry["better"] = better
            entry["change_wins"] = sum(sign * (b - a) > 0 for a, b in both)
            entry["median_gain_exceeds_parent_iqr"] = sign * (change["median"] - parent["median"]) > parent["iqr"]
        out[name] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--parent", default="HEAD", help="revision of the parent side (default HEAD)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parent_commit = git(ROOT, "rev-parse", "--verify", f"{args.parent}^{{commit}}")
    head = git(ROOT, "rev-parse", "HEAD")
    uncommitted = bool(git(ROOT, "status", "--porcelain"))
    if parent_commit == head and not uncommitted:
        parser.error(f"--parent {args.parent} is HEAD and the working tree is clean: both sides are the same code")

    out = ROOT / f"BENCH_{args.pr}.json"
    seed_base = int(parent_commit[:6], 16)
    directions = {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}
    workdir = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        export(ROOT, parent_commit, workdir / "parent")
        sides = {"parent": workdir / "parent", "change": ROOT}
        doc = {
            "pr": args.pr,
            "parent": {"commit": parent_commit},
            "change": {"head": head, "uncommitted_changes": uncommitted},
            "machine": machine(),
            "command": spec["command"],
            "seconds": spec["run_seconds"],
            "workloads": {},
        }
        ok = True
        for workload in (w["name"] for w in spec["workloads"]):
            pairs: list[dict] = []
            entry = doc["workloads"][workload] = {"seeds": [], "pairs": pairs}
            for i in range(PAIRS):
                seed = seed_base + 1 + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(sides[side], spec["command"], workload, seed, spec["run_seconds"])
                    failed = "error" in pair[side] or pair[side]["failed"]
                    ok = ok and not failed
                    print(f"{workload} seed {seed} {side}: "
                          f"{pair[side].get('error') or pair[side]['values'].get('items_per_s')}", flush=True)
                pair["sha256_identical"] = pair["parent"].get("sha256") == pair["change"].get("sha256")
                pairs.append(pair)
                entry["seeds"].append(seed)
                entry["summary"] = summarize(pairs, directions)
                entry["sha256_identical"] = all(p["sha256_identical"] for p in pairs)
                out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out}")
        return 0 if ok else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
