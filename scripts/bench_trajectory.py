#!/usr/bin/env python3
"""Print the drift-free trajectory of the end-to-end metrics recorded in ``BENCH_*.json``.

Usage: ``python3 scripts/bench_trajectory.py [DIR]`` (DIR defaults to the repository root).

Each ``BENCH_<pr>.json`` runs a change and its parent in alternating pairs on
one host, so the ratio of the change's median to the parent's is free of the
drift between the days the files were recorded. For each workload and each
``end_to_end`` metric of ``BENCHMARK.json``, one line gives, in PR order,
``<pr>:<ratio>`` and the running product of the ratios so far in brackets.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    metrics = [m["name"] for m in json.loads((root / "BENCHMARK.json").read_text("utf-8"))["end_to_end"]]
    numbered = ((re.fullmatch(r"BENCH_(\d+)\.json", p.name), p) for p in root.glob("BENCH_*.json"))
    docs = sorted(((int(m[1]), json.loads(p.read_text("utf-8"))) for m, p in numbered if m), key=lambda d: d[0])
    for workload in sorted({w for _, doc in docs for w in doc["workloads"]}):
        for metric in metrics:
            chained, cells = 1.0, []
            for pr, doc in docs:
                entry = doc["workloads"].get(workload, {}).get("summary", {}).get(metric)
                if entry and entry["parent"]["median"]:
                    ratio = entry["change"]["median"] / entry["parent"]["median"]
                    chained *= ratio
                    cells.append(f"{pr}:{ratio:.3f}({chained:.3f})")
            print(workload, metric, *cells)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
