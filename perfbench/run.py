"""adcut benchmark: one command per workload, metrics and checks in one report.

Usage (from the repository root):

    python3 perfbench/run.py --workload {corpus,edit,http} --seed N --seconds S --trace {0,1}

Workloads (one process pinned to one CPU, at most two worker threads and two
connections):

- ``corpus``: the CLI chain ``build-dataset`` -> ``generate --endpoint-generate
  mock:swap_adjacent:0.3`` -> ``evaluate --with-judge --with-vsr`` with every
  mock in-process and ``--concurrency 2``, on jobs of four videos and, one
  job in twenty, sixteen (3-12 shots, 2-10 ASR sentences, a 40-clip
  negative pool).
- ``edit``: a closed loop with one client. Each request plans sampling, then
  parses, validates, aligns, resolves decorations, re-checks and serializes a
  draft. About 95% are short ads (4-30 clips of 1-60 s), about 5% long-form
  (150-400 nodes), and about 10% of drafts are invalid on purpose.
- ``http``: ``generate`` (``--concurrency 2``) then ``evaluate --with-judge
  --with-vsr`` on jobs built like corpus's, with the generate, judge and
  embed roles served over loopback HTTP by ``stub_server.py`` in its own
  process, on jobs of two videos and, one job in twenty, eight.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median time of a
fresh interpreter running the workload's entry command on a one-item input),
``items_per_s``, ``latency_p50_ms``/``latency_p99_ms`` (per request on edit,
per job through all stages on corpus and http) and ``peak_rss_mb``;
corpus and http also print per-stage rates. Times are at reference speed:
each block or probe is scaled by a fixed reference job timed around it
(``reference.py``), so a host that slows down for a while does not read as
a slower program. ``--trace 1`` interleaves
untraced and traced phases and prints the per-layer metrics of the traced
phases, the stage rates of the untraced ones, and the tracing overhead; its
spans are written to ``.perfbench_out/``. Every run checks its outputs; an
item that fails a check counts as a failed operation. The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import reference  # noqa: E402  (sibling module; this directory is sys.path[0])
import workloads  # noqa: E402
from tracing import Tracer, percentile  # noqa: E402

REFERENCE_SAMPLES = 2  # reference-job runs between consecutive timed blocks or probes
STAGE_LAYERS = {"build": "cli.build_dataset", "generate": "cli.generate", "evaluate": "cli.evaluate"}
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms", "peak_rss_mb": "MB"}
STAT_UNITS = {
    "useful_ratio": "ratio", "mean": "x", "max": "x", "overhead_pct": "%", "calls_per_connection": "calls",
    "items_per_s": "1/s", "traced": "1/s", "untraced": "1/s",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_ms"):
        return "ms"
    if stat.endswith("bytes"):
        return "bytes"
    return STAT_UNITS.get(stat, "count")


class Totals:
    """Items, time and latencies of one kind of phase (untraced or traced),
    with times at reference speed (see ``reference.py``)."""

    def __init__(self) -> None:
        self.items = 0
        self.seconds = 0.0
        self.wall_seconds = 0.0
        self.latencies: list[float] = []
        self.stages: dict[str, list[float]] = {}  # stage -> [seconds, items]

    def add(self, block: workloads.Block, scale: float) -> None:
        self.items += block.items
        self.wall_seconds += sum(block.latencies)
        self.seconds += sum(block.latencies) * scale
        self.latencies += [latency * scale for latency in block.latencies]
        for stage, seconds in block.stages.items():
            entry = self.stages.setdefault(stage, [0.0, 0])
            entry[0] += seconds * scale
            entry[1] += block.items

    def rate(self) -> float:
        return self.items / self.seconds if self.seconds else 0.0

    def stage_rate(self, stage: str) -> float:
        seconds, items = self.stages.get(stage, (0.0, 0))
        return items / seconds if seconds else 0.0


def probe_setup(workload: workloads.Workload, samples: int) -> tuple[list[float], list[float], int]:
    """Seconds and import ms, at reference speed, of fresh interpreters
    running the entry command, after one discarded warm-up; also the number
    that failed."""
    argv = [sys.executable, str(HERE / "probe.py"), str(SRC), *workload.probe_args()]
    walls, imports, failed = [], [], 0
    before = reference.sample(REFERENCE_SAMPLES)
    for n in range(samples + 1):
        started = perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        wall = perf_counter() - started
        after = reference.sample(REFERENCE_SAMPLES)
        scale, before = reference.scale(before, after), after
        if done.returncode != 0:
            failed += 1
            workloads.report_problems("set-up probe", [f"exit {done.returncode}: {done.stderr.strip()[-300:]}"])
            continue
        if n:
            walls.append(wall * scale)
            imports.append(json.loads(done.stdout.strip().splitlines()[-1])["import_ms"] * scale)
    return walls, imports, failed


def run(name: str, seed: int, seconds: float, trace: bool, sizes: workloads.Sizes = workloads.Sizes()) -> dict:
    if not (SRC / "adcut" / "__init__.py").is_file():
        raise FileNotFoundError(f"adcut sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.WORKLOADS[name](ROOT, work, seed, sizes)
    tracer = Tracer() if trace else None
    phases = {False: Totals(), True: Totals()}
    # One CPU runs this thread, the threads it starts, the set-up probes and
    # the http stub, so the reference job times the core that does the work.
    # Across two vCPUs of a loaded host, each loopback round trip would also
    # wait for the hypervisor to wake the idle one, which no reference sees.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        workload.setup()
        walls, imports, probe_failed = probe_setup(workload, sizes.probes)
        attempted, failed = sizes.probes + 1, probe_failed

        warmup = workload.block(0, traced=False)
        attempted += warmup.items
        failed += warmup.failed
        # A traced run alternates untraced and traced phases until the traced
        # ones have done a fixed number of blocks, so per-layer counts repeat
        # exactly for a seed; untraced blocks then fill the rest of the time.
        index, traced_blocks, started = 1, 0, perf_counter()
        before = reference.sample(REFERENCE_SAMPLES)
        while perf_counter() - started < seconds or (tracer is not None and traced_blocks < sizes.trace_blocks):
            traced = (
                tracer is not None
                and traced_blocks < sizes.trace_blocks
                and (index // workload.trace_period) % 2 == 1
            )
            traced_blocks += traced
            if traced:
                tracer.install()
                workload.tracer = tracer
            try:
                block = workload.block(index, traced)
            finally:
                if traced:
                    tracer.uninstall()
                    workload.tracer = None
            after = reference.sample(REFERENCE_SAMPLES)
            phases[traced].add(block, reference.scale(before, after))
            before = after
            attempted += block.items
            failed += block.failed
            index += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed += workload.finish()
    finally:
        workload.close()
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    plain = phases[False]
    print(f"workload={name} seed={seed} trace={int(trace)} setup_samples={len(walls)} "
          f"blocks={index - 1} latency_samples={len(plain.latencies)} attempted={attempted} failed={failed}")
    if plain.wall_seconds:
        print(f"  wall_items_per_s {plain.items / plain.wall_seconds:.2f} 1/s "
              f"(host speed {plain.wall_seconds / plain.seconds:.3f}x reference time)")
    for stage in workload.stages:
        print(f"  {stage}_per_s {plain.stage_rate(stage):.2f} 1/s")
    if not trace:
        metrics = {
            "setup_s": statistics.median(walls) if walls else 0.0,
            "items_per_s": plain.rate(),
            "latency_p50_ms": percentile(plain.latencies, 0.5) * 1000.0,
            "latency_p99_ms": percentile(plain.latencies, 0.99) * 1000.0,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        traced = phases[True]
        metrics = tracer.per_layer()
        metrics.update({f"{layer}.items_per_s": plain.stage_rate(stage) for stage, layer in STAGE_LAYERS.items()})
        metrics.update(workload.per_layer())
        metrics["process.import_ms"] = statistics.median(imports) if imports else 0.0
        metrics["trace.items"] = traced.items
        metrics["trace.items_per_s.untraced"] = plain.rate()
        metrics["trace.items_per_s.traced"] = traced.rate()
        metrics["trace.overhead_pct"] = 100.0 * (1.0 - traced.rate() / plain.rate()) if plain.rate() else 0.0
        tracer.write(ROOT / ".perfbench_out" / f"spans-{name}-{seed}.jsonl")
    for key, value in metrics.items():
        print(f"  {key} {value:.6g} {unit_of(key)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit_of(key)} for key, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
