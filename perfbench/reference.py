"""Reference job that tracks how fast this process's core runs right now.

The benchmark shares a host whose speed changes by up to about 1.7x between
periods that last seconds to minutes, as other tenants come and go. The
change is common to all interpreter work on the core, so the benchmark times
this fixed job, which shares no code with ``adcut``, just before and just
after every timed block, and scales the block's times by
``REFERENCE_MS / median(reference times)``. End-to-end times are therefore
reported at reference speed: the speed at which this job takes
``REFERENCE_MS``. A change to ``adcut`` cannot change the reference job, so
it moves the scaled times exactly as it moves the wall times at a steady
host speed.

The job mixes what ``adcut`` spends its time on: sorting tuples, building
dicts and lists, float arithmetic, string formatting and a JSON round trip.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

# Median time of reference_seconds() on an idle core of the 2-vCPU x86-64
# host the benchmark was tuned on.
REFERENCE_MS = 2.3

_DOC = [
    {"index": i, "start": i * 37 % 1000, "end": i * 37 % 1000 + 250, "text": f"clip {i}", "tags": ["a", "b", str(i % 7)]}
    for i in range(120)
]


def reference_seconds() -> float:
    """Wall seconds of one run of the fixed reference job."""
    started = perf_counter()
    for _ in range(6):
        spans = sorted(((d["start"], d["end"], d["index"]) for d in _DOC), key=lambda s: (s[1] - s[0], s[0]))
        by_key: dict[int, list[float]] = {}
        for start, end, index in spans:
            by_key.setdefault(index % 13, []).append((end - start) * 0.5 + start / 3.0)
        json.loads(json.dumps(_DOC, separators=(",", ":")))
        " ".join(f"{d['text']}:{d['end']}" for d in _DOC)
    return perf_counter() - started


def sample(count: int) -> list[float]:
    return [reference_seconds() for _ in range(count)]


def scale(before: list[float], after: list[float]) -> float:
    """Factor that turns wall time measured between two reference samplings
    into time at reference speed."""
    return REFERENCE_MS / 1000.0 / statistics.median(before + after)
