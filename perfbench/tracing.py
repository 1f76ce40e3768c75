"""In-memory span tracer installed around ``adcut`` functions from outside.

``Tracer.install`` replaces each traced function at every ``adcut`` module
attribute that holds it (names imported with ``from .x import y`` are
separate bindings, so each caller's binding is wrapped), plus
``Client.call``. ``uninstall`` restores the originals, so untraced runs
execute the program's own code with no wrapper in the way.

Coarse functions record spans (name, start, end, parent, item id); the
per-layer report derives busy time, percentiles and self time from them.
Functions called thousands of times per item (frame sampling, per-clip
planning, the JSON codec) only bump per-thread counters, so tracing does not
swamp what it measures.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import sys
import threading
from functools import wraps
from pathlib import Path
from time import perf_counter

ROLES = ("generate", "judge", "embed", "asr", "ocr", "shots", "caption")

# (defining module, function, span name)
SPANS = (
    ("adcut.cli", "cmd_build_dataset", "cli.build_dataset"),
    ("adcut.cli", "cmd_generate", "cli.generate"),
    ("adcut.cli", "cmd_evaluate", "cli.evaluate"),
    ("adcut.sampling", "plan_request", "sampling.plan_request"),
    ("adcut.timeline", "align_draft", "timeline.align_draft"),
    ("adcut.timeline", "match_decorations", "timeline.match_decorations"),
    ("adcut.timeline", "check_alignment", "timeline.check_alignment"),
    ("adcut.timeline", "serialize_plan", "timeline.serialize_plan"),
    ("adcut.draft", "parse_draft", "draft.parse_draft"),
    ("adcut.draft", "validate_draft", "draft.validate_draft"),
    ("adcut.draft", "serialize_draft", "draft.serialize_draft"),
    ("adcut.dataset", "build_sample", "dataset.build_sample"),
    ("adcut.dataset", "deconstruct", "dataset.deconstruct"),
    ("adcut.dataset", "assemble_sample", "dataset.assemble_sample"),
    ("adcut.dataset", "write_corpus", "dataset.write_corpus"),
    ("adcut.dataset", "read_corpus", "dataset.read_corpus"),
    ("adcut.metrics", "evaluate_corpus", "metrics.evaluate_corpus"),
    ("adcut.metrics", "vsr", "metrics.vsr"),
)

# (defining module, function, counter name, bytes of (args, result) or None)
COUNTERS = (
    ("adcut.sampling", "plan_clip", "sampling.plan_clip", None),
    ("adcut.sampling", "sample_frames", "sampling.sample_frames", None),
    ("adcut.jsonutil", "dumps_canonical", "jsonutil.dumps_canonical", lambda args, result: len(result)),
    ("adcut.jsonutil", "loads", "jsonutil.loads", lambda args, result: len(args[0])),
)

PER_LAYER = (
    "sampling.plan_request.count", "sampling.plan_request.busy_ms", "sampling.plan_request.p99_ms",
    "sampling.plan_clip.count", "sampling.plan_clip.useful_ratio",
    "sampling.reduction_factor.mean", "sampling.reduction_factor.max",
    "sampling.sample_frames.count", "sampling.sample_frames.busy_ms",
    "timeline.align_draft.count", "timeline.align_draft.busy_ms", "timeline.align_draft.p99_ms",
    "timeline.match_decorations.busy_ms", "timeline.check_alignment.busy_ms", "timeline.serialize_plan.busy_ms",
    "draft.parse_draft.count", "draft.parse_draft.busy_ms", "draft.parse_draft.bytes",
    "draft.validate_draft.count", "draft.validate_draft.busy_ms", "draft.validate_draft.rejected",
    "draft.serialize_draft.count", "draft.serialize_draft.busy_ms",
    "jsonutil.dumps_canonical.count", "jsonutil.dumps_canonical.busy_ms", "jsonutil.dumps_canonical.bytes",
    "jsonutil.loads.count", "jsonutil.loads.busy_ms", "jsonutil.loads.bytes",
    "dataset.build_sample.self_ms", "dataset.deconstruct.self_ms", "dataset.build_sample.failed",
    "dataset.assemble_sample.busy_ms", "dataset.write_corpus.busy_ms", "dataset.read_corpus.busy_ms",
    "dataset.negatives_capped.count",
    *(f"backends.call.{role}.{stat}" for role in ROLES for stat in ("count", "busy_ms", "p50_ms", "p99_ms", "retries", "failed")),
    "metrics.evaluate_corpus.self_ms", "metrics.vsr.count", "metrics.vsr.self_ms",
    "cli.build_dataset.self_ms", "cli.generate.self_ms", "cli.evaluate.self_ms",
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, start, end, item, ok)
        # appended to from any thread (list.append is atomic); summed at the end
        self.facts: dict[str, list] = {
            name: [] for name in ("reduction_factor", "plan_clips", "parse_bytes", "rejected", "capped", "retries")
        }
        self.item: object = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._ambient: int | None = None  # open top-level span of the main thread
        self._counter_sets: list[dict] = []  # one per thread; list.append is atomic
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counters(self) -> dict:
        counters = getattr(self._local, "counters", None)
        if counters is None:
            counters = self._local.counters = {}
            self._counter_sets.append(counters)
        return counters

    def _span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``name`` is a string or a function of the call's args."""
        main = threading.main_thread()

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            on_main = threading.current_thread() is main
            # a worker thread's outermost span hangs under the main thread's open span
            parent = stack[-1] if stack else (None if on_main else self._ambient)
            if on_main and not stack:
                self._ambient = sid
            stack.append(sid)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                if on_main and not stack:
                    self._ambient = None
                label = name(args) if callable(name) else name
                self.spans.append((sid, parent, label, start, end, self.item, ok))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn, size):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            counters = self._counters()
            entry = counters.get(name)
            if entry is None:
                entry = counters[name] = [0, 0.0, 0]
            entry[0] += 1
            entry[1] += elapsed
            if size is not None:
                entry[2] += size(args, result)
            return result

        return wrapper

    def _after(self, span_name: str):
        facts = self.facts
        if span_name == "sampling.plan_request":
            def after(args, plan):
                facts["reduction_factor"].append(plan.reduction_factor)
                facts["plan_clips"].append(len(plan.clips))
        elif span_name == "draft.parse_draft":
            def after(args, draft):
                facts["parse_bytes"].append(len(args[0]))
        elif span_name == "draft.validate_draft":
            def after(args, report):
                if not report.ok:
                    facts["rejected"].append(1)
        elif span_name == "dataset.build_sample":
            def after(args, sample):
                if sample.negatives_capped:
                    facts["capped"].append(1)
        else:
            return None
        return after

    # -- install / uninstall -------------------------------------------------
    def _replace(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname == "adcut" or modname.startswith("adcut."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        from adcut import backends

        for modname, fn_name, span_name in SPANS:
            original = getattr(importlib.import_module(modname), fn_name)
            self._replace(original, self._span(span_name, original, self._after(span_name)))
        for modname, fn_name, counter_name, size in COUNTERS:
            original = getattr(importlib.import_module(modname), fn_name)
            self._replace(original, self._counter(counter_name, original, size))

        call = backends.Client.call
        retries = self.facts["retries"]

        def after_call(args, result):
            if result.retries:
                retries.append((args[0].role, result.retries))

        traced_call = self._span(lambda args: "backends.call." + args[0].role, call, after_call)
        self._patched.append((backends.Client, "call", call))
        backends.Client.call = traced_call

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- report ----------------------------------------------------------------
    def counter_totals(self) -> dict[str, list]:
        totals: dict[str, list] = {}
        for counters in self._counter_sets:
            for name, (count, busy, size) in counters.items():
                entry = totals.setdefault(name, [0, 0.0, 0])
                entry[0] += count
                entry[1] += busy
                entry[2] += size
        return totals

    def per_layer(self) -> dict[str, float]:
        """Every PER_LAYER metric, 0 where the layer did no work."""
        by_name: dict[str, list[float]] = {}
        self_ms: dict[str, float] = {}
        failed: dict[str, int] = {}
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, parent, name, start, end, item, ok in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        for sid, parent, name, start, end, item, ok in self.spans:
            by_name.setdefault(name, []).append((end - start) * 1000.0)
            own = (end - start) - _covered(children.get(sid, []), start, end)
            self_ms[name] = self_ms.get(name, 0.0) + own * 1000.0
            failed[name] = failed.get(name, 0) + (not ok)

        out: dict[str, float] = {}
        for key in PER_LAYER:
            layer, stat = key.rsplit(".", 1)
            durations = by_name.get(layer, [])
            if stat == "count" and layer in by_name:
                out[key] = len(durations)
            elif stat == "busy_ms" and layer in by_name:
                out[key] = sum(durations)
            elif stat in ("p50_ms", "p99_ms"):
                out[key] = percentile(durations, 0.5 if stat == "p50_ms" else 0.99)
            elif stat == "self_ms":
                out[key] = self_ms.get(layer, 0.0)
            elif stat == "failed":
                out[key] = failed.get(layer, 0)
            elif stat == "retries":
                role = layer.rsplit(".", 1)[1]
                out[key] = sum(n for r, n in self.facts["retries"] if r == role)
            else:
                out[key] = 0
        totals = self.counter_totals()
        for name, (count, busy, size) in totals.items():
            out[f"{name}.count"] = count
            out[f"{name}.busy_ms"] = busy * 1000.0
            if f"{name}.bytes" in out:
                out[f"{name}.bytes"] = size
        reductions = self.facts["reduction_factor"]
        out["sampling.plan_clip.useful_ratio"] = (
            sum(self.facts["plan_clips"]) / out["sampling.plan_clip.count"] if out["sampling.plan_clip.count"] else 0.0
        )
        out["sampling.reduction_factor.mean"] = sum(reductions) / len(reductions) if reductions else 0.0
        out["sampling.reduction_factor.max"] = max(reductions, default=0)
        out["draft.parse_draft.bytes"] = sum(self.facts["parse_bytes"])
        out["draft.validate_draft.rejected"] = len(self.facts["rejected"])
        out["dataset.negatives_capped.count"] = len(self.facts["capped"])
        return {key: out[key] for key in PER_LAYER}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, item, ok in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start, "end": end,
                                     "item": item, "ok": ok}, separators=(",", ":")))
                fh.write("\n")
