"""The benchmark's three workloads: corpus, edit and http.

Each workload generates its inputs from the seed in ``setup``, names the
``adcut`` command a set-up probe runs on a one-item input, and runs its
timed work in blocks. A block reports the items it completed, one latency
per request (edit) or per job (corpus, http), the seconds spent in each CLI
stage, and how many items failed their output checks. Checks run outside
the timed sections.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import selectors
import subprocess
import sys
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import inputs
import oracles

HERE = Path(__file__).resolve().parent
GENERATE_MODE, GENERATE_RATE = "swap_adjacent", 0.3
GENERATE_MOCK = f"mock:{GENERATE_MODE}:{GENERATE_RATE}"
CONCURRENCY = "2"
EDIT_PRESET = "fast:4/4,slow:0.5/16"
EDIT_FAST_FPS, FRAME_CEILING = 4.0, 600
ARTIFACTS = ("corpus.jsonl", "predictions.jsonl", "report.json")


@dataclass(frozen=True)
class Sizes:
    # corpus and http: a cycle of distinct jobs, one large (LARGE_JOB times
    # the videos) and the rest small. A 30 s run times about 700 jobs; the
    # large one (5% of jobs) sets latency_p99_ms with input work rather than
    # with the host's brief stalls, as long-form requests do on edit
    jobs: int = 20
    corpus_videos: int = 4
    http_videos: int = 2  # a sample over HTTP costs about twice one in-process
    edit_requests: int = 1200  # distinct requests, cycled by the timed loop
    probes: int = 11  # fresh-interpreter set-up samples (after one discarded warm-up)
    trace_blocks: int = 20  # traced blocks in a traced run: one cycle of corpus or http jobs


@dataclass
class Block:
    items: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    stages: dict[str, float] = field(default_factory=dict)


def report_problems(where: str, problems: list[str]) -> None:
    for problem in problems[:5]:
        print(f"check failed: {where}: {problem}", file=sys.stderr)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    name = ""
    stages: tuple[str, ...] = ()
    trace_period = 1  # consecutive blocks per traced/untraced phase in a traced run

    def __init__(self, root: Path, work: Path, seed: int, sizes: Sizes):
        self.root, self.work, self.seed, self.sizes = root, work, seed, sizes
        self.taxonomy = inputs.load_taxonomy(root)
        self.tracer = None  # set while a traced block runs
        self.http = {"connections": 0, "calls": 0, "request_bytes": 0, "response_bytes": 0}  # traced blocks only

    def setup(self) -> None:
        raise NotImplementedError

    def probe_args(self) -> list[str]:
        raise NotImplementedError

    def block(self, index: int, traced: bool) -> Block:
        raise NotImplementedError

    def finish(self) -> int:
        """End-of-run checks; returns the number of items that failed them."""
        return 0

    def per_layer(self) -> dict[str, float]:
        """Loopback HTTP counts of the traced blocks, as the stub server saw them."""
        t = self.http
        return {
            "backends.http.connections": t["connections"],
            "backends.http.calls_per_connection": t["calls"] / t["connections"] if t["connections"] else 0.0,
            "backends.http.request_bytes": t["request_bytes"],
            "backends.http.response_bytes": t["response_bytes"],
        }

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# corpus and http share job directories


LARGE_JOB = 4


def job_videos(sizes: Sizes, small: int) -> list[int]:
    """Videos per job in a cycle: the first job large, the others small."""
    return [LARGE_JOB * small] + [small] * (sizes.jobs - 1)


def write_job(directory: Path, fixtures: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "videos.json").write_text(json.dumps(fixtures), encoding="utf-8")
    (directory / "job.ini").write_text("[paths]\nfixtures = videos.json\n", encoding="utf-8")
    return directory


def chain_args(job: Path, out: Path, seed: int, concurrency: str, generate: str, judge: str | None = None) -> list[tuple[str, list[str]]]:
    """``adcut`` argv for build-dataset, generate and evaluate on one job."""
    corpus, predictions, report = (str(out / name) for name in ARTIFACTS)
    common = ["--config", str(job / "job.ini"), "--seed", str(seed), "--concurrency", concurrency]
    remote = ["--endpoint-judge", judge, "--endpoint-embed", judge] if judge is not None else []
    evaluate = ["evaluate", corpus, predictions, *common, "--with-judge", "--with-vsr", *remote, "--out", report]
    return [
        ("build", ["build-dataset", *common, "--out", corpus]),
        ("generate", ["generate", corpus, *common, "--endpoint-generate", generate, "--out", predictions]),
        ("evaluate", evaluate),
    ]


def run_stages(stages: list[tuple[str, list[str]]], block: Block) -> list[str]:
    """Run CLI stages in order, timing each; returns problems (non-zero exits).

    The heap is collected first, outside the timed sections. Separate
    ``adcut`` processes start with a fresh heap; without the collection,
    garbage left by earlier in-process ``cli.main`` calls sets off full
    collections inside later jobs that a fresh process would not run.
    Freezing the survivors keeps the next collection short.
    """
    from adcut import cli

    gc.collect()
    gc.freeze()
    for stage, argv in stages:
        started = perf_counter()
        code = cli.main(argv)
        block.stages[stage] = block.stages.get(stage, 0.0) + perf_counter() - started
        if code != 0:
            return [f"{stage} exited {code}"]
    return []


def read_artifacts(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in ARTIFACTS if (out / name).is_file()}


class Corpus(Workload):
    """build-dataset -> generate -> evaluate on jobs of four videos and, one
    job in twenty, sixteen; all mocks in-process."""

    name = "corpus"
    stages = ("build", "generate", "evaluate")

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.videos = job_videos(self.sizes, self.sizes.corpus_videos)
        docs = inputs.make_corpus_jobs(rng, self.taxonomy, self.videos)
        self.jobs = [write_job(self.work / f"job{k}", doc) for k, doc in enumerate(docs)]
        self.trace_period = len(self.jobs)
        self.probe_job = write_job(self.work / "probe", inputs.make_corpus_jobs(rng, self.taxonomy, [1])[0])
        self.reference: dict[int, dict[str, bytes]] = {}

    def probe_args(self) -> list[str]:
        return chain_args(self.probe_job, self.probe_job, self.seed, CONCURRENCY, GENERATE_MOCK)[0][1]

    def block(self, index: int, traced: bool) -> Block:
        k = index % len(self.jobs)
        job, out = self.jobs[k], self.jobs[k] / "out"
        out.mkdir(exist_ok=True)
        block = Block(items=self.videos[k])
        problems = run_stages(chain_args(job, out, self.seed, CONCURRENCY, GENERATE_MOCK), block)
        block.latencies.append(sum(block.stages.values()))
        artifacts = read_artifacts(out)
        if not problems:
            if k not in self.reference:
                self.reference[k] = artifacts
                problems = oracles.check_report(*(artifacts[name] for name in ARTIFACTS))
            elif artifacts != self.reference[k]:
                problems = ["artifacts differ from the job's first run"]
        if problems:
            report_problems(f"corpus job {k}", problems)
            block.failed = block.items
        return block

    def finish(self) -> int:
        """Re-run every job seen with --concurrency 1; artifacts must match byte for byte."""
        failed = 0
        for k, reference in sorted(self.reference.items()):
            out = self.jobs[k] / "out-c1"
            out.mkdir(exist_ok=True)
            problems = run_stages(chain_args(self.jobs[k], out, self.seed, "1", GENERATE_MOCK), Block())
            if not problems and read_artifacts(out) != reference:
                problems = ["artifacts differ between --concurrency 1 and 2"]
            if problems:
                report_problems(f"corpus job {k}", problems)
                failed += self.videos[k]
        for name, data in self.reference.get(0, {}).items():
            print(f"sha256 job0/{name} {_digest(data)}")
        return failed


# ---------------------------------------------------------------------------
# edit


class Edit(Workload):
    """Closed loop, one client: plan, parse, validate, align, resolve, check, serialize."""

    name = "edit"

    def setup(self) -> None:
        from adcut.clips import ClipSet
        from adcut.sampling import parse_preset
        from adcut.taxonomy import default_taxonomy
        from adcut.timeline import AssetCatalog, TtsRealization

        rng = random.Random(self.seed)
        self.requests = inputs.make_edit_requests(rng, self.sizes.edit_requests, self.taxonomy)
        self.work.mkdir(parents=True, exist_ok=True)
        catalog_path = self.work / "catalog.json"
        catalog_path.write_text(json.dumps(inputs.make_catalog(rng, self.taxonomy)), encoding="utf-8")
        self.catalog = AssetCatalog.load(catalog_path)
        self.prepared = [(ClipSet.from_dict(r.clips), TtsRealization(r.tts_ms)) for r in self.requests]
        self.preset = parse_preset(EDIT_PRESET)
        self.tag_taxonomy = default_taxonomy()
        self.expected: dict[int, tuple[int, int]] = {}
        self.outputs: dict[int, str] = {}

        probe = next(r for r in self.requests if not r.long_form and r.invalid is None)
        self.probe_files = [self.work / name for name in ("draft.json", "tts.json", "clips.json")]
        self.probe_files[0].write_bytes(probe.draft)
        self.probe_files[1].write_text(json.dumps({"durations_ms": list(probe.tts_ms)}), encoding="utf-8")
        self.probe_files[2].write_text(json.dumps(probe.clips), encoding="utf-8")
        self.catalog_path = catalog_path

    def probe_args(self) -> list[str]:
        draft, tts, clips = (str(p) for p in self.probe_files)
        return ["align", draft, tts, clips, "--catalog", str(self.catalog_path), "--out", str(self.work / "plan.json")]

    def block(self, index: int, traced: bool) -> Block:
        from adcut import draft as draft_mod
        from adcut import sampling, timeline

        block = Block()
        for j in range(inputs.EDIT_BLOCK):
            i = (index * inputs.EDIT_BLOCK + j) % len(self.requests)
            request, (clips, tts) = self.requests[i], self.prepared[i]
            if self.tracer is not None:
                self.tracer.item = i
            output = check = None
            started = perf_counter()
            try:
                plan = sampling.plan_request(clips, self.preset)
                draft = draft_mod.parse_draft(request.draft)
                valid = draft_mod.validate_draft(draft, clips, self.tag_taxonomy).ok
                if valid:
                    render = timeline.align_draft(draft, tts, clips)
                    render = render.with_assets(timeline.match_decorations(draft, self.catalog))
                    check = timeline.check_alignment(render, self.catalog)
                    output = timeline.serialize_plan(render)
            except Exception as exc:  # any raise is a failed request; keep the loop running
                block.latencies.append(perf_counter() - started)
                block.items += 1
                block.failed += 1
                report_problems(f"edit request {i}", [f"{type(exc).__name__}: {exc}"])
                continue
            block.latencies.append(perf_counter() - started)
            block.items += 1
            problems = self._check(i, request, plan, valid, check, output)
            if problems:
                report_problems(f"edit request {i}", problems)
                block.failed += 1
        return block

    def _check(self, i, request, plan, valid, check, output) -> list[str]:
        problems = []
        if valid != (request.invalid is None):
            problems.append(f"validation accepted={valid} but the draft was generated {request.invalid or 'valid'}")
        if i not in self.expected:
            self.expected[i] = oracles.expected_reduction(request.clips, EDIT_FAST_FPS, FRAME_CEILING)
        reduction, frames = self.expected[i]
        if (plan.reduction_factor, plan.total_fast_frames) != (reduction, frames) or frames > FRAME_CEILING:
            problems.append(f"plan x{plan.reduction_factor} {plan.total_fast_frames} frames, want x{reduction} {frames} <= {FRAME_CEILING}")
        if output is not None:
            if not check.ok:
                problems.append(f"check_alignment: {[v.rule for v in check.violations]}")
            digest = _digest(output)
            if i not in self.outputs:
                problems += oracles.check_render_plan(output, request.draft, request.tts_ms)
                self.outputs[i] = digest
            elif self.outputs[i] != digest:
                problems.append("render plan differs from the request's first run")
        return problems


# ---------------------------------------------------------------------------
# http


class Http(Workload):
    """generate then evaluate with the generate, judge and embed roles served
    over loopback HTTP by a stub in its own process."""

    name = "http"
    stages = ("generate", "evaluate")

    def setup(self) -> None:
        from adcut import cli

        rng = random.Random(self.seed)
        self.videos = job_videos(self.sizes, self.sizes.http_videos)
        docs = inputs.make_corpus_jobs(rng, self.taxonomy, self.videos)
        docs.append(inputs.make_corpus_jobs(rng, self.taxonomy, [1])[0])
        self.jobs = [write_job(self.work / f"job{k}", doc) for k, doc in enumerate(docs)]
        self.trace_period = len(self.jobs) - 1
        self.reference = []
        for job in self.jobs:
            ref = job / "ref"
            ref.mkdir()
            for stage, argv in chain_args(job, ref, self.seed, CONCURRENCY, GENERATE_MOCK):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"in-process reference {stage} failed for {job.name}")
            self.reference.append(read_artifacts(ref))
        manifest = {
            "src": str(self.root / "src"),
            "seed": self.seed,
            "generate_mode": GENERATE_MODE,
            "generate_rate": GENERATE_RATE,
            "jobs": {str(k): {"corpus": str(job / "ref" / ARTIFACTS[0]), "fixtures": str(job / "videos.json")} for k, job in enumerate(self.jobs)},
        }
        (self.work / "stub.json").write_text(json.dumps(manifest), encoding="utf-8")
        self.stub = subprocess.Popen(
            [sys.executable, str(HERE / "stub_server.py"), str(self.work / "stub.json")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        with selectors.DefaultSelector() as sel:
            sel.register(self.stub.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=60):
                raise RuntimeError("stub server did not start within 60 s")
        self.port = json.loads(self.stub.stdout.readline())["port"]
        self.checked: set[int] = set()

    def _url(self, k: int) -> str:
        return f"http://127.0.0.1:{self.port}/j/{k}"

    def _stats(self) -> dict:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/_stats", timeout=30) as resp:
            return json.loads(resp.read())

    def _stages(self, k: int, out: Path) -> list[tuple[str, list[str]]]:
        return chain_args(self.jobs[k], out, self.seed, CONCURRENCY, self._url(k), judge=self._url(k))[1:]

    def probe_args(self) -> list[str]:
        k = len(self.jobs) - 1
        evaluate = self._stages(k, self.jobs[k] / "ref")[1][1]
        return evaluate[:-1] + [str(self.jobs[k] / "probe-report.json")]

    def block(self, index: int, traced: bool) -> Block:
        k = index % (len(self.jobs) - 1)
        out = self.jobs[k] / "out"
        out.mkdir(exist_ok=True)
        (out / ARTIFACTS[0]).write_bytes(self.reference[k][ARTIFACTS[0]])
        before = self._stats() if traced else None
        block = Block(items=self.videos[k])
        problems = run_stages(self._stages(k, out), block)
        block.latencies.append(sum(block.stages.values()))
        if before is not None:
            after = self._stats()
            for key in self.http:
                self.http[key] += after[key] - before[key]
        if not problems and read_artifacts(out) != self.reference[k]:
            problems = ["predictions or report differ from the in-process mock run"]
        if not problems and k not in self.checked:
            problems = oracles.check_report(*(self.reference[k][name] for name in ARTIFACTS))
            self.checked.add(k)
        if problems:
            report_problems(f"http job {k}", problems)
            block.failed = block.items
        return block

    def close(self) -> None:
        stub = getattr(self, "stub", None)
        if stub is None:
            return
        stub.stdin.close()
        try:
            stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            stub.kill()
            stub.wait()
        stub.stdout.close()


WORKLOADS = {w.name: w for w in (Corpus, Edit, Http)}
