"""Command-line entry point wiring the pipeline stages together.

Subcommands: validate, plan, build-dataset, generate, evaluate, align.
Each registers --config and --out plus only the flags it reads, so a flag
meant for another subcommand is a usage error. Exit codes are uniform: 0
success, 1 domain violation, 2 usage or parse error. An input file that
cannot be read, parsed or used exits 2 with ``error: <what> <path>:
<reason>``. Every randomized subcommand takes an explicit --seed and, with
mock endpoints, is bit-deterministic across runs and worker counts.

Imports follow the subcommand. The module level imports only what
``validate`` and ``align`` run; ``plan`` imports the sampling planner, and
``build-dataset``, ``generate`` and ``evaluate`` import the offline pipeline
(``backends``, ``dataset``, ``metrics``) inside the command. ``numpy`` loads
only when embeddings or VSR are computed.

``main`` may run any number of commands in one process, and they share two
things, each built on first use: a worker pool per ``--concurrency`` value
(:func:`_pool`), and one HTTP transport (:func:`_http`), closed at exit. Worker
threads and their keep-alive connections therefore serve every later command.
Only the sample runner, :func:`_map_samples`, submits to a pool: ``build-dataset``
and ``generate`` map their samples through it, and ``evaluate`` maps its VSR
chunks (with ``--with-vsr``) and then its samples.
"""

from __future__ import annotations

import argparse
import atexit
import configparser
import functools
import os
import sys
from contextlib import closing
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, TypeVar

from .clips import ClipSet
from .draft import Draft, DraftSyntaxError, parse_draft, validate_draft
from .jsonutil import FieldError, NotJson, RecordError, dumps_canonical, field, read_object, read_records
from .jsonutil import trim_torn_tail, write_records
from .taxonomy import TagTaxonomy, default_taxonomy
from .timeline import (
    AlignmentError,
    AssetCatalog,
    TtsRealization,
    align_draft,
    check_alignment,
    match_decorations,
    serialize_plan,
)

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

    from . import backends as be
    from . import dataset as ds
    from .sampling import SlowFastConfig

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# the backends.BackendSet roles, each with an --endpoint flag on build-dataset
DATASET_ROLES = ("asr", "ocr", "shots", "caption", "judge")

T = TypeVar("T")


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


class Config:
    """Flat key/value config with sections; flags override file values.

    A value is read as written, ``%`` included, as its flag would be. A file
    that does not parse, and a value that is not the number asked for, is a
    usage error naming the file."""

    def __init__(self, path: str | None):
        self.parser = configparser.ConfigParser(interpolation=None)
        self.source = path
        self.base_dir = Path(".")
        if path:
            if not Path(path).is_file():
                raise CliError(f"config file not found: {path}")
            try:
                self.parser.read(path, encoding="utf-8")
            except (configparser.Error, UnicodeDecodeError) as exc:
                raise CliError(f"{path}: {' '.join(str(exc).split())}") from None
            self.base_dir = Path(path).resolve().parent

    def get(self, section: str, key: str) -> str | None:
        return self.parser.get(section, key, fallback=None)

    def number(self, section: str, key: str, kind: type[int] | type[float], fallback: Any) -> Any:
        """The value as a ``kind``, or ``fallback`` when it is not set."""
        value = self.get(section, key)
        if value is None:
            return fallback
        try:
            return kind(value)
        except ValueError:
            raise CliError(f"{self.source}: [{section}] {key}: expected {kind.__name__}, got {value!r}") from None

    def path(self, section: str, key: str) -> Path | None:
        value = self.get(section, key)
        if value is None:
            return None
        p = Path(value)
        return p if p.is_absolute() else self.base_dir / p


def _load_config(args: argparse.Namespace) -> Config:
    return Config(args.config or os.environ.get("ADCUT_CONFIG"))


def _load(what: str, load: Callable[[Any], T], path: Any) -> T:
    """``load(path)`` for an input file, turning every way the file can fail to
    be read, parsed or shaped as ``load`` expects into the usage error
    ``<what> <path>: <reason>``."""
    try:
        return load(path)
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except (NotJson, DraftSyntaxError) as exc:
        reason = f"does not parse: {exc}"
    except KeyError as exc:
        reason = f"missing field {exc}"
    except (ValueError, TypeError, AttributeError) as exc:
        reason = str(exc)
    raise CliError(f"{what} {path}: {reason}")


def _seed(args: argparse.Namespace, cfg: Config) -> int:
    return args.seed if args.seed is not None else cfg.number("dataset", "seed", int, 0)


def _taxonomy(args: argparse.Namespace, cfg: Config) -> TagTaxonomy:
    path = args.taxonomy or cfg.path("paths", "taxonomy")
    return _load("taxonomy", TagTaxonomy.load, path) if path else default_taxonomy()


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The pool of ``workers`` threads that maps samples at ``--concurrency workers``. It is
    built on first use and kept for the life of the process, so every later command reuses
    its threads and the keep-alive connections they hold."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix=f"adcut-c{workers}")


@functools.cache
def _http() -> be.HttpTransport:
    """The HTTP transport of every command in the process: built on first use, closed at exit."""
    from . import backends as be

    http = be.HttpTransport()
    atexit.register(http.close)
    return http


def _client(args: argparse.Namespace, cfg: Config, role: str, mock: Callable[[str], Any]) -> be.Client:
    """The client for ``role``, whose endpoint is the ``--endpoint-<role>`` flag, else the
    ``[endpoints]`` key, else ``mock:``. ``mock:`` (for generate, any ``mock:…``) runs over
    ``mock(value)``; a URL that :class:`~adcut.backends.HttpTransport` accepts for the role
    runs over :func:`_http` with the role's ``[auth]`` token variable; any other value is a
    usage error."""
    from . import backends as be

    value = getattr(args, f"endpoint_{role}") or cfg.get("endpoints", role) or "mock:"
    head, colon, spec = value.partition(":")
    if head == "mock" and colon and (not spec or role == "generate"):
        return be.Client(role, be.MOCK_ENDPOINT, transport=mock(value))
    try:
        be._route(value.rstrip("/") + "/v1/" + role)  # the URL each call of the role sends to
    except ValueError as exc:
        raise CliError(f"bad {role} endpoint {value!r}: {exc}") from None
    endpoint = be.BackendEndpoint(base_url=value, auth_env=cfg.get("auth", role))
    return be.Client(role, endpoint, transport=_http())


def _fixtures(cfg: Config, seed: int) -> tuple[dict, be.MockTransport]:
    """The mock fixtures file (``{}`` when none is configured) and the mock that serves it. A
    configured file that is missing, not a JSON object, or that the mock rejects is a usage error."""
    from . import backends as be

    path = cfg.path("paths", "fixtures")
    fixtures = {} if path is None else _load("fixtures file", read_object, path)
    try:
        mock = be.mock_backend(seed, fixtures)
    except ValueError as exc:
        raise CliError(f"fixtures file {path}: {exc}") from None
    return fixtures, mock


def _on_file(use: Callable[[str], Any], path: str) -> Any:
    """``use(path)``, turning a file that cannot be read or written, or a bad
    record, into a usage error."""
    try:
        return use(path)
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from None
    except RecordError as exc:
        raise CliError(str(exc)) from None


def _read_corpus(path: str) -> list[ds.DatasetSample]:
    from . import dataset as ds

    samples = _on_file(ds.read_corpus, path)
    if not samples:
        raise CliError("corpus is empty")
    return samples


def _read_predictions(path: str) -> dict[str, str]:
    """``sample_id -> draft_json`` from a predictions file, as ``generate`` writes it."""
    return dict(read_records(path, lambda r: (field(r, "sample_id", str), field(r, "draft_json", str)), "sample_id"))


def _sort_predictions(path: str, ids: list[str]) -> None:
    """Rewrite the predictions file ``path`` in the order of ``ids`` through
    ``<path>.partial`` and a rename, so a crash leaves the whole file; lines of
    other ids keep their order at the end."""
    predictions = _on_file(_read_predictions, path)
    rank = {sid: n for n, sid in enumerate(ids)}
    order = sorted(predictions, key=lambda sid: rank.get(sid, len(rank)))
    partial = f"{path}.partial"
    _on_file(lambda p: write_records(p, ({"sample_id": sid, "draft_json": predictions[sid]} for sid in order)), partial)
    _on_file(lambda p: os.replace(p, path), partial)


def _map_samples(concurrency: int, items: list[tuple], fn: Callable[..., T]) -> Iterator[T | None]:
    """``fn(*item)`` for each ``(label, ...)`` item (a sample's id, or the id of a VSR
    chunk's first sample) on the process's pool of ``concurrency`` threads (:func:`_pool`),
    each result yielded in input order as ``fn`` returns it; the items go to the pool when
    the first result is drawn. An item that fails in a backend, deconstruction or prompt
    revision, or whose clips no sampling plan fits, yields None and prints
    ``warning: <label>: <reason>``. Once the caller stops drawing, or ``fn`` raises anything
    else, the items not started are cancelled and the running ones waited for, so no
    sample work outlives the command."""
    from concurrent.futures import wait

    from . import backends as be
    from . import dataset as ds
    from .sampling import CeilingUnsatisfiable

    def attempt(item: tuple) -> tuple[T | None, str | None]:
        try:
            return fn(*item), None
        except (be.BackendError, ds.EmptyDeconstruction, ds.RevisionInvalid, CeilingUnsatisfiable) as exc:
            return None, f"warning: {item[0]}: {exc}"

    futures = [_pool(concurrency).submit(attempt, item) for item in items]
    try:
        for future in futures:
            result, warning = future.result()
            if warning:
                print(warning, file=sys.stderr)
            yield result
    finally:
        for future in futures:
            future.cancel()
        wait(futures)


def _run_samples(
    args: argparse.Namespace, cfg: Config, items: list[tuple], fn: Callable[..., dict], out: str | None, append=False
) -> int:
    """Write each result of :func:`_map_samples` at ``--concurrency`` as a JSON line of
    ``out``; a failed sample gets no line, and exit code 1."""
    if not out:
        raise CliError("an output path is required")
    with closing(_map_samples(_concurrency(args, cfg), items, fn)) as results:  # drawn once ``out`` is open
        written = _on_file(lambda path: write_records(path, filter(None, results), append), out)
    return EXIT_OK if written == len(items) else EXIT_VIOLATION


def _concurrency(args: argparse.Namespace, cfg: Config) -> int:
    concurrency = args.concurrency if args.concurrency is not None else cfg.number("dataset", "concurrency", int, 1)
    if concurrency < 1:
        raise CliError(f"concurrency must be at least 1, got {concurrency}")
    return concurrency


def _preset(args: argparse.Namespace, cfg: Config) -> SlowFastConfig:
    """The ``--preset`` flag, else the ``[sampling] preset`` key, else the default preset."""
    from .sampling import DEFAULT_SAMPLING_PRESET, parse_preset

    try:
        return parse_preset(args.preset or cfg.get("sampling", "preset") or DEFAULT_SAMPLING_PRESET)
    except ValueError as exc:
        raise CliError(f"bad preset: {exc}") from exc


def _read_draft(path: str) -> Draft:
    return _load("draft", lambda p: parse_draft(Path(p).read_bytes()), path)


def _emit(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out:
        _on_file(lambda path: Path(path).write_text(text, encoding="utf-8"), out)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    draft = _read_draft(args.draft)
    clips = _load("clip set", ClipSet.load, args.clips) if args.clips else None
    report = validate_draft(draft, clips, _taxonomy(args, cfg))
    if args.format == "table":
        if report.ok:
            _emit("ok: no violations", args.out)
        else:
            rows = [f"{v.rule:<22} {v.path:<40} {v.message}" for v in report.violations]
            _emit("\n".join(rows), args.out)
    else:
        _emit(dumps_canonical(report.to_dict()).decode("utf-8"), args.out)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_plan(args: argparse.Namespace) -> int:
    from .sampling import CeilingUnsatisfiable, plan_request

    preset = _preset(args, _load_config(args))
    clips = _load("clip set", ClipSet.load, args.clips)
    try:
        plan = plan_request(clips, preset)
    except CeilingUnsatisfiable as exc:
        raise CliError(str(exc), EXIT_VIOLATION) from None
    except ValueError as exc:  # an empty clip set
        raise CliError(str(exc)) from None
    if args.format == "table":
        fast_tokens, slow_tokens = preset.fast.tokens_per_frame, preset.slow.tokens_per_frame
        lines = [
            f"clip {meta.index:>4}: fast {fast:>4} frames / {fast_tokens * fast:>6} tokens"
            f"   slow {slow:>4} frames / {slow_tokens * slow:>6} tokens"
            for meta, fast, slow in zip(plan.metas, plan.fast_frames, plan.slow_frames)
        ]
        lines.append(
            f"totals: fast {plan.total_fast_frames} frames / {plan.total_fast_tokens} tokens, "
            f"slow {plan.total_slow_frames} frames / {plan.total_slow_tokens} tokens "
            f"(effective fast fps {plan.effective_fast_fps}, reduction x{plan.reduction_factor})"
        )
        _emit("\n".join(lines), args.out)
    else:
        _emit(dumps_canonical(plan.to_dict()).decode("utf-8"), args.out)
    return EXIT_OK


def cmd_build_dataset(args: argparse.Namespace) -> int:
    from . import backends as be
    from . import dataset as ds

    cfg = _load_config(args)
    seed = _seed(args, cfg)

    videos_value = cfg.get("dataset", "videos")
    fixtures, mock = _fixtures(cfg, seed)
    if not fixtures:
        raise CliError("build-dataset reads its products and negative pool from a fixtures file ([paths] fixtures)")
    where = f"fixtures file {cfg.path('paths', 'fixtures')}"
    try:
        clips = []
        for i, entry in enumerate(field(fixtures, "negative_pool", list, item=dict, default=[])):
            path = f"negative_pool[{i}]"
            clips.append(ds.clip_meta(field(entry, "index", int, path), field(entry, "duration_ms", int, path)))
        negative_pool = ClipSet(clips)
    except KeyError as exc:
        raise CliError(f"{where}: missing field {exc}") from None
    except FieldError as exc:
        raise CliError(f"{where}: {exc}") from None
    except ValueError as exc:
        raise CliError(f"{where}: negative_pool: {exc}") from None
    video_refs = (
        [v.strip() for v in videos_value.split(",") if v.strip()]
        if videos_value
        else list(fixtures.get("videos", {}))
    )
    if not video_refs:
        raise CliError("no source videos configured")
    if len(set(video_refs)) < len(video_refs):  # each video is one sample_id
        raise CliError(f"[dataset] videos names a video twice: {videos_value}")
    products = []
    for ref in video_refs:  # all checked before the first backend call
        data = fixtures.get("videos", {}).get(ref, {}).get("product")
        if not data:
            raise CliError(f"fixtures lack product info for video {ref!r}")
        if not isinstance(data, dict):
            raise CliError(f"bad product info for video {ref!r}: not a JSON object")
        try:
            products.append((ref, ds.ProductInfo.from_dict(data)))
        except KeyError as exc:
            raise CliError(f"bad product info for video {ref!r}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise CliError(f"bad product info for video {ref!r}: {exc}") from None

    template = _load("template", ds.load_instruction_template, cfg.path("paths", "template"))

    dropout = args.dropout_p
    if dropout is None:
        dropout = cfg.number("dataset", "dropout_p", float, ds.DEFAULT_DROPOUT_P)
    if not 0 <= dropout < 1:
        raise CliError(f"dropout probability must be in [0, 1), got {dropout}")
    sampling = _preset(args, cfg)
    backend_set = be.BackendSet(**{r: _client(args, cfg, r, lambda _: mock) for r in DATASET_ROLES})

    def build(ref: str, product: ds.ProductInfo) -> dict:
        return ds.build_sample(
            ref, product, backend_set, negative_pool,
            corpus_seed=seed, dropout_p=dropout, sampling=sampling, template=template,
        ).to_dict()

    return _run_samples(args, cfg, products, build, args.out or cfg.get("dataset", "out"))


def _mock_generate(value: str, seed: int, samples: list[ds.DatasetSample]) -> be.MockTransport:
    """The mock generate transport for the ``mock:…`` endpoint ``value``. ``mock:`` and
    ``mock:perfect`` answer each sample's ground truth; ``mock:<mode>[:rate]`` corrupts a ``rate``
    share (0 to 1, default 1) of the samples by a mode of ``backends.GENERATE_MODES``. Any other is a usage error."""
    from . import backends as be
    from . import dataset as ds

    mode, with_rate, rate_text = value.partition(":")[2].partition(":")
    perfect = mode in ("", "perfect")
    if not (mode in be.GENERATE_MODES or (perfect and not with_rate)):
        raise CliError(
            f"bad mock endpoint {value!r}: expected mock:, mock:perfect or mock:<mode>[:rate] "
            f"with <mode> one of {', '.join(be.GENERATE_MODES)}"
        )
    rate = 1.0
    if with_rate:
        try:
            rate = float(rate_text)
        except ValueError:
            raise CliError(f"bad mock endpoint {value!r}: the rate is not a number") from None
        if not 0 <= rate <= 1:
            raise CliError(f"bad mock endpoint {value!r}: the rate must be in [0, 1], got {rate_text}")
    fixtures = {
        "drafts": {s.sample_id: ds.draft_to_dict(s.ground_truth) for s in samples},
        "negatives": {s.sample_id: list(s.negatives) for s in samples},
        "corruption": {"mode": "none" if perfect else mode, "rate": rate},
    }
    return be.mock_backend(seed, fixtures)


def cmd_generate(args: argparse.Namespace) -> int:
    from . import backends as be

    cfg = _load_config(args)
    seed = _seed(args, cfg)
    samples = _read_corpus(args.corpus)
    client = _client(args, cfg, "generate", lambda value: _mock_generate(value, seed, samples))
    resuming = bool(args.resume and args.out and Path(args.out).is_file())
    done = {}
    if resuming:
        if _on_file(trim_torn_tail, args.out):
            print(f"warning: {args.out}: dropped a torn last line; its sample is generated again", file=sys.stderr)
        done = _on_file(_read_predictions, args.out)
    ids = [s.sample_id for s in samples]
    todo = [(s.sample_id, s.instruction) for s in samples if s.sample_id not in done]

    def generate_one(sample_id: str, instruction: str) -> dict:
        draft_json = be.generate_draft({"sample_id": sample_id, "instruction": instruction}, client)
        return {"sample_id": sample_id, "draft_json": draft_json.decode("utf-8")}

    code = _run_samples(args, cfg, todo, generate_one, args.out, append=resuming)
    if code == EXIT_OK and list(done) != ids[: len(done)]:  # a resumed gap was appended after later samples
        _sort_predictions(args.out, ids)
    return code


def cmd_evaluate(args: argparse.Namespace) -> int:
    from . import metrics as mx

    cfg = _load_config(args)
    seed = _seed(args, cfg)
    concurrency = _concurrency(args, cfg)
    corpus = _read_corpus(args.corpus)
    predictions = _on_file(_read_predictions, args.predictions)

    corpus_ids = [s.sample_id for s in corpus]
    orphan_predictions = sorted(set(predictions) - set(corpus_ids))
    missing_predictions = sorted(set(corpus_ids) - set(predictions))
    if orphan_predictions or missing_predictions:
        for sid in orphan_predictions:
            print(f"orphan prediction: {sid}", file=sys.stderr)
        for sid in missing_predictions:
            print(f"missing prediction: {sid}", file=sys.stderr)
        return EXIT_VIOLATION

    eval_samples = [mx.eval_sample(s, predictions[s.sample_id]) for s in corpus]

    taxonomy = _taxonomy(args, cfg)
    try:  # a tag outside the taxonomy fails here, before any backend call
        counts = mx.count_metrics(eval_samples, taxonomy)
    except mx.UnknownTag as exc:
        what, path = ("predictions", args.predictions) if exc.origin == "prediction" else ("corpus", args.corpus)
        raise CliError(f"{what} {path}: {exc}") from None
    mock = functools.cache(lambda _: _fixtures(cfg, seed)[1])
    judge = _client(args, cfg, "judge", mock) if args.with_judge else None
    vsrs: list[Any] = [None] * len(eval_samples)
    if args.with_vsr:  # first each chunk's embed request and VSR, giving each sample's outcome in corpus order
        embedder = _client(args, cfg, "embed", mock)
        chunks = [(chunk[0][0].sample_id, chunk) for chunk in mx.vsr_chunks(eval_samples)]
        vsrs = [vsr for outcomes in _map_samples(concurrency, chunks, lambda _, chunk: mx.chunk_vsr(chunk, embedder))
                for vsr in outcomes]

    def score(_: str, sample: mx.EvalSample, vsr: Any) -> dict:
        out = mx.score_sample(sample, judge)
        if isinstance(vsr, Exception):  # the BackendError that failed the sample's embedding
            raise vsr
        out["vsr"] = vsr
        return out

    scores = list(_map_samples(concurrency, [(s.sample_id, s, v) for s, v in zip(eval_samples, vsrs)], score))
    if None in scores:
        return EXIT_VIOLATION
    report = mx.evaluate_corpus(counts, scores)
    if args.format == "table":
        _emit(mx.render_table(report), args.out)
    else:
        _emit(dumps_canonical(report.to_dict()).decode("utf-8"), args.out)
    return EXIT_OK


def cmd_align(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    draft = _read_draft(args.draft)
    clips = _load("clip set", ClipSet.load, args.clips)
    tts = _load("TTS file", TtsRealization.load, args.tts)
    taxonomy = _taxonomy(args, cfg)
    catalog = _load("catalog", lambda p: AssetCatalog.load(p, taxonomy), args.catalog) if args.catalog else None
    report = validate_draft(draft, clips, taxonomy)
    if not report.ok:
        for v in report.violations:
            print(f"invalid draft: {v.rule} at {v.path}: {v.message}", file=sys.stderr)
        return EXIT_VIOLATION

    try:
        plan = align_draft(draft, tts, clips)
        if catalog is not None:
            plan = plan.with_assets(match_decorations(draft, catalog))
    except AlignmentError as exc:
        raise CliError(str(exc), EXIT_VIOLATION) from None
    check = check_alignment(plan, catalog)
    if not check.ok:
        for v in check.violations:
            print(f"plan violation: {v.rule} at {v.path}: {v.message}", file=sys.stderr)
        return EXIT_VIOLATION
    _emit(serialize_plan(plan).decode("utf-8"), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


DESCRIPTION = "Text-to-edit toolkit for advertising videos: drafts, sampling plans, corpora and metrics."

# options that several subcommands share, each with the config key that backs it
SHARED_FLAGS: dict[str, dict] = {
    "--config": dict(help="config file (or env ADCUT_CONFIG)"),
    "--out": dict(help="write output to a file instead of stdout"),
    "--seed": dict(type=int, help="seed for all randomized behavior ([dataset] seed)"),
    "--concurrency": dict(type=int, help="worker pool size ([dataset] concurrency)"),
    "--format": dict(choices=("json", "table"), default="json"),
    "--taxonomy": dict(help="tag taxonomy JSON ([paths] taxonomy; default: bundled)"),
    "--preset": dict(help="sampling preset ([sampling] preset; default: fast:2/4,slow:0.5/16)"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every subcommand, built on the first call and shared after.

    ``main`` may be called any number of times in one process, and each call
    reuses this parser. The parser holds no command functions: ``main``
    resolves ``cmd_<name>`` by name when it runs, so a command replaced on the
    module after the first call (a wrapper or a test double) is the one called.
    """
    parser = argparse.ArgumentParser(prog="adcut", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, *args: str, roles: tuple[str, ...] = ()):
        # --config, --out, then positionals and shared options; one --endpoint flag per role called
        p = sub.add_parser(name, help=help)
        for arg in ("--config", "--out", *args):
            p.add_argument(arg, **SHARED_FLAGS.get(arg, {}))
        for role in roles:
            p.add_argument(f"--endpoint-{role}", help=f"{role} backend URL or mock: ([endpoints] {role})")
        return p

    p = command("validate", "validate a draft JSON file", "draft", "--format", "--taxonomy")
    p.add_argument("--clips", help="clip set JSON for bound checks")

    command("plan", "plan slow-fast frame sampling for a clip set", "clips", "--format", "--preset")

    p = command("build-dataset", "build an instruction corpus from source videos",
                "--seed", "--concurrency", "--preset", roles=DATASET_ROLES)
    p.add_argument("--dropout-p", type=float, help="dimension dropout probability ([dataset] dropout_p)")

    p = command("generate", "request drafts for every corpus sample",
                "corpus", "--seed", "--concurrency", roles=("generate",))
    p.add_argument("--resume", action="store_true", help="skip sample ids already in the output")

    p = command("evaluate", "score predictions against a corpus",
                "corpus", "predictions", "--seed", "--concurrency", "--format", "--taxonomy", roles=("judge", "embed"))
    p.add_argument("--with-judge", action="store_true")
    p.add_argument("--with-vsr", action="store_true")

    p = command("align", "align a draft with realized TTS durations", "draft", "tts", "clips", "--taxonomy")
    p.add_argument("--catalog", help="asset catalog JSON for decoration matching")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    command = globals()["cmd_" + args.command.replace("-", "_")]  # looked up per call: see build_parser
    try:
        return command(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
