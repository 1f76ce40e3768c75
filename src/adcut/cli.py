"""Command-line entry point wiring the pipeline stages together.

Subcommands: validate, plan, build-dataset, generate, evaluate, align.
Each registers --config and --out plus only the flags it reads, so a flag
meant for another subcommand is a usage error. Exit codes are uniform: 0
success, 1 domain violation, 2 usage or parse error. An input file that
cannot be read, parsed or used exits 2 with ``error: <what> <path>:
<reason>``. Every randomized subcommand takes an explicit --seed and, with
mock endpoints, is bit-deterministic across runs and worker counts.

Each process serves one subcommand, so imports follow the subcommand. The
module level imports only what ``validate`` and ``align`` run; ``plan``
imports the sampling planner, and ``build-dataset``, ``generate`` and
``evaluate`` import the offline pipeline (``backends``, ``dataset``,
``metrics``) inside the command, and ``concurrent.futures`` only for
``--concurrency`` above 1. ``numpy`` loads only when embeddings or VSR are
computed.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, TypeVar

from .clips import ClipSet
from .draft import Draft, DraftSyntaxError, SchemaError, parse_draft, validate_draft
from .jsonutil import RecordError, dumps_canonical, read_records, trim_torn_tail, write_records
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
    from . import backends as be
    from . import dataset as ds
    from .sampling import SlowFastConfig

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# equal to backends.ROLES (a test keeps them in step); importing backends
# here would put it on the path of every subcommand
ENDPOINT_ROLES = ("generate", "judge", "embed", "asr", "ocr", "shots", "caption")

T = TypeVar("T")


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


class Config:
    """Flat key/value config with sections; flags override file values.

    A file that does not parse, and a value that cannot be read or is not
    the number asked for, is a usage error naming the file."""

    def __init__(self, path: str | None):
        self.parser = configparser.ConfigParser()
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
        try:
            return self.parser.get(section, key, fallback=None)
        except configparser.Error as exc:
            raise CliError(f"{self.source}: [{section}] {key}: {' '.join(str(exc).split())}") from None

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
    except RecursionError:
        reason = "does not parse: nested too deeply"
    except (json.JSONDecodeError, DraftSyntaxError) as exc:
        reason = f"does not parse: {exc}"
    except KeyError as exc:
        reason = f"missing field {exc}"
    except (ValueError, TypeError, AttributeError) as exc:
        reason = str(exc)
    raise CliError(f"{what} {path}: {reason}")


def _seed(args: argparse.Namespace, cfg: Config) -> int:
    if args.seed is not None:
        return args.seed
    seed = cfg.number("dataset", "seed", int, None)
    if seed is None and os.environ.get("ADCUT_CI"):
        raise CliError("--seed is required in CI mode")
    return seed or 0


def _taxonomy(args: argparse.Namespace, cfg: Config) -> TagTaxonomy:
    path = args.taxonomy or cfg.path("paths", "taxonomy")
    return _load("taxonomy", TagTaxonomy.load, path) if path else default_taxonomy()


def _endpoint_value(args: argparse.Namespace, cfg: Config, role: str) -> str | None:
    # build-dataset has no flag for the generate and embed clients it never calls
    return getattr(args, f"endpoint_{role}", None) or cfg.get("endpoints", role)


def _client(args: argparse.Namespace, cfg: Config, role: str, mock: Callable[[], Any]) -> be.Client:
    """The client for ``role``: over the transport ``mock()`` returns for a
    ``mock…`` endpoint (the default), else over HTTP with the role's
    ``[auth]`` token variable."""
    from . import backends as be

    value = _endpoint_value(args, cfg, role) or "mock:"
    if value.startswith("mock"):
        return be.Client(role, be.MOCK_ENDPOINT, transport=mock())
    return be.Client(role, be.BackendEndpoint(base_url=value, auth_env=cfg.get("auth", role)))


def _fixtures(cfg: Config) -> dict:
    """The mock fixtures file, or ``{}`` when none is configured; a configured
    file that is missing, not a JSON object, or whose ``videos`` or
    ``negative_pool`` is not shaped as the mocks read them is a usage error."""
    path = cfg.path("paths", "fixtures")
    if path is None:
        return {}
    fixtures = _load("fixtures file", lambda p: json.loads(p.read_bytes()), path)
    if not isinstance(fixtures, dict):
        raise CliError(f"fixtures file {path} is not a JSON object")
    videos, pool = fixtures.get("videos", {}), fixtures.get("negative_pool", [])
    if not isinstance(videos, dict):
        raise CliError(f"fixtures file {path}: videos is not a JSON object")
    for ref, video in videos.items():
        if not isinstance(video, dict):
            raise CliError(f"fixtures file {path}: videos.{ref} is not a JSON object")
    if not isinstance(pool, list):
        raise CliError(f"fixtures file {path}: negative_pool is not a JSON array")
    for i, entry in enumerate(pool):
        if not (isinstance(entry, dict) and all(type(entry.get(key)) is int for key in ("index", "duration_ms"))):
            raise CliError(f"fixtures file {path}: negative_pool[{i}] needs integer index and duration_ms")
    return fixtures


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
    out = {}
    for number, record in read_records(path):
        sample_id, draft_json = record.get("sample_id"), record.get("draft_json")
        if not (isinstance(sample_id, str) and isinstance(draft_json, str)):
            raise RecordError(path, number, "needs string fields sample_id and draft_json")
        out[sample_id] = draft_json
    return out


def _run_samples(
    args: argparse.Namespace, cfg: Config, items: list[tuple], fn: Callable[..., dict], out: str | None, append=False
) -> int:
    """Write ``fn(*item)`` for each ``(sample_id, ...)`` item as a JSON line of ``out``, in
    input order as results arrive. A sample that fails in a backend, deconstruction or
    prompt revision gets a warning instead of a line, and exit code 1."""
    from . import backends as be
    from . import dataset as ds

    if not out:
        raise CliError("an output path is required")
    concurrency = _concurrency(args, cfg)
    failures = []

    def attempt(item: tuple) -> dict | str:
        try:
            return fn(*item)
        except (be.BackendError, ds.EmptyDeconstruction, ds.RevisionInvalid) as exc:
            return f"warning: {item[0]}: {exc}"

    def records(map_: Callable) -> Iterator[dict]:  # drawn only once write_records has opened ``out``
        for result in map_(attempt, items):
            if isinstance(result, str):
                failures.append(result)
                print(result, file=sys.stderr)
            else:
                yield result

    if concurrency == 1:
        _on_file(lambda path: write_records(path, records(map), append), out)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            _on_file(lambda path: write_records(path, records(pool.map), append), out)
    return EXIT_VIOLATION if failures else EXIT_OK


def _concurrency(args: argparse.Namespace, cfg: Config) -> int:
    concurrency = args.concurrency if args.concurrency is not None else cfg.number("dataset", "concurrency", int, 1)
    if concurrency < 1:
        raise CliError(f"concurrency must be at least 1, got {concurrency}")
    return concurrency


def _preset(text: str) -> SlowFastConfig:
    from .sampling import PresetError, parse_preset

    try:
        return parse_preset(text)
    except (PresetError, ValueError) as exc:
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

    cfg = _load_config(args)
    preset_text = args.preset or cfg.get("sampling", "preset")
    if not preset_text:
        raise CliError("a --preset such as fast:2/4,slow:0.5/16 is required")
    preset = _preset(preset_text)
    clips = _load("clip set", ClipSet.load, args.clips)
    if len(clips) == 0:
        raise CliError("clip set is empty")
    try:
        plan = plan_request(clips, preset)
    except CeilingUnsatisfiable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    if args.format == "table":
        lines = [
            f"clip {c.index:>4}: fast {c.fast.frames:>4} frames / {c.fast.tokens:>6} tokens"
            f"   slow {c.slow.frames:>4} frames / {c.slow.tokens:>6} tokens"
            for c in plan.clips
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
    fixtures = _fixtures(cfg)
    if not fixtures:
        raise CliError("mock endpoints need a fixtures file ([paths] fixtures in config)")
    video_refs = (
        [v.strip() for v in videos_value.split(",") if v.strip()]
        if videos_value
        else list(fixtures.get("videos", {}))
    )
    if not video_refs:
        raise CliError("no source videos configured")
    products = []
    for ref in video_refs:  # all checked before the first backend call
        data = fixtures.get("videos", {}).get(ref, {}).get("product")
        if not data:
            raise CliError(f"fixtures lack product info for video {ref!r}")
        if not isinstance(data, dict):
            raise CliError(f"bad product info for video {ref!r}: not a JSON object")
        try:
            selling_points = tuple(data.get("selling_points", ()))
            product = ds.ProductInfo(data["name"], data.get("brand", ""), data.get("price", ""), selling_points)
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"bad product info for video {ref!r}: {exc}") from None
        products.append((ref, product))

    template_path = cfg.path("paths", "template")
    template = _load("template", ds.load_instruction_template, template_path)
    try:  # every placeholder must be one that each sample fills
        template.format(product_block="", materials_block="", free_prompt="")
    except (LookupError, AttributeError, ValueError) as exc:
        raise CliError(f"template {template_path}: bad placeholder: {exc}") from None

    try:
        negative_pool = ClipSet(ds.clip_meta(e["index"], e["duration_ms"]) for e in fixtures.get("negative_pool", []))
    except ValueError as exc:
        raise CliError(f"fixtures file {cfg.path('paths', 'fixtures')}: negative_pool: {exc}") from None

    dropout = args.dropout_p
    if dropout is None:
        dropout = cfg.number("dataset", "dropout_p", float, ds.DEFAULT_DROPOUT_P)
    if not 0 <= dropout < 1:
        raise CliError(f"dropout probability must be in [0, 1), got {dropout}")
    sampling = _preset(args.preset or cfg.get("sampling", "preset") or ds.DEFAULT_SAMPLING_PRESET)
    mock = functools.cache(lambda: be.mock_backend(seed, fixtures))
    backend_set = be.BackendSet(**{role: _client(args, cfg, role, mock) for role in ENDPOINT_ROLES})

    def build(ref: str, product: ds.ProductInfo) -> dict:
        return ds.build_sample(
            ref, product, backend_set, negative_pool,
            corpus_seed=seed, dropout_p=dropout, sampling=sampling, template=template,
        ).to_dict()

    return _run_samples(args, cfg, products, build, args.out or cfg.get("dataset", "out"))


def _mock_generate(value: str, seed: int, samples: list[ds.DatasetSample]) -> be.MockTransport:
    from . import backends as be
    from . import dataset as ds

    # mock endpoint forms: mock:  mock:perfect  mock:swap_adjacent[:rate] ...
    parts = value.split(":")
    mode = parts[1] if len(parts) > 1 and parts[1] else "none"
    if mode == "perfect":
        mode = "none"
    try:
        rate = float(parts[2]) if len(parts) > 2 else 1.0
    except ValueError:
        raise CliError(f"bad mock endpoint {value!r}: the rate is not a number") from None
    fixtures = {
        "drafts": {s.sample_id: ds.draft_to_dict(s.ground_truth) for s in samples},
        "negatives": {s.sample_id: list(s.negatives) for s in samples},
        "corruption": {"mode": mode, "rate": rate},
    }
    return be.mock_backend(seed, fixtures)


def cmd_generate(args: argparse.Namespace) -> int:
    from . import backends as be

    cfg = _load_config(args)
    seed = _seed(args, cfg)
    samples = _read_corpus(args.corpus)
    endpoint_value = _endpoint_value(args, cfg, "generate")
    if not endpoint_value:
        raise CliError("--endpoint-generate is required")
    client = _client(args, cfg, "generate", lambda: _mock_generate(endpoint_value, seed, samples))

    resuming = bool(args.resume and args.out and Path(args.out).is_file())
    done = {}
    if resuming:
        if _on_file(trim_torn_tail, args.out):
            print(f"warning: {args.out}: dropped a torn last line; its sample is generated again", file=sys.stderr)
        done = _on_file(_read_predictions, args.out)
    todo = [(s.sample_id, s.instruction) for s in samples if s.sample_id not in done]

    def generate_one(sample_id: str, instruction: str) -> dict:
        response = be.generate_draft({"sample_id": sample_id, "instruction": instruction}, client)
        return {"sample_id": sample_id, "draft_json": response.draft_json.decode("utf-8")}

    return _run_samples(args, cfg, todo, generate_one, args.out, append=resuming)


def cmd_evaluate(args: argparse.Namespace) -> int:
    from . import backends as be
    from . import metrics as mx

    cfg = _load_config(args)
    seed = _seed(args, cfg)
    _concurrency(args, cfg)  # checked as the other stages check it; evaluate runs serially
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

    eval_samples = []
    for sample in corpus:
        try:
            predicted = parse_draft(predictions[sample.sample_id])
        except (DraftSyntaxError, SchemaError):
            predicted = None
        frames: tuple[str, ...] = ()
        if args.with_vsr:
            # frame references as (clip index, frame index, timestamp) strings
            frames = tuple(
                f"frame:{n.index}:0:{n.target_start}" for n in sample.ground_truth.video_nodes_track
            )
        eval_samples.append(
            mx.EvalSample(
                sample_id=sample.sample_id,
                ground_truth=sample.ground_truth,
                predicted=predicted,
                negatives=frozenset(sample.negatives),
                frames=frames,
            )
        )

    mock = functools.cache(lambda: be.mock_backend(seed, _fixtures(cfg)))
    judge = _client(args, cfg, "judge", mock) if args.with_judge else None
    embedder = _client(args, cfg, "embed", mock) if args.with_vsr else None

    report = mx.evaluate_corpus(eval_samples, _taxonomy(args, cfg), judge=judge, embedder=embedder)
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
            check = check_alignment(plan, catalog)
        else:
            check = check_alignment(plan)
    except AlignmentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    if not check.ok:
        for v in check.violations:
            print(f"plan violation: {v.rule} at {v.path}: {v.message}", file=sys.stderr)
        return EXIT_VIOLATION
    _emit(serialize_plan(plan).decode("utf-8"), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


# options that several subcommands share, each with the config key that backs it
SHARED_FLAGS: dict[str, dict] = {
    "--config": dict(help="config file (or env ADCUT_CONFIG)"),
    "--out": dict(help="write output to a file instead of stdout"),
    "--seed": dict(type=int, help="seed for all randomized behavior ([dataset] seed)"),
    "--concurrency": dict(type=int, help="worker pool size ([dataset] concurrency)"),
    "--format": dict(choices=("json", "table"), default="json"),
    "--taxonomy": dict(help="tag taxonomy JSON ([paths] taxonomy; default: bundled)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adcut", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable, help: str, *args: str, roles: tuple[str, ...] = ()):
        # --config, --out, then positionals and shared options; one --endpoint flag per role called
        p = sub.add_parser(name, help=help)
        for arg in ("--config", "--out", *args):
            p.add_argument(arg, **SHARED_FLAGS.get(arg, {}))
        for role in roles:
            p.add_argument(f"--endpoint-{role}", help=f"{role} backend URL or mock: ([endpoints] {role})")
        p.set_defaults(func=func)
        return p

    p = command("validate", cmd_validate, "validate a draft JSON file", "draft", "--format", "--taxonomy")
    p.add_argument("--clips", help="clip set JSON for bound checks")

    p = command("plan", cmd_plan, "plan slow-fast frame sampling for a clip set", "clips", "--format")
    p.add_argument("--preset", help="e.g. fast:2/4,slow:0.5/16 ([sampling] preset)")

    p = command("build-dataset", cmd_build_dataset, "build an instruction corpus from source videos",
                "--seed", "--concurrency", roles=("asr", "ocr", "shots", "caption", "judge"))
    p.add_argument("--dropout-p", type=float, help="dimension dropout probability ([dataset] dropout_p)")
    p.add_argument("--preset", help="sampling preset for frame placeholders ([sampling] preset)")

    p = command("generate", cmd_generate, "request drafts for every corpus sample",
                "corpus", "--seed", "--concurrency", roles=("generate",))
    p.add_argument("--resume", action="store_true", help="skip sample ids already in the output")

    p = command("evaluate", cmd_evaluate, "score predictions against a corpus",
                "corpus", "predictions", "--seed", "--format", "--taxonomy", roles=("judge", "embed"))
    p.add_argument("--with-judge", action="store_true")
    p.add_argument("--with-vsr", action="store_true")
    p.add_argument("--concurrency", type=int, help="checked like the other stages' ([dataset] concurrency), "
                   "but evaluate runs serially")

    p = command("align", cmd_align, "align a draft with realized TTS durations", "draft", "tts", "clips", "--taxonomy")
    p.add_argument("--catalog", help="asset catalog JSON for decoration matching")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:
        # resolved here so that commands which never call a backend do not import it
        from .backends import BackendError

        if not isinstance(exc, BackendError):
            raise
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
