#!/usr/bin/env python3
"""Print a SHA-256 digest of every artifact the CLI writes over a fixed grid.

Usage (from anywhere):

    python3 scripts/artifact_digests.py [--grid small|full]

Every command runs through ``adcut.cli.main`` in one temporary directory,
on the bundled fixtures (``tests/fixtures``), with ``--config`` always given
so no environment setting leaks in:

- ``build-dataset`` per seed and concurrency;
- ``generate`` per seed, mock mode (``perfect`` and each corruption) and
  concurrency;
- ``evaluate`` of each seed's and mode's predictions as ``json`` and as
  ``table``, with and without ``--with-judge`` and ``--with-vsr``, per
  concurrency;
- ``validate``, ``plan`` and ``align`` on the fixtures;
- ``validate --clips`` and ``align --catalog`` on each edit request that
  ``perfbench.inputs.make_edit_requests`` draws for an edit seed (long-form
  and invalid drafts among them), against a catalog drawn from that seed;
- ``align --catalog`` on the valid edit requests drawn for the text seed,
  each voice text rewritten, by the same seeded rng, to a non-blank string
  that needs JSON escaping (quotes, backslashes, control characters) among
  slashes, U+007F, U+2028/U+2029 and non-ASCII and astral characters, so the
  render plan's text escaping is covered.

The small grid is seed 7, modes ``perfect`` and ``swap_adjacent``,
concurrency 1 and 2 and 40 edit requests at edit seed 9 and at text seed 13;
the full grid is seeds 7, 8 and 9, every mode, concurrency 1, 2 and 4, 400
edit requests at each of edit seeds 9 and 31 and 400 at text seed 13.

The output is one ``sha256 <artifact> <hex digest>`` line per artifact,
sorted by artifact name: each command's ``--out`` file, and a ``.exit``
artifact holding its exit code and what it printed to stderr (with the
temporary directory's path replaced). Each edit seed prints one line,
``edit/s<seed>``, that digests every request's artifacts in order, and the
text seed one, ``edit/text``. Two
checkouts that print the same lines wrote the same bytes; ``diff`` of two
outputs names what changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from adcut.backends import GENERATE_MODES  # noqa: E402
from adcut.cli import main  # noqa: E402
from perfbench import inputs  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"
CONFIG = str(FIXTURES / "adcut.ini")
GRIDS = {
    "small": {"seeds": (7,), "modes": ("perfect", "swap_adjacent"), "concurrency": (1, 2), "edit": {9: 40},
              "text": (13, 40)},
    "full": {"seeds": (7, 8, 9), "modes": ("perfect", *GENERATE_MODES), "concurrency": (1, 2, 4),
             "edit": {9: 400, 31: 400}, "text": (13, 400)},
}
# what a rewritten voice text is made of: characters JSON escapes and ones it passes through
TEXT_CHARACTERS = '"\\\n\x00\x1f/\x7f\u2028\u2029 aZ9é中\U0001f600'


def command_log(work: Path, argv: list[str], out: Path) -> str:
    """Run ``argv`` with ``--config`` and ``--out <out>``: the ``exit <code>`` line and
    what it printed to stderr, with ``work`` written ``<tmp>``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*argv, "--config", CONFIG, "--out", str(out)])
    return f"exit {code}\n{err.getvalue()}".replace(str(work), "<tmp>")


def escape_texts(draft: bytes, rng: random.Random) -> bytes:
    """``draft`` with each voice text rewritten to a non-blank one that needs JSON escaping."""
    doc = json.loads(draft)
    for sentence in doc["voice_over_track"]:
        chars = rng.choices(TEXT_CHARACTERS, k=rng.randint(0, 8))
        chars.insert(rng.randint(0, len(chars)), rng.choice('"\\'))  # neither is whitespace
        sentence["text"] = "".join(chars)
    return json.dumps(doc, ensure_ascii=False).encode("utf-8")


def edit_digest(work: Path, seed: int, count: int, escaped: bool = False) -> str:
    """One digest over ``validate`` and ``align`` of each of ``count`` edit requests drawn at
    ``seed``, or, if ``escaped``, over ``align`` of the valid ones with their texts escaped."""
    taxonomy = inputs.load_taxonomy(ROOT)
    rng = random.Random(seed)
    requests = inputs.make_edit_requests(rng, count, taxonomy)
    work.mkdir(parents=True)
    catalog = work / "catalog.json"
    catalog.write_text(json.dumps(inputs.make_catalog(rng, taxonomy)), encoding="utf-8")
    draft, tts, clips, out = (work / name for name in ("draft.json", "tts.json", "clips.json", "out"))
    align = ["align", str(draft), str(tts), str(clips), "--catalog", str(catalog)]
    commands = [align] if escaped else [["validate", str(draft), "--clips", str(clips)], align]
    digest = hashlib.sha256()
    for request in requests:
        if escaped and request.invalid is not None:
            continue
        draft.write_bytes(escape_texts(request.draft, rng) if escaped else request.draft)
        tts.write_text(json.dumps({"durations_ms": list(request.tts_ms)}), encoding="utf-8")
        clips.write_text(json.dumps(request.clips), encoding="utf-8")
        for argv in commands:
            out.unlink(missing_ok=True)
            for part in (command_log(work, argv, out).encode("utf-8"), out.read_bytes() if out.exists() else b""):
                digest.update(b"%d:" % len(part) + part)  # length-prefixed, so parts cannot run together
    return digest.hexdigest()


def digests(grid: dict) -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def run(name: str, *argv: str) -> Path:
            """Run one command with ``--out <work>/<name>``; record its artifacts."""
            out = work / name
            out.parent.mkdir(parents=True, exist_ok=True)
            log = command_log(work, list(argv), out)
            lines.append(f"sha256 {name}.exit {hashlib.sha256(log.encode('utf-8')).hexdigest()}")
            if out.exists():
                lines.append(f"sha256 {name} {hashlib.sha256(out.read_bytes()).hexdigest()}")
            return out

        for seed in grid["seeds"]:
            common = ("--seed", str(seed))
            corpora = {c: run(f"s{seed}/build-c{c}.jsonl", "build-dataset", *common, "--concurrency", str(c))
                       for c in grid["concurrency"]}
            corpus = str(corpora[grid["concurrency"][0]])
            for mode in grid["modes"]:
                predictions = {
                    c: run(f"s{seed}/{mode}/generate-c{c}.jsonl", "generate", corpus, *common,
                           "--endpoint-generate", f"mock:{mode}", "--concurrency", str(c))
                    for c in grid["concurrency"]
                }
                for fmt in ("json", "table"):
                    for judge in ((), ("--with-judge",)):
                        for vsr in ((), ("--with-vsr",)):
                            for c in grid["concurrency"]:
                                flags = "".join(f.replace("--with", "") for f in (*judge, *vsr))
                                run(f"s{seed}/{mode}/evaluate-{fmt}{flags}-c{c}", "evaluate", corpus,
                                    str(predictions[grid["concurrency"][0]]), *common, "--format", fmt,
                                    "--concurrency", str(c), *judge, *vsr)

        draft, violations = str(FIXTURES / "draft_template.json"), str(FIXTURES / "draft_violations.json")
        clips = str(FIXTURES / "clips.json")
        for fmt in ("json", "table"):
            run(f"validate/template-{fmt}", "validate", draft, "--clips", clips, "--format", fmt)
            run(f"validate/violations-{fmt}", "validate", violations, "--clips", clips, "--format", fmt)
            run(f"plan/clips-{fmt}", "plan", clips, "--format", fmt)
        run("align/template.json", "align", draft, str(FIXTURES / "tts_noop.json"), clips,
            "--catalog", str(FIXTURES / "catalog.json"))
        for seed, count in grid["edit"].items():
            lines.append(f"sha256 edit/s{seed} {edit_digest(work / f'edit-s{seed}', seed, count)}")
        seed, count = grid["text"]
        lines.append(f"sha256 edit/text {edit_digest(work / 'edit-text', seed, count, escaped=True)}")
    return sorted(lines, key=lambda line: line.split()[1])


def cli() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", choices=sorted(GRIDS), default="small")
    args = parser.parse_args()
    print("\n".join(digests(GRIDS[args.grid])))
    return 0


if __name__ == "__main__":
    sys.exit(cli())
