"""Instruction-tuning corpus construction.

Each training sample pairs a rendered instruction (product info, clip
materials with frame placeholders, free-form editing requirements) with a
ground-truth draft recovered from the source video's deconstruction.
Interference clips drawn from a separate pool are shuffled into the
presented clip list so the selection task is non-trivial; their count
follows a clipped rounded Gaussian.

Free-prompt construction runs four steps against pluggable backends:
deconstruct the source video, analyze the requirement dimensions, generate
a prompt with random dimension dropout, then verify and possibly revise it.
All randomness is per-sample seeded, so concurrency never changes output.
"""

from __future__ import annotations

import hashlib
import math
import random
import warnings
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .backends import BackendSet, Client, InvalidResponse, answer, checked, prompt_sha256
from .clips import ClipMeta, ClipSet
from .draft import (
    DECORATION_KEYS,
    DecorationSetting,
    Draft,
    VideoNode,
    VoiceSentence,
    draft_from_dict,
    draft_to_dict,
)
from .jsonutil import field, read_records, write_records
from .sampling import DEFAULT_SAMPLING_PRESET, SlowFastConfig, parse_preset, plan_request

NEGATIVE_COUNT_MEAN = 2.5
NEGATIVE_COUNT_VARIANCE = 8.0

_DIMENSION_LABELS = {
    "duration": "Video duration",
    "visual_storyline": "Visual storyline",
    "target_audience": "Target audience",
    "script_routine": "Script routine",
    "selling_points_emphasis": "Selling-point emphasis",
    "avatar": "Avatar",
    "tts_timbre": "TTS timbre",
    "music_style": "Music style",
}
FREE_PROMPT_DIMENSIONS = tuple(_DIMENSION_LABELS)

TEMPLATE_VERSION = "v1"
ASSUMED_NATIVE_FPS = 30.0
DEFAULT_DROPOUT_P = 0.3
CAPTION_FRAMES = 3  # sparse frames a shot caption is asked from
VERIFY_ROUNDS = 2


class EmptyDeconstruction(ValueError):
    """Source video yielded no shots or no speech."""


class RevisionInvalid(ValueError):
    """A judge revision broke the free-prompt invariants."""


class AsrOverlapWarning(UserWarning):
    """Overlapping ASR segments were truncated."""


@dataclass(frozen=True)
class ProductInfo:
    name: str
    brand: str
    price: str
    selling_points: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise ValueError("product name must be non-empty")
        if not self.selling_points:
            raise ValueError("at least one selling point is required")

    @classmethod
    def from_dict(cls, data: dict) -> "ProductInfo":
        """The product a fixtures ``product`` object describes; ``brand`` and
        ``price`` default to ``""`` and ``selling_points`` to none. Raises
        ``KeyError`` for a missing name, :class:`~adcut.jsonutil.FieldError` for
        a field of the wrong JSON type and ``ValueError`` for a blank name or no
        selling points."""
        return cls(
            name=field(data, "name", str),
            brand=field(data, "brand", str, default=""),
            price=field(data, "price", str, default=""),
            selling_points=tuple(field(data, "selling_points", list, item=str, default=())),
        )


@dataclass(frozen=True)
class FreePrompt:
    duration: str | None = None
    visual_storyline: str | None = None
    target_audience: str | None = None
    script_routine: str | None = None
    selling_points_emphasis: str | None = None
    avatar: str | None = None
    tts_timbre: str | None = None
    music_style: str | None = None
    rendered: str = ""

    def __post_init__(self) -> None:
        if not any(getattr(self, d) for d in FREE_PROMPT_DIMENSIONS):
            raise ValueError("free prompt needs at least one dimension")
        if not self.rendered.strip():
            raise ValueError("rendered free prompt must be non-empty")

    def dimensions(self) -> dict[str, str | None]:
        return {d: getattr(self, d) for d in FREE_PROMPT_DIMENSIONS}

    def to_dict(self) -> dict:
        return {**self.dimensions(), "rendered": self.rendered}


def render_free_prompt(dimensions: dict[str, str | None]) -> str:
    """Fixed rendering template: labeled dimensions in canonical order."""
    parts = [
        f"{_DIMENSION_LABELS[d]}: {dimensions[d]}"
        for d in FREE_PROMPT_DIMENSIONS
        if dimensions.get(d)
    ]
    return "; ".join(parts) + "." if parts else ""


def free_prompt_from_dimensions(dimensions: dict[str, str | None]) -> FreePrompt:
    kept = {d: dimensions.get(d) for d in FREE_PROMPT_DIMENSIONS}
    return FreePrompt(**kept, rendered=render_free_prompt(kept))


@dataclass(frozen=True)
class AsrSentence:
    text: str
    start_ms: int
    end_ms: int

    def to_dict(self) -> dict:
        return {"text": self.text, "start": self.start_ms, "end": self.end_ms}


@dataclass(frozen=True)
class Deconstruction:
    asr_sentences: tuple[AsrSentence, ...]
    subtitle_ocr: tuple[str, ...]
    shot_boundaries: tuple[int, ...]
    shot_captions: tuple[str, ...]
    recommended_tags: DecorationSetting

    def shot_count(self) -> int:
        return max(0, len(self.shot_boundaries) - 1)

    def to_dict(self) -> dict:
        return {
            "asr_sentences": [s.to_dict() for s in self.asr_sentences],
            "subtitle_ocr": list(self.subtitle_ocr),
            "shot_boundaries": list(self.shot_boundaries),
            "shot_captions": list(self.shot_captions),
            "recommended_tags": self.recommended_tags.to_dict(),
        }


@dataclass(frozen=True)
class DatasetSample:
    sample_id: str
    instruction: str
    clip_order: tuple[str, ...]
    negatives: tuple[int, ...]
    negatives_capped: bool
    ground_truth: Draft

    def to_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "instruction": self.instruction,
            "clip_order": list(self.clip_order),
            "negatives": list(self.negatives),
            "negatives_capped": self.negatives_capped,
            "ground_truth": draft_to_dict(self.ground_truth),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DatasetSample":
        """The sample a decoded corpus line holds. Raises ``KeyError`` for a
        missing field, :class:`~adcut.jsonutil.FieldError` for a field of the
        wrong JSON type and :class:`~adcut.draft.SchemaError` for a ground truth
        that is no draft."""
        return cls(
            sample_id=field(data, "sample_id", str),
            instruction=field(data, "instruction", str),
            clip_order=tuple(field(data, "clip_order", list, item=str)),
            negatives=tuple(field(data, "negatives", list, item=int)),
            negatives_capped=field(data, "negatives_capped", bool),
            ground_truth=draft_from_dict(field(data, "ground_truth", dict)),
        )


# ---------------------------------------------------------------------------
# negative-clip sampling


def sample_negative_count(rng: random.Random) -> int:
    """Number of interference clips: max(0, round(gaussian)) with the
    configured mean and variance; rounding is half-up."""
    g = rng.gauss(NEGATIVE_COUNT_MEAN, math.sqrt(NEGATIVE_COUNT_VARIANCE))
    return max(0, math.floor(g + 0.5))


def sample_seed(corpus_seed: int, sample_id: str) -> int:
    """Stable per-sample seed so worker scheduling never changes output."""
    digest = hashlib.sha256(f"{corpus_seed}:{sample_id}".encode("utf-8")).digest()
    return corpus_seed ^ int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# step 1: deconstruction


def _sentences(role: str, entries: list) -> list[AsrSentence]:
    """The sentences of a ``role`` answer's ``{"text", "start", "end"}`` entries."""
    return [
        AsrSentence(checked(role, e, "text", str), checked(role, e, "start", int), checked(role, e, "end", int))
        for e in entries
    ]


def _normalize_asr(raw: list[AsrSentence]) -> list[AsrSentence]:
    out: list[AsrSentence] = []
    for s in sorted((s for s in raw if s.text.strip()), key=lambda s: (s.start_ms, s.end_ms)):
        if out and s.start_ms < out[-1].end_ms:
            prev = out[-1]
            warnings.warn(
                f"ASR overlap: truncating [{prev.start_ms},{prev.end_ms}] at {s.start_ms}",
                AsrOverlapWarning,
                stacklevel=3,
            )
            out[-1] = AsrSentence(prev.text, prev.start_ms, s.start_ms)
            if out[-1].start_ms >= out[-1].end_ms:
                out.pop()
        if s.start_ms < s.end_ms:
            out.append(s)
    return out


def _sparse_timestamps(start_ms: int, end_ms: int) -> list[float]:
    span = (end_ms - start_ms) / 1000.0
    return [start_ms / 1000.0 + span * (i + 0.5) / CAPTION_FRAMES for i in range(CAPTION_FRAMES)]


def _check_within_shots(role: str, what: str, s: AsrSentence, video_start: int, video_end: float) -> None:
    """``InvalidResponse`` for ``role`` when sentence ``what`` starts before the
    first shot boundary or ends after the last."""
    if s.start_ms < video_start:
        raise InvalidResponse(role, f"{what} starts at {s.start_ms}, before the first shot boundary {video_start}")
    if s.end_ms > video_end:
        raise InvalidResponse(role, f"{what} ends at {s.end_ms}, after the last shot boundary {video_end}")


def deconstruct(video_ref: str, backends: BackendSet) -> Deconstruction:
    """Extract voice, subtitles, shot boundaries, captions and tag
    recommendations for one source video. An answer without the fields read
    here, of the JSON types read, with a shot boundary below 0 or a shot too
    short to be a clip, with an ASR sentence starting before 0 or the first
    shot boundary or ending after the last, or with corrected sentences that
    are blank, not ``0 <= start < end``, starting before the first shot
    boundary or ending after the last, unsorted or overlapping, raises
    :class:`InvalidResponse` for its role."""
    ref = {"video_ref": video_ref}
    boundaries = sorted(set(answer(backends.shots, ref, "boundaries_ms", list, int)))
    if boundaries and boundaries[0] < 0:
        raise InvalidResponse(backends.shots.role, f"first boundary at {boundaries[0]}, before 0")
    for i, (a, b) in enumerate(zip(boundaries, boundaries[1:])):
        try:
            clip_meta(i, b - a)
        except ValueError as exc:
            raise InvalidResponse(backends.shots.role, f"shot {i} of {b - a} ms: {exc}") from None

    # no shots: assemble_sample rejects the video
    video_start, video_end = (boundaries[0], boundaries[-1]) if boundaries else (0, math.inf)
    sentences = _sentences(backends.asr.role, answer(backends.asr, ref, "sentences", list))
    for i, s in enumerate(sentences):
        if s.start_ms < 0:
            raise InvalidResponse(backends.asr.role, f"sentence {i} starts at {s.start_ms}")
        _check_within_shots(backends.asr.role, f"sentence {i}", s, video_start, video_end)
    sentences = _normalize_asr(sentences)
    corrected = answer(
        backends.judge,
        {
            "task": "correct_asr",
            "prompt_sha256": prompt_sha256("asr_correction.txt"),
            "sentences": [s.to_dict() for s in sentences],
        },
        "sentences",
        list,
    )
    sentences = _sentences(backends.judge.role, corrected)
    for i, s in enumerate(sentences):
        if not s.text.strip():
            raise InvalidResponse(backends.judge.role, f"corrected sentence {i} has blank text")
        if not 0 <= s.start_ms < s.end_ms:
            raise InvalidResponse(backends.judge.role, f"corrected sentence {i} spans [{s.start_ms}, {s.end_ms}]")
        _check_within_shots(backends.judge.role, f"corrected sentence {i}", s, video_start, video_end)
        if i and s.start_ms < sentences[i - 1].end_ms:
            raise InvalidResponse(backends.judge.role, f"corrected sentence {i} starts before sentence {i - 1} ends")

    ocr_lines = answer(backends.ocr, ref, "lines", list, str)

    captions = [
        answer(
            backends.caption,
            {"video_ref": video_ref, "shot_index": i, "frame_timestamps": _sparse_timestamps(a, b)},
            "caption",
            str,
        )
        for i, (a, b) in enumerate(zip(boundaries, boundaries[1:]))
    ]

    tags = answer(backends.judge, {"task": "recommend_tags", "video_ref": video_ref}, "tags", dict)
    decoration = DecorationSetting(
        **{key: tuple(checked(backends.judge.role, tags, key, list, str)) for key in DECORATION_KEYS if key in tags}
    )

    return Deconstruction(
        asr_sentences=tuple(sentences),
        subtitle_ocr=tuple(ocr_lines),
        shot_boundaries=tuple(boundaries),
        shot_captions=tuple(captions),
        recommended_tags=decoration,
    )


# ---------------------------------------------------------------------------
# step 2: analysis


def analyze_dimensions(dec: Deconstruction, judge: Client, video_ref: str | None = None) -> dict[str, str | None]:
    """One analysis entry per requirement dimension; entries may be absent,
    but an analysis with no usable dimension raises :class:`InvalidResponse`."""
    payload = {"task": "analyze", "video_ref": video_ref, "deconstruction": dec.to_dict()}
    raw = answer(judge, payload, "analysis", dict)
    analysis: dict[str, str | None] = {
        d: None if raw.get(d) is None else checked(judge.role, raw, d, str) for d in FREE_PROMPT_DIMENSIONS
    }
    if not dec.shot_captions:
        analysis["visual_storyline"] = None
    if not any(analysis.values()):
        raise InvalidResponse(judge.role, "analysis contains no usable dimensions")
    return analysis


# ---------------------------------------------------------------------------
# step 3: generation


def generate_free_prompt(
    analysis: dict[str, str | None], rng: random.Random, dropout_p: float = DEFAULT_DROPOUT_P
) -> FreePrompt:
    """Drop each analyzed dimension independently with probability
    ``dropout_p``; an all-dropped draw is resampled so at least one
    dimension always survives."""
    if not 0 <= dropout_p < 1:
        raise ValueError(f"dropout_p must be in [0, 1), got {dropout_p}")
    present = [d for d in FREE_PROMPT_DIMENSIONS if analysis.get(d)]
    if not present:
        raise ValueError("analysis contains no usable dimensions")
    while True:
        kept = [d for d in present if rng.random() >= dropout_p]
        if kept:
            break
    return free_prompt_from_dimensions({d: analysis[d] for d in kept})


# ---------------------------------------------------------------------------
# step 4: verification


def verify_free_prompt(prompt: FreePrompt, analysis: dict[str, str | None], judge: Client) -> FreePrompt:
    """Ask the judge to approve or revise, for at most ``VERIFY_ROUNDS``
    rounds; each revision is re-checked."""
    current = prompt
    for _ in range(VERIFY_ROUNDS):
        resp = judge.call(
            {"task": "verify_prompt", "dimensions": current.dimensions(), "analysis": analysis}
        ).data
        if checked(judge.role, resp, "approved", bool):
            return current
        revision = checked(judge.role, resp, "revision", dict)
        try:
            current = free_prompt_from_dimensions(revision)
        except ValueError as exc:
            raise RevisionInvalid(f"judge revision is not a valid free prompt: {exc}") from exc
    return current


# ---------------------------------------------------------------------------
# sample assembly


def _positive_clips(dec: Deconstruction) -> list[int]:
    """Per-shot durations (ms) from the boundary list."""
    return [b - a for a, b in zip(dec.shot_boundaries, dec.shot_boundaries[1:])]


def clip_meta(index: int, duration_ms: int) -> ClipMeta:
    """A clip of ``duration_ms`` at the assumed native frame rate; ``ValueError``
    if :class:`~adcut.clips.ClipMeta` rejects it or it is too long for a float."""
    try:
        duration_s = duration_ms / 1000.0
    except OverflowError:
        raise ValueError(f"clip {index}: duration_ms too large") from None
    return ClipMeta(
        index=index,
        duration_s=duration_s,
        frame_count=max(1, round(duration_s * ASSUMED_NATIVE_FPS)),
    )


def _materials_block(durations_ms: list[int], cfg: SlowFastConfig) -> str:
    """One line per presented clip with a placeholder per frame that
    :func:`~adcut.sampling.plan_request` samples from it."""
    plan = plan_request(ClipSet(clip_meta(i, d) for i, d in enumerate(durations_ms)), cfg)
    return "\n".join(
        f"Clip {meta.index} (duration {meta.duration_s:.1f}s): "
        f"fast frames: {' '.join(['<image>'] * fast)}; "
        f"slow frames: {' '.join(['<image>'] * slow)}"
        for meta, fast, slow in zip(plan.metas, plan.fast_frames, plan.slow_frames)
    )


def _product_block(product: ProductInfo) -> str:
    return (
        f"Name: {product.name}\n"
        f"Brand: {product.brand}\n"
        f"Price: {product.price}\n"
        f"Selling points: {'; '.join(product.selling_points)}"
    )


@lru_cache(maxsize=1)
def _bundled_template() -> str:
    name = f"data/instruction_template_{TEMPLATE_VERSION}.txt"
    return resources.files("adcut").joinpath(name).read_text("utf-8")


def load_instruction_template(path: str | Path | None = None) -> str:
    """The template at ``path`` (default: bundled). Raises ``ValueError`` for a
    placeholder other than the three that each sample fills."""
    template = _bundled_template() if path is None else Path(path).read_text(encoding="utf-8")
    try:
        template.format(product_block="", materials_block="", free_prompt="")
    except (LookupError, AttributeError, ValueError) as exc:
        raise ValueError(f"bad placeholder: {exc}") from None
    return template


def assemble_sample(
    dec: Deconstruction,
    product: ProductInfo,
    prompt: FreePrompt,
    negative_pool: ClipSet,
    rng: random.Random,
    sample_id: str = "sample",
    sampling: SlowFastConfig | None = None,
    template: str | None = None,
) -> DatasetSample:
    """Shuffle positives with drawn negatives, render the instruction and
    rebuild the ground-truth draft from the deconstruction. Nodes are packed
    from 0, so voice times move from source time by the first shot boundary."""
    if dec.shot_count() == 0 or not dec.asr_sentences:
        raise EmptyDeconstruction("deconstruction has no shots or no speech")
    cfg = sampling or parse_preset(DEFAULT_SAMPLING_PRESET)
    template = template or load_instruction_template()

    positive_durations = _positive_clips(dec)
    pool = list(negative_pool)
    drawn = sample_negative_count(rng)
    capped = drawn > len(pool)
    chosen = rng.sample(pool, min(drawn, len(pool)))

    presented: list[tuple[str, int]] = [(f"pos:{i}", d) for i, d in enumerate(positive_durations)]
    presented += [(f"neg:{c.index}", c.duration_ms) for c in chosen]
    rng.shuffle(presented)

    clip_order = tuple(cid for cid, _ in presented)
    presentation_of = {cid: p for p, (cid, _) in enumerate(presented)}
    negatives = tuple(p for p, (cid, _) in enumerate(presented) if cid.startswith("neg:"))

    nodes = []
    at = 0
    for i, dur in enumerate(positive_durations):
        nodes.append(
            VideoNode(
                index=presentation_of[f"pos:{i}"],
                target_start=at,
                target_end=at + dur,
                source_start=0,
            )
        )
        at += dur

    origin = dec.shot_boundaries[0]
    voice = tuple(
        VoiceSentence(text=s.text, target_start=s.start_ms - origin, target_end=s.end_ms - origin)
        for s in dec.asr_sentences
    )
    ground_truth = Draft(
        voice_over_track=voice,
        video_nodes_track=tuple(nodes),
        decoration_setting=dec.recommended_tags,
    )

    instruction = template.format(
        product_block=_product_block(product),
        materials_block=_materials_block([d for _, d in presented], cfg),
        free_prompt=prompt.rendered,
    )

    return DatasetSample(
        sample_id=sample_id,
        instruction=instruction,
        clip_order=clip_order,
        negatives=negatives,
        negatives_capped=capped,
        ground_truth=ground_truth,
    )


def build_sample(
    video_ref: str,
    product: ProductInfo,
    backends: BackendSet,
    negative_pool: ClipSet,
    corpus_seed: int,
    dropout_p: float = DEFAULT_DROPOUT_P,
    sampling: SlowFastConfig | None = None,
    template: str | None = None,
) -> DatasetSample:
    """Run the full per-video pipeline: deconstruct, analyze, generate,
    verify, assemble."""
    rng = random.Random(sample_seed(corpus_seed, video_ref))
    dec = deconstruct(video_ref, backends)
    analysis = analyze_dimensions(dec, backends.judge, video_ref=video_ref)
    prompt = generate_free_prompt(analysis, rng, dropout_p)
    prompt = verify_free_prompt(prompt, analysis, backends.judge)
    return assemble_sample(
        dec,
        product,
        prompt,
        negative_pool,
        rng,
        sample_id=video_ref,
        sampling=sampling,
        template=template,
    )


# ---------------------------------------------------------------------------
# corpus files (JSON lines, canonical field order)


def write_corpus(samples: list[DatasetSample], path: str | Path) -> None:
    write_records(path, (sample.to_dict() for sample in samples))


def read_corpus(path: str | Path) -> list[DatasetSample]:
    """Samples in file order. Raises ``OSError`` when the file cannot be read
    and :class:`~adcut.jsonutil.RecordError` for a line that is not a sample or
    repeats an earlier line's ``sample_id``."""
    return list(read_records(path, DatasetSample.from_dict, "sample_id"))
