"""Seeded synthetic inputs for the three benchmark workloads.

Every generator draws from a ``random.Random`` built from the run's seed, so
one seed always yields the same bytes. The parameters that set how much work
an input causes (shots and sentences per video, clips per edit request,
nodes per long-form request, which requests are long-form or invalid) are
stratified rather than drawn freely: every seed presents the same mix and
only the concrete values differ. That keeps run-to-run spread low without
letting one seed pick an easy input.

Shapes follow ``tests/fixtures/videos.json`` (videos with product, ASR, OCR,
shot boundaries, captions and tags, plus a negative clip pool) and the
bundled tag taxonomy, read straight from its data file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORDS = (
    "bright", "fresh", "daily", "smooth", "quick", "light", "bold", "clean", "soft", "smart",
    "glow", "power", "style", "comfort", "travel", "kitchen", "morning", "city", "weekend", "studio",
    "your", "new", "favorite", "every", "moment", "feels", "better", "with", "our", "latest",
    "deal", "today", "only", "limited", "offer", "grab", "yours", "now", "free", "shipping",
    "battery", "lasts", "all", "day", "water", "resistant", "easy", "to", "use", "anywhere",
    "friends", "love", "it", "made", "for", "you", "see", "why", "people", "switch",
)
NOUNS = ("Earbuds", "Blender", "Serum", "Backpack", "Lamp", "Kettle", "Sneakers", "Watch", "Speaker", "Mug")
BRANDS = ("Auralis", "KitchenCore", "Lumine", "Northpeak", "Brightly", "Vanta", "Oakline", "Pulse")

# corpus and http: a job is built from complementary pairs of shot counts
# (3+12, 4+11, ... 7+8) and of sentence counts (2+10, ... 6+6), so every job
# of a given size holds the same number of shots and sentences
SHOT_PAIRS = tuple((n, 15 - n) for n in range(3, 8))
SENTENCE_PAIRS = tuple((n, 12 - n) for n in range(2, 7))
NEGATIVE_POOL_SIZE = 40

# edit: requests come in blocks; each block holds exactly one long-form
# request and INVALID_PER_BLOCK deliberately invalid short ones (~5% / ~10%)
EDIT_BLOCK = 20
INVALID_PER_BLOCK = 2
SHORT_CLIPS = tuple(range(4, 31))
LONG_NODES = (150, 400)
LONG_STRATA = 10  # long-form node counts: the midpoints of ten equal strata
LONG_SPARE_CLIPS = 10  # clips a long-form request has beyond the nodes it uses
CLIP_SECONDS = (1.0, 60.0)
NATIVE_FPS = (24, 25, 30, 60)
INVALID_KINDS = (
    "unknown_tag",
    "duplicate_clip_index",
    "unknown_clip_index",
    "node_gap",
    "voice_overlap",
    "clip_overrun",
    "voice_empty_text",
)


def load_taxonomy(root: Path) -> dict[str, dict[str, list[str]]]:
    path = root / "src" / "adcut" / "data" / "decorative_tags.json"
    return json.loads(path.read_text("utf-8"))


def _words(rng: random.Random, lo: int, hi: int) -> str:
    text = " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))
    return text[0].upper() + text[1:]


def _distinct_labels(rng: random.Random, subcategories: list[list[str]]) -> list[str]:
    out: list[str] = []
    for labels in subcategories:
        label = rng.choice(labels)
        if label not in out:
            out.append(label)
    return out


def make_tags(rng: random.Random, taxonomy: dict) -> dict[str, list[str]]:
    """One label per TTS and Music subcategory; 0-4 Avatar subcategories."""
    avatar_subs = list(taxonomy["Avatar"].values())
    return {
        "tts_tags": _distinct_labels(rng, list(taxonomy["TTS"].values())),
        "avatar_tags": _distinct_labels(rng, rng.sample(avatar_subs, rng.randint(0, 4))),
        "music_tags": _distinct_labels(rng, list(taxonomy["Music"].values())),
    }


# ---------------------------------------------------------------------------
# corpus and http: source videos


def make_video(rng: random.Random, shots: int, sentences: int, taxonomy: dict) -> dict:
    bounds = [0]
    for _ in range(shots):
        bounds.append(bounds[-1] + rng.randint(800, 4000))
    slot = bounds[-1] / sentences
    asr = []
    for i in range(sentences):
        a, b = int(i * slot), int((i + 1) * slot)
        margin = (b - a) // 5
        asr.append({"text": _words(rng, 5, 14) + ".", "start": a + rng.randint(0, margin), "end": b - rng.randint(0, margin)})
    noun = rng.choice(NOUNS)
    return {
        "product": {
            "name": f"{rng.choice(WORDS).title()} {noun} {rng.randint(2, 990)}",
            "brand": rng.choice(BRANDS),
            "price": f"${rng.randint(9, 199)}.{rng.choice(('00', '50', '99'))}",
            "selling_points": [_words(rng, 2, 4).lower() for _ in range(rng.randint(1, 4))],
        },
        "asr": asr,
        "ocr": [_words(rng, 1, 4).upper() for _ in range(rng.randint(1, 3))],
        "shots": bounds,
        "captions": [_words(rng, 6, 12) for _ in range(shots)],
        "tags": make_tags(rng, taxonomy),
    }


def make_negative_pool(rng: random.Random) -> list[dict]:
    return [{"index": i, "duration_ms": rng.randint(1000, 6000)} for i in range(NEGATIVE_POOL_SIZE)]


def _pairs(pairs: tuple[tuple[int, int], ...], k: int, count: int) -> list[int]:
    """Values of ``count`` distinct pairs for job ``k``: pairs k, k+step, ...
    (mod 5) with the step cycling through 1..4, so over ten jobs each pair is
    used equally often."""
    step = 1 + (k // len(pairs)) % (len(pairs) - 1)
    return [v for j in range(count) for v in pairs[(k + j * step) % len(pairs)]]


def make_corpus_jobs(rng: random.Random, taxonomy: dict, videos_per_job: list[int]) -> list[dict]:
    """Fixture documents in the shape of ``tests/fixtures/videos.json``, one
    per job with the given number of videos, sharing one negative pool."""
    pool = make_negative_pool(rng)
    out = []
    for k, videos_in_job in enumerate(videos_per_job):
        pair_count = (videos_in_job + 1) // 2
        shots = _pairs(SHOT_PAIRS, k, pair_count)
        sentences = _pairs(SENTENCE_PAIRS, k + 2, pair_count)
        rng.shuffle(shots)
        rng.shuffle(sentences)
        videos = {
            f"j{k}-v{i:02d}": make_video(rng, shots[i], sentences[i], taxonomy) for i in range(videos_in_job)
        }
        out.append({"videos": videos, "negative_pool": pool})
    return out


# ---------------------------------------------------------------------------
# edit: requests


@dataclass(frozen=True)
class EditRequest:
    clips: dict  # ClipSet.to_dict() shape
    draft: bytes
    tts_ms: tuple[int, ...]
    long_form: bool
    invalid: str | None  # the mutation applied, or None for a valid draft


def _make_clips(rng: random.Random, count: int) -> list[dict]:
    clips = []
    for index in range(count):
        seconds = round(rng.uniform(*CLIP_SECONDS), 3)
        clips.append({"index": index, "duration_s": seconds, "frame_count": max(1, round(seconds * rng.choice(NATIVE_FPS)))})
    return clips


def _make_draft(rng: random.Random, clips: list[dict], nodes: int, sentences: int, taxonomy: dict) -> tuple[dict, list[int]]:
    """A valid draft whose every sentence lies inside one node, with enough
    spare footage that any realized TTS ratio in [0.8, 1.25] still fits."""
    track = []
    at = 0
    for clip in rng.sample(clips, nodes):
        clip_ms = round(clip["duration_s"] * 1000)
        source_start = rng.randint(0, clip_ms // 4)
        span = rng.randint(300, int((clip_ms - source_start) * 0.75) - 2)
        track.append({"index": clip["index"], "target_start": at, "target_end": at + span, "source_start": source_start})
        at += span

    hosts = sorted(rng.sample(range(nodes), min(nodes, sentences)))
    per_host = {h: 1 for h in hosts}
    for i in range(sentences - len(hosts)):
        per_host[hosts[i % len(hosts)]] += 1
    voice = []
    for h in hosts:
        node, k = track[h], per_host[h]
        width = (node["target_end"] - node["target_start"]) / k
        for j in range(k):
            a = node["target_start"] + int(j * width)
            b = node["target_start"] + int((j + 1) * width)
            start = a + int((b - a) * rng.uniform(0.05, 0.2))
            end = b - int((b - a) * rng.uniform(0.05, 0.2))
            voice.append({"text": _words(rng, 4, 12) + ".", "target_start": start, "target_end": end})

    tts = [max(1, round((s["target_end"] - s["target_start"]) * rng.uniform(0.8, 1.25))) for s in voice]
    draft = {"voice_over_track": voice, "video_nodes_track": track, "decoration_setting": make_tags(rng, taxonomy)}
    return draft, tts


def _break(rng: random.Random, kind: str, draft: dict, clips: list[dict]) -> None:
    """Apply one mutation that ``validate_draft`` must reject."""
    nodes, voice = draft["video_nodes_track"], draft["voice_over_track"]
    if kind == "unknown_tag":
        draft["decoration_setting"]["music_tags"].append("Not A Label")
    elif kind == "duplicate_clip_index":
        nodes[-1]["index"] = nodes[0]["index"]
    elif kind == "unknown_clip_index":
        rng.choice(nodes)["index"] = len(clips) + 7
    elif kind == "node_gap":
        for node in nodes[rng.randrange(1, len(nodes)):]:
            node["target_start"] += 250
            node["target_end"] += 250
    elif kind == "voice_overlap":
        voice[1]["target_start"] = voice[0]["target_end"] - 1
    elif kind == "clip_overrun":
        node = rng.choice(nodes)
        node["source_start"] = round(clips[node["index"]]["duration_s"] * 1000)
    elif kind == "voice_empty_text":
        rng.choice(voice)["text"] = "   "
    else:
        raise ValueError(f"unknown mutation {kind!r}")


def make_edit_requests(rng: random.Random, count: int, taxonomy: dict) -> list[EditRequest]:
    """``count`` requests (a multiple of EDIT_BLOCK) in blocks of EDIT_BLOCK."""
    short_clips: list[int] = []
    long_nodes: list[int] = []
    out = []
    for _ in range(count // EDIT_BLOCK):
        slots = list(range(EDIT_BLOCK))
        rng.shuffle(slots)
        long_slot, invalid_slots = slots[0], set(slots[1 : 1 + INVALID_PER_BLOCK])
        for slot in range(EDIT_BLOCK):
            if slot == long_slot:
                if not long_nodes:
                    lo, hi = LONG_NODES
                    long_nodes = [lo + (hi - lo) * (2 * j + 1) // (2 * LONG_STRATA) for j in range(LONG_STRATA)]
                    rng.shuffle(long_nodes)
                nodes = long_nodes.pop()
                clips = _make_clips(rng, nodes + LONG_SPARE_CLIPS)
                sentences = nodes * 3 // 4
            else:
                if not short_clips:
                    short_clips = list(SHORT_CLIPS)
                    rng.shuffle(short_clips)
                n_clips = short_clips.pop()
                clips = _make_clips(rng, n_clips)
                nodes = rng.randint(max(2, n_clips // 2), n_clips)
                sentences = rng.randint(2, 10)
            draft, tts = _make_draft(rng, clips, nodes, sentences, taxonomy)
            invalid = rng.choice(INVALID_KINDS) if slot in invalid_slots else None
            if invalid:
                _break(rng, invalid, draft, clips)
            out.append(
                EditRequest(
                    clips={"clips": clips},
                    draft=json.dumps(draft, separators=(",", ":")).encode("utf-8"),
                    tts_ms=tuple(tts),
                    long_form=slot == long_slot,
                    invalid=invalid,
                )
            )
    return out


def make_catalog(rng: random.Random, taxonomy: dict, per_category: int = 8) -> dict:
    """Asset catalog with ``per_category`` entries for TTS, Avatar and Music."""
    assets = []
    for category in ("TTS", "Avatar", "Music"):
        labels = sorted({label for sub in taxonomy[category].values() for label in sub})
        for i in range(per_category):
            assets.append(
                {
                    "asset_id": f"{category.lower()}-{i:02d}",
                    "category": category,
                    "labels": rng.sample(labels, rng.randint(2, 4)),
                    "uri": f"assets/{category.lower()}/{i:02d}",
                }
            )
    return {"assets": assets}
