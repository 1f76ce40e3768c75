"""Shared generators and independent oracles used across the test suite.

Oracles here deliberately use naive loops and set arithmetic so they stay
independent of the library code paths they check.
"""

import binascii
import hashlib
import math
import random
import struct
from dataclasses import fields

import numpy as np

from adcut.backends import (
    MOCK_ENDPOINT,
    RUBRICS,
    BackendSet,
    Client,
    InvalidResponse,
    embed,
    mock_backend,
    prompt_text,
)
from adcut.clips import ClipMeta, ClipSet
from adcut.draft import DecorationSetting, Draft, VideoNode, VoiceSentence
from adcut.taxonomy import default_taxonomy

_TAX = default_taxonomy()
TTS_LABELS = sorted(_TAX.labels("TTS"))
AVATAR_LABELS = sorted(_TAX.labels("Avatar"))
MUSIC_LABELS = sorted(_TAX.labels("Music"))


def random_decoration(rng: random.Random) -> DecorationSetting:
    return DecorationSetting(
        tts_tags=tuple(rng.sample(TTS_LABELS, rng.randint(0, 3))),
        avatar_tags=tuple(rng.sample(AVATAR_LABELS, rng.randint(0, 4))),
        music_tags=tuple(rng.sample(MUSIC_LABELS, rng.randint(0, 2))),
    )


def random_draft(rng: random.Random, max_sentences: int = 5, max_nodes: int = 5) -> Draft:
    """A structurally valid draft: packed sentence and node tracks."""
    sentences = []
    at = 0
    for i in range(rng.randint(1, max_sentences)):
        span = rng.randint(300, 5000)
        sentences.append(VoiceSentence(f"sentence {i} text", at, at + span))
        at += span + rng.choice((0, 0, rng.randint(1, 800)))
    nodes = []
    at = 0
    indices = rng.sample(range(max_nodes * 3), rng.randint(1, max_nodes))
    for idx in indices:
        span = rng.randint(400, 6000)
        nodes.append(VideoNode(index=idx, target_start=at, target_end=at + span, source_start=rng.randint(0, 2000)))
        at += span
    return Draft(tuple(sentences), tuple(nodes), random_decoration(rng))


def clips_covering(draft: Draft, rng: random.Random, min_slack_ms: int = 4000) -> ClipSet:
    """Clips long enough that every node's source window fits, with at
    least ``min_slack_ms`` of spare footage for stretched alignments."""
    metas = []
    for node in draft.video_nodes_track:
        need_ms = node.source_start + node.span_ms + min_slack_ms + rng.randint(0, 4000)
        duration_s = need_ms / 1000.0
        metas.append(ClipMeta(index=node.index, duration_s=duration_s, frame_count=max(1, round(duration_s * 30))))
    return ClipSet(metas)


def aligned_draft_and_clips(rng: random.Random, scale: int = 1):
    """Draft whose node boundaries coincide with sentence boundaries and
    whose sentences are packed from zero: alignment is then exact integer
    arithmetic for any realized durations.

    Returns (draft, realized_durations, clips) with clips scaled by
    ``scale`` alongside the durations.
    """
    n_sentences = rng.randint(1, 6)
    spans = [rng.randint(300, 4000) for _ in range(n_sentences)]
    sentences = []
    at = 0
    for i, span in enumerate(spans):
        sentences.append(VoiceSentence(f"s{i}", at, at + span))
        at += span
    # nodes cover consecutive whole sentences
    boundaries = sorted(rng.sample(range(1, n_sentences), rng.randint(0, n_sentences - 1))) if n_sentences > 1 else []
    groups = []
    start = 0
    for b in boundaries + [n_sentences]:
        groups.append((start, b))
        start = b
    nodes = []
    at = 0
    indices = rng.sample(range(len(groups) * 3), len(groups))
    for idx, (lo, hi) in zip(indices, groups):
        span = sum(spans[lo:hi])
        nodes.append(VideoNode(index=idx, target_start=at, target_end=at + span, source_start=0))
        at += span
    draft = Draft(tuple(sentences), tuple(nodes), DecorationSetting())
    realized = tuple(rng.randint(200, 6000) for _ in range(n_sentences))
    total_realized = sum(realized)
    metas = [
        ClipMeta(
            index=n.index,
            duration_s=scale * (total_realized + 5000) / 1000.0,
            frame_count=max(1, round(scale * (total_realized + 5000) / 1000.0 * 30)),
        )
        for n in nodes
    ]
    return draft, realized, ClipSet(metas)


# ---------------------------------------------------------------------------
# render plan oracles


def reference_plan_dict(plan) -> dict:
    """The JSON value of a render plan, key by key in the documented order."""
    assets = plan.assets
    return {
        "voice_over_track": [
            {"text": s.text, "target_start": s.target_start, "target_end": s.target_end}
            for s in plan.voice_over_track
        ],
        "video_nodes_track": [
            {"index": n.index, "target_start": n.target_start, "target_end": n.target_end,
             "source_start": n.source_start}
            for n in plan.video_nodes_track
        ],
        "assets": None if assets is None else {
            "tts_asset": assets.tts_asset, "avatar_asset": assets.avatar_asset, "music_asset": assets.music_asset,
        },
        "total_duration": plan.total_duration,
    }


def reference_match(entries, category: str, tags) -> str | None:
    """The ``asset_id`` of the ``category`` entry sharing the most distinct labels with
    ``tags``, the smallest one among equals; None when no entry is of ``category``."""
    best = None
    for e in entries:
        if e.category != category:
            continue
        shared = 0
        for label in set(e.labels):
            if label in tags:
                shared += 1
        if best is None or shared > best[0] or (shared == best[0] and e.asset_id < best[1]):
            best = (shared, e.asset_id)
    return None if best is None else best[1]


# ---------------------------------------------------------------------------
# mock backends


def mock_backend_set(seed: int, fixtures: dict | None = None) -> BackendSet:
    """A full client set wired to one shared mock transport."""
    transport = mock_backend(seed, fixtures)
    return BackendSet(**{f.name: Client(f.name, MOCK_ENDPOINT, transport=transport) for f in fields(BackendSet)})


def rubric_text(rubric_id: str) -> str:
    """The verbatim prompt of a judge rubric."""
    return prompt_text(RUBRICS[rubric_id][0])


# ---------------------------------------------------------------------------
# sampling oracle


def frames_at(duration_s: float, frame_count: int, fps: float) -> int:
    """Frames the planner takes from a clip at ``fps``, in closed form: one
    (the middle frame) if the clip is shorter than one interval, else the
    duration times the rate rounded half up, at most the clip's frames."""
    if duration_s < 1.0 / fps:
        return 1
    return min(math.floor(duration_s * fps + 0.5), frame_count)


# ---------------------------------------------------------------------------
# brute-force metric oracles


def recount_cra(samples) -> float:
    correct = 0
    for s in samples:
        if s.predicted is None:
            continue
        pred = [n.index for n in s.predicted.video_nodes_track]
        truth = [n.index for n in s.ground_truth.video_nodes_track]
        if pred == truth:
            correct += 1
    return 100.0 * correct / len(samples)


def recount_csa(samples) -> float:
    clean = 0
    for s in samples:
        if s.predicted is None:
            continue
        selected = {n.index for n in s.predicted.video_nodes_track}
        if not any(i in s.negatives for i in selected):
            clean += 1
    return 100.0 * clean / len(samples)


def recount_dtpr(samples) -> dict:
    fields = {"TTS": "tts_tags", "Avatar": "avatar_tags", "Music": "music_tags"}
    result = {}
    for cat, field_name in fields.items():
        tp = fp = fn = 0
        for s in samples:
            truth = set(getattr(s.ground_truth.decoration_setting, field_name))
            pred = set(getattr(s.predicted.decoration_setting, field_name)) if s.predicted else set()
            for tag in pred:
                if tag in truth:
                    tp += 1
                else:
                    fp += 1
            for tag in truth:
                if tag not in pred:
                    fn += 1
        result[cat] = {
            "precision": 100.0 * tp / (tp + fp) if tp + fp else None,
            "recall": 100.0 * tp / (tp + fn) if tp + fn else None,
            "tp": tp,
            "fp": fp,
            "fn": fn,
        }
    return result


def recount_counts(samples) -> dict:
    """The counting totals, in the layout of ``MetricCounts.to_dict()``."""
    rank_correct = selection_clean = 0
    for s in samples:
        if s.predicted is None:
            continue
        pred = [n.index for n in s.predicted.video_nodes_track]
        if pred == [n.index for n in s.ground_truth.video_nodes_track]:
            rank_correct += 1
        if not any(i in s.negatives for i in pred):
            selection_clean += 1
    tags = recount_dtpr(samples)
    return {
        "total": len(samples),
        "rank_correct": rank_correct,
        "selection_clean": selection_clean,
        "tag_counts": {cat: {k: tags[cat][k] for k in ("tp", "fp", "fn")} for cat in tags},
    }


# ---------------------------------------------------------------------------
# draft reader oracle

SPAN_FIELDS = {
    "voice_over_track": ("text", "target_start", "target_end"),
    "video_nodes_track": ("index", "target_start", "target_end", "source_start"),
}


def _read_span_field(span: dict, name: str) -> tuple[bool, object]:
    """``(True, value read)`` if the draft reader must accept ``span[name]``, else ``(False, None)``."""
    if name not in span:
        return False, None
    value = span[name]
    if name == "text":
        return type(value) is str, value
    if type(value) is float and name != "index":  # a time may be a float of whole milliseconds
        if value % 1 != 0:  # NaN % 1 is NaN, so NaN fails here too
            return False, None
        value = int(value)
    if type(value) is not int or value < 0:
        return False, None
    return True, value


def expected_draft_read(doc: dict) -> tuple[dict | None, str | None, list[str]]:
    """What reading a draft document with a well-formed decoration must give,
    as ``(tracks, error_path, warned)``.

    ``tracks`` maps each track name to its spans as tuples of field values in
    protocol key order, or is None when the reader must raise at
    ``error_path``, the first bad field in track, span and protocol key order.
    ``warned`` holds the path of each span with a key outside the protocol,
    up to and including the span that fails."""
    tracks, warned = {}, []
    for track, names in SPAN_FIELDS.items():
        spans = []
        for i, span in enumerate(doc[track]):
            at = f"$.{track}[{i}]"
            if set(span) - set(names):
                warned.append(at)
            values = []
            for name in names:
                ok, value = _read_span_field(span, name)
                if not ok:
                    return None, f"{at}.{name}", warned
                values.append(value)
            spans.append(tuple(values))
        tracks[track] = spans
    return tracks, None, warned


# ---------------------------------------------------------------------------
# VSR and embed oracles: the per-pair and per-vector arithmetic the library
# must match bit for bit


def reference_unit_vector(text: str, seed: int) -> np.ndarray:
    """The mock's hashed embedding of ``text``, normalized by ``np.linalg.norm``."""
    key = hashlib.sha256(f"{seed}\x1f{text}".encode("utf-8")).digest()
    v = np.random.default_rng(int.from_bytes(key[:8], "big") % (2**63)).standard_normal(32)
    return v / np.linalg.norm(v)


def packed_vectors(rows: list[list[float]]) -> dict:
    """An embed answer holding ``rows``, each a list of the same length, packed by ``struct``."""
    flat = [x for row in rows for x in row]
    return {"dim": len(rows[0]), "vectors": binascii.b2a_base64(struct.pack(f"<{len(flat)}d", *flat),
                                                                 newline=False).decode("ascii")}


def unpacked_vectors(answer: dict) -> list[list[float]]:
    """The vectors of a well-formed embed answer, unpacked by ``struct``."""
    dim, raw = answer["dim"], binascii.a2b_base64(answer["vectors"])
    flat = struct.unpack(f"<{len(raw) // 8}d", raw)
    return [list(flat[i:i + dim]) for i in range(0, len(flat), dim)]


def reference_embed(inputs: list[str], client: Client) -> list[np.ndarray]:
    """The packed answer unpacked by ``struct``, and each vector checked, normalized and
    copied on its own; any misshapen answer is an :class:`InvalidResponse`."""
    if not inputs:
        raise ValueError("embed requires at least one input")
    data = client.call({"inputs": list(inputs)}).data
    dim = data.get("dim") if type(data) is dict else None
    text = data.get("vectors") if type(data) is dict else None
    if type(dim) is not int or dim < 1 or type(text) is not str:
        raise InvalidResponse(client.role, "misshapen answer")
    try:
        raw = binascii.a2b_base64(text.encode("ascii"), strict_mode=True)
    except (UnicodeEncodeError, binascii.Error):
        raise InvalidResponse(client.role, "vectors is not base64") from None
    if len(raw) != 8 * dim * len(inputs):
        raise InvalidResponse(client.role, "wrong byte count")
    vectors = [struct.unpack(f"<{dim}d", raw[8 * dim * i: 8 * dim * (i + 1)]) for i in range(len(inputs))]
    if not all(math.isfinite(x) for v in vectors for x in v):
        raise InvalidResponse(client.role, "a vector is not a list of finite numbers")

    out = []
    for v in vectors:
        arr = np.array(v, dtype=np.float64)
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise InvalidResponse(client.role, "zero vector cannot be normalized")
        if not math.isfinite(norm):
            raise InvalidResponse(client.role, "a vector's norm overflows")
        out.append(arr / norm)
    return out


def reference_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity with both norms taken per call; 0.0 for a zero vector."""
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def reference_vsr(sample, embed_client: Client) -> float:
    """VSR with two norms per sentence×frame pair."""
    draft = sample.predicted if sample.predicted is not None else sample.ground_truth
    sentences = [s.text for s in draft.voice_over_track]
    if not sentences:
        return 0.0
    script = " ".join(sentences)
    vectors = embed([script] + sentences + list(sample.frames), embed_client)
    script_vec = vectors[0]
    sentence_vecs = vectors[1 : 1 + len(sentences)]
    frame_vecs = vectors[1 + len(sentences) :]
    whole = reference_cosine(script_vec, np.mean(frame_vecs, axis=0))
    per_sentence = [max(reference_cosine(sv, fv) for fv in frame_vecs) for sv in sentence_vecs]
    return 100.0 * (whole + sum(per_sentence) / len(per_sentence)) / 2.0
