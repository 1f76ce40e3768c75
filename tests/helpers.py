"""Shared generators and independent oracles used across the test suite.

Oracles here deliberately use naive loops and set arithmetic so they stay
independent of the library code paths they check.
"""

import math
import random

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
