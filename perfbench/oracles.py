"""Output checks that share no code with ``adcut``.

Each check reads the program's output bytes with the standard ``json``
module and recomputes what it must hold with plain loops, then returns a
list of problems (empty when the output is correct).
"""

from __future__ import annotations

import json
import math

DTPR_FIELDS = {"TTS": "tts_tags", "Avatar": "avatar_tags", "Music": "music_tags"}


def _lines(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.splitlines() if line.strip()]


def _clips_and_tags(draft: dict) -> tuple[list[int], dict[str, set[str]]]:
    clips = [node["index"] for node in draft["video_nodes_track"]]
    return clips, {c: set(draft["decoration_setting"][f]) for c, f in DTPR_FIELDS.items()}


def _predicted(draft_json: str) -> tuple[list[int], dict[str, set[str]]] | None:
    """Clip sequence and tag sets of a prediction; None if it does not parse."""
    try:
        return _clips_and_tags(json.loads(draft_json))
    except (ValueError, KeyError, TypeError):
        return None


def recount(corpus: bytes, predictions: bytes) -> dict:
    """CRA, CSA and DTPR counted naively from the corpus and prediction files."""
    predicted = {entry["sample_id"]: _predicted(entry["draft_json"]) for entry in _lines(predictions)}
    total = rank = clean = 0
    tags = {c: {"tp": 0, "fp": 0, "fn": 0} for c in DTPR_FIELDS}
    for sample in _lines(corpus):
        total += 1
        truth_seq, truth_tags = _clips_and_tags(sample["ground_truth"])
        pred = predicted[sample["sample_id"]]
        if pred is not None:
            if pred[0] == truth_seq:
                rank += 1
            if not any(i in sample["negatives"] for i in pred[0]):
                clean += 1
        for category in DTPR_FIELDS:
            want = truth_tags[category]
            got = pred[1][category] if pred is not None else set()
            tags[category]["tp"] += len(want & got)
            tags[category]["fp"] += len(got - want)
            tags[category]["fn"] += len(want - got)
    precisions = [100.0 * t["tp"] / (t["tp"] + t["fp"]) for t in tags.values() if t["tp"] + t["fp"]]
    recalls = [100.0 * t["tp"] / (t["tp"] + t["fn"]) for t in tags.values() if t["tp"] + t["fn"]]
    return {
        "total": total,
        "rank_correct": rank,
        "selection_clean": clean,
        "cra": 100.0 * rank / total,
        "csa": 100.0 * clean / total,
        "tags": tags,
        "precision": sum(precisions) / len(precisions) if precisions else None,
        "recall": sum(recalls) / len(recalls) if recalls else None,
    }


def _same(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check_report(corpus: bytes, predictions: bytes, report: bytes) -> list[str]:
    """Compare an ``evaluate --with-judge --with-vsr`` report with a recount."""
    try:
        got = json.loads(report)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    want = recount(corpus, predictions)
    problems = []
    counts = got.get("counts", {})
    for key in ("total", "rank_correct", "selection_clean"):
        if counts.get(key) != want[key]:
            problems.append(f"counts.{key}: report {counts.get(key)} != recount {want[key]}")
    for key in ("cra", "csa"):
        if not _same(got.get(key), want[key]):
            problems.append(f"{key}: report {got.get(key)} != recount {want[key]}")
    dtpr = got.get("dtpr", {})
    for key in ("precision", "recall"):
        if not _same(dtpr.get(key), want[key]):
            problems.append(f"dtpr.{key}: report {dtpr.get(key)} != recount {want[key]}")
    for category, t in want["tags"].items():
        entry = dtpr.get("per_category", {}).get(category, {})
        if any(entry.get(k) != t[k] for k in t):
            problems.append(f"dtpr.{category}: report {entry} != recount {t}")
    for key in ("fpf", "sq", "vsr"):
        value = got.get(key)
        if not isinstance(value, (int, float)) or not -100.0 <= value <= 100.0:
            problems.append(f"{key}: expected a score in [-100, 100], got {value!r}")
    return problems


# ---------------------------------------------------------------------------
# edit


def fast_frames(clips: dict, fps: float) -> int:
    """Fast-pathway frame total at ``fps``: one frame for a clip shorter than
    one interval, else round-half-up(duration * fps) capped at the clip's
    frame count."""
    total = 0
    for clip in clips["clips"]:
        t, frames = clip["duration_s"], clip["frame_count"]
        total += 1 if t < 1.0 / fps else min(math.floor(t * fps + 0.5), frames)
    return total


def expected_reduction(clips: dict, fps: float, ceiling: int) -> tuple[int, int]:
    """Smallest power-of-two divisor of ``fps`` whose fast total fits the
    ceiling, with that total."""
    reduction = 1
    while fast_frames(clips, fps / reduction) > ceiling:
        reduction *= 2
    return reduction, fast_frames(clips, fps / reduction)


def check_render_plan(plan_bytes: bytes, draft: bytes, tts_ms: tuple[int, ...]) -> list[str]:
    """Voice packed from zero with the realized durations; nodes packed from
    zero in draft order; total equals the last node's end and covers the voice."""
    plan = json.loads(plan_bytes)
    source = json.loads(draft)
    problems = []
    at = 0
    voice = plan["voice_over_track"]
    if len(voice) != len(tts_ms):
        problems.append(f"{len(voice)} sentences for {len(tts_ms)} TTS durations")
    for i, (sentence, ms) in enumerate(zip(voice, tts_ms)):
        if sentence["target_start"] != at or sentence["target_end"] != at + ms:
            problems.append(f"voice[{i}] spans {sentence['target_start']}-{sentence['target_end']}, want {at}-{at + ms}")
        at += ms
    voice_end = voice[-1]["target_end"] if voice else 0
    if voice_end != sum(tts_ms):
        problems.append(f"voice ends at {voice_end}, TTS durations sum to {sum(tts_ms)}")
    at = 0
    nodes = plan["video_nodes_track"]
    if [n["index"] for n in nodes] != [n["index"] for n in source["video_nodes_track"]]:
        problems.append("node clip order differs from the draft")
    for i, node in enumerate(nodes):
        if node["target_start"] != at or node["target_end"] <= at:
            problems.append(f"node[{i}] is not packed after {at}")
        at = node["target_end"]
    if plan["total_duration"] != at or at < sum(tts_ms):
        problems.append(f"total {plan['total_duration']} vs last node end {at} and voice {sum(tts_ms)}")
    assets = plan.get("assets") or {}
    if not assets.get("tts_asset") or not assets.get("music_asset"):
        problems.append(f"unresolved assets {assets}")
    return problems
