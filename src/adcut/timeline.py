"""Post-processing a draft into a renderable plan.

The voice track is authoritative: each sentence span is replaced by its
realized TTS duration and sentences are packed gaplessly from time zero.
Video nodes are rescaled by the realized/drafted duration ratio of the
sentences they overlap in the draft (a node overlapping no sentence keeps
its drafted length) and re-packed gaplessly. The cumulative boundary is
kept exact as an integer numerator and denominator, and each one is
rounded half up to the nearest millisecond once, so rounding never
drifts and the final node absorbs the residue. Decoration tags resolve
against an asset catalog by maximum label overlap.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path

from .clips import ClipSet
from .draft import (
    Draft,
    ValidationReport,
    VideoNode,
    Violation,
    VoiceSentence,
    _check_neighbours,
    parse_time,
)
from .jsonutil import dumps_canonical, field, objects, read_object
from .taxonomy import CATEGORIES, TagTaxonomy, default_taxonomy


class AlignmentError(RuntimeError):
    pass


class LengthMismatch(AlignmentError):
    def __init__(self, sentences: int, durations: int):
        super().__init__(f"draft has {sentences} sentences but TTS realized {durations} durations")


class ClipTooShort(AlignmentError):
    """A node's aligned span runs past the end of its source clip."""

    def __init__(self, node_index: int, clip_index: int, shortfall_ms: int):
        super().__init__(
            f"node {node_index} (clip {clip_index}) needs {shortfall_ms} ms more source footage"
        )
        self.node_index = node_index
        self.clip_index = clip_index
        self.shortfall_ms = shortfall_ms


class NoCandidate(AlignmentError):
    def __init__(self, category: str):
        super().__init__(f"asset catalog has no {category} entries")
        self.category = category


@dataclass(frozen=True)
class TtsRealization:
    """Realized per-sentence durations, positionally aligned with the voice track."""

    durations_ms: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, d in enumerate(self.durations_ms):
            if type(d) is not int:
                raise ValueError(f"realized duration [{i}] must be integer milliseconds, got {d!r}")
            if d <= 0:
                raise ValueError(f"realized duration [{i}] must be > 0, got {d}")

    def __len__(self) -> int:
        return len(self.durations_ms)

    @classmethod
    def load(cls, path: str | Path) -> "TtsRealization":
        """The realization a ``{"durations_ms": [...]}`` file holds, each duration
        read by :func:`~adcut.draft.parse_time`."""
        durations = field(read_object(path), "durations_ms", list)
        return cls(tuple(parse_time(durations, i, "durations_ms") for i in range(len(durations))))


@dataclass(frozen=True)
class AssetEntry:
    asset_id: str
    category: str
    labels: tuple[str, ...]
    uri: str


class AssetCatalog:
    """Assets checked against the taxonomy and indexed once, as every request reads them:
    ``candidates`` maps each category to its ``(asset_id, frozenset(labels))`` pairs in
    catalog order, and ``ids`` is the set of every ``asset_id``."""

    def __init__(self, entries: list[AssetEntry], taxonomy: TagTaxonomy | None = None):
        taxonomy = taxonomy or default_taxonomy()
        seen: set[str] = set()
        for e in entries:
            if e.category not in CATEGORIES:
                raise ValueError(f"asset {e.asset_id}: unknown category {e.category!r}")
            if e.asset_id in seen:
                raise ValueError(f"duplicate asset_id {e.asset_id!r}")
            seen.add(e.asset_id)
            for label in e.labels:
                if (e.category, label) not in taxonomy:
                    raise ValueError(f"asset {e.asset_id}: {label!r} is not a {e.category} label")
        self.entries = tuple(entries)
        self.candidates = {
            category: tuple((e.asset_id, frozenset(e.labels)) for e in self.entries if e.category == category)
            for category in CATEGORIES
        }
        self.ids = frozenset(seen)

    @classmethod
    def load(cls, path: str | Path, taxonomy: TagTaxonomy | None = None) -> "AssetCatalog":
        """The catalog a ``{"assets": [...]}`` file holds; ``labels`` (strings)
        and ``uri`` may be left out, ``asset_id`` and ``category`` are strings."""
        entries = [
            AssetEntry(
                asset_id=field(e, "asset_id", str, at),
                category=field(e, "category", str, at),
                labels=tuple(field(e, "labels", list, at, str, default=())),
                uri=field(e, "uri", str, at, default=""),
            )
            for at, e in objects(read_object(path), "assets")
        ]
        return cls(entries, taxonomy)


@dataclass(frozen=True)
class ResolvedAssets:
    tts_asset: str
    music_asset: str
    avatar_asset: str | None = None

    def to_dict(self) -> dict:
        return {
            "tts_asset": self.tts_asset,
            "avatar_asset": self.avatar_asset,
            "music_asset": self.music_asset,
        }


@dataclass(frozen=True)
class RenderPlan:
    voice_over_track: tuple[VoiceSentence, ...]
    video_nodes_track: tuple[VideoNode, ...]
    total_duration: int
    assets: ResolvedAssets | None = None

    def with_assets(self, assets: ResolvedAssets) -> "RenderPlan":
        return RenderPlan(self.voice_over_track, self.video_nodes_track, self.total_duration, assets)


# the canonical bytes of a render plan, as dumps_canonical writes its dict form: texts
# escaped by the encoder's own escaper, integers as %d and the assets object by the encoder
_VOICE = '{"text":%s,"target_start":%d,"target_end":%d}'
_NODE = '{"index":%d,"target_start":%d,"target_end":%d,"source_start":%d}'
_PLAN = b'{"voice_over_track":[%s],"video_nodes_track":[%s],"assets":%s,"total_duration":%d}'


def serialize_plan(plan: RenderPlan) -> bytes:
    """Canonical JSON bytes of ``plan``: its voice and node tracks in draft layout, then
    ``assets`` (``null`` when unresolved) and ``total_duration``."""
    voice = ",".join([_VOICE % (encode_basestring(s.text), s.target_start, s.target_end)
                      for s in plan.voice_over_track])
    nodes = ",".join([_NODE % (n.index, n.target_start, n.target_end, n.source_start)
                      for n in plan.video_nodes_track])
    assets = dumps_canonical(plan.assets.to_dict()) if plan.assets is not None else b"null"
    return _PLAN % (voice.encode("utf-8"), nodes.encode("utf-8"), assets, plan.total_duration)


def align_draft(d: Draft, tts: TtsRealization, clips: ClipSet) -> RenderPlan:
    """Reconcile a validated draft with realized TTS durations.

    The caller is expected to have run ``validate_draft`` with zero
    violations; alignment relies on what that guarantees: both tracks are
    sorted, free of overlaps and made of non-empty spans. The sentences a
    node overlaps are then one contiguous run, found by bisection, and
    prefix sums give their drafted and realized totals. Each node costs
    O(log m) for m sentences, plus work linear in the size of the exact
    boundary's denominator, the lcm of the drafted runs met so far.
    Raises :class:`LengthMismatch` or :class:`ClipTooShort`.
    """
    sentences = d.voice_over_track
    if len(tts) != len(sentences):
        raise LengthMismatch(len(sentences), len(tts))

    voice: list[VoiceSentence] = []
    starts: list[int] = []
    ends: list[int] = []
    drafted_before = [0]  # drafted_before[i]: drafted ms of sentences [0, i)
    realized_before = [0]
    at = 0
    for s, dur in zip(sentences, tts.durations_ms):
        voice.append(VoiceSentence(s.text, at, at + dur))
        at += dur
        starts.append(s.target_start)
        ends.append(s.target_end)
        drafted_before.append(drafted_before[-1] + s.target_end - s.target_start)
        realized_before.append(at)

    nodes: list[VideoNode] = []
    # the exact boundary is whole + num/den ms with 0 <= num < den, den the
    # lcm of the drafted runs whose term left a remainder
    whole, num, den = 0, 0, 1
    prev_end = 0
    for node_pos, node in enumerate(d.video_nodes_track):
        # overlapping sentences: those ending after the node starts and
        # starting before it ends
        lo = bisect_right(ends, node.target_start)
        hi = bisect_left(starts, node.target_end)
        if lo < hi:
            # add span * realized / drafted
            drafted = drafted_before[hi] - drafted_before[lo]
            q, r = divmod(node.span_ms * (realized_before[hi] - realized_before[lo]), drafted)
            whole += q
            if r:
                g = math.gcd(den % drafted, drafted)
                num = num * (drafted // g) + r * (den // g)
                den *= drafted // g
                if num >= den:  # both parts were below 1 ms, so one carry restores num < den
                    whole += 1
                    num -= den
        else:
            whole += node.span_ms
        end = whole + (2 * num >= den)  # round half up
        new_span = end - prev_end
        clip = clips.get(node.index)
        if clip is not None:
            available = clip.duration_ms - node.source_start
            if new_span > available:
                raise ClipTooShort(node_pos, node.index, new_span - available)
        nodes.append(VideoNode(node.index, prev_end, end, node.source_start))
        prev_end = end

    return RenderPlan(
        voice_over_track=tuple(voice),
        video_nodes_track=tuple(nodes),
        total_duration=prev_end,
    )


def match_decorations(d: Draft, catalog: AssetCatalog) -> ResolvedAssets:
    """Pick one asset per category by maximum tag overlap.

    Ties break on the lexicographically smallest asset_id; the avatar slot
    stays empty when the draft carries no avatar tags.
    """

    def best(category: str, tags: tuple[str, ...]) -> str:
        candidates = catalog.candidates[category]
        if not candidates:
            raise NoCandidate(category)
        tag_set = set(tags)
        return min(candidates, key=lambda c: (-len(tag_set & c[1]), c[0]))[0]

    deco = d.decoration_setting
    avatar = best("Avatar", deco.avatar_tags) if deco.avatar_tags else None
    return ResolvedAssets(
        tts_asset=best("TTS", deco.tts_tags),
        music_asset=best("Music", deco.music_tags),
        avatar_asset=avatar,
    )


def check_alignment(plan: RenderPlan, catalog: AssetCatalog | None = None) -> ValidationReport:
    """Re-verify every RenderPlan invariant; empty report means valid."""
    out: list[Violation] = []

    for key, name in (("voice_over_track", "plan_voice"), ("video_nodes_track", "plan_node")):
        track = getattr(plan, key)
        for i, span in enumerate(track):
            if span.target_start >= span.target_end:
                out.append(Violation(f"{name}_time_order", f"$.{key}[{i}]", "empty or inverted span"))
        _check_neighbours(track, key, name, out)

    voice, nodes = plan.voice_over_track, plan.video_nodes_track
    expected_total = nodes[-1].target_end if nodes else 0
    if plan.total_duration != expected_total:
        out.append(
            Violation(
                "total_duration_mismatch",
                "$.total_duration",
                f"total {plan.total_duration} != last node end {expected_total}",
            )
        )
    if voice and voice[-1].target_end > plan.total_duration:
        out.append(
            Violation(
                "voice_past_end",
                f"$.voice_over_track[{len(voice) - 1}]",
                f"voice ends at {voice[-1].target_end}, video at {plan.total_duration}",
            )
        )

    if plan.assets is not None and catalog is not None:
        known = catalog.ids
        for slot, asset_id in plan.assets.to_dict().items():
            if asset_id is not None and asset_id not in known:
                out.append(Violation("unknown_asset", f"$.assets.{slot}", f"{asset_id!r} not in catalog"))

    return ValidationReport(tuple(out))
