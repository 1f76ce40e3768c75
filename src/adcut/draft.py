"""The three-track JSON edit-draft protocol.

A draft has a voice-over track (timed sentences), a video-nodes track
(ordered clip placements) and a decoration setting (TTS / avatar / music
tags). All times are integer milliseconds. Parsing is strict about the
protocol shape; semantic rules (ordering, overlap, contiguity, tag and
clip references) are checked separately by :func:`validate_draft`, which
reports violations as data rather than raising.

A voice sentence or video node of the plain shape (a ``dict`` with no key
outside the protocol, ``text`` exactly ``str``, every index and time exactly
``int`` and ``>= 0``) is accepted by one test and built at once. Any other
span is read field by field, which is the only code that names an error, a
path or an unknown key, or turns an integral float into an ``int``; so both
ways read a span alike. Validation builds a violation's path only when it
reports one.

Voice sentences and video nodes are slotted dataclasses, not frozen ones,
so that building one costs about a third as much. They compare and hash by
value, like every other record here, and no code assigns to a span after it
is built; a draft or render plan holding them stays frozen and hashable.

Canonical serialization emits a fixed key order and no insignificant
whitespace, so equal drafts always produce identical bytes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any, Iterable

from .clips import ClipSet
from .jsonutil import FieldError, MissingField, dumps_canonical, field, json_path, loads
from .taxonomy import TAG_FIELD_CATEGORY, TagTaxonomy, default_taxonomy

TOP_LEVEL_KEYS = ("voice_over_track", "video_nodes_track", "decoration_setting")
SENTENCE_KEYS = ("text", "target_start", "target_end")
NODE_KEYS = ("index", "target_start", "target_end", "source_start")
DECORATION_KEYS = tuple(TAG_FIELD_CATEGORY)
_SENTENCE_KEY_SET = frozenset(SENTENCE_KEYS)
_NODE_KEY_SET = frozenset(NODE_KEYS)


class DraftSyntaxError(ValueError):
    """Input is not well-formed JSON."""


class SchemaError(ValueError):
    """Document shape violates the protocol; carries the offending JSON path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


class TimeValueError(SchemaError):
    """A time field is negative, not finite or not a whole number of milliseconds."""


class UnknownKeyWarning(UserWarning):
    """Unknown key inside a protocol object (tolerated, dropped)."""


# unsafe_hash keeps hashing by value (so a Draft stays hashable); no code assigns to a span
@dataclass(slots=True, unsafe_hash=True)
class VoiceSentence:
    text: str
    target_start: int
    target_end: int


@dataclass(slots=True, unsafe_hash=True)
class VideoNode:
    index: int
    target_start: int
    target_end: int
    source_start: int

    @property
    def span_ms(self) -> int:
        return self.target_end - self.target_start


@dataclass(frozen=True)
class DecorationSetting:
    tts_tags: tuple[str, ...] = ()
    avatar_tags: tuple[str, ...] = ()
    music_tags: tuple[str, ...] = ()

    def tags_for(self, field_name: str) -> tuple[str, ...]:
        return getattr(self, field_name)

    def to_dict(self) -> dict:
        return {key: list(getattr(self, key)) for key in DECORATION_KEYS}


@dataclass(frozen=True)
class Draft:
    voice_over_track: tuple[VoiceSentence, ...]
    video_nodes_track: tuple[VideoNode, ...]
    decoration_setting: DecorationSetting = DecorationSetting()

    def clip_sequence(self) -> tuple[int, ...]:
        """Clip indices in playback order."""
        return tuple(n.index for n in self.video_nodes_track)


@dataclass(frozen=True)
class Violation:
    rule: str
    path: str
    message: str

    def to_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path, "message": self.message}


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}

    def to_dict(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_dict() for v in self.violations]}


# ---------------------------------------------------------------------------
# parsing


def parse_time(obj: Any, key: str | int, path: str) -> int:
    """``obj[key]`` read by :func:`~adcut.jsonutil.field` as a time: a non-negative,
    finite, integral number of milliseconds, an integral float becoming an
    ``int``. Any other number raises :class:`TimeValueError` at the field's path."""
    try:
        value = field(obj, key, int, path)
    except FieldError as exc:
        value = obj[key]
        if type(value) is not float:
            raise
        if not math.isfinite(value):
            raise TimeValueError(exc.path, f"time {value} is not a finite number") from None
        if not value.is_integer():
            raise TimeValueError(exc.path, f"time {value} has a fractional millisecond part") from None
        value = int(value)
    if value < 0:
        raise TimeValueError(json_path(path, key), f"time must be non-negative, got {value}")
    return value


def _warn_unknown(obj: dict, known: Iterable[str], path: str) -> None:
    for key in obj:
        if key not in known:
            # stacklevel 4 names the caller of parse_draft, past draft_from_dict
            warnings.warn(f"{path}.{key}: unknown key ignored", UnknownKeyWarning, stacklevel=4)


def parse_draft(data: bytes | str) -> Draft:
    """Parse draft JSON into a :class:`Draft`.

    Raises :class:`DraftSyntaxError` ``malformed JSON: <reason>`` for what
    :func:`~adcut.jsonutil.loads` rejects, and otherwise whatever
    :func:`draft_from_dict` raises or warns.
    """
    try:
        doc = loads(data)
    except ValueError as exc:
        raise DraftSyntaxError(f"malformed JSON: {exc}") from exc
    return draft_from_dict(doc)


def draft_from_dict(doc: Any) -> Draft:
    """Build a :class:`Draft` from an already decoded JSON value.

    Raises :class:`SchemaError` (with JSON path) for shape violations,
    including unknown top-level keys. Unknown keys inside nested objects
    only emit an :class:`UnknownKeyWarning`.
    """
    if type(doc) is not dict:
        raise SchemaError("$", f"expected dict, got {type(doc).__name__}")
    for key in doc:
        if key not in TOP_LEVEL_KEYS:
            raise SchemaError(f"$.{key}", "unknown top-level key")
    try:
        sentences = []
        track = field(doc, "voice_over_track", list, "$")
        for i, obj in enumerate(track):
            # a span of the plain shape is built at once; any other is read field by field below
            if type(obj) is dict and obj.keys() <= _SENTENCE_KEY_SET:
                text, start, end = obj.get("text"), obj.get("target_start"), obj.get("target_end")
                if type(text) is str and type(start) is int and type(end) is int and start >= 0 and end >= 0:
                    sentences.append(VoiceSentence(text, start, end))
                    continue
            obj = field(track, i, dict, "$.voice_over_track")
            path = f"$.voice_over_track[{i}]"
            _warn_unknown(obj, SENTENCE_KEYS, path)
            sentences.append(VoiceSentence(
                field(obj, "text", str, path), parse_time(obj, "target_start", path), parse_time(obj, "target_end", path)
            ))

        nodes = []
        track = field(doc, "video_nodes_track", list, "$")
        for i, obj in enumerate(track):
            if type(obj) is dict and obj.keys() <= _NODE_KEY_SET:
                index, start, end, source = (
                    obj.get("index"), obj.get("target_start"), obj.get("target_end"), obj.get("source_start")
                )
                if (type(index) is int and type(start) is int and type(end) is int and type(source) is int
                        and index >= 0 and start >= 0 and end >= 0 and source >= 0):
                    nodes.append(VideoNode(index, start, end, source))
                    continue
            obj = field(track, i, dict, "$.video_nodes_track")
            path = f"$.video_nodes_track[{i}]"
            _warn_unknown(obj, NODE_KEYS, path)
            index = field(obj, "index", int, path)
            if index < 0:
                raise SchemaError(f"{path}.index", f"clip index must be >= 0, got {index}")
            nodes.append(VideoNode(
                index,
                parse_time(obj, "target_start", path),
                parse_time(obj, "target_end", path),
                parse_time(obj, "source_start", path),
            ))

        path = "$.decoration_setting"
        deco = field(doc, "decoration_setting", dict, "$")
        _warn_unknown(deco, DECORATION_KEYS, path)
        tags = {}
        for key in DECORATION_KEYS:
            items = field(deco, key, list, path)
            tags[key] = tuple(field(items, j, str, f"{path}.{key}") for j in range(len(items)))
    except FieldError as exc:
        raise SchemaError(exc.path, exc.reason) from None
    except MissingField as exc:
        raise SchemaError(exc.path, "missing required field") from None
    return Draft(tuple(sentences), tuple(nodes), DecorationSetting(**tags))


# ---------------------------------------------------------------------------
# serialization


def draft_to_dict(d: Draft) -> dict:
    """Plain dict with the canonical key order."""
    return {
        "voice_over_track": [
            {"text": s.text, "target_start": s.target_start, "target_end": s.target_end} for s in d.voice_over_track
        ],
        "video_nodes_track": [
            {"index": n.index, "target_start": n.target_start, "target_end": n.target_end,
             "source_start": n.source_start}
            for n in d.video_nodes_track
        ],
        "decoration_setting": d.decoration_setting.to_dict(),
    }


def serialize_draft(d: Draft) -> bytes:
    """Canonical JSON bytes; stable across runs, injective on drafts."""
    return dumps_canonical(draft_to_dict(d))


# ---------------------------------------------------------------------------
# validation


def _check_neighbours(track: tuple[VoiceSentence, ...] | tuple[VideoNode, ...], key: str, name: str,
                      out: list[Violation]) -> None:
    """Report ``<name>_order`` and ``<name>_overlap`` between neighbouring
    spans of the track at ``$.<key>`` and, on the video-nodes track, a gap
    between them as ``<name>_gap``."""
    nodes = key == "video_nodes_track"
    noun = "node" if nodes else "sentence"
    for i in range(1, len(track)):
        prev, cur = track[i - 1], track[i]
        if cur.target_start < prev.target_start:
            out.append(Violation(f"{name}_order", f"$.{key}[{i}]", f"{noun}s not sorted by target_start"))
        elif cur.target_start < prev.target_end:
            out.append(Violation(
                f"{name}_overlap",
                f"$.{key}[{i}]",
                f"{noun} starts at {cur.target_start} before previous ends at {prev.target_end}",
            ))
        elif nodes and cur.target_start > prev.target_end:
            out.append(Violation(
                f"{name}_gap",
                f"$.{key}[{i}]",
                f"gap of {cur.target_start - prev.target_end} ms after previous node",
            ))


def _check_voice(track: tuple[VoiceSentence, ...], out: list[Violation]) -> None:
    for i, s in enumerate(track):
        if not s.text.strip():
            out.append(Violation("voice_empty_text", f"$.voice_over_track[{i}].text", "sentence text is empty"))
        if s.target_start >= s.target_end:
            out.append(Violation(
                "voice_time_order",
                f"$.voice_over_track[{i}]",
                f"target_start {s.target_start} must be < target_end {s.target_end}",
            ))
    _check_neighbours(track, "voice_over_track", "voice", out)


def _check_nodes(track: tuple[VideoNode, ...], clips: ClipSet | None, out: list[Violation]) -> None:
    seen: dict[int, int] = {}
    for i, n in enumerate(track):
        if n.target_start >= n.target_end:
            out.append(Violation(
                "node_time_order",
                f"$.video_nodes_track[{i}]",
                f"target_start {n.target_start} must be < target_end {n.target_end}",
            ))
        if n.index in seen:
            out.append(Violation(
                "duplicate_clip_index",
                f"$.video_nodes_track[{i}].index",
                f"clip {n.index} already used by node {seen[n.index]}",
            ))
        else:
            seen[n.index] = i
        if clips is not None:
            clip = clips.get(n.index)
            if clip is None:
                out.append(Violation(
                    "unknown_clip_index",
                    f"$.video_nodes_track[{i}].index",
                    f"clip {n.index} not in the {len(clips)}-clip set",
                ))
            elif n.source_start + n.span_ms > clip.duration_ms:
                out.append(Violation(
                    "clip_overrun",
                    f"$.video_nodes_track[{i}]",
                    f"needs {n.source_start + n.span_ms} ms from a {clip.duration_ms} ms clip",
                ))
    _check_neighbours(track, "video_nodes_track", "node", out)


def _check_decoration(deco: DecorationSetting, taxonomy: TagTaxonomy, out: list[Violation]) -> None:
    for field_name, category in TAG_FIELD_CATEGORY.items():
        tags = deco.tags_for(field_name)
        known = taxonomy.labels(category)
        seen: set[str] = set()
        for i, tag in enumerate(tags):
            if tag in seen:
                out.append(Violation(
                    "duplicate_tag", f"$.decoration_setting.{field_name}[{i}]", f"{tag!r} repeated in {field_name}"
                ))
            seen.add(tag)
            if tag not in known:
                out.append(Violation(
                    "unknown_tag", f"$.decoration_setting.{field_name}[{i}]", f"{tag!r} is not a {category} label"
                ))


def validate_draft(
    d: Draft,
    clips: ClipSet | None = None,
    taxonomy: TagTaxonomy | None = None,
) -> ValidationReport:
    """Check every semantic invariant; violations are data, never raised.

    Clip-bound checks run only when ``clips`` is provided. With no explicit
    taxonomy, tags are checked against the bundled default.
    """
    if taxonomy is None:
        taxonomy = default_taxonomy()
    out: list[Violation] = []
    _check_voice(d.voice_over_track, out)
    _check_nodes(d.video_nodes_track, clips, out)
    _check_decoration(d.decoration_setting, taxonomy, out)
    return ValidationReport(tuple(out))
