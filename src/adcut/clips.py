"""Source-clip metadata: the material set a draft selects from.

Frame indices and timestamps are computed from metadata only; no video
decoding happens here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .jsonutil import field, objects, read_object

MAX_FPS = 240.0  # the highest frame rate of a clip, and of a sampling pathway


@dataclass(frozen=True)
class ClipMeta:
    """Duration and frame-count metadata for one source clip; ``duration_ms``
    is the duration rounded to whole milliseconds, computed once here."""

    index: int
    duration_s: float
    frame_count: int
    duration_ms: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"clip index must be >= 0, got {self.index}")
        if self.frame_count < 1:
            raise ValueError(f"frame_count must be >= 1, got {self.frame_count}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        try:
            fps = self.native_fps
            object.__setattr__(self, "duration_ms", round(self.duration_s * 1000))
        except OverflowError:
            raise ValueError(f"clip {self.index}: frame_count or duration_s too large") from None
        if not 1.0 <= fps <= MAX_FPS:
            raise ValueError(f"native fps {fps:.3f} outside [1, {MAX_FPS:g}] for clip {self.index}")

    @property
    def native_fps(self) -> float:
        # the duration as a float, as sampling takes it, so a clip past the float range fails here
        return self.frame_count / float(self.duration_s)


class ClipSet:
    """Immutable set of clips addressable by index."""

    def __init__(self, clips: Iterable[ClipMeta]):
        self._by_index: dict[int, ClipMeta] = {}
        for clip in clips:
            if clip.index in self._by_index:
                raise ValueError(f"duplicate clip index {clip.index}")
            self._by_index[clip.index] = clip

    def __len__(self) -> int:
        return len(self._by_index)

    def __iter__(self) -> Iterator[ClipMeta]:
        return iter(sorted(self._by_index.values(), key=lambda c: c.index))

    def get(self, index: int) -> ClipMeta | None:
        return self._by_index.get(index)

    @classmethod
    def from_dict(cls, data: dict) -> "ClipSet":
        """The clips of ``{"clips": [{"index": int, "duration_s": float, "frame_count":
        int}, ...]}``, each field read by :func:`~adcut.jsonutil.field`."""
        return cls(
            ClipMeta(field(c, "index", int, at), field(c, "duration_s", float, at), field(c, "frame_count", int, at))
            for at, c in objects(data, "clips")
        )

    @classmethod
    def load(cls, path: str | Path) -> "ClipSet":
        return cls.from_dict(read_object(path))
