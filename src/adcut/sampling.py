"""Denser slow-fast frame sampling and token budgeting.

Two pathways sample each clip: a fast one (dense frames, few tokens per
frame) and a slow one (sparse frames, many tokens per frame). A clip
shorter than one sampling interval contributes its middle frame only;
otherwise round(duration * fps) frames are taken uniformly. Requests are
capped at a total fast-frame ceiling (default 600) enforced by halving the
effective fast fps; the slow pathway never samples faster than the halved
fast one, so it stays under the ceiling too. A clip's frame count has a
closed form (:func:`frame_totals`), so a request's reduction factor is found
from counts alone: each halving is one pass that counts each clip at most
once and stops as soon as the running total goes over the ceiling, and the
plan keeps the counts of the pass that fits (the slow pathway reuses them
when it samples at the fast rate). A plan is counts first: it stores its
clips and each pathway's per-clip frame counts; its per-clip records are
built on first read, and their frame indices and timestamps on each read.

Also provides the two numeric reference ops for visual-token compression:
query squeezing (1-D group means) and 2-D average pooling. They use only
the methods of the arrays they are given, so this module never imports
``numpy`` at run time; ``adcut plan`` does not load it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .clips import MAX_FPS, ClipMeta, ClipSet

if TYPE_CHECKING:
    from collections.abc import Iterable

    import numpy as np

DEFAULT_FRAME_CEILING = 600
DEFAULT_SAMPLING_PRESET = "fast:2/4,slow:0.5/16"
MAX_TOKENS_PER_FRAME = 65536  # a pathway's bound, so a plan's token totals stay printable integers


class PresetError(ValueError):
    """Unparseable fps/token preset string."""


class NonDivisible(ValueError):
    """Group size does not divide the dimension being compressed."""


class CeilingUnsatisfiable(RuntimeError):
    """More clips than the frame ceiling allows even at one frame each."""

    def __init__(self, clip_count: int, ceiling: int):
        super().__init__(f"{clip_count} clips cannot fit a {ceiling}-frame ceiling at one frame per clip")
        self.clip_count = clip_count
        self.ceiling = ceiling


@dataclass(frozen=True)
class PathwayConfig:
    fps: float
    tokens_per_frame: int

    def __post_init__(self) -> None:
        if self.fps <= 0:
            raise ValueError(f"fps must be > 0, got {self.fps}")
        if not self.fps <= MAX_FPS:  # also inf; so fps * a valid clip's duration stays a finite float
            raise ValueError(f"fps must be <= {MAX_FPS:g}, got {self.fps}")
        if self.tokens_per_frame < 1:
            raise ValueError(f"tokens_per_frame must be >= 1, got {self.tokens_per_frame}")
        if self.tokens_per_frame > MAX_TOKENS_PER_FRAME:
            raise ValueError(f"tokens_per_frame must be <= {MAX_TOKENS_PER_FRAME}, got {self.tokens_per_frame}")


@dataclass(frozen=True)
class SlowFastConfig:
    fast: PathwayConfig
    slow: PathwayConfig
    frame_ceiling: int = DEFAULT_FRAME_CEILING

    def __post_init__(self) -> None:
        if self.fast.fps < self.slow.fps:
            raise ValueError("fast pathway must sample at least as densely as slow")
        if self.fast.tokens_per_frame > self.slow.tokens_per_frame:
            raise ValueError("fast pathway must use at most as many tokens per frame as slow")
        if self.frame_ceiling < 1:
            raise ValueError("frame_ceiling must be >= 1")

    def to_dict(self) -> dict:
        return {
            "fast": {"fps": self.fast.fps, "tokens_per_frame": self.fast.tokens_per_frame},
            "slow": {"fps": self.slow.fps, "tokens_per_frame": self.slow.tokens_per_frame},
            "frame_ceiling": self.frame_ceiling,
        }


_PRESET_PAIR = re.compile(r"^(?:(fast|slow):)?(\d+(?:\.\d+)?)/(\d+)$")


def parse_preset(text: str) -> SlowFastConfig:
    """Parse a preset such as ``fast:2/4,slow:0.5/16`` (comma or space separated).

    A single unnamed ``fps/token`` pair configures both pathways identically
    (single-pathway operation).
    """
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    if not parts:
        raise PresetError("empty preset")
    pathways: dict[str, PathwayConfig] = {}
    unnamed: PathwayConfig | None = None
    for part in parts:
        m = _PRESET_PAIR.match(part)
        if not m:
            raise PresetError(f"cannot parse preset component {part!r} (want name:fps/tokens)")
        name, fps, tokens = m.group(1), float(m.group(2)), m.group(3).lstrip("0") or "0"
        if len(tokens) > len(str(MAX_TOKENS_PER_FRAME)):  # so int() never meets its digit limit
            raise PresetError(f"tokens_per_frame must be <= {MAX_TOKENS_PER_FRAME}, got {tokens}")
        cfg = PathwayConfig(fps=fps, tokens_per_frame=int(tokens))
        if name is None:
            if unnamed is not None:
                raise PresetError("unnamed fps/token pair must be the only component")
            unnamed = cfg
        elif name in pathways:
            raise PresetError(f"duplicate {name} pathway in preset")
        else:
            pathways[name] = cfg
    if unnamed is not None:
        if pathways:
            raise PresetError("unnamed fps/token pair must be the only component")
        return SlowFastConfig(fast=unnamed, slow=unnamed)
    if set(pathways) != {"fast", "slow"}:
        missing = {"fast", "slow"} - set(pathways)
        raise PresetError(f"preset missing pathway(s): {', '.join(sorted(missing))}")
    return SlowFastConfig(fast=pathways["fast"], slow=pathways["slow"])


# ---------------------------------------------------------------------------
# frame sampling


def frame_totals(clips: Iterable[ClipMeta], fps: float, limit: int | None = None) -> list[int] | None:
    """Number of frames :func:`sample_frames` takes from each clip at ``fps``.

    One for a clip shorter than one interval; otherwise duration * fps
    rounded half up, clamped to the clip's frame count. Returns None as
    soon as the running total goes over ``limit``, so the clips after that
    point are never counted.
    """
    if fps <= 0:
        raise ValueError(f"fps must be > 0, got {fps}")
    interval = 1.0 / fps
    bound = math.inf if limit is None else limit
    counts = []
    total = 0
    for clip in clips:
        t = clip.duration_s
        n = 1 if t < interval else min(math.floor(t * fps + 0.5), clip.frame_count)
        total += n
        if total > bound:
            return None
        counts.append(n)
    return counts


def frame_total(clip: ClipMeta, fps: float) -> int:
    """Number of frames :func:`sample_frames` takes from ``clip`` at ``fps``."""
    return frame_totals((clip,), fps)[0]


def sample_frames(clip: ClipMeta, fps: float) -> list[int]:
    """Frame indices sampled from one clip at the given rate.

    Clips shorter than one interval fall back to the middle frame. The
    uniform branch takes :func:`frame_total` frames, so indices stay
    strictly increasing.
    """
    n = frame_total(clip, fps)
    total = clip.frame_count
    if clip.duration_s < 1.0 / fps:
        return [total // 2]
    return [math.floor(j * total / n) for j in range(n)]


def frame_timestamps(clip: ClipMeta, indices: list[int]) -> list[float]:
    """Seconds offset of each sampled frame within the clip."""
    native_fps = clip.native_fps
    return [i / native_fps for i in indices]


@dataclass(frozen=True)
class PathwaySample:
    """One pathway of one clip: ``frames`` frames at ``fps``, ``tokens`` tokens.

    The frame indices and their timestamps follow from the clip and the rate,
    so they are built on each read, never stored.
    """

    clip: ClipMeta
    fps: float
    frames: int
    tokens: int

    @property
    def frame_indices(self) -> tuple[int, ...]:
        return tuple(sample_frames(self.clip, self.fps))

    @property
    def timestamps_s(self) -> tuple[float, ...]:
        return tuple(frame_timestamps(self.clip, sample_frames(self.clip, self.fps)))

    def to_dict(self) -> dict:
        indices = sample_frames(self.clip, self.fps)
        return {
            "frame_indices": indices,
            "timestamps_s": frame_timestamps(self.clip, indices),
            "tokens": self.tokens,
        }


@dataclass(frozen=True)
class ClipPlan:
    index: int
    fast: PathwaySample
    slow: PathwaySample

    def to_dict(self) -> dict:
        return {"index": self.index, "fast": self.fast.to_dict(), "slow": self.slow.to_dict()}


def _clip_plan(
    clip: ClipMeta, cfg: SlowFastConfig, fast_fps: float, fast: int | None = None, slow: int | None = None
) -> ClipPlan:
    """``clip``'s pathways at ``fast_fps`` and at the slow rate capped by it, taking ``fast``
    and ``slow`` frames, each counted by :func:`frame_total` when not given."""
    slow_fps = min(cfg.slow.fps, fast_fps)
    fast = frame_total(clip, fast_fps) if fast is None else fast
    slow = frame_total(clip, slow_fps) if slow is None else slow
    return ClipPlan(
        clip.index,
        PathwaySample(clip, fast_fps, fast, cfg.fast.tokens_per_frame * fast),
        PathwaySample(clip, slow_fps, slow, cfg.slow.tokens_per_frame * slow),
    )


@dataclass(frozen=True)
class SamplingPlan:
    """A request's plan: its clips in clip-set order and, per clip, the frames
    each pathway takes. :attr:`clips` builds the per-clip records on first read."""

    config: SlowFastConfig
    effective_fast_fps: float
    reduction_factor: int
    metas: tuple[ClipMeta, ...]
    fast_frames: tuple[int, ...]
    slow_frames: tuple[int, ...]

    @cached_property
    def clips(self) -> tuple[ClipPlan, ...]:
        return tuple(
            _clip_plan(clip, self.config, self.effective_fast_fps, f, s)
            for clip, f, s in zip(self.metas, self.fast_frames, self.slow_frames)
        )

    @property
    def total_fast_frames(self) -> int:
        return sum(self.fast_frames)

    @property
    def total_slow_frames(self) -> int:
        return sum(self.slow_frames)

    @property
    def total_fast_tokens(self) -> int:
        return self.config.fast.tokens_per_frame * self.total_fast_frames

    @property
    def total_slow_tokens(self) -> int:
        return self.config.slow.tokens_per_frame * self.total_slow_frames

    def to_dict(self) -> dict:
        return {
            "preset": self.config.to_dict(),
            "effective_fast_fps": self.effective_fast_fps,
            "reduction_factor": self.reduction_factor,
            "clips": [c.to_dict() for c in self.clips],
            "totals": {
                "fast_frames": self.total_fast_frames,
                "slow_frames": self.total_slow_frames,
                "fast_tokens": self.total_fast_tokens,
                "slow_tokens": self.total_slow_tokens,
            },
        }


def plan_clip(clip: ClipMeta, cfg: SlowFastConfig, effective_fast_fps: float | None = None) -> ClipPlan:
    """Count both pathways' frames for one clip and attach token counts."""
    return _clip_plan(clip, cfg, cfg.fast.fps if effective_fast_fps is None else effective_fast_fps)


def plan_request(clips: ClipSet, cfg: SlowFastConfig) -> SamplingPlan:
    """Plan a whole request, halving the effective fast fps until the
    fast-frame total fits the ceiling. Clips are never dropped.

    Each halving is one :func:`frame_totals` pass that stops at the first
    clip that takes the total over the ceiling; the plan keeps the counts of
    the pass that fits, and the slow pathway reuses them when it samples at
    the fast rate.
    """
    if len(clips) == 0:
        raise ValueError("clip set is empty")
    if len(clips) > cfg.frame_ceiling:
        raise CeilingUnsatisfiable(len(clips), cfg.frame_ceiling)
    metas = tuple(clips)
    reduction = 1
    while (fast := frame_totals(metas, cfg.fast.fps / reduction, cfg.frame_ceiling)) is None:
        reduction *= 2
    eff = cfg.fast.fps / reduction
    slow_fps = min(cfg.slow.fps, eff)
    fast_frames = tuple(fast)
    slow_frames = fast_frames if slow_fps == eff else tuple(frame_totals(metas, slow_fps))
    return SamplingPlan(cfg, eff, reduction, metas, fast_frames, slow_frames)


# ---------------------------------------------------------------------------
# compression reference ops


def squeeze_queries(queries: np.ndarray, alpha: int) -> np.ndarray:
    """Average-pool query rows in groups of ``alpha`` (s x d -> s/alpha x d)."""
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if queries.ndim != 2:
        raise ValueError(f"query bank must be 2-D, got shape {queries.shape}")
    s, d = queries.shape
    if s % alpha:
        raise NonDivisible(f"alpha {alpha} does not divide {s} query rows")
    return queries.reshape(s // alpha, alpha, d).mean(axis=1)


def pool_features(grid: np.ndarray, pool: int) -> np.ndarray:
    """2-D average pooling of an H x W x d feature grid in p x p blocks."""
    if pool < 1:
        raise ValueError(f"pool size must be >= 1, got {pool}")
    if grid.ndim != 3:
        raise ValueError(f"feature grid must be 3-D, got shape {grid.shape}")
    h, w, d = grid.shape
    if h % pool or w % pool:
        raise NonDivisible(f"pool {pool} does not divide grid {h}x{w}")
    return grid.reshape(h // pool, pool, w // pool, pool, d).mean(axis=(1, 3))
