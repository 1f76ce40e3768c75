#!/usr/bin/env python3
"""Sweep clip durations and compare fast/slow pathway token budgets.

Shows that rate-matched presets (fast fps x tokens == slow fps x tokens)
keep both pathways within one slow frame of each other once a clip is at
least one slow interval long, and how the picture degrades below that.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from adcut.clips import ClipMeta  # noqa: E402
from adcut.sampling import PathwayConfig, SlowFastConfig, plan_clip  # noqa: E402

PRESETS = {
    "fast:2/4 slow:0.5/16": SlowFastConfig(PathwayConfig(2, 4), PathwayConfig(0.5, 16)),
    "fast:2/4 slow:0.125/64": SlowFastConfig(PathwayConfig(2, 4), PathwayConfig(0.125, 64)),
}

DURATIONS = [0.3, 0.6, 1.0, 2.0, 4.0, 8.0, 12.5, 20.0, 33.3, 60.0]


def run() -> int:
    for label, cfg in PRESETS.items():
        print(f"== {label} (frame ceiling {cfg.frame_ceiling})")
        print(f"{'t (s)':>7}  {'fast frames':>11}  {'fast tokens':>11}  {'slow frames':>11}  {'slow tokens':>11}  {'|diff|':>6}")
        for t in DURATIONS:
            clip = ClipMeta(index=0, duration_s=t, frame_count=max(1, round(t * 30)))
            entry = plan_clip(clip, cfg)
            diff = abs(entry.fast.tokens - entry.slow.tokens)
            print(
                f"{t:>7.1f}  {entry.fast.frames:>11}  {entry.fast.tokens:>11}"
                f"  {entry.slow.frames:>11}  {entry.slow.tokens:>11}  {diff:>6}"
            )
        print()
    return 0


if __name__ == "__main__":
    sys.exit(run())
