import dataclasses
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adcut import sampling
from adcut.clips import ClipMeta, ClipSet
from adcut.sampling import (
    MAX_TOKENS_PER_FRAME,
    CeilingUnsatisfiable,
    ClipPlan,
    NonDivisible,
    PathwayConfig,
    PathwaySample,
    PresetError,
    SamplingPlan,
    SlowFastConfig,
    frame_timestamps,
    frame_total,
    frame_totals,
    parse_preset,
    plan_clip,
    plan_request,
    pool_features,
    sample_frames,
    squeeze_queries,
)

from helpers import frames_at

FAST24 = SlowFastConfig(fast=PathwayConfig(2, 4), slow=PathwayConfig(0.5, 16))
FAST24_SLOW64 = SlowFastConfig(fast=PathwayConfig(2, 4), slow=PathwayConfig(0.125, 64))


def clip(duration_s: float, frame_count: int, index: int = 0) -> ClipMeta:
    return ClipMeta(index=index, duration_s=duration_s, frame_count=frame_count)


@st.composite
def clip_metas(draw, durations=st.floats(min_value=0.01, max_value=600.0)):
    """Any valid clip: native fps anywhere in [1, 239], so a clip can hold
    fewer frames than round(t * fps) asks for."""
    t = draw(durations)
    return clip(t, draw(st.integers(min_value=math.ceil(t), max_value=math.floor(239 * t))))


@st.composite
def clips_at_rate(draw):
    """A sampling rate and a clip, often right at the one-interval edge."""
    fps = draw(st.sampled_from([0.125, 0.5, 1.0, 2.0, 4.0, 30.0]) | st.floats(min_value=0.01, max_value=64.0))
    edge = 1.0 / fps
    near_edge = st.sampled_from([edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)])
    return draw(clip_metas(near_edge | st.floats(min_value=0.01, max_value=600.0))), fps


@st.composite
def presets(draw, clip_count: int):
    """A valid config whose ceiling fits ``clip_count`` clips; about half have
    both pathways alike, as a single unnamed ``fps/tokens`` preset gives."""
    fast = PathwayConfig(
        draw(st.sampled_from([0.5, 1.0, 2.0, 4.0, 16.0]) | st.floats(min_value=0.01, max_value=16.0)),
        draw(st.integers(min_value=1, max_value=16)),
    )
    slow = fast if draw(st.booleans()) else PathwayConfig(
        fast.fps * draw(st.floats(min_value=0.01, max_value=1.0)),
        draw(st.integers(min_value=fast.tokens_per_frame, max_value=64)),
    )
    return SlowFastConfig(fast, slow, frame_ceiling=clip_count + draw(st.integers(min_value=0, max_value=600)))


def replan_every_halving(clips: ClipSet, cfg: SlowFastConfig) -> tuple[SamplingPlan, tuple[ClipPlan, ...]]:
    """Reference planner: counts every clip again on each halving with the
    closed form of ``helpers.frames_at``, which shares no code with the planner.
    Returns the plan and its per-clip records, each built here from the counts."""
    reduction = 1
    while sum(frames_at(c.duration_s, c.frame_count, cfg.fast.fps / reduction) for c in clips) > cfg.frame_ceiling:
        reduction *= 2
    eff = cfg.fast.fps / reduction
    slow_fps = min(cfg.slow.fps, eff)
    metas = tuple(clips)
    fast = tuple(frames_at(c.duration_s, c.frame_count, eff) for c in metas)
    slow = tuple(frames_at(c.duration_s, c.frame_count, slow_fps) for c in metas)
    entries = tuple(
        ClipPlan(
            c.index,
            PathwaySample(c, eff, f, cfg.fast.tokens_per_frame * f),
            PathwaySample(c, slow_fps, s, cfg.slow.tokens_per_frame * s),
        )
        for c, f, s in zip(metas, fast, slow)
    )
    return SamplingPlan(cfg, eff, reduction, metas, fast, slow), entries


def visiting(metas, visited: list[int]):
    """Yield ``metas``, recording each clip's index in ``visited`` as it is read."""
    for c in metas:
        visited.append(c.index)
        yield c


def counting_passes(monkeypatch) -> list[tuple[float, list[int]]]:
    """Record each ``frame_totals`` pass as (fps, indices of the clips it
    visited), and fail on any per-clip counting, frame list or record."""
    passes: list[tuple[float, list[int]]] = []
    original = sampling.frame_totals

    def counted(metas, fps, limit=None):
        visited: list[int] = []
        passes.append((fps, visited))
        return original(visiting(metas, visited), fps, limit)

    def forbidden(*args, **kwargs):
        raise AssertionError("plan_request counts, samples or builds a record clip by clip")

    monkeypatch.setattr(sampling, "frame_totals", counted)
    for name in ("frame_total", "plan_clip", "sample_frames", "ClipPlan", "PathwaySample"):
        monkeypatch.setattr(sampling, name, forbidden)
    return passes


class TestSampleFrames:
    def test_middle_frame_branch(self):
        assert sample_frames(clip(0.4, 12), 2) == [6]

    def test_uniform_branch(self):
        assert sample_frames(clip(3.0, 90), 2) == [0, 15, 30, 45, 60, 75]

    def test_exact_interval_boundary(self):
        # t == 1/f takes the uniform branch with a single frame
        assert sample_frames(clip(0.5, 15), 2) == [0]

    @given(
        st.floats(min_value=0.05, max_value=120.0),
        st.sampled_from([0.125, 0.5, 1.0, 2.0]),
        st.integers(min_value=24, max_value=60),
    )
    def test_properties(self, t, f, native_fps):
        c = clip(t, max(1, round(t * native_fps)))
        indices = sample_frames(c, f)
        assert len(indices) >= 1
        assert all(0 <= i < c.frame_count for i in indices)
        assert indices == sorted(set(indices))
        if t < 1 / f:
            assert indices == [c.frame_count // 2]
        else:
            assert len(indices) == min(math.floor(t * f + 0.5), c.frame_count)

    @given(clips_at_rate())
    def test_length_equals_frame_total(self, case):
        c, fps = case
        indices = sample_frames(c, fps)
        assert len(indices) == frame_total(c, fps)
        assert indices == sorted(set(indices))
        assert all(0 <= i < c.frame_count for i in indices)

    def test_frame_totals_stops_past_the_limit(self):
        # 4 frames each from four 2 s clips at 2 fps, then 5 from a 2.5 s clip
        metas = [clip(2.0, 60, i) for i in range(4)] + [clip(2.5, 75, 4)]
        assert frame_totals(metas, 2.0) == [4, 4, 4, 4, 5]
        assert frame_totals(metas, 2.0, limit=21) == [4, 4, 4, 4, 5]
        assert frame_totals(metas, 2.0, limit=20) is None
        visited = []
        assert frame_totals(visiting(metas, visited), 2.0, limit=7) is None
        assert visited == [0, 1]  # 8 > 7 after the second clip; the rest are never read

    @given(clips_at_rate())
    def test_frame_total_matches_closed_form(self, case):
        c, fps = case
        assert frame_total(c, fps) == frame_totals([c], fps)[0] == frames_at(c.duration_s, c.frame_count, fps)

    def test_a_zero_rate_is_rejected(self):
        # 1 / 0 would raise ZeroDivisionError; the rate check names the bad rate first
        with pytest.raises(ValueError, match=r"^fps must be > 0, got 0$"):
            frame_totals([clip(1.0, 30)], 0)
        with pytest.raises(ValueError, match=r"^fps must be > 0, got 0$"):
            sample_frames(clip(1.0, 30), 0)

    def test_frame_total_clamps_to_frame_count(self):
        # 10 s at 4 fps asks for 40 frames of a 20-frame clip
        assert frame_total(clip(10.0, 20), 4.0) == 20
        assert sample_frames(clip(10.0, 20), 4.0) == list(range(20))

    def test_monotone_in_duration(self):
        rng = random.Random(3)
        for _ in range(200):
            f = rng.choice([0.125, 0.5, 2.0])
            t1 = rng.uniform(0.1, 30)
            t2 = t1 + rng.uniform(0.0, 30)
            c1 = clip(t1, max(1, round(t1 * 30)))
            c2 = clip(t2, max(1, round(t2 * 30)))
            assert len(sample_frames(c2, f)) >= len(sample_frames(c1, f))


class TestPlanClip:
    def test_eight_second_clip_budget_equality(self):
        for cfg in (FAST24, FAST24_SLOW64):
            entry = plan_clip(clip(8.0, 240), cfg)
            assert entry.fast.tokens == 64
            assert entry.slow.tokens == 64

    def test_degenerate_clip(self):
        entry = plan_clip(clip(0.4, 12), FAST24)
        assert entry.fast.tokens == 4
        assert entry.slow.tokens == 16
        assert entry.fast.frame_indices == (6,)

    def test_ten_second_clip(self):
        entry = plan_clip(clip(10.0, 300), FAST24_SLOW64)
        assert entry.fast.tokens == 20 * 4
        assert entry.slow.tokens == 1 * 64

    def test_timestamps_strictly_increasing_within_clip(self):
        rng = random.Random(11)
        for _ in range(100):
            t = rng.uniform(0.1, 60)
            c = clip(t, max(1, round(t * rng.uniform(24, 60))))
            entry = plan_clip(c, FAST24)
            for pathway in (entry.fast, entry.slow):
                ts = pathway.timestamps_s
                assert all(b > a for a, b in zip(ts, ts[1:]))
                assert all(0 <= x < c.duration_s for x in ts)

    @given(st.floats(min_value=8.0, max_value=60.0), st.integers(min_value=24, max_value=60))
    def test_token_rate_equality(self, t, native_fps):
        # rate-matched presets: fast fps*k == slow fps*k
        for cfg in (FAST24, FAST24_SLOW64):
            entry = plan_clip(clip(t, max(1, round(t * native_fps))), cfg)
            slack = max(cfg.fast.tokens_per_frame, cfg.slow.tokens_per_frame)
            assert abs(entry.fast.tokens - entry.slow.tokens) <= slack

    @given(clips_at_rate(), st.integers(min_value=1, max_value=64))
    def test_lazy_pathway_matches_eager_lists(self, case, tokens_per_frame):
        c, fps = case
        cfg = SlowFastConfig(fast=PathwayConfig(64.0, tokens_per_frame), slow=PathwayConfig(0.01, 64))
        pathway = plan_clip(c, cfg, effective_fast_fps=fps).fast
        indices = sample_frames(c, fps)
        assert pathway.frames == len(pathway.frame_indices) == len(indices)
        assert pathway.tokens == tokens_per_frame * pathway.frames
        assert pathway.to_dict() == {
            "frame_indices": indices,
            "timestamps_s": frame_timestamps(c, indices),
            "tokens": pathway.tokens,
        }
        assert pathway.timestamps_s == tuple(frame_timestamps(c, indices))


class TestPlanRequest:
    def test_no_reduction(self):
        clips = ClipSet(clip(8.0, 240, i) for i in range(5))
        plan = plan_request(clips, FAST24)
        assert plan.total_fast_frames == 80
        assert plan.reduction_factor == 1
        assert plan.effective_fast_fps == 2.0

    def test_halving(self):
        clips = ClipSet(clip(10.0, 300, i) for i in range(40))
        plan = plan_request(clips, FAST24)
        assert plan.reduction_factor == 2
        assert plan.effective_fast_fps == 1.0
        assert plan.total_fast_frames == 400

    def test_unsatisfiable(self):
        clips = ClipSet(clip(0.1, 3, i) for i in range(700))
        with pytest.raises(CeilingUnsatisfiable) as err:
            plan_request(clips, FAST24)
        assert err.value.clip_count == 700

    def test_totals_equal_sum_of_entries(self):
        rng = random.Random(21)
        durations = [rng.uniform(1, 20) for _ in range(12)]
        clips = ClipSet(clip(t, max(1, round(30 * t)), i) for i, t in enumerate(durations))
        plan = plan_request(clips, FAST24)
        assert plan.total_fast_tokens == sum(c.fast.tokens for c in plan.clips)
        assert plan.total_slow_tokens == sum(c.slow.tokens for c in plan.clips)

    def test_ceiling_never_exceeded_random_sets(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 80)
            durations = [rng.uniform(0.2, 40) for _ in range(n)]
            clips = ClipSet(clip(t, max(1, round(t * 30)), i) for i, t in enumerate(durations))
            plan = plan_request(clips, FAST24)
            assert plan.total_fast_frames <= FAST24.frame_ceiling
            assert plan.reduction_factor & (plan.reduction_factor - 1) == 0  # power of two
            assert len(plan.clips) == n

    @given(
        st.lists(clip_metas(st.floats(min_value=0.01, max_value=120.0)), min_size=1, max_size=30),
        st.sampled_from([0.5, 1.0, 2.0, 4.0, 16.0]) | st.floats(min_value=0.01, max_value=16.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.integers(min_value=0, max_value=600),
    )
    def test_matches_replanning_reference(self, metas, fast_fps, slow_share, spare):
        clips = ClipSet(clip(c.duration_s, c.frame_count, i) for i, c in enumerate(metas))
        cfg = SlowFastConfig(
            fast=PathwayConfig(fast_fps, 4),
            slow=PathwayConfig(fast_fps * slow_share, 16),
            frame_ceiling=len(clips) + spare,
        )
        plan = plan_request(clips, cfg)
        reference, entries = replan_every_halving(clips, cfg)
        assert plan == reference
        assert plan.clips == entries
        assert plan.total_fast_frames == sum(len(e.fast.frame_indices) for e in plan.clips)
        assert plan.total_slow_frames <= plan.total_fast_frames

    @given(st.data())
    def test_the_per_clip_views_equal_the_counts(self, data):
        metas = data.draw(st.lists(clip_metas(st.floats(min_value=0.01, max_value=120.0)), min_size=1, max_size=20))
        cfg = data.draw(presets(len(metas)))
        clips = ClipSet(clip(c.duration_s, c.frame_count, i) for i, c in enumerate(metas))
        plan = plan_request(clips, cfg)
        eff = plan.effective_fast_fps
        slow_fps = min(cfg.slow.fps, eff)
        assert plan.metas == tuple(clips)
        views = plan.clips
        assert plan.clips is views
        assert len(views) == len(plan.fast_frames) == len(plan.slow_frames) == len(clips)
        for view, meta, fast, slow in zip(views, plan.metas, plan.fast_frames, plan.slow_frames):
            assert view.index == meta.index
            assert (view.fast.clip, view.fast.fps, view.fast.frames, view.fast.tokens) == (
                meta, eff, fast, cfg.fast.tokens_per_frame * fast)
            assert (view.slow.clip, view.slow.fps, view.slow.frames, view.slow.tokens) == (
                meta, slow_fps, slow, cfg.slow.tokens_per_frame * slow)
        old_style = [
            ClipPlan(m.index, PathwaySample(m, eff, f, cfg.fast.tokens_per_frame * f),
                     PathwaySample(m, slow_fps, s, cfg.slow.tokens_per_frame * s))
            for m, f, s in zip(plan.metas, plan.fast_frames, plan.slow_frames)
        ]
        assert plan.to_dict() == {
            "preset": cfg.to_dict(),
            "effective_fast_fps": eff,
            "reduction_factor": plan.reduction_factor,
            "clips": [e.to_dict() for e in old_style],
            "totals": {
                "fast_frames": sum(e.fast.frames for e in old_style),
                "slow_frames": sum(e.slow.frames for e in old_style),
                "fast_tokens": sum(e.fast.tokens for e in old_style),
                "slow_tokens": sum(e.slow.tokens for e in old_style),
            },
        }
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.fast_frames = ()

    def test_total_at_the_ceiling_stays_unreduced(self):
        # five 2 s clips at 2 fps: 20 fast frames under a 20-frame ceiling
        cfg = SlowFastConfig(fast=PathwayConfig(2, 4), slow=PathwayConfig(0.5, 16), frame_ceiling=20)
        plan = plan_request(ClipSet(clip(2.0, 60, i) for i in range(5)), cfg)
        assert (plan.reduction_factor, plan.effective_fast_fps, plan.total_fast_frames) == (1, 2.0, 20)

    def test_one_frame_over_the_ceiling_halves(self):
        # 4 + 4 + 4 + 4 + 5 = 21 frames at 2 fps; at 1 fps, 2 + 2 + 2 + 2 + 3 = 11
        cfg = SlowFastConfig(fast=PathwayConfig(2, 4), slow=PathwayConfig(0.5, 16), frame_ceiling=20)
        clips = ClipSet([clip(2.0, 60, i) for i in range(4)] + [clip(2.5, 75, 4)])
        plan = plan_request(clips, cfg)
        assert (plan.reduction_factor, plan.effective_fast_fps, plan.total_fast_frames) == (2, 1.0, 11)

    def test_plans_each_clip_once(self, monkeypatch):
        # 10 clips x 480 s at 16 fps: 7680 fast frames a clip, 600 in all at x128.
        # Each pass stops at the first clip that takes the total over 600: one
        # clip at x1 to x8, two at x16 (480 frames each), three at x32 (240),
        # six at x64 (120) and all ten at x128 (60). The slow 0.5 fps is above
        # the final 0.125, so the slow pathway reuses the fast counts.
        clips = ClipSet(clip(480.0, 14400, i) for i in range(10))
        cfg = SlowFastConfig(fast=PathwayConfig(16, 4), slow=PathwayConfig(0.5, 16))
        passes = counting_passes(monkeypatch)
        plan = plan_request(clips, cfg)
        assert plan.reduction_factor == 128
        assert plan.total_fast_frames == 600
        assert [(fps, len(visited)) for fps, visited in passes] == [
            (16.0, 1), (8.0, 1), (4.0, 1), (2.0, 1), (1.0, 2), (0.5, 3), (0.25, 6), (0.125, 10),
        ]
        assert sum(len(visited) for _, visited in passes) == 25
        monkeypatch.undo()
        for entry, c in zip(plan.clips, clips):
            assert entry.fast.frame_indices == tuple(sample_frames(c, plan.effective_fast_fps))
            assert entry.slow.fps == plan.effective_fast_fps

    def test_slow_pathway_takes_one_pass_below_the_fast_rate(self, monkeypatch):
        # 80 fast frames at 2 fps fit at x1; the slow pathway samples at 0.5 fps
        clips = ClipSet(clip(8.0, 240, i) for i in range(5))
        passes = counting_passes(monkeypatch)
        plan = plan_request(clips, FAST24)
        assert [(fps, visited) for fps, visited in passes] == [(2.0, [0, 1, 2, 3, 4]), (0.5, [0, 1, 2, 3, 4])]
        assert (plan.total_fast_frames, plan.total_slow_frames) == (80, 20)


class TestCompressionOps:
    def test_squeeze_identity(self):
        q = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(squeeze_queries(q, 1), q)

    def test_squeeze_hand_case(self):
        q = np.array([[1.0], [3.0], [5.0], [7.0]])
        assert np.array_equal(squeeze_queries(q, 2), np.array([[2.0], [6.0]]))

    def test_squeeze_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        q = rng.integers(-1000, 1000, size=(64, 32)).astype(np.float64)
        out = squeeze_queries(q, 4)
        for i in range(16):
            group = q[4 * i : 4 * (i + 1)]
            expected = sum(group[j] for j in range(4)) / 4.0
            assert np.array_equal(out[i], expected)

    def test_squeeze_nondivisible(self):
        with pytest.raises(NonDivisible):
            squeeze_queries(np.zeros((5, 2)), 2)

    def test_pool_identity(self):
        g = np.arange(24.0).reshape(2, 3, 4)
        assert np.array_equal(pool_features(g, 1), g)

    def test_pool_hand_case(self):
        g = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        assert np.array_equal(pool_features(g, 2), np.array([[[2.5]]]))

    def test_pool_matches_bruteforce(self):
        rng = np.random.default_rng(9)
        g = rng.integers(-1000, 1000, size=(24, 24, 8)).astype(np.float64)
        out = pool_features(g, 3)
        for i in range(8):
            for j in range(8):
                block = g[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
                total = np.zeros(8)
                for r in range(3):
                    for c in range(3):
                        total = total + block[r, c]
                assert np.array_equal(out[i, j], total / 9.0)

    def test_grand_mean_preserved(self):
        rng = np.random.default_rng(17)
        g = rng.standard_normal((12, 18, 5))
        pooled = pool_features(g, 3)
        assert abs(pooled.mean() - g.mean()) <= 1e-12 * max(1.0, abs(g.mean()))
        q = rng.standard_normal((40, 7))
        squeezed = squeeze_queries(q, 8)
        assert abs(squeezed.mean() - q.mean()) <= 1e-12 * max(1.0, abs(q.mean()))

    def test_pool_nondivisible(self):
        with pytest.raises(NonDivisible):
            pool_features(np.zeros((5, 6, 2)), 2)

    @pytest.mark.parametrize("op, array, size, message", [
        (squeeze_queries, np.zeros((4, 2)), 0, "alpha must be >= 1, got 0"),
        (squeeze_queries, np.zeros((4, 2, 1)), 2, "query bank must be 2-D, got shape (4, 2, 1)"),
        (pool_features, np.zeros((4, 4, 1)), 0, "pool size must be >= 1, got 0"),
        (pool_features, np.zeros((4, 4)), 2, "feature grid must be 3-D, got shape (4, 4)"),
    ], ids=["squeeze-alpha-0", "squeeze-3-d", "pool-size-0", "pool-2-d"])
    def test_a_bad_size_or_shape_is_rejected(self, op, array, size, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            op(array, size)


class TestPresets:
    def test_table_style_space_separated(self):
        cfg = parse_preset("fast:2/4 slow:0.125/64")
        assert cfg.fast == PathwayConfig(2.0, 4)
        assert cfg.slow == PathwayConfig(0.125, 64)

    def test_comma_separated(self):
        cfg = parse_preset("fast:2/4,slow:0.5/16")
        assert cfg.slow == PathwayConfig(0.5, 16)

    def test_single_pair_drives_both_pathways(self):
        cfg = parse_preset("2/9")
        assert cfg.fast == cfg.slow == PathwayConfig(2.0, 9)

    @pytest.mark.parametrize("bad", ["", "fast:2", "fast:a/4", "fast:2/4 fast:1/8", "slow:0.5/16", "2/4 slow:1/8"])
    def test_bad_presets(self, bad):
        with pytest.raises(PresetError):
            parse_preset(bad)

    @pytest.mark.parametrize("preset, message", [
        ("0/4", "fps must be > 0, got 0.0"),
        ("fast:2/4,slow:0.0/16", "fps must be > 0, got 0.0"),
        ("2/0", "tokens_per_frame must be >= 1, got 0"),
    ])
    def test_a_zero_rate_or_token_count_is_rejected(self, preset, message):
        with pytest.raises(ValueError) as err:
            parse_preset(preset)
        assert str(err.value) == message

    def test_a_token_count_above_the_bound_is_rejected(self):
        assert parse_preset(f"2/{MAX_TOKENS_PER_FRAME}").slow == PathwayConfig(2.0, 65536)
        for tokens in (65537, int("9" * 4299)):  # the larger one's plan totals would be too long to print
            with pytest.raises(ValueError, match=rf"^tokens_per_frame must be <= 65536, got {tokens}$"):
                parse_preset(f"2/{tokens}")

    @pytest.mark.parametrize("fps, shown", [
        (math.inf, "inf"), (math.nan, "nan"), (240.5, "240.5"), (1e11, "100000000000.0"),
    ])
    def test_a_rate_above_240_fps_is_rejected(self, fps, shown):
        # at 1e11 fps a 1e300 s clip's frame count overflows a float
        with pytest.raises(ValueError, match=rf"^fps must be <= 240, got {shown}$"):
            PathwayConfig(fps, 4)

    def test_240_fps_plans_the_longest_clips_without_overflow(self):
        # a clip's duration stays under 1.8e305 s (its duration in ms is a float), so fps x duration is finite
        clips = ClipSet(ClipMeta(i, 1.7e305, 2 * int(1.7e305)) for i in range(600))
        plan = plan_request(clips, parse_preset("240/4"))
        assert (plan.reduction_factor, plan.total_fast_frames) == (2**1022, 600)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            SlowFastConfig(fast=PathwayConfig(0.5, 16), slow=PathwayConfig(2, 4))

    def test_a_frame_ceiling_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="^frame_ceiling must be >= 1$"):
            SlowFastConfig(fast=PathwayConfig(2, 4), slow=PathwayConfig(0.5, 16), frame_ceiling=0)
