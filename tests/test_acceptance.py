"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
enforces its stated runtime budget. Expected values come from independent
oracles computed inside the tests, never from the code paths under check.
"""

import contextlib
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from adcut.backends import MOCK_ENDPOINT, Client, generate_draft, mock_backend
from adcut.cli import main
from adcut.clips import ClipMeta, ClipSet
from adcut.dataset import read_corpus, sample_negative_count
from adcut.draft import Draft, VideoNode, draft_to_dict, parse_draft, serialize_draft
from adcut.jsonutil import dumps_canonical, loads
from adcut.metrics import EvalSample, cra, csa, dtpr, fpf_aggregate, sq_aggregate
from adcut.sampling import (
    CeilingUnsatisfiable,
    PathwayConfig,
    SlowFastConfig,
    plan_clip,
    plan_request,
    pool_features,
    sample_frames,
    squeeze_queries,
)
from adcut.timeline import TtsRealization, align_draft, check_alignment

from helpers import (
    aligned_draft_and_clips,
    random_draft,
    recount_cra,
    recount_csa,
    recount_dtpr,
)

FIX = Path(__file__).parent / "fixtures"

PRESETS = {
    "fast 2/4 + slow 0.5/16": SlowFastConfig(PathwayConfig(2, 4), PathwayConfig(0.5, 16)),
    "fast 2/4 + slow 0.125/64": SlowFastConfig(PathwayConfig(2, 4), PathwayConfig(0.125, 64)),
}


@contextlib.contextmanager
def criterion(number: int, label: str, limit_s: float):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL: {label}")
        raise
    elapsed = time.monotonic() - started
    assert elapsed < limit_s, f"criterion {number} took {elapsed:.2f}s, budget {limit_s}s"
    print(f"ACCEPTANCE {number:>2} PASS ({elapsed:.2f}s): {label}")


def random_clip(rng, t_min, t_max, index=0):
    t = rng.uniform(t_min, t_max)
    native = rng.uniform(24, 60)
    return ClipMeta(index=index, duration_s=t, frame_count=max(1, round(t * native)))


def test_criterion_1_token_budget_identity():
    with criterion(1, "token-budget identity across pathways", 1.0):
        rng = random.Random(101)
        for label, cfg in PRESETS.items():
            t_min = 1.0 / cfg.slow.fps
            for _ in range(1000):
                entry = plan_clip(random_clip(rng, t_min, 60.0), cfg)
                assert abs(entry.fast.tokens - entry.slow.tokens) <= 64, label
            eight = plan_clip(ClipMeta(0, 8.0, 240), cfg)
            assert eight.fast.tokens == 64 and eight.slow.tokens == 64, label


def test_criterion_2_degenerate_branch():
    with criterion(2, "sub-interval clips take the middle frame", 1.0):
        rng = random.Random(202)
        checked = 0
        while checked < 10000:
            f = rng.uniform(0.1, 4.0)
            t = rng.uniform(0.01, 1.0 / f * 0.999)
            native = rng.uniform(1.0, 240.0)
            frames = max(1, round(t * native))
            if not 1.0 <= frames / t <= 240.0:
                continue
            clip = ClipMeta(index=0, duration_s=t, frame_count=frames)
            assert sample_frames(clip, f) == [frames // 2]
            checked += 1


def _expected_fast_frames(clips, fps):
    # independent recount of the per-clip frame rule
    total = 0
    for c in clips:
        if c.duration_s < 1.0 / fps:
            total += 1
        else:
            total += min(math.floor(c.duration_s * fps + 0.5), c.frame_count)
    return total


def test_criterion_3_frame_ceiling():
    with criterion(3, "600-frame ceiling with recorded halving", 5.0):
        cfg = PRESETS["fast 2/4 + slow 0.5/16"]
        rng = random.Random(303)
        for case in range(1000):
            n = rng.randint(601, 700) if case % 333 == 0 else rng.randint(1, 60)
            clips = ClipSet(random_clip(rng, 0.2, 40.0, index=i) for i in range(n))
            if n > 600:
                with pytest.raises(CeilingUnsatisfiable):
                    plan_request(clips, cfg)
                continue
            plan = plan_request(clips, cfg)
            assert plan.total_fast_frames <= 600
            assert len(plan.clips) == n
            # the recorded factor is the smallest power-of-two reduction
            assert _expected_fast_frames(clips, cfg.fast.fps / plan.reduction_factor) <= 600
            if plan.reduction_factor > 1:
                assert _expected_fast_frames(clips, cfg.fast.fps / (plan.reduction_factor // 2)) > 600


def test_criterion_4_negative_sampling():
    with criterion(4, "clipped rounded-gaussian negative counts", 5.0):
        from scipy.stats import norm

        mu, sigma = 2.5, math.sqrt(8.0)
        # oracle first: integrate the density over rounding cells
        p0_true = norm.cdf((0.5 - mu) / sigma)
        mean_true = sum(
            k * (norm.cdf((k + 0.5 - mu) / sigma) - norm.cdf((k - 0.5 - mu) / sigma))
            for k in range(1, 400)
        )
        rng = random.Random(404)
        draws = [sample_negative_count(rng) for _ in range(100000)]
        mean_emp = sum(draws) / len(draws)
        p0_emp = draws.count(0) / len(draws)
        assert abs(mean_emp - mean_true) <= 0.05, (mean_emp, mean_true)
        assert abs(p0_emp - p0_true) <= 0.01, (p0_emp, p0_true)


def _corrupted_eval_corpus(n, seed):
    rng = random.Random(seed)
    corpus = []
    for i in range(n):
        gt = random_draft(rng, max_sentences=2, max_nodes=5)
        indices = [node.index for node in gt.video_nodes_track]
        negatives = frozenset({max(indices) + 1})
        pred_indices = list(indices)
        mode = rng.randrange(4)
        if mode == 0 and len(pred_indices) >= 2:
            j = rng.randrange(len(pred_indices) - 1)
            pred_indices[j], pred_indices[j + 1] = pred_indices[j + 1], pred_indices[j]
        elif mode == 1:
            pred_indices.append(next(iter(negatives)))
        pred_deco = gt.decoration_setting if mode != 2 else random_draft(rng).decoration_setting
        pred_nodes = []
        at = 0
        for idx in pred_indices:
            pred_nodes.append(VideoNode(idx, at, at + 1000, 0))
            at += 1000
        pred = Draft(gt.voice_over_track, tuple(pred_nodes), pred_deco)
        corpus.append(EvalSample(f"s{i}", gt, pred, negatives))
    return corpus


def test_criterion_5_metric_oracles():
    with criterion(5, "counting metrics equal brute-force recounts", 5.0):
        corpus = _corrupted_eval_corpus(200, seed=505)
        assert cra(corpus) == recount_cra(corpus)
        assert csa(corpus) == recount_csa(corpus)
        report = dtpr(corpus)
        expected = recount_dtpr(corpus)
        for cat in ("TTS", "Avatar", "Music"):
            assert report.per_category[cat]["precision"] == expected[cat]["precision"]
            assert report.per_category[cat]["recall"] == expected[cat]["recall"]

        perfect = [EvalSample(s.sample_id, s.ground_truth, s.ground_truth, s.negatives) for s in corpus]
        assert cra(perfect) == 100.0 and csa(perfect) == 100.0
        perfect_report = dtpr(perfect)
        assert perfect_report.precision == 100.0 and perfect_report.recall == 100.0

        # adjacent swap through the generation mock
        rng = random.Random(55)
        drafts, negatives = {}, {}
        for i in range(50):
            gt = random_draft(rng, max_sentences=1, max_nodes=4)
            while len(gt.video_nodes_track) < 2:
                gt = random_draft(rng, max_sentences=1, max_nodes=4)
            drafts[f"s{i}"] = draft_to_dict(gt)
            negatives[f"s{i}"] = [max(n.index for n in gt.video_nodes_track) + 1]
        transport = mock_backend(7, {"drafts": drafts, "negatives": negatives,
                                     "corruption": {"mode": "swap_adjacent", "rate": 1.0}})
        client = Client("generate", MOCK_ENDPOINT, transport=transport)
        swapped = []
        for sid, gt_dict in drafts.items():
            predicted = parse_draft(generate_draft({"sample_id": sid}, client))
            gt = parse_draft(dumps_canonical(gt_dict))
            swapped.append(EvalSample(sid, gt, predicted, frozenset(negatives[sid])))
        assert cra(swapped) == 0.0
        assert csa(swapped) == 100.0


def test_criterion_6_aggregator_weights():
    with criterion(6, "judge-score aggregation weights", 1.0):
        full_fpf = {
            "duration": 10, "visual_storyline": 20, "target_audience": 10, "script_routine": 10,
            "selling_points_emphasis": 20, "avatar": 10, "tts_timbre": 10, "music_style": 10,
        }
        assert fpf_aggregate(full_fpf) == 100.0
        assert sq_aggregate({"basic": 30, "native_language_tone": 15,
                             "touch_the_audience": 15, "creative_narrative": 40}) == 100.0
        assert sq_aggregate({"basic": 20, "native_language_tone": 10,
                             "touch_the_audience": 10, "creative_narrative": 30}) == 70.0
        assert fpf_aggregate({"duration": 5, "music_style": 10}) == 75.0


def test_criterion_7_draft_roundtrip():
    with criterion(7, "canonical draft round-trips", 5.0):
        rng = random.Random(707)
        for _ in range(1000):
            d = random_draft(rng)
            blob = serialize_draft(d)
            assert parse_draft(blob) == d
            assert serialize_draft(parse_draft(blob)) == blob
        raw = (FIX / "draft_template.json").read_bytes()
        template = parse_draft(raw)
        assert json.loads(serialize_draft(template)) == json.loads(raw)
        assert parse_draft(serialize_draft(template)) == template


def test_criterion_8_alignment_invariants():
    with criterion(8, "alignment invariants and time-scaling homogeneity", 5.0):
        rng = random.Random(808)
        for _ in range(1000):
            seed = rng.randrange(2**32)
            draft, realized, clips = aligned_draft_and_clips(random.Random(seed), scale=1)
            plan = align_draft(draft, TtsRealization(realized), clips)
            assert check_alignment(plan).ok
            assert [n.index for n in plan.video_nodes_track] == [n.index for n in draft.video_nodes_track]
            voice_total = sum(s.target_end - s.target_start for s in plan.voice_over_track)
            assert voice_total == sum(realized)

            _, _, clips2 = aligned_draft_and_clips(random.Random(seed), scale=2)
            doubled = align_draft(draft, TtsRealization(tuple(2 * r for r in realized)), clips2)
            assert doubled.total_duration == 2 * plan.total_duration
            for a, b in zip(plan.video_nodes_track, doubled.video_nodes_track):
                assert (b.target_start, b.target_end) == (2 * a.target_start, 2 * a.target_end)
            for a, b in zip(plan.voice_over_track, doubled.voice_over_track):
                assert (b.target_start, b.target_end) == (2 * a.target_start, 2 * a.target_end)


def test_criterion_9_compression_ops():
    with criterion(9, "compression ops equal brute-force means", 1.0):
        rng = np.random.default_rng(909)
        for _ in range(100):
            alpha = int(rng.integers(1, 6))
            rows, dim = alpha * int(rng.integers(1, 8)), int(rng.integers(1, 10))
            bank = rng.integers(-999, 999, size=(rows, dim)).astype(np.float64)
            squeezed = squeeze_queries(bank, alpha)
            for i in range(rows // alpha):
                group = bank[i * alpha : (i + 1) * alpha]
                expected = sum(group[j] for j in range(alpha)) / alpha
                assert np.array_equal(squeezed[i], expected)

            p = int(rng.integers(1, 5))
            h, w, d = p * int(rng.integers(1, 6)), p * int(rng.integers(1, 6)), int(rng.integers(1, 6))
            grid = rng.integers(-999, 999, size=(h, w, d)).astype(np.float64)
            pooled = pool_features(grid, p)
            for i in range(h // p):
                for j in range(w // p):
                    acc = np.zeros(d)
                    for r in range(p):
                        for c in range(p):
                            acc = acc + grid[i * p + r, j * p + c]
                    assert np.array_equal(pooled[i, j], acc / (p * p))

        q = np.arange(48.0).reshape(12, 4)
        assert np.array_equal(squeeze_queries(q, 1), q)
        g = np.arange(60.0).reshape(3, 4, 5)
        assert np.array_equal(pool_features(g, 1), g)

        smooth = np.random.default_rng(1).standard_normal((12, 12, 3))
        rel = abs(pool_features(smooth, 3).mean() - smooth.mean()) / max(1.0, abs(smooth.mean()))
        assert rel <= 1e-12


def test_criterion_10_end_to_end_determinism(tmp_path):
    with criterion(10, "mock pipeline is byte-deterministic", 30.0):
        config = str(FIX / "adcut.ini")

        def pipeline(workdir: Path, concurrency: int) -> dict[str, bytes]:
            workdir.mkdir(parents=True, exist_ok=True)
            corpus = workdir / "corpus.jsonl"
            predictions = workdir / "predictions.jsonl"
            report = workdir / "report.json"
            assert main(["build-dataset", "--config", config, "--seed", "7",
                         "--concurrency", str(concurrency), "--out", str(corpus)]) == 0
            assert main(["generate", str(corpus), "--endpoint-generate", "mock:swap_adjacent:0.5",
                         "--seed", "7", "--concurrency", str(concurrency), "--out", str(predictions)]) == 0
            assert main(["evaluate", str(corpus), str(predictions), "--with-judge",
                         "--config", config, "--seed", "7", "--out", str(report)]) == 0
            return {
                "corpus": corpus.read_bytes(),
                "predictions": predictions.read_bytes(),
                "report": report.read_bytes(),
            }

        run1 = pipeline(tmp_path / "run1", 1)
        run2 = pipeline(tmp_path / "run2", 1)
        run8 = pipeline(tmp_path / "run8", 8)
        assert run1 == run2
        assert run1 == run8

        corpus = read_corpus(tmp_path / "run1" / "corpus.jsonl")
        assert len(corpus) == 3
        report = loads(run1["report"])
        assert 0.0 <= report["cra"] <= 100.0
