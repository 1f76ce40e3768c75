import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from adcut.clips import ClipMeta, ClipSet
from adcut.draft import DecorationSetting, Draft, VideoNode, VoiceSentence, parse_draft, validate_draft
from adcut.timeline import (
    AssetCatalog,
    AssetEntry,
    ClipTooShort,
    LengthMismatch,
    NoCandidate,
    RenderPlan,
    ResolvedAssets,
    TtsRealization,
    align_draft,
    check_alignment,
    match_decorations,
    serialize_plan,
)

from helpers import aligned_draft_and_clips, clips_covering, random_draft

FIX = Path(__file__).parent / "fixtures"


def simple_draft(sentence_spans, node_spans, source_starts=None):
    sentences, at = [], 0
    for i, span in enumerate(sentence_spans):
        sentences.append(VoiceSentence(f"s{i}", at, at + span))
        at += span
    nodes, at = [], 0
    starts = source_starts or [0] * len(node_spans)
    for i, (span, src) in enumerate(zip(node_spans, starts)):
        nodes.append(VideoNode(index=i, target_start=at, target_end=at + span, source_start=src))
        at += span
    return Draft(tuple(sentences), tuple(nodes), DecorationSetting())


def covering_clips(draft, extra_ms=60000):
    return ClipSet(
        ClipMeta(n.index, (n.source_start + n.span_ms + extra_ms) / 1000.0,
                 max(1, round((n.source_start + n.span_ms + extra_ms) / 1000.0 * 30)))
        for n in draft.video_nodes_track
    )


def all_pairs_align(d, tts, clips):
    """Reference aligner: tests every node against every sentence."""
    sentences = d.voice_over_track
    voice, at = [], 0
    for s, dur in zip(sentences, tts.durations_ms):
        voice.append(VoiceSentence(s.text, at, at + dur))
        at += dur
    nodes, boundary, prev_end = [], Fraction(0), 0
    for pos, node in enumerate(d.video_nodes_track):
        overlapped = [
            i for i, s in enumerate(sentences)
            if max(node.target_start, s.target_start) < min(node.target_end, s.target_end)
        ]
        span = Fraction(node.span_ms)
        if overlapped:
            drafted = sum(sentences[i].target_end - sentences[i].target_start for i in overlapped)
            span *= Fraction(sum(tts.durations_ms[i] for i in overlapped), drafted)
        boundary += span
        end = math.floor(boundary + Fraction(1, 2))
        available = clips.get(node.index).duration_ms - node.source_start
        if end - prev_end > available:
            raise ClipTooShort(pos, node.index, end - prev_end - available)
        nodes.append(VideoNode(node.index, prev_end, end, node.source_start))
        prev_end = end
    return RenderPlan(tuple(voice), tuple(nodes), prev_end)


@st.composite
def alignment_cases(draw):
    """A validated draft with realized durations and clips that may run short.

    The voice track may start late, leave gaps and end before or after the
    video, so nodes overlap no sentence, one, or several, and sentences
    cross node boundaries. Sentence boundaries are drawn from the node
    boundaries as well as anywhere, so sentences also start or end exactly
    where a node does.
    """
    nodes, at = [], 0
    for i in range(draw(st.integers(1, 12))):
        span = draw(st.integers(1, 6000))
        nodes.append(VideoNode(index=i, target_start=at, target_end=at + span, source_start=draw(st.integers(0, 2000))))
        at += span
    edges = [0] + [n.target_end for n in nodes]
    cuts = sorted(set(draw(st.lists(st.sampled_from(edges) | st.integers(0, at + 3000), max_size=25))))
    spans = [span for span in zip(cuts, cuts[1:]) if draw(st.integers(0, 3))]  # drop one in four: gaps
    sentences = [VoiceSentence(f"s{i}", start, end) for i, (start, end) in enumerate(spans)]
    d = Draft(tuple(sentences), tuple(nodes), DecorationSetting())
    tts = TtsRealization(tuple(draw(st.integers(1, 8000)) for _ in sentences))
    clips = ClipSet(
        ClipMeta(n.index, ms / 1000.0, max(1, round(ms * 30 / 1000)))
        for n in nodes
        for ms in [n.source_start + n.span_ms + draw(st.integers(50, 8000))]
    )
    return d, tts, clips


def crossing_case():
    # node 0 overlaps no sentence; node 1 overlaps s0 and s1; s1 crosses
    # into node 2, which also overlaps s2
    sentences = (VoiceSentence("s0", 1000, 1500), VoiceSentence("s1", 1800, 2600), VoiceSentence("s2", 2700, 3000))
    nodes = (VideoNode(0, 0, 1000, 0), VideoNode(1, 1000, 2200, 0), VideoNode(2, 2200, 3100, 0))
    d = Draft(sentences, nodes, DecorationSetting())
    return d, TtsRealization((700, 900, 250)), covering_clips(d)


def touching_case():
    # s0 starts where node 0 ends and s1 ends where node 2 starts: touching
    # is not overlapping, so node 0 keeps its length and only s2 scales node 2
    sentences = (VoiceSentence("s0", 1000, 1500), VoiceSentence("s1", 1800, 2200), VoiceSentence("s2", 2700, 3400))
    nodes = (VideoNode(0, 0, 1000, 0), VideoNode(1, 1000, 2200, 0), VideoNode(2, 2200, 3100, 0), VideoNode(3, 3100, 4000, 0))
    d = Draft(sentences, nodes, DecorationSetting())
    return d, TtsRealization((700, 900, 250)), covering_clips(d)


def half_ms_case():
    # one sentence drafted over both nodes at 2000 ms, realized at 1001: node 0
    # ends at exactly 500.5 ms, which rounds half up to 501
    d = simple_draft([2000], [1000, 1000])
    return d, TtsRealization((1001,)), covering_clips(d)


def coprime_case():
    # twelve 1000 ms nodes, each over one sentence whose drafted length is a
    # distinct prime, so the boundary's denominator grows to their product; a
    # realized length that is a multiple of its prime cancels with it
    primes = (3, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    sentences = tuple(VoiceSentence(f"s{i}", 1000 * i, 1000 * i + p) for i, p in enumerate(primes))
    nodes = tuple(VideoNode(i, 1000 * i, 1000 * (i + 1), 0) for i in range(len(primes)))
    d = Draft(sentences, nodes, DecorationSetting())
    realized = tuple(2 * p if i % 3 == 0 else p + 1 for i, p in enumerate(primes))
    return d, TtsRealization(realized), covering_clips(d)


def exact_carry_case():
    # nodes 0 and 1 each take 1000 * 1001 / 2000 = 500.5 ms, so their halves
    # sum to exactly one carried ms at 1001; the thirds of s2 then carry again
    # over nodes 4-6, and node 7 overlaps no sentence
    sentences = (VoiceSentence("s0", 0, 2000), VoiceSentence("s1", 2000, 4000), VoiceSentence("s2", 4000, 7000))
    nodes = tuple(VideoNode(i, 1000 * i, 1000 * (i + 1), 0) for i in range(8))
    d = Draft(sentences, nodes, DecorationSetting())
    return d, TtsRealization((1001, 1000, 1000)), covering_clips(d)


def long_form_case():
    # 320 nodes, node i over one sentence of drafted length 500 + i, so every
    # drafted run is distinct and the boundary's denominator keeps growing
    count = 320
    sentences = tuple(VoiceSentence(f"s{i}", 1000 * i, 1000 * i + 500 + i) for i in range(count))
    nodes = tuple(VideoNode(i, 1000 * i, 1000 * (i + 1), 0) for i in range(count))
    d = Draft(sentences, nodes, DecorationSetting())
    return d, TtsRealization(tuple(400 + 37 * i % 701 for i in range(count))), covering_clips(d)


class TestAlign:
    @given(alignment_cases())
    @example(crossing_case())
    @example(touching_case())
    @example(half_ms_case())
    @example(coprime_case())
    @example(exact_carry_case())
    @example(long_form_case())
    def test_matches_all_pairs_scan(self, case):
        d, tts, clips = case
        assert validate_draft(d, clips).ok
        try:
            expected = all_pairs_align(d, tts, clips)
        except ClipTooShort as err:
            with pytest.raises(ClipTooShort) as got:
                align_draft(d, tts, clips)
            assert (got.value.node_index, got.value.clip_index, got.value.shortfall_ms) == (
                err.node_index, err.clip_index, err.shortfall_ms
            )
        else:
            assert serialize_plan(align_draft(d, tts, clips)) == serialize_plan(expected)

    def test_noop_alignment(self):
        d = simple_draft([2000, 3000], [2500, 2500])
        plan = align_draft(d, TtsRealization((2000, 3000)), covering_clips(d))
        assert plan.voice_over_track == d.voice_over_track
        assert plan.video_nodes_track == d.video_nodes_track
        assert plan.total_duration == 5000

    def test_single_sentence_stretch(self):
        # one sentence drafted 2s realized 3s over a single 2s node onto a 10s clip
        d = simple_draft([2000], [2000])
        clips = ClipSet([ClipMeta(0, 10.0, 300)])
        plan = align_draft(d, TtsRealization((3000,)), clips)
        node = plan.video_nodes_track[0]
        assert (node.target_start, node.target_end) == (0, 3000)
        assert node.span_ms == 3000  # source window grew with the span
        assert plan.voice_over_track[0].target_end == 3000

    def test_clip_too_short_shortfall(self):
        d = simple_draft([2000], [2000])
        clips = ClipSet([ClipMeta(0, 2.5, 75)])
        with pytest.raises(ClipTooShort) as err:
            align_draft(d, TtsRealization((3000,)), clips)
        assert err.value.shortfall_ms == 500
        assert err.value.node_index == 0

    def test_clip_fits_to_the_millisecond(self):
        # 3000 ms of clip 0 remain after source_start 500: a 3000 ms span fits, 3001 ms does not
        d = simple_draft([2000], [2000], source_starts=[500])
        clips = ClipSet([ClipMeta(0, 3.5, 105)])
        assert align_draft(d, TtsRealization((3000,)), clips).video_nodes_track[0].span_ms == 3000
        with pytest.raises(ClipTooShort) as err:
            align_draft(d, TtsRealization((3001,)), clips)
        assert err.value.shortfall_ms == 1

    @pytest.mark.parametrize("durations, message", [
        ((True,), "realized duration [0] must be integer milliseconds, got True"),
        ((0,), "realized duration [0] must be > 0, got 0"),
    ])
    def test_realization_rejects_a_bool_or_empty_duration(self, durations, message):
        with pytest.raises(ValueError) as err:
            TtsRealization(durations)
        assert str(err.value) == message

    def test_length_mismatch(self):
        d = simple_draft([2000], [2000])
        with pytest.raises(LengthMismatch):
            align_draft(d, TtsRealization((1000, 1000)), covering_clips(d))

    def test_voice_total_equals_realized_sum(self):
        rng = random.Random(31)
        for _ in range(100):
            d = random_draft(rng)
            realized = TtsRealization(tuple(rng.randint(200, 8000) for _ in d.voice_over_track))
            plan = align_draft(d, realized, clips_covering(d, rng, min_slack_ms=10**6))
            assert plan.voice_over_track[-1].target_end == sum(realized.durations_ms)
            total_spans = sum(s.target_end - s.target_start for s in plan.voice_over_track)
            assert total_spans == sum(realized.durations_ms)

    def test_clip_order_preserved(self):
        rng = random.Random(33)
        for _ in range(100):
            d = random_draft(rng)
            realized = TtsRealization(tuple(rng.randint(200, 8000) for _ in d.voice_over_track))
            plan = align_draft(d, realized, clips_covering(d, rng, min_slack_ms=10**6))
            assert [n.index for n in plan.video_nodes_track] == [n.index for n in d.video_nodes_track]

    def test_deterministic(self):
        rng = random.Random(37)
        d = random_draft(rng)
        realized = TtsRealization(tuple(rng.randint(500, 4000) for _ in d.voice_over_track))
        clips = clips_covering(rng=random.Random(1), draft=d, min_slack_ms=10**6)
        a = align_draft(d, realized, clips)
        b = align_draft(d, realized, clips)
        assert serialize_plan(a) == serialize_plan(b)

    def test_node_without_sentence_keeps_length(self):
        # voice covers only the first node; the second keeps its drafted span
        sentences = (VoiceSentence("s0", 0, 1000),)
        nodes = (
            VideoNode(0, 0, 1000, 0),
            VideoNode(1, 1000, 2500, 0),
        )
        d = Draft(sentences, nodes, DecorationSetting())
        plan = align_draft(d, TtsRealization((4000,)), covering_clips(d))
        assert plan.video_nodes_track[0].span_ms == 4000
        assert plan.video_nodes_track[1].span_ms == 1500

    def test_homogeneity_under_time_scaling(self):
        rng = random.Random(41)
        for _ in range(200):
            seed = rng.randrange(2**32)
            draft1, realized, clips1 = aligned_draft_and_clips(random.Random(seed), scale=1)
            draft2, _, clips2 = aligned_draft_and_clips(random.Random(seed), scale=2)
            assert draft1 == draft2
            plan1 = align_draft(draft1, TtsRealization(realized), clips1)
            plan2 = align_draft(draft1, TtsRealization(tuple(2 * r for r in realized)), clips2)
            assert plan2.total_duration == 2 * plan1.total_duration
            for a, b in zip(plan1.video_nodes_track, plan2.video_nodes_track):
                assert (b.target_start, b.target_end) == (2 * a.target_start, 2 * a.target_end)
            for a, b in zip(plan1.voice_over_track, plan2.voice_over_track):
                assert (b.target_start, b.target_end) == (2 * a.target_start, 2 * a.target_end)


# per track rule of check_alignment: voice and node spans of a plan that
# breaks only that rule, and the path it is reported at
PLAN_TRACK_CASES = {
    "plan_voice_time_order": ([(0, 1000), (1000, 1000)], [(0, 1000)], "$.voice_over_track[1]"),
    "plan_voice_order": ([(1000, 2000), (0, 500)], [(0, 2000)], "$.voice_over_track[1]"),
    "plan_voice_overlap": ([(0, 1500), (1000, 2000)], [(0, 2000)], "$.voice_over_track[1]"),
    "plan_node_time_order": ([], [(0, 1000), (1000, 1000)], "$.video_nodes_track[1]"),
    "plan_node_order": ([], [(1000, 2000), (0, 1000)], "$.video_nodes_track[1]"),
    "plan_node_overlap": ([], [(0, 1500), (1000, 2000)], "$.video_nodes_track[1]"),
    "plan_node_gap": ([], [(0, 1000), (1500, 2000)], "$.video_nodes_track[1]"),
}


class TestCheckAlignment:
    def test_align_output_passes(self):
        rng = random.Random(43)
        for _ in range(100):
            d = random_draft(rng)
            assert validate_draft(d).ok
            realized = TtsRealization(tuple(rng.randint(200, 8000) for _ in d.voice_over_track))
            plan = align_draft(d, realized, clips_covering(d, rng, min_slack_ms=10**6))
            report = check_alignment(plan)
            # voice may legitimately outlast the video when the draft's voice
            # extends past the last node; anything else is a defect
            assert report.rules() <= {"voice_past_end"}

    @pytest.mark.parametrize("rule", PLAN_TRACK_CASES)
    def test_track_rule_reports_its_id_and_path(self, rule):
        voice, nodes, path = PLAN_TRACK_CASES[rule]
        plan = RenderPlan(
            voice_over_track=tuple(VoiceSentence(f"s{i}", a, b) for i, (a, b) in enumerate(voice)),
            video_nodes_track=tuple(VideoNode(i, a, b, 0) for i, (a, b) in enumerate(nodes)),
            total_duration=nodes[-1][1],
        )
        assert [(v.rule, v.path) for v in check_alignment(plan).violations] == [(rule, path)]

    def test_voice_past_end_detected(self):
        plan = RenderPlan(
            voice_over_track=(VoiceSentence("s", 0, 2000), VoiceSentence("t", 2000, 5000)),
            video_nodes_track=(VideoNode(0, 0, 3000, 0),),
            total_duration=3000,
        )
        violations = check_alignment(plan).violations
        assert [(v.rule, v.path) for v in violations] == [("voice_past_end", "$.voice_over_track[1]")]

    def test_total_mismatch_detected(self):
        plan = RenderPlan(
            voice_over_track=(),
            video_nodes_track=(VideoNode(0, 0, 3000, 0),),
            total_duration=2500,
        )
        assert "total_duration_mismatch" in check_alignment(plan).rules()

    def test_unknown_asset_detected(self, fixtures_dir):
        catalog = AssetCatalog.load(fixtures_dir / "catalog.json")
        plan = RenderPlan(
            voice_over_track=(),
            video_nodes_track=(VideoNode(0, 0, 1000, 0),),
            total_duration=1000,
            assets=ResolvedAssets(tts_asset="nope", music_asset="music-pop-happy"),
        )
        violations = check_alignment(plan, catalog).violations
        assert [(v.rule, v.path) for v in violations] == [("unknown_asset", "$.assets.tts_asset")]
        assert check_alignment(plan).ok  # with no catalog, asset ids go unchecked


class TestMatchDecorations:
    def make_draft(self, tts=("Young",), avatar=(), music=("Pop", "Happy")):
        deco = DecorationSetting(tts_tags=tuple(tts), avatar_tags=tuple(avatar), music_tags=tuple(music))
        return Draft((), (), deco)

    def test_superset_wins(self):
        catalog = AssetCatalog(
            [
                AssetEntry("m-a", "Music", ("Pop",), ""),
                AssetEntry("m-b", "Music", ("Pop", "Happy"), ""),
                AssetEntry("t-a", "TTS", ("Young",), ""),
            ]
        )
        resolved = match_decorations(self.make_draft(), catalog)
        assert resolved.music_asset == "m-b"

    def test_tie_breaks_on_asset_id(self):
        catalog = AssetCatalog(
            [
                AssetEntry("m-z", "Music", ("Pop",), ""),
                AssetEntry("m-a", "Music", ("Happy",), ""),
                AssetEntry("t-a", "TTS", ("Young",), ""),
            ]
        )
        resolved = match_decorations(self.make_draft(), catalog)
        assert resolved.music_asset == "m-a"

    def test_empty_required_category(self):
        catalog = AssetCatalog([AssetEntry("t-a", "TTS", ("Young",), "")])
        with pytest.raises(NoCandidate) as err:
            match_decorations(self.make_draft(), catalog)
        assert err.value.category == "Music"

    def test_avatar_optional(self, fixtures_dir):
        catalog = AssetCatalog.load(fixtures_dir / "catalog.json")
        resolved = match_decorations(self.make_draft(avatar=()), catalog)
        assert resolved.avatar_asset is None
        resolved = match_decorations(self.make_draft(avatar=("Indoor kitchen",)), catalog)
        assert resolved.avatar_asset == "avatar-kitchen"

    def test_catalog_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            AssetCatalog([AssetEntry("x", "Music", ("Not A Label",), "")])

    def test_catalog_rejects_duplicate_id(self):
        with pytest.raises(ValueError):
            AssetCatalog(
                [AssetEntry("x", "Music", ("Pop",), ""), AssetEntry("x", "TTS", ("Young",), "")]
            )


def test_plan_serialization_roundtrip(fixtures_dir):
    d = simple_draft([2000, 1500], [1750, 1750])
    plan = align_draft(d, TtsRealization((2000, 1500)), covering_clips(d))
    catalog = AssetCatalog.load(fixtures_dir / "catalog.json")
    full = plan.with_assets(
        match_decorations(
            Draft((), (), DecorationSetting(tts_tags=("Young",), music_tags=("Pop",))), catalog
        )
    )
    blob = serialize_plan(full)
    assert blob == serialize_plan(full)
    assert b'"total_duration":3500' in blob


def test_fixture_plan_golden_bytes():
    # golden bytes of the fixture draft aligned with catalog.json: key order
    # and layout of the render plan are part of the format
    draft = parse_draft((FIX / "draft_template.json").read_bytes())
    plan = align_draft(draft, TtsRealization.load(FIX / "tts_noop.json"), ClipSet.load(FIX / "clips.json"))
    plan = plan.with_assets(match_decorations(draft, AssetCatalog.load(FIX / "catalog.json")))
    assert serialize_plan(plan) == (
        b'{"voice_over_track":[{"text":"Meet the SoundPod Mini, your new everyday earbuds.",'
        b'"target_start":0,"target_end":2800},'
        b'{"text":"Crystal clear calls and a battery that lasts all day.","target_start":2800,"target_end":6100},'
        b'{"text":"Tap the link and grab yours today.","target_start":6100,"target_end":8900}],'
        b'"video_nodes_track":[{"index":2,"target_start":0,"target_end":2500,"source_start":0},'
        b'{"index":0,"target_start":2500,"target_end":6000,"source_start":500},'
        b'{"index":4,"target_start":6000,"target_end":9000,"source_start":0}],'
        b'"assets":{"tts_asset":"tts-young-f-us","avatar_asset":"avatar-living-room","music_asset":"music-pop-happy"},'
        b'"total_duration":9000}'
    )
