import dataclasses
import hashlib
import json
import random
import warnings
from pathlib import Path

import pytest

from adcut import dataset as dataset_module
from adcut import sampling
from adcut.backends import RUBRICS, Client, InvalidResponse, MOCK_ENDPOINT, mock_backend
from adcut.clips import ClipMeta, ClipSet
from adcut.dataset import (
    FREE_PROMPT_DIMENSIONS,
    AsrOverlapWarning,
    AsrSentence,
    DatasetSample,
    Deconstruction,
    EmptyDeconstruction,
    FreePrompt,
    ProductInfo,
    RevisionInvalid,
    analyze_dimensions,
    assemble_sample,
    build_sample,
    deconstruct,
    free_prompt_from_dimensions,
    generate_free_prompt,
    load_instruction_template,
    read_corpus,
    render_free_prompt,
    sample_negative_count,
    sample_seed,
    verify_free_prompt,
    write_corpus,
)
from adcut.draft import DECORATION_KEYS, DecorationSetting, validate_draft
from adcut.jsonutil import dumps_canonical, loads
from adcut.taxonomy import TAG_FIELD_CATEGORY
from helpers import mock_backend_set

PRODUCT = ProductInfo(
    name="SoundPod Mini",
    brand="Auralis",
    price="$49.99",
    selling_points=("24-hour battery", "sweat resistant"),
)

DEC = Deconstruction(
    asr_sentences=(
        AsrSentence("First line.", 0, 2500),
        AsrSentence("Second line.", 2500, 6000),
    ),
    subtitle_ocr=("SALE",),
    shot_boundaries=(0, 2500, 6000),
    shot_captions=("a hand opens a box", "a woman smiles"),
    recommended_tags=DecorationSetting(
        tts_tags=("Young", "Female"), avatar_tags=("Young",), music_tags=("Pop",)
    ),
)

ANALYSIS = {
    "duration": "about 6 seconds",
    "visual_storyline": "unboxing then reaction",
    "target_audience": "young commuters",
    "script_routine": "hook then call to action",
    "selling_points_emphasis": "battery life",
    "avatar": "young woman",
    "tts_timbre": "young female voice",
    "music_style": "upbeat pop",
}


def pool(n=6):
    return ClipSet(ClipMeta(i, 2.0 + i * 0.5, round((2.0 + i * 0.5) * 30)) for i in range(n))


class TestNegativeCount:
    def test_non_negative_and_deterministic(self):
        draws1 = [sample_negative_count(random.Random(42)) for _ in range(1)]
        rng1, rng2 = random.Random(7), random.Random(7)
        seq1 = [sample_negative_count(rng1) for _ in range(100)]
        seq2 = [sample_negative_count(rng2) for _ in range(100)]
        assert seq1 == seq2
        assert all(isinstance(v, int) and v >= 0 for v in seq1 + draws1)

    def test_distribution_roughly_centered(self):
        rng = random.Random(123)
        draws = [sample_negative_count(rng) for _ in range(20000)]
        mean = sum(draws) / len(draws)
        assert 2.5 <= mean <= 3.1  # clipping pulls the mean above 2.5


class TestFreePrompt:
    def test_at_least_one_dimension_required(self):
        with pytest.raises(ValueError):
            FreePrompt(rendered="x")
        with pytest.raises(ValueError):
            FreePrompt(duration="10s", rendered=" ")

    def test_render_orders_dimensions(self):
        text = render_free_prompt({"music_style": "pop", "duration": "10s"})
        assert text.index("Video duration") < text.index("Music style")

    def test_dropout_zero_keeps_all(self):
        prompt = generate_free_prompt(ANALYSIS, random.Random(1), dropout_p=0.0)
        assert all(prompt.dimensions()[d] for d in ANALYSIS)

    def test_dropout_deterministic(self):
        a = generate_free_prompt(ANALYSIS, random.Random(5), dropout_p=0.5)
        b = generate_free_prompt(ANALYSIS, random.Random(5), dropout_p=0.5)
        assert a == b

    def test_dropout_rate(self):
        rng = random.Random(99)
        kept = {d: 0 for d in ANALYSIS}
        trials = 10000
        for _ in range(trials):
            prompt = generate_free_prompt(ANALYSIS, rng, dropout_p=0.5)
            for d, v in prompt.dimensions().items():
                if v:
                    kept[d] += 1
        for d, count in kept.items():
            assert 0.48 <= count / trials <= 0.52, d

    def test_always_at_least_one_retained(self):
        rng = random.Random(3)
        for _ in range(500):
            prompt = generate_free_prompt({"duration": "5s"}, rng, dropout_p=0.9)
            assert prompt.duration == "5s"

    def test_invalid_dropout(self):
        with pytest.raises(ValueError):
            generate_free_prompt(ANALYSIS, random.Random(0), dropout_p=1.0)

    @pytest.mark.parametrize("analysis", [{}, {"duration": None, "music_style": ""}], ids=["empty", "all-blank"])
    def test_an_analysis_without_a_usable_dimension_is_rejected(self, analysis):
        with pytest.raises(ValueError, match="^analysis contains no usable dimensions$"):
            generate_free_prompt(analysis, random.Random(0))


class TestVerify:
    def test_approving_judge_is_identity(self):
        prompt = free_prompt_from_dimensions({"duration": "10s"})
        judge = mock_backend_set(1).judge
        assert verify_free_prompt(prompt, ANALYSIS, judge) == prompt

    def test_always_revising_judge_capped_at_two_rounds(self):
        class Revising:  # revises each dimension of every prompt it is sent
            def send(self, role, url, body, headers, timeout_s):
                dimensions = loads(body)["dimensions"]
                revised = {k: None if v is None else v + " (revised)" for k, v in dimensions.items()}
                return 200, dumps_canonical({"approved": False, "revision": revised})

        counting = CountingCalls(Revising())
        judge = Client("judge", MOCK_ENDPOINT, transport=counting)
        prompt = free_prompt_from_dimensions({"duration": "10s"})
        out = verify_free_prompt(prompt, ANALYSIS, judge)
        assert counting.count == 2
        assert out.duration == "10s (revised) (revised)"

    def test_invalid_revision_raises(self):
        class JunkTransport:
            def send(self, role, url, body, headers, timeout_s):
                return 200, dumps_canonical({"approved": False, "revision": {}})

        judge = Client("judge", MOCK_ENDPOINT, transport=JunkTransport())
        prompt = free_prompt_from_dimensions({"duration": "10s"})
        with pytest.raises(RevisionInvalid):
            verify_free_prompt(prompt, ANALYSIS, judge)


class CountingCalls:
    def __init__(self, inner):
        self.inner = inner
        self.count = 0
        self.bodies = []

    def send(self, role, url, body, headers, timeout_s):
        self.count += 1
        self.bodies.append(body)
        return self.inner.send(role, url, body, headers, timeout_s)


class TestDeconstruct:
    def test_mock_passthrough(self, video_fixtures):
        backends = mock_backend_set(7, video_fixtures)
        dec = deconstruct("vid-earbuds", backends)
        fixture = video_fixtures["videos"]["vid-earbuds"]
        assert list(dec.shot_boundaries) == fixture["shots"]
        assert [s.text for s in dec.asr_sentences] == [e["text"] for e in fixture["asr"]]
        assert list(dec.shot_captions) == fixture["captions"]
        assert dec.recommended_tags.tts_tags == tuple(fixture["tags"]["tts_tags"])
        assert dec.shot_count() == 3

    def test_unsorted_shots_normalized(self):
        fixtures = {
            "videos": {
                "v": {
                    "asr": [{"text": "hi", "start": 0, "end": 1000}],
                    "ocr": [],
                    "shots": [5000, 0, 2500, 2500],
                    "captions": ["a", "b"],
                    "tags": {"tts_tags": [], "avatar_tags": [], "music_tags": []},
                }
            }
        }
        dec = deconstruct("v", mock_backend_set(1, fixtures))
        assert dec.shot_boundaries == (0, 2500, 5000)

    def test_overlapping_asr_truncated_with_warning(self):
        fixtures = {
            "videos": {
                "v": {
                    "asr": [
                        {"text": "one", "start": 0, "end": 3000},
                        {"text": "two", "start": 2000, "end": 4000},
                    ],
                    "ocr": [],
                    "shots": [0, 4000],
                    "captions": ["c"],
                    "tags": {"tts_tags": [], "avatar_tags": [], "music_tags": []},
                }
            }
        }
        with pytest.warns(AsrOverlapWarning):
            dec = deconstruct("v", mock_backend_set(1, fixtures))
        assert dec.asr_sentences[0].end_ms == 2000
        assert dec.asr_sentences[1].start_ms == 2000

    def test_a_too_short_shot_after_a_late_first_boundary_is_an_invalid_answer(self):
        # the shot is 1 ms long (1000 fps); measured from 0 it would end 2001 ms in, a valid clip
        fixtures = {"videos": {"v": {"asr": [], "ocr": [], "shots": [1000, 1001, 3000], "captions": [], "tags": {}}}}
        with pytest.raises(InvalidResponse, match=r"^shots: shot 0 of 1 ms: native fps 1000\.000 outside"):
            deconstruct("v", mock_backend_set(1, fixtures))

    def test_correction_request_carries_prompt_hash(self, video_fixtures, monkeypatch):
        prompt = Path(dataset_module.__file__).parent / "prompts" / "asr_correction.txt"
        expected = hashlib.sha256(prompt.read_bytes()).hexdigest()
        backends = mock_backend_set(7, video_fixtures)
        counting = CountingCalls(backends.judge.transport)
        backends = dataclasses.replace(backends, judge=Client("judge", MOCK_ENDPOINT, transport=counting))
        deconstruct("vid-earbuds", backends)
        # a second deconstruction must not read the package resource again
        monkeypatch.setattr(dataset_module, "resources", None)
        deconstruct("vid-earbuds", backends)
        sent = [loads(b) for b in counting.bodies]
        hashes = [b["prompt_sha256"] for b in sent if b.get("task") == "correct_asr"]
        assert hashes == [expected, expected]


class TestNormalizeAsr:
    @staticmethod
    def normalized(*spans):
        return [(s.text, s.start_ms, s.end_ms)
                for s in dataset_module._normalize_asr([AsrSentence(*span) for span in spans])]

    def test_a_zero_length_sentence_is_dropped(self):
        assert self.normalized(("one", 0, 1000), ("none", 1500, 1500)) == [("one", 0, 1000)]

    def test_touching_sentences_are_kept_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.normalized(("one", 0, 1000), ("two", 1000, 2000)) == [("one", 0, 1000), ("two", 1000, 2000)]

    def test_a_sentence_starting_with_the_one_before_replaces_it(self):
        # sorted by start then end, "one" comes first and is truncated to nothing
        with pytest.warns(AsrOverlapWarning):
            assert self.normalized(("two", 0, 2000), ("one", 0, 1000)) == [("two", 0, 2000)]


class FixedAnswer:
    """A transport that answers every call with ``answer``."""

    def __init__(self, answer):
        self.answer = answer

    def send(self, role, url, body, headers, timeout_s):
        return 200, dumps_canonical(self.answer)


class TestAnalyze:
    def test_deconstruction_golden_bytes(self):
        # the analysis request carries these bytes; key order is part of the format
        assert dumps_canonical(DEC.to_dict()) == (
            b'{"asr_sentences":[{"text":"First line.","start":0,"end":2500},'
            b'{"text":"Second line.","start":2500,"end":6000}],'
            b'"subtitle_ocr":["SALE"],"shot_boundaries":[0,2500,6000],'
            b'"shot_captions":["a hand opens a box","a woman smiles"],'
            b'"recommended_tags":{"tts_tags":["Young","Female"],"avatar_tags":["Young"],"music_tags":["Pop"]}}'
        )

    def test_payload_contains_deconstruction_verbatim(self, video_fixtures):
        transport = mock_backend(7, video_fixtures)
        counting = CountingCalls(transport)
        judge = Client("judge", MOCK_ENDPOINT, transport=counting)
        analyze_dimensions(DEC, judge, video_ref=None)
        sent = loads(counting.bodies[0])
        assert sent["deconstruction"] == DEC.to_dict()

    def test_entries_for_all_dimensions(self):
        judge = mock_backend_set(7).judge
        analysis = analyze_dimensions(DEC, judge)
        assert set(analysis) == {
            "duration", "visual_storyline", "target_audience", "script_routine",
            "selling_points_emphasis", "avatar", "tts_timbre", "music_style",
        }

    def test_storyline_absent_without_captions(self):
        bare = Deconstruction(
            asr_sentences=DEC.asr_sentences,
            subtitle_ocr=(),
            shot_boundaries=DEC.shot_boundaries,
            shot_captions=(),
            recommended_tags=DEC.recommended_tags,
        )
        analysis = analyze_dimensions(bare, mock_backend_set(7).judge)
        assert analysis["visual_storyline"] is None

    def test_a_judge_storyline_is_kept_only_when_there_are_captions(self):
        judge = Client("judge", MOCK_ENDPOINT, transport=FixedAnswer({"analysis": ANALYSIS}))
        bare = dataclasses.replace(DEC, shot_captions=())
        assert analyze_dimensions(DEC, judge)["visual_storyline"] == ANALYSIS["visual_storyline"]
        assert analyze_dimensions(bare, judge)["visual_storyline"] is None


class TestAssemble:
    def prompt(self):
        return free_prompt_from_dimensions({"duration": "about 6 seconds"})

    @pytest.mark.parametrize("text", ["{unknown}", "{0}", "{free_prompt.x}", "{product_block"],
                             ids=["unknown name", "positional", "attribute", "unclosed"])
    def test_template_with_a_placeholder_no_sample_fills_is_rejected(self, tmp_path, text):
        path = tmp_path / "template.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="^bad placeholder: "):
            load_instruction_template(path)

    def test_zero_negatives_permutation_of_positives(self):
        empty_pool = ClipSet([])
        sample = assemble_sample(DEC, PRODUCT, self.prompt(), empty_pool, random.Random(4), sample_id="s")
        assert sorted(sample.clip_order) == ["pos:0", "pos:1"]
        assert sample.negatives == ()
        assert len(sample.ground_truth.video_nodes_track) == 2

    def test_ground_truth_maps_back_to_source_order(self):
        rng = random.Random(11)
        sample = assemble_sample(DEC, PRODUCT, self.prompt(), pool(), rng, sample_id="s")
        order = list(sample.clip_order)
        gt_indices = [n.index for n in sample.ground_truth.video_nodes_track]
        assert [order[i] for i in gt_indices] == ["pos:0", "pos:1"]
        durations = [n.span_ms for n in sample.ground_truth.video_nodes_track]
        assert durations == [2500, 3500]

    def test_fixed_seed_deterministic(self):
        a = assemble_sample(DEC, PRODUCT, self.prompt(), pool(), random.Random(9), sample_id="s")
        b = assemble_sample(DEC, PRODUCT, self.prompt(), pool(), random.Random(9), sample_id="s")
        assert a == b

    def test_pool_smaller_than_draw_caps(self):
        tiny = ClipSet([ClipMeta(0, 2.0, 60)])
        capped_seen = False
        for seed in range(40):
            sample = assemble_sample(DEC, PRODUCT, self.prompt(), tiny, random.Random(seed), sample_id="s")
            assert len(sample.negatives) <= 1
            capped_seen = capped_seen or sample.negatives_capped
        assert capped_seen

    def test_ground_truth_always_valid_and_negative_free(self):
        for seed in range(50):
            rng = random.Random(seed)
            sample = assemble_sample(DEC, PRODUCT, self.prompt(), pool(), rng, sample_id=f"s{seed}")
            assert validate_draft(sample.ground_truth).ok
            gt = set(n.index for n in sample.ground_truth.video_nodes_track)
            assert not (gt & set(sample.negatives))
            assert len(set(sample.clip_order)) == len(sample.clip_order)

    def test_negatives_never_in_ground_truth_10k(self):
        clip_pool = pool()
        prompt = self.prompt()
        for seed in range(10000):
            sample = assemble_sample(DEC, PRODUCT, prompt, clip_pool, random.Random(seed), sample_id=f"s{seed}")
            gt = {n.index for n in sample.ground_truth.video_nodes_track}
            assert not (gt & set(sample.negatives))
            assert sorted(gt | set(sample.negatives)) == list(range(len(sample.clip_order)))

    def test_instruction_contains_blocks(self):
        sample = assemble_sample(DEC, PRODUCT, self.prompt(), pool(), random.Random(2), sample_id="s")
        assert "SoundPod Mini" in sample.instruction
        assert "<image>" in sample.instruction
        assert "Video duration: about 6 seconds" in sample.instruction
        assert sample.instruction.count("Clip ") == len(sample.clip_order)

    def test_the_materials_block_builds_no_per_clip_record(self, monkeypatch):
        expected = assemble_sample(DEC, PRODUCT, self.prompt(), pool(), random.Random(2), sample_id="s").instruction

        def forbidden(*args, **kwargs):
            raise AssertionError("the materials block builds a per-clip sampling record")

        for name in ("ClipPlan", "PathwaySample", "plan_clip"):
            monkeypatch.setattr(sampling, name, forbidden)
        sample = assemble_sample(DEC, PRODUCT, self.prompt(), pool(), random.Random(2), sample_id="s")
        assert sample.instruction == expected
        # a 2.5 s clip at the default 2 fps: 5 fast frames; 0.5 fps: 1 slow frame
        block = dataset_module._materials_block([2500], sampling.parse_preset(dataset_module.DEFAULT_SAMPLING_PRESET))
        assert block == f"Clip 0 (duration 2.5s): fast frames: {' '.join(['<image>'] * 5)}; slow frames: <image>"

    def test_empty_deconstruction(self):
        bare = Deconstruction(
            asr_sentences=(),
            subtitle_ocr=(),
            shot_boundaries=(0, 1000),
            shot_captions=("c",),
            recommended_tags=DecorationSetting(),
        )
        with pytest.raises(EmptyDeconstruction):
            assemble_sample(bare, PRODUCT, self.prompt(), pool(), random.Random(0), sample_id="s")


class TestCorpusIO:
    def test_write_read_inverse(self, tmp_path, video_fixtures):
        backends = mock_backend_set(7, video_fixtures)
        negative_pool = ClipSet(
            ClipMeta(e["index"], e["duration_ms"] / 1000.0, max(1, round(e["duration_ms"] * 0.03)))
            for e in video_fixtures["negative_pool"]
        )
        samples = [
            build_sample(ref, PRODUCT, backends, negative_pool, corpus_seed=7)
            for ref in ("vid-earbuds", "vid-blender")
        ]
        path = tmp_path / "corpus.jsonl"
        write_corpus(samples, path)
        again = read_corpus(path)
        assert again == samples
        round2 = tmp_path / "corpus2.jsonl"
        write_corpus(again, round2)
        assert path.read_bytes() == round2.read_bytes()

    def test_sample_seed_stable(self):
        assert sample_seed(7, "vid") == sample_seed(7, "vid")
        assert sample_seed(7, "vid") != sample_seed(8, "vid")
        assert sample_seed(7, "vid") != sample_seed(7, "div")


def test_build_sample_end_to_end_deterministic(video_fixtures):
    negative_pool = ClipSet(
        ClipMeta(e["index"], e["duration_ms"] / 1000.0, max(1, round(e["duration_ms"] * 0.03)))
        for e in video_fixtures["negative_pool"]
    )
    outs = []
    for _ in range(2):
        backends = mock_backend_set(7, json.loads(json.dumps(video_fixtures)))
        sample = build_sample("vid-serum", PRODUCT, backends, negative_pool, corpus_seed=7)
        outs.append(dumps_canonical(sample.to_dict()))
    assert outs[0] == outs[1]
    sample = DatasetSample.from_dict(loads(outs[0]))
    assert validate_draft(sample.ground_truth).ok


def test_one_vocabulary_of_prompt_dimensions_and_decoration_fields():
    # the free prompt, the corpus builder, the judge rubric and the mock judge name the same dimensions in order
    prompt_fields = tuple(f.name for f in dataclasses.fields(FreePrompt) if f.name != "rendered")
    mock_analysis = mock_backend(1)._analyze({"deconstruction": DEC.to_dict()})
    assert prompt_fields == FREE_PROMPT_DIMENSIONS == tuple(RUBRICS["free_prompt_eval"][1]) == tuple(mock_analysis)
    decoration_fields = tuple(f.name for f in dataclasses.fields(DecorationSetting))
    assert decoration_fields == tuple(TAG_FIELD_CATEGORY) == DECORATION_KEYS
