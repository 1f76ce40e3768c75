import ast
import dataclasses
import json
import math
import random
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import adcut
from adcut import draft as draft_module, timeline
from adcut.clips import ClipMeta, ClipSet
from adcut.draft import (
    DecorationSetting,
    Draft,
    DraftSyntaxError,
    SchemaError,
    TimeValueError,
    UnknownKeyWarning,
    VideoNode,
    VoiceSentence,
    parse_draft,
    serialize_draft,
    validate_draft,
)
from adcut.taxonomy import TagTaxonomy, default_taxonomy

from helpers import SPAN_FIELDS, expected_draft_read, random_draft

MINIMAL = (
    '{"voice_over_track":[{"text":"hi","target_start":0,"target_end":2000}],'
    '"video_nodes_track":[{"index":0,"target_start":0,"target_end":2000,"source_start":0}],'
    '"decoration_setting":{"tts_tags":[],"avatar_tags":[],"music_tags":[]}}'
)


class TestParse:
    def test_minimal_document(self):
        d = parse_draft(MINIMAL.encode())
        assert len(d.voice_over_track) == 1
        assert len(d.video_nodes_track) == 1
        assert d.decoration_setting == DecorationSetting()

    def test_template_fixture_roundtrips(self, fixtures_dir):
        raw = (fixtures_dir / "draft_template.json").read_bytes()
        d = parse_draft(raw)
        assert [n.index for n in d.video_nodes_track] == [2, 0, 4]
        assert d.voice_over_track[0].target_end == 2800
        # canonical form preserves every field of the template
        again = parse_draft(serialize_draft(d))
        assert again == d
        assert json.loads(serialize_draft(d)) == json.loads(raw)

    def test_missing_source_start_names_path(self):
        doc = json.loads(MINIMAL)
        del doc["video_nodes_track"][0]["source_start"]
        with pytest.raises(SchemaError) as err:
            parse_draft(json.dumps(doc))
        assert err.value.path == "$.video_nodes_track[0].source_start"

    def test_malformed_json(self):
        with pytest.raises(DraftSyntaxError):
            parse_draft(b'{"voice_over_track": [')

    def test_unknown_top_level_key_rejected(self):
        doc = json.loads(MINIMAL)
        doc["extra"] = 1
        with pytest.raises(SchemaError, match="unknown top-level key"):
            parse_draft(json.dumps(doc))

    def test_unknown_nested_key_warns(self):
        doc = json.loads(MINIMAL)
        doc["video_nodes_track"][0]["note"] = "annotation"
        with pytest.warns(UnknownKeyWarning):
            d = parse_draft(json.dumps(doc))
        assert d.video_nodes_track[0].index == 0

    def test_fractional_time_rejected(self):
        doc = json.loads(MINIMAL)
        doc["voice_over_track"][0]["target_end"] = 1999.5
        with pytest.raises(TimeValueError):
            parse_draft(json.dumps(doc))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_time_rejected(self, token):
        text = MINIMAL.replace('"target_end":2000}]', f'"target_end":{token}}}]', 1)
        assert token in text
        with pytest.raises(TimeValueError, match="not a finite number") as err:
            parse_draft(text)
        assert err.value.path == "$.voice_over_track[0].target_end"
        assert "fractional" not in str(err.value)

    @pytest.mark.parametrize("depth", [10_000, 100_000])
    def test_deep_nesting_is_a_syntax_error(self, depth):
        with pytest.raises(DraftSyntaxError, match="nested too deeply"):
            parse_draft(b"[" * depth)
        with pytest.raises(DraftSyntaxError, match="nested too deeply"):
            parse_draft(b"[" * depth + b"]" * depth)

    def test_integral_float_time_accepted(self):
        doc = json.loads(MINIMAL)
        doc["voice_over_track"][0]["target_end"] = 2000.0
        assert parse_draft(json.dumps(doc)).voice_over_track[0].target_end == 2000

    def test_negative_time_rejected(self):
        doc = json.loads(MINIMAL)
        doc["video_nodes_track"][0]["source_start"] = -5
        with pytest.raises(TimeValueError):
            parse_draft(json.dumps(doc))

    def test_boolean_time_rejected(self):
        doc = json.loads(MINIMAL)
        doc["voice_over_track"][0]["target_start"] = True
        with pytest.raises(SchemaError):
            parse_draft(json.dumps(doc))

    def test_string_clip_index_rejected(self):
        doc = json.loads(MINIMAL)
        doc["video_nodes_track"][0]["index"] = "1"
        with pytest.raises(SchemaError) as err:
            parse_draft(json.dumps(doc))
        assert err.value.path == "$.video_nodes_track[0].index"

    def test_wrong_container_types(self):
        with pytest.raises(SchemaError):
            parse_draft(b"[1,2,3]")
        doc = json.loads(MINIMAL)
        doc["voice_over_track"] = {}
        with pytest.raises(SchemaError):
            parse_draft(json.dumps(doc))


    def test_unknown_key_warning_names_the_caller(self):
        doc = json.loads(MINIMAL)
        for obj in (doc["voice_over_track"][0], doc["video_nodes_track"][0], doc["decoration_setting"]):
            obj["note"] = "annotation"
        with pytest.warns(UnknownKeyWarning) as record:
            parse_draft(json.dumps(doc))
        assert [w.filename for w in record] == [__file__] * 3


MISSING = object()
SPAN_VALUE = st.one_of(
    st.integers(1, 10**6),
    st.just(0),
    st.integers(-(10**6), -1),
    st.integers(-(10**6), 10**6).map(float),  # integral
    st.integers(-(10**6), 10**6).map(lambda n: n + 0.5),  # fractional
    st.just(math.nan),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.just(MISSING),
)


@st.composite
def span(draw, names):
    obj = {}
    for name in draw(st.permutations(names)):  # the reader must not depend on the document's key order
        if draw(st.integers(0, 3)):  # three fields in four take a plain value, so many drafts are accepted
            value = draw(st.text(max_size=8) if name == "text" else st.integers(0, 10**6))
        else:
            value = draw(SPAN_VALUE)
        if value is not MISSING:
            obj[name] = value
    if draw(st.booleans()):
        obj["note"] = draw(SPAN_VALUE.filter(lambda v: v is not MISSING))
    return obj


@st.composite
def draft_document(draw):
    doc = {track: draw(st.lists(span(names), max_size=2)) for track, names in SPAN_FIELDS.items()}
    doc["decoration_setting"] = {"tts_tags": [], "avatar_tags": [], "music_tags": []}
    return doc


@settings(max_examples=300)
@given(draft_document())
@example({"voice_over_track": [{"text": "a", "target_start": 0, "target_end": 0}], "video_nodes_track": [
    {"index": 0, "target_start": 0, "target_end": 0, "source_start": 0}], "decoration_setting": {
    "tts_tags": [], "avatar_tags": [], "music_tags": []}})
@example({"voice_over_track": [], "video_nodes_track": [
    {"index": 2.0, "target_start": 0, "target_end": 1, "source_start": 0}], "decoration_setting": {
    "tts_tags": [], "avatar_tags": [], "music_tags": []}})
@example({"voice_over_track": [{"text": "a", "target_start": True, "target_end": 1}], "video_nodes_track": [],
          "decoration_setting": {"tts_tags": [], "avatar_tags": [], "music_tags": []}})
def test_reader_matches_the_field_oracle(doc):
    tracks, path, warned = expected_draft_read(doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            d = parse_draft(json.dumps(doc))
        except SchemaError as exc:
            assert exc.path == path
        else:
            assert path is None
            read = {
                "voice_over_track": [(s.text, s.target_start, s.target_end) for s in d.voice_over_track],
                "video_nodes_track": [(n.index, n.target_start, n.target_end, n.source_start)
                                      for n in d.video_nodes_track],
            }
            assert read == tracks
            times = [v for s in read["voice_over_track"] for v in s[1:]]
            assert all(type(v) is int for v in times + [v for n in read["video_nodes_track"] for v in n])
    assert [str(w.message) for w in caught if w.category is UnknownKeyWarning] == [
        f"{at}.note: unknown key ignored" for at in warned]


class TestSerialize:
    def test_empty_tracks(self):
        d = Draft((), (), DecorationSetting())
        assert serialize_draft(d) == (
            b'{"voice_over_track":[],"video_nodes_track":[],'
            b'"decoration_setting":{"tts_tags":[],"avatar_tags":[],"music_tags":[]}}'
        )

    def test_populated_draft_golden_bytes(self):
        # golden bytes: key order, escaping and raw UTF-8 are part of the format
        d = Draft(
            (VoiceSentence('Café "crème" \\ 50% off', 0, 1200), VoiceSentence("Tap the link.", 1200, 2500)),
            (VideoNode(3, 0, 1000, 250), VideoNode(0, 1000, 2500, 0)),
            DecorationSetting(tts_tags=("Young", "Female"), avatar_tags=(), music_tags=("Pop",)),
        )
        assert serialize_draft(d) == (
            '{"voice_over_track":[{"text":"Café \\"crème\\" \\\\ 50% off","target_start":0,"target_end":1200},'
            '{"text":"Tap the link.","target_start":1200,"target_end":2500}],'
            '"video_nodes_track":[{"index":3,"target_start":0,"target_end":1000,"source_start":250},'
            '{"index":0,"target_start":1000,"target_end":2500,"source_start":0}],'
            '"decoration_setting":{"tts_tags":["Young","Female"],"avatar_tags":[],"music_tags":["Pop"]}}'
        ).encode("utf-8")

    def test_roundtrip_idempotence_100_random(self):
        rng = random.Random(2024)
        for _ in range(100):
            d = random_draft(rng)
            once = serialize_draft(parse_draft(serialize_draft(d)))
            twice = serialize_draft(parse_draft(once))
            assert once == twice
            assert parse_draft(once) == d

    def test_distinct_drafts_distinct_bytes(self):
        rng = random.Random(7)
        drafts = [random_draft(rng) for _ in range(60)]
        blobs = {serialize_draft(d): d for d in drafts}
        distinct = {serialize_draft(d) for d in set(drafts)}
        assert len(distinct) == len(set(drafts))
        assert len(blobs) == len(set(drafts))


SPAN_ATTRS = {name for names in SPAN_FIELDS.values() for name in names}


def _assigned_span_fields(tree):
    """``(line, field)`` for each span field that ``tree`` assigns or deletes as an
    attribute, or names in a ``setattr`` or ``__setattr__`` call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)) and node.attr in SPAN_ATTRS:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in (
                "setattr", "__setattr__"):
            names = [arg.value for arg in node.args if isinstance(arg, ast.Constant)]
            yield from ((node.lineno, name) for name in names if name in SPAN_ATTRS)


class TestRecords:
    """Spans are slotted and hashed by value; every other draft and render-plan record stays frozen."""

    def test_equal_spans_compare_and_hash_equal(self):
        for make, fields, other in ((VoiceSentence, ("hi", 0, 2000), ("hi", 0, 2001)),
                                    (VideoNode, (3, 0, 1000, 250), (3, 0, 1000, 251))):
            a, b = make(*fields), make(*fields)
            assert a == b and hash(a) == hash(b) and a != make(*other)
            assert len({a, b, make(*other)}) == 2
            assert not hasattr(a, "__dict__")  # slotted

    def test_a_draft_parsed_twice_is_one_set_member(self):
        data = (Path(__file__).parent / "fixtures" / "draft_template.json").read_bytes()
        assert len({parse_draft(data), parse_draft(data)}) == 1

    def test_draft_and_render_plan_stay_frozen(self):
        d = parse_draft(MINIMAL)
        plan = timeline.RenderPlan(d.voice_over_track, d.video_nodes_track, 2000)
        for record, name in ((d, "voice_over_track"), (d.decoration_setting, "tts_tags"), (plan, "total_duration")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, ())
        unfrozen = {cls.__name__ for module in (draft_module, timeline) for cls in vars(module).values()
                    if dataclasses.is_dataclass(cls) and not cls.__dataclass_params__.frozen}
        assert unfrozen == {"VoiceSentence", "VideoNode"}

    def test_no_code_assigns_to_a_span_field(self):
        # stands in for the guarantee that frozen spans gave: a span's hash never changes
        root = Path(adcut.__file__).parent
        found = [(str(path.relative_to(root)), *where) for path in sorted(root.rglob("*.py"))
                 for where in _assigned_span_fields(ast.parse(path.read_text("utf-8")))]
        assert found == []

    def test_the_scan_finds_each_kind_of_assignment(self):
        code = "s.text = 1\nn.index += 1\ndel n.source_start\nsetattr(s, 'target_end', 1)\nobject.__setattr__(s, 'target_start', 1)"
        assert sorted(name for _, name in _assigned_span_fields(ast.parse(code))) == sorted(SPAN_ATTRS)


@st.composite
def draft_strategy(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_draft(random.Random(seed))


@given(draft_strategy())
def test_parse_serialize_identity(d):
    assert parse_draft(serialize_draft(d)) == d


class TestValidate:
    def test_valid_draft_empty_report(self):
        report = validate_draft(parse_draft(MINIMAL))
        assert report.ok
        assert report.violations == ()

    def test_unknown_clip_index(self):
        d = parse_draft(MINIMAL)
        node = VideoNode(index=7, target_start=0, target_end=2000, source_start=0)
        d = Draft(d.voice_over_track, (node,), d.decoration_setting)
        clips = ClipSet(ClipMeta(i, 5.0, 150) for i in range(5))
        report = validate_draft(d, clips)
        assert "unknown_clip_index" in report.rules()

    def test_voice_overlap(self):
        track = (
            VoiceSentence("a", 0, 2000),
            VoiceSentence("b", 1500, 3000),
        )
        report = validate_draft(Draft(track, (), DecorationSetting()))
        assert "voice_overlap" in report.rules()

    def test_unknown_tag_compound_label(self):
        # "Young" and "Female" exist separately; the compound does not
        deco = DecorationSetting(avatar_tags=("Young female",))
        report = validate_draft(Draft((), (), deco))
        assert "unknown_tag" in report.rules()

    def test_duplicate_tag(self):
        deco = DecorationSetting(music_tags=("Pop", "Pop"))
        report = validate_draft(Draft((), (), deco))
        assert "duplicate_tag" in report.rules()

    def test_node_gap_and_overlap_and_order(self):
        gap = (
            VideoNode(0, 0, 1000, 0),
            VideoNode(1, 1500, 2000, 0),
        )
        assert "node_gap" in validate_draft(Draft((), gap, DecorationSetting())).rules()
        overlap = (
            VideoNode(0, 0, 1000, 0),
            VideoNode(1, 500, 2000, 0),
        )
        assert "node_overlap" in validate_draft(Draft((), overlap, DecorationSetting())).rules()
        unsorted_nodes = (
            VideoNode(0, 3000, 4000, 0),
            VideoNode(1, 0, 1000, 0),
        )
        assert "node_order" in validate_draft(Draft((), unsorted_nodes, DecorationSetting())).rules()

    def test_duplicate_clip_index(self):
        nodes = (
            VideoNode(3, 0, 1000, 0),
            VideoNode(3, 1000, 2000, 0),
        )
        assert "duplicate_clip_index" in validate_draft(Draft((), nodes, DecorationSetting())).rules()

    def test_clip_overrun(self):
        nodes = (VideoNode(0, 0, 3000, 0),)
        clips = ClipSet([ClipMeta(0, 2.5, 75)])
        report = validate_draft(Draft((), nodes, DecorationSetting()), clips)
        assert "clip_overrun" in report.rules()

    def test_equal_starts_overlap_and_are_in_order(self):
        track = (VoiceSentence("a", 0, 2000), VoiceSentence("b", 0, 1000))
        report = validate_draft(Draft(track, (), DecorationSetting()))
        assert [(v.rule, v.path) for v in report.violations] == [("voice_overlap", "$.voice_over_track[1]")]

    def test_zero_length_sentence(self):
        track = (VoiceSentence("a", 500, 500),)
        report = validate_draft(Draft(track, (), DecorationSetting()))
        assert [(v.rule, v.path) for v in report.violations] == [("voice_time_order", "$.voice_over_track[0]")]

    def test_zero_length_node(self):
        nodes = (VideoNode(0, 1000, 1000, 0),)
        report = validate_draft(Draft((), nodes, DecorationSetting()))
        assert [(v.rule, v.path) for v in report.violations] == [("node_time_order", "$.video_nodes_track[0]")]

    def test_node_may_use_a_clip_to_its_last_millisecond(self):
        clips = ClipSet([ClipMeta(0, 2.5, 75)])
        exact = (VideoNode(0, 0, 2000, 500),)  # 500 + 2000 == 2500 ms
        assert validate_draft(Draft((), exact, DecorationSetting()), clips).ok
        over = (VideoNode(0, 0, 2000, 501),)
        assert validate_draft(Draft((), over, DecorationSetting()), clips).rules() == {"clip_overrun"}

    def test_empty_text(self):
        track = (VoiceSentence("   ", 0, 1000),)
        assert "voice_empty_text" in validate_draft(Draft(track, (), DecorationSetting())).rules()

    def test_validate_is_pure(self):
        rng = random.Random(5)
        d = random_draft(rng)
        assert validate_draft(d) == validate_draft(d)

    def test_random_valid_drafts_pass(self):
        rng = random.Random(99)
        for _ in range(50):
            assert validate_draft(random_draft(rng)).ok


class TestTaxonomy:
    def test_default_counts(self):
        doc = default_taxonomy().to_dict()
        assert sum(len(labels) for subs in doc.values() for labels in subs.values()) == 98
        assert {cat: len(subs) for cat, subs in doc.items()} == {"TTS": 3, "Avatar": 14, "Music": 2}

    def test_membership(self):
        tax = default_taxonomy()
        assert ("Music", "Pop") in tax
        assert ("TTS", "Pop") not in tax
        assert ("Avatar", "Indoor kitchen") in tax

    def test_roundtrip_load_save(self, tmp_path):
        tax = default_taxonomy()
        out = tmp_path / "tags.json"
        out.write_text(json.dumps(tax.to_dict(), ensure_ascii=False), encoding="utf-8")
        again = TagTaxonomy.load(out)
        assert again == tax
        assert again.to_dict() == tax.to_dict()
