import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import adcut
from adcut import backends, cli
from adcut.cli import main
from adcut.dataset import read_corpus
from adcut.draft import parse_draft, serialize_draft, validate_draft
from adcut.jsonutil import dumps_canonical

FIX = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_fixture(self, capsys):
        code, out, _ = run(capsys, "validate", str(FIX / "draft_template.json"), "--clips", str(FIX / "clips.json"))
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_overlap_fixture(self, capsys, tmp_path):
        doc = json.loads((FIX / "draft_template.json").read_text())
        doc["voice_over_track"][1]["target_start"] = 2000  # overlaps sentence 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        rules = {v["rule"] for v in json.loads(out)["violations"]}
        assert "voice_overlap" in rules

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "parse" in err

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "validate", str(FIX / "draft_template.json"), "--format", "table")
        assert code == 0
        assert "ok" in out

    def test_deeply_nested_draft_is_a_parse_error(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_bytes(b"[" * 100_000)
        code, _, err = run(capsys, "validate", str(deep))
        assert code == 2
        assert "nested too deeply" in err
        assert "Traceback" not in err


class TestPlan:
    def test_plan_eight_second_clip(self, capsys, tmp_path):
        clips = tmp_path / "one.json"
        clips.write_text(json.dumps({"clips": [{"index": 0, "duration_s": 8.0, "frame_count": 240}]}))
        code, out, _ = run(capsys, "plan", str(clips), "--preset", "fast:2/4,slow:0.5/16")
        assert code == 0
        plan = json.loads(out)
        assert plan["totals"]["fast_tokens"] == 64
        assert plan["totals"]["slow_tokens"] == 64
        assert plan["reduction_factor"] == 1

    def test_table_one_style_preset(self, capsys):
        code, out, _ = run(capsys, "plan", str(FIX / "clips.json"), "--preset", "fast:2/4 slow:0.125/64")
        assert code == 0
        plan = json.loads(out)
        assert plan["preset"]["slow"] == {"fps": 0.125, "tokens_per_frame": 64}

    def test_bad_preset(self, capsys):
        code, _, err = run(capsys, "plan", str(FIX / "clips.json"), "--preset", "nonsense")
        assert code == 2
        assert "preset" in err

    def test_empty_clips(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text('{"clips": []}')
        code, _, _ = run(capsys, "plan", str(empty), "--preset", "2/4")
        assert code == 2


class TestBuildDataset:
    def test_builds_valid_corpus(self, capsys, tmp_path):
        out = tmp_path / "corpus.jsonl"
        code, _, err = run(capsys, "build-dataset", "--config", str(FIX / "adcut.ini"), "--out", str(out))
        assert code == 0, err
        samples = read_corpus(out)
        assert len(samples) == 3
        for s in samples:
            assert validate_draft(s.ground_truth).ok

    def test_deterministic_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(capsys, "build-dataset", "--config", str(FIX / "adcut.ini"), "--out", str(a))[0] == 0
        assert run(capsys, "build-dataset", "--config", str(FIX / "adcut.ini"), "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_template_is_usage_error(self, capsys, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text(
            "[paths]\nfixtures = {fix}\ntemplate = missing_template.txt\n[dataset]\nseed = 7\n".format(
                fix=FIX / "videos.json"
            )
        )
        code, _, err = run(capsys, "build-dataset", "--config", str(ini), "--out", str(tmp_path / "c.jsonl"))
        assert code == 2
        assert "template" in err

    @pytest.mark.parametrize(
        "product, error",
        [
            (None, "fixtures lack product info for video 'vid-serum'"),
            ({"name": "Serum", "selling_points": []},
             "bad product info for video 'vid-serum': at least one selling point is required"),
            ("Serum", "bad product info for video 'vid-serum': not a JSON object"),
        ],
        ids=["missing", "no selling points", "not an object"],
    )
    def test_bad_product_info_fails_before_any_backend_call(
        self, capsys, tmp_path, monkeypatch, video_fixtures, product, error
    ):
        video_fixtures["videos"]["vid-serum"]["product"] = product
        (tmp_path / "videos.json").write_text(json.dumps(video_fixtures))
        ini = tmp_path / "cfg.ini"
        ini.write_text((FIX / "adcut.ini").read_text())
        calls = []
        monkeypatch.setattr(backends.Client, "call", lambda client, payload: calls.append(client.role))
        out = tmp_path / "corpus.jsonl"
        code, _, err = run(capsys, "build-dataset", "--config", str(ini), "--out", str(out), "--concurrency", "2")
        assert code == 2
        assert err == f"error: {error}\n"
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("videos", {"vid-serum": 1}, "videos.vid-serum is not a JSON object"),
            ("negative_pool", [{"index": 0, "duration_ms": "2400"}],
             "negative_pool[0] needs integer index and duration_ms"),
            ("negative_pool", [{"index": 0, "duration_ms": 1}],
             "negative_pool: native fps 1000.000 outside [1, 240] for clip 0"),
        ],
        ids=["video not an object", "pool entry without integer duration", "pool clip too short"],
    )
    def test_misshapen_fixtures_are_a_usage_error(self, capsys, tmp_path, video_fixtures, key, value, reason):
        video_fixtures[key] = value
        fixtures = tmp_path / "videos.json"
        fixtures.write_text(json.dumps(video_fixtures))
        ini = tmp_path / "cfg.ini"
        ini.write_text((FIX / "adcut.ini").read_text())
        code, _, err = run(capsys, "build-dataset", "--config", str(ini), "--out", str(tmp_path / "corpus.jsonl"))
        assert code == 2
        assert err == f"error: fixtures file {fixtures}: {reason}\n"

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"\xff\xfe{product_block}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            (b"{product_block} {unknown}", "bad placeholder: 'unknown'"),
        ],
        ids=["not UTF-8", "unknown placeholder"],
    )
    def test_bad_template_fails_before_any_backend_call(self, capsys, tmp_path, monkeypatch, content, reason):
        template = tmp_path / "template.txt"
        template.write_bytes(content)
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[paths]\nfixtures = {FIX / 'videos.json'}\ntemplate = template.txt\n[dataset]\nseed = 7\n")
        calls = []
        monkeypatch.setattr(backends.Client, "call", lambda client, payload: calls.append(client.role))
        out = tmp_path / "corpus.jsonl"
        code, _, err = run(capsys, "build-dataset", "--config", str(ini), "--out", str(out))
        assert code == 2
        assert err == f"error: template {template}: {reason}\n"
        assert calls == []
        assert not out.exists()


@pytest.fixture
def corpus_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    code = main(["build-dataset", "--config", str(FIX / "adcut.ini"), "--out", str(out)])
    assert code == 0
    return out


class TestGenerate:
    def test_perfect_mock_equals_ground_truth(self, capsys, corpus_path, tmp_path):
        out = tmp_path / "pred.jsonl"
        code, _, err = run(
            capsys, "generate", str(corpus_path), "--endpoint-generate", "mock:perfect",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0, err
        samples = {s.sample_id: s for s in read_corpus(corpus_path)}
        lines = [json.loads(l) for l in out.read_text().splitlines() if l]
        assert len(lines) == len(samples)
        for line in lines:
            predicted = parse_draft(line["draft_json"])
            assert serialize_draft(predicted) == serialize_draft(samples[line["sample_id"]].ground_truth)

    def test_resume_skips_existing(self, capsys, corpus_path, tmp_path):
        out = tmp_path / "pred.jsonl"
        first = read_corpus(corpus_path)[0]
        out.write_text(dumps_canonical({"sample_id": first.sample_id, "draft_json": "{}"}).decode() + "\n")
        code, _, _ = run(
            capsys, "generate", str(corpus_path), "--endpoint-generate", "mock:perfect",
            "--seed", "7", "--out", str(out), "--resume",
        )
        assert code == 0
        lines = [json.loads(l) for l in out.read_text().splitlines() if l]
        assert len(lines) == 3
        assert lines[0]["draft_json"] == "{}"  # untouched
        assert {l["sample_id"] for l in lines} == {s.sample_id for s in read_corpus(corpus_path)}

    def test_backend_miss_is_recorded_then_resumed(self, capsys, corpus_path, tmp_path, monkeypatch):
        mock_backend = backends.mock_backend

        def without_blender(seed, fixtures):
            drafts = {sid: d for sid, d in fixtures["drafts"].items() if sid != "vid-blender"}
            return mock_backend(seed, {**fixtures, "drafts": drafts})

        argv = ["generate", str(corpus_path), "--endpoint-generate", "mock:perfect", "--seed", "7"]
        full = tmp_path / "full.jsonl"
        assert main([*argv, "--out", str(full)]) == 0
        monkeypatch.setattr(backends, "mock_backend", without_blender)
        partial = {}
        for concurrency in ("1", "4"):
            partial[concurrency] = tmp_path / f"pred{concurrency}.jsonl"
            code, _, err = run(capsys, *argv, "--concurrency", concurrency, "--out", str(partial[concurrency]))
            assert code == 1
            assert "warning: vid-blender: generate: no ground-truth draft for sample 'vid-blender'" in err
            assert "Traceback" not in err
        out = partial["1"]
        assert out.read_bytes() == partial["4"].read_bytes()
        assert [json.loads(l)["sample_id"] for l in out.read_text().splitlines()] == ["vid-earbuds", "vid-serum"]

        monkeypatch.undo()
        before = out.read_bytes()
        code, _, err = run(capsys, *argv, "--out", str(out), "--resume")
        assert code == 0, err
        after = out.read_bytes()
        assert after.startswith(before)
        assert [json.loads(l)["sample_id"] for l in after[len(before):].splitlines()] == ["vid-blender"]
        def by_id(path):
            return {r["sample_id"]: r["draft_json"] for r in map(json.loads, path.read_text().splitlines())}

        assert by_id(out) == by_id(full)

    def test_resume_drops_a_torn_last_line(self, capsys, corpus_path, tmp_path):
        argv = ["generate", str(corpus_path), "--endpoint-generate", "mock:perfect", "--seed", "7"]
        full = tmp_path / "full.jsonl"
        assert main([*argv, "--out", str(full)]) == 0
        whole = full.read_bytes()
        last = whole.rstrip(b"\n").rfind(b"\n") + 1
        out = tmp_path / "pred.jsonl"
        out.write_bytes(whole[: last + 100])  # a killed run cut the last line short
        code, _, err = run(capsys, *argv, "--out", str(out), "--resume")
        assert code == 0, err
        assert err == f"warning: {out}: dropped a torn last line; its sample is generated again\n"
        assert out.read_bytes() == whole

    def test_resume_terminates_a_whole_last_line(self, capsys, corpus_path, tmp_path):
        argv = ["generate", str(corpus_path), "--endpoint-generate", "mock:perfect", "--seed", "7"]
        full = tmp_path / "full.jsonl"
        assert main([*argv, "--out", str(full)]) == 0
        whole = full.read_bytes()
        out = tmp_path / "pred.jsonl"
        out.write_bytes(whole[: whole.rstrip(b"\n").rfind(b"\n")])  # last two lines lost, newline too
        code, _, err = run(capsys, *argv, "--out", str(out), "--resume")
        assert code == 0, err
        assert out.read_bytes() == whole

    def test_resume_rejects_a_torn_line_before_the_last(self, capsys, corpus_path, tmp_path):
        argv = ["generate", str(corpus_path), "--endpoint-generate", "mock:perfect", "--seed", "7"]
        out = tmp_path / "pred.jsonl"
        assert main([*argv, "--out", str(out)]) == 0
        first, second, third = out.read_bytes().splitlines(keepends=True)
        torn = first[:100] + b"\n" + second + third
        out.write_bytes(torn)
        code, _, err = run(capsys, *argv, "--out", str(out), "--resume")
        assert code == 2
        assert err.startswith(f"error: {out}:1: malformed JSON"), err
        assert out.read_bytes() == torn


class TestEvaluate:
    def _generate(self, corpus_path, tmp_path, endpoint):
        out = tmp_path / "pred.jsonl"
        assert main([
            "generate", str(corpus_path), "--endpoint-generate", endpoint, "--seed", "7", "--out", str(out)
        ]) == 0
        return out

    def test_perfect_predictions(self, capsys, corpus_path, tmp_path):
        pred = self._generate(corpus_path, tmp_path, "mock:perfect")
        code, out, _ = run(capsys, "evaluate", str(corpus_path), str(pred))
        assert code == 0
        report = json.loads(out)
        assert report["cra"] == 100.0
        assert report["csa"] == 100.0
        assert report["dtpr"]["precision"] == 100.0
        assert report["dtpr"]["recall"] == 100.0

    def test_adjacent_swap(self, capsys, corpus_path, tmp_path):
        pred = self._generate(corpus_path, tmp_path, "mock:swap_adjacent")
        code, out, _ = run(capsys, "evaluate", str(corpus_path), str(pred))
        assert code == 0
        report = json.loads(out)
        assert report["cra"] == 0.0
        assert report["csa"] == 100.0

    def test_orphans_exit_one(self, capsys, corpus_path, tmp_path):
        pred = self._generate(corpus_path, tmp_path, "mock:perfect")
        lines = pred.read_text().splitlines()
        extra = json.loads(lines[0])
        extra["sample_id"] = "ghost"
        pred.write_text("\n".join(lines[1:] + [json.dumps(extra)]) + "\n")
        code, _, err = run(capsys, "evaluate", str(corpus_path), str(pred))
        assert code == 1
        assert "ghost" in err
        assert "missing prediction" in err

    def test_with_judge_table(self, capsys, corpus_path, tmp_path):
        pred = self._generate(corpus_path, tmp_path, "mock:perfect")
        code, out, _ = run(
            capsys, "evaluate", str(corpus_path), str(pred),
            "--with-judge", "--config", str(FIX / "adcut.ini"), "--format", "table",
        )
        assert code == 0
        assert out.splitlines()[0].split() == ["CRA", "CSA", "FPF", "VSR", "SQ", "DTPR"]
        assert "100.00" in out

    def test_with_vsr_reports_number(self, capsys, corpus_path, tmp_path):
        pred = self._generate(corpus_path, tmp_path, "mock:perfect")
        code, out, _ = run(
            capsys, "evaluate", str(corpus_path), str(pred),
            "--with-vsr", "--config", str(FIX / "adcut.ini"), "--seed", "7",
        )
        assert code == 0
        report = json.loads(out)
        assert report["vsr"] is not None
        assert -100.0 <= report["vsr"] <= 100.0
        # hashed mock embeddings are seed-deterministic
        code2, out2, _ = run(
            capsys, "evaluate", str(corpus_path), str(pred),
            "--with-vsr", "--config", str(FIX / "adcut.ini"), "--seed", "7",
        )
        assert json.loads(out2)["vsr"] == report["vsr"]


class TestAlign:
    def test_noop_alignment(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "align", str(FIX / "draft_template.json"), str(FIX / "tts_noop.json"),
            str(FIX / "clips.json"), "--catalog", str(FIX / "catalog.json"),
        )
        assert code == 0
        plan = json.loads(out)
        draft = json.loads((FIX / "draft_template.json").read_text())
        assert plan["video_nodes_track"] == draft["video_nodes_track"]
        assert plan["total_duration"] == 9000
        assert plan["assets"]["tts_asset"] == "tts-young-f-us"
        assert plan["assets"]["music_asset"] == "music-pop-happy"

    def test_catalog_needs_no_seed_in_ci_mode(self, capsys, monkeypatch):
        # decoration matching is deterministic, so CI mode asks for no --seed
        monkeypatch.setenv("ADCUT_CI", "1")
        monkeypatch.delenv("ADCUT_CONFIG", raising=False)
        code, out, err = run(
            capsys, "align", str(FIX / "draft_template.json"), str(FIX / "tts_noop.json"),
            str(FIX / "clips.json"), "--catalog", str(FIX / "catalog.json"),
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["assets"]["music_asset"] == "music-pop-happy"

    def test_stretched_alignment_matches_library(self, capsys, tmp_path):
        tts = tmp_path / "tts.json"
        tts.write_text(json.dumps({"durations_ms": [4200, 3300, 2800]}))
        code, out, _ = run(
            capsys, "align", str(FIX / "draft_template.json"), str(tts), str(FIX / "clips.json"),
        )
        assert code == 0
        plan = json.loads(out)
        assert plan["voice_over_track"][0]["target_end"] == 4200
        assert plan["total_duration"] == plan["video_nodes_track"][-1]["target_end"]

    def test_clip_too_short(self, capsys, tmp_path):
        tts = tmp_path / "tts.json"
        tts.write_text(json.dumps({"durations_ms": [28000, 3300, 2800]}))
        code, _, err = run(
            capsys, "align", str(FIX / "draft_template.json"), str(tts), str(FIX / "clips.json"),
        )
        assert code == 1
        assert "more source footage" in err

    def test_tts_length_mismatch(self, capsys, tmp_path):
        tts = tmp_path / "tts.json"
        tts.write_text(json.dumps({"durations_ms": [1000]}))
        code, _, err = run(
            capsys, "align", str(FIX / "draft_template.json"), str(tts), str(FIX / "clips.json"),
        )
        assert code == 1


TAXONOMY = Path(adcut.__file__).parent / "data" / "decorative_tags.json"

# input file -> (the fixture it stands in for, argv with the file as {})
INPUT_FILES = {
    "draft": (FIX / "draft_template.json", ["validate", "{}", "--clips", str(FIX / "clips.json")]),
    "clip set": (FIX / "clips.json", ["plan", "{}", "--preset", "fast:2/4,slow:0.5/16"]),
    "TTS file": (FIX / "tts_noop.json",
                 ["align", str(FIX / "draft_template.json"), "{}", str(FIX / "clips.json")]),
    "catalog": (FIX / "catalog.json", ["align", str(FIX / "draft_template.json"), str(FIX / "tts_noop.json"),
                                       str(FIX / "clips.json"), "--catalog", "{}"]),
    "taxonomy": (TAXONOMY, ["validate", str(FIX / "draft_template.json"), "--taxonomy", "{}"]),
}


def _run_on(tmp_path, what, content):
    """``main`` on the subcommand of ``INPUT_FILES[what]`` with ``content`` as that input file."""
    path = tmp_path / "input.json"
    if content is None:
        path.unlink(missing_ok=True)
    else:
        path.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    return main([arg.replace("{}", str(path)) for arg in INPUT_FILES[what][1]]), path


def _subtrees(doc, at=()):
    yield at
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()):
        yield from _subtrees(value, (*at, key))


def _replaced(doc, at, value):
    if not at:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[at[0]] = _replaced(doc[at[0]], at[1:], value)
    return copy


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def input_files(draw):
    """An input file: arbitrary JSON, raw bytes, or its fixture with one subtree replaced."""
    what = draw(st.sampled_from(sorted(INPUT_FILES)))
    kind = draw(st.sampled_from(["json", "bytes", "fixture"]))
    if kind == "json":
        return what, draw(json_values)
    if kind == "bytes":
        return what, draw(st.binary(max_size=32))
    fixture = json.loads(INPUT_FILES[what][0].read_text("utf-8"))
    at = draw(st.sampled_from(list(_subtrees(fixture))))
    return what, _replaced(fixture, at, draw(json_values))


# the hostile inputs that printed a traceback before every input file went through one loader
HOSTILE_INPUTS = [
    ("clip set", {"clips": [1]}, "'int' object is not subscriptable"),
    ("clip set", {"clips": [{"index": 0, "duration_s": "5", "frame_count": 150}]},
     "'<=' not supported between instances of 'str' and 'int'"),
    ("TTS file", [1], "list indices must be integers or slices, not str"),
    ("catalog", {"assets": [1]}, "'int' object is not subscriptable"),
    ("catalog", {"assets": [{"asset_id": "a", "category": "Nope"}]}, "asset a: unknown category 'Nope'"),
    ("taxonomy", None, "No such file or directory"),
    ("taxonomy", {"TTS": 3}, "category 'TTS' must map subcategories to label lists"),
]


def hostile_examples(test):
    """``test`` with an explicit example for each of ``HOSTILE_INPUTS``."""
    for what, content, _ in HOSTILE_INPUTS:
        test = example((what, content))(test)
    return test


class TestInputFiles:
    @pytest.mark.parametrize("what, content, reason", HOSTILE_INPUTS)
    def test_misshapen_input_file_is_a_usage_error(self, capsys, tmp_path, what, content, reason):
        code, path = _run_on(tmp_path, what, content)
        assert code == 2
        assert capsys.readouterr().err == f"error: {what} {path}: {reason}\n"

    @pytest.mark.parametrize(
        "what, content, reason",
        [
            ("clip set", {"clip": []}, "missing field 'clips'"),
            ("TTS file", b"[[[", "does not parse: Expecting value: line 1 column 4 (char 3)"),
            ("catalog", b"[" * 100_000, "does not parse: nested too deeply"),
            ("draft", b"{not json", "does not parse: malformed JSON: Expecting property name enclosed in "
                                   "double quotes: line 1 column 2 (char 1)"),
        ],
        ids=["missing field", "malformed JSON", "nested too deeply", "malformed draft"],
    )
    def test_each_failure_class_has_its_reason(self, capsys, tmp_path, what, content, reason):
        code, path = _run_on(tmp_path, what, content)
        assert code == 2
        assert capsys.readouterr().err == f"error: {what} {path}: {reason}\n"

    @pytest.mark.filterwarnings("ignore::adcut.draft.UnknownKeyWarning")
    @settings(max_examples=150)
    @given(input_files())
    @hostile_examples
    @example(("draft", b"\xff\xfe"))
    @example(("taxonomy", b""))
    @example(("catalog", {"assets": [{"asset_id": "a", "category": "TTS", "labels": [["x"]]}]}))
    def test_no_input_file_escapes_the_exit_codes(self, tmp_path_factory, case):
        code, _ = _run_on(tmp_path_factory.mktemp("fuzz"), *case)
        assert code in (0, 1, 2)


class TestHostileInput:
    BAD_LINES = {
        "malformed JSON": "{not json",
        "missing field": '{"draft_json": "{}"}',
        "non-object line": "[1, 2]",
        "array sample_id": None,  # the first line with its sample_id made a JSON array
    }

    @pytest.mark.parametrize(
        "target, problem",
        [
            (target, problem)
            for target in ("corpus", "predictions", "resume file")
            for problem in ("malformed JSON", "missing field", "non-object line", "array sample_id", "missing file")
            # --resume with no output yet starts afresh, so a missing resume file is no error
            if (target, problem) != ("resume file", "missing file")
        ],
    )
    def test_bad_jsonl_is_a_usage_error(self, capsys, corpus_path, tmp_path, target, problem):
        corpus, predictions = tmp_path / "corpus.jsonl", tmp_path / "pred.jsonl"
        corpus.write_bytes(corpus_path.read_bytes())
        assert main(["generate", str(corpus), "--endpoint-generate", "mock:", "--seed", "7",
                     "--out", str(predictions)]) == 0
        bad = corpus if target == "corpus" else predictions
        if problem == "missing file":
            bad.unlink()
        else:
            first = bad.read_text("utf-8").splitlines()[0]
            line = self.BAD_LINES[problem] or json.dumps({**json.loads(first), "sample_id": [1]})
            bad.write_text(first + "\n" + line + "\n", encoding="utf-8")
        if target == "resume file":
            argv = ["generate", str(corpus), "--endpoint-generate", "mock:", "--seed", "7",
                    "--out", str(predictions), "--resume"]
        else:
            argv = ["evaluate", str(corpus), str(predictions)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        prefix = f"error: {bad}: " if problem == "missing file" else f"error: {bad}:2: "
        assert err.startswith(prefix), err
        assert "Traceback" not in err


class TestEndpointResolution:
    @pytest.fixture
    def http_calls(self, monkeypatch, video_fixtures):
        """Serve every HTTP role from the fixture mock and record the URLs called."""
        mock = backends.mock_backend(7, video_fixtures)
        urls = []

        def send(self, role, url, body, headers, timeout_s):
            urls.append(url)
            return mock.send(role, url, body, headers, timeout_s)

        monkeypatch.setattr(backends.RequestsTransport, "send", send)
        return urls

    def test_http_caption_builds_the_all_mock_corpus(self, capsys, corpus_path, tmp_path, http_calls):
        out = tmp_path / "mixed.jsonl"
        code, _, err = run(
            capsys, "build-dataset", "--config", str(FIX / "adcut.ini"),
            "--endpoint-caption", "http://stub.invalid", "--out", str(out),
        )
        assert code == 0, err
        assert out.read_bytes() == corpus_path.read_bytes()
        assert http_calls and set(http_calls) == {"http://stub.invalid/v1/caption"}

    def test_http_judge_gives_the_all_mock_report(self, capsys, corpus_path, tmp_path, http_calls):
        pred = tmp_path / "pred.jsonl"
        assert main(["generate", str(corpus_path), "--endpoint-generate", "mock:swap_adjacent:0.5",
                     "--seed", "7", "--out", str(pred)]) == 0
        argv = ["evaluate", str(corpus_path), str(pred), "--with-judge", "--with-vsr",
                "--config", str(FIX / "adcut.ini"), "--seed", "7"]
        code, all_mock, err = run(capsys, *argv)
        assert code == 0, err
        assert http_calls == []
        code, mixed, err = run(capsys, *argv, "--endpoint-judge", "http://stub.invalid")
        assert code == 0, err
        assert mixed == all_mock
        assert http_calls and set(http_calls) == {"http://stub.invalid/v1/judge"}

    @pytest.mark.parametrize("content", [None, "{not json", "[1]"], ids=["missing", "malformed", "not an object"])
    def test_bad_configured_fixtures_are_a_usage_error(self, capsys, corpus_path, tmp_path, content):
        pred = tmp_path / "pred.jsonl"
        assert main(["generate", str(corpus_path), "--endpoint-generate", "mock:", "--seed", "7",
                     "--out", str(pred)]) == 0
        if content is not None:
            (tmp_path / "fixtures.json").write_text(content)
        ini = tmp_path / "cfg.ini"
        ini.write_text("[paths]\nfixtures = fixtures.json\n")
        code, _, err = run(capsys, "evaluate", str(corpus_path), str(pred), "--with-judge",
                           "--config", str(ini), "--seed", "7")
        assert code == 2
        assert "fixtures" in err and "Traceback" not in err

    def test_mock_miss_is_a_recorded_build_failure(self, capsys, tmp_path, monkeypatch):
        mock_backend = backends.mock_backend

        def without_serum(seed, fixtures):
            videos = {ref: v for ref, v in fixtures["videos"].items() if ref != "vid-serum"}
            return mock_backend(seed, {**fixtures, "videos": videos})

        monkeypatch.setattr(backends, "mock_backend", without_serum)
        out = tmp_path / "corpus.jsonl"
        code, _, err = run(capsys, "build-dataset", "--config", str(FIX / "adcut.ini"), "--out", str(out))
        assert code == 1
        assert "warning: vid-serum: shots: no fixture for video 'vid-serum'" in err
        assert [s.sample_id for s in read_corpus(out)] == ["vid-earbuds", "vid-blender"]


# Runs one subcommand in a fresh interpreter and reports which of the
# offline pipeline's modules, and of the modules the aligner no longer
# needs, it loaded.
_IMPORT_PROBE = """
import json, sys
from adcut.cli import main
code = main(sys.argv[1:])
heavy = ("numpy", "adcut.backends", "adcut.dataset", "adcut.metrics", "concurrent.futures", "fractions")
print(json.dumps({"code": code, "loaded": [m for m in heavy if m in sys.modules]}))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", str(FIX / "draft_template.json"), "--clips", str(FIX / "clips.json")],
        ["plan", str(FIX / "clips.json"), "--preset", "fast:2/4,slow:0.5/16"],
        ["align", str(FIX / "draft_template.json"), str(FIX / "tts_noop.json"), str(FIX / "clips.json"),
         "--catalog", str(FIX / "catalog.json")],
    ],
    ids=lambda argv: argv[0],
)
def test_request_commands_skip_offline_pipeline_imports(argv, tmp_path):
    src = str(Path(adcut.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("ADCUT_CONFIG", None)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv, "--out", str(tmp_path / "out.json")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"code": 0, "loaded": []}


_GENERATE = ["generate", "{corpus}", "--endpoint-generate", "mock:"]
_OUT = ["--out", "{tmp}/out.jsonl"]
_BUILD = ["build-dataset", "--seed", "7", *_OUT]


# case -> (argv, config file text or None, start of the error after "error: ");
# {corpus}, {tmp}, {nodir} and {ini} are filled in by the test
@pytest.mark.parametrize(
    "argv, ini, error",
    [
        (["validate", str(FIX / "draft_template.json"), "--out", "{nodir}"], None, "{nodir}: No such file or directory"),
        (["build-dataset", "--config", str(FIX / "adcut.ini"), "--out", "{nodir}"], None, "{nodir}: No such file or directory"),
        ([*_GENERATE, "--seed", "7", "--out", "{nodir}"], None, "{nodir}: No such file or directory"),
        ([*_GENERATE, "--seed", "7"], None, "an output path is required"),
        ([*_GENERATE, *_OUT, "--seed", "7", "--concurrency", "0"], None, "concurrency must be at least 1, got 0"),
        ([*_GENERATE, *_OUT, "--seed", "7", "--concurrency", "-3"], None, "concurrency must be at least 1, got -3"),
        (["evaluate", "{corpus}", "{corpus}", "--concurrency", "0"], None, "concurrency must be at least 1, got 0"),
        ([*_GENERATE, *_OUT, "--config", "{ini}"], "seed = 7\n", "{ini}: File contains no section headers"),
        ([*_GENERATE, *_OUT, "--config", "{ini}"], "[dataset]\nseed = 7\nseed = 8\n", "{ini}: While reading from"),
        ([*_GENERATE, *_OUT, "--config", "{ini}"], "[dataset]\nseed = x\n", "{ini}: [dataset] seed: expected int, got 'x'"),
        ([*_GENERATE, *_OUT, "--config", "{ini}"], "[dataset]\nseed = 7\nconcurrency = abc\n",
         "{ini}: [dataset] concurrency: expected int, got 'abc'"),
        ([*_BUILD, "--config", "{ini}"], f"[paths]\nfixtures = {FIX / 'videos.json'}\n[dataset]\ndropout_p = x\n",
         "{ini}: [dataset] dropout_p: expected float, got 'x'"),
        ([*_BUILD, "--config", str(FIX / "adcut.ini"), "--dropout-p", "1.5"], None,
         "dropout probability must be in [0, 1), got 1.5"),
        ([*_BUILD, "--config", str(FIX / "adcut.ini"), "--preset", "fast:x"], None, "bad preset: "),
        (["generate", "{corpus}", "--endpoint-generate", "mock:swap_adjacent:x", "--seed", "7", *_OUT], None,
         "bad mock endpoint 'mock:swap_adjacent:x': the rate is not a number"),
    ],
    ids=[
        "validate to a missing directory", "build-dataset to a missing directory", "generate to a missing directory",
        "generate without an output path", "--concurrency 0", "--concurrency -3", "evaluate --concurrency 0",
        "no section header", "duplicate key", "seed not an int", "concurrency not an int",
        "dropout_p not a float", "--dropout-p 1.5", "bad preset", "bad mock rate",
    ],
)
def test_bad_output_path_or_config_is_a_usage_error(capsys, corpus_path, tmp_path, argv, ini, error):
    names = {"corpus": corpus_path, "tmp": tmp_path, "nodir": tmp_path / "nodir" / "out.jsonl", "ini": tmp_path / "bad.ini"}
    if ini is not None:
        names["ini"].write_text(ini)
    code, _, err = run(capsys, *(arg.format(**names) for arg in argv))
    assert code == 2
    assert err.startswith("error: " + error.format(**names)), err
    assert "Traceback" not in err
    assert not (tmp_path / "nodir").exists()


# subcommand -> (the flags it registers besides --config and --out, its positional
# arguments, a flag with its value that only another subcommand registers)
SUBCOMMAND_FLAGS = {
    "validate": ({"--clips", "--format", "--taxonomy"}, [str(FIX / "draft_template.json")], ["--seed", "3"]),
    "plan": ({"--preset", "--format"}, [str(FIX / "clips.json")], ["--taxonomy", "t.json"]),
    "build-dataset": (
        {"--dropout-p", "--preset", "--seed", "--concurrency",
         "--endpoint-asr", "--endpoint-ocr", "--endpoint-shots", "--endpoint-caption", "--endpoint-judge"},
        [], ["--endpoint-generate", "mock:"],
    ),
    "generate": ({"--resume", "--seed", "--concurrency", "--endpoint-generate"}, ["c.jsonl"],
                 ["--endpoint-judge", "mock:"]),
    "evaluate": (
        {"--with-judge", "--with-vsr", "--seed", "--format", "--concurrency", "--taxonomy",
         "--endpoint-judge", "--endpoint-embed"},
        ["c.jsonl", "p.jsonl"], ["--catalog", "catalog.json"],
    ),
    "align": ({"--catalog", "--taxonomy"},
              [str(FIX / "draft_template.json"), str(FIX / "tts_noop.json"), str(FIX / "clips.json")],
              ["--format", "table"]),
}


@pytest.mark.parametrize("command", SUBCOMMAND_FLAGS)
def test_subcommand_registers_only_the_flags_it_reads(capsys, command):
    flags, positionals, foreign = SUBCOMMAND_FLAGS[command]
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    registered = {s for action in subparsers.choices[command]._actions for s in action.option_strings}
    assert registered - {"-h", "--help"} == {"--config", "--out", *flags}
    code, _, err = run(capsys, command, *positionals, *foreign)
    assert code == 2
    assert f"unrecognized arguments: {' '.join(foreign)}" in err


def test_endpoint_roles_match_backend_roles():
    assert cli.ENDPOINT_ROLES == backends.ROLES


def test_unknown_subcommand_usage_error(capsys):
    assert main(["frobnicate"]) == 2
