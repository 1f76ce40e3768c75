import argparse
import base64
import itertools
import json
import math
import os
import re
import socket
import struct
import subprocess
import sys
import threading
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

import adcut
from adcut import backends, cli
from adcut.cli import main
from adcut.dataset import read_corpus
from adcut.draft import parse_draft, serialize_draft, validate_draft
from adcut.jsonutil import dumps_canonical
from helpers import packed_vectors, unpacked_vectors

FIX = Path(__file__).parent / "fixtures"
JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
                    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                    max_leaves=12)
# ("packed", dim, values, extra): an embed answer of one vector of ``dim`` values per input of the
# request, filled with ``values`` in turn (NaN, infinite, zero and overflowing ones too) and packed
# with ``struct``, with ``extra`` bytes more (fewer when negative), so its byte count is right, short or long
PACKED = st.tuples(
    st.just("packed"), st.integers(1, 40),
    st.lists(st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf, 1e300, -1e300]),
             min_size=1, max_size=8),
    st.sampled_from([0, 0, 0, -8, -1, 1, 8]),
)


def packed_reply(body, dim, values, extra):
    """The 200 answer that a ``PACKED`` reply gives to the embed request ``body``."""
    count = dim * len(json.loads(body)["inputs"])
    raw = struct.pack(f"<{count}d", *itertools.islice(itertools.cycle(values), count))
    raw = raw[:len(raw) + extra] if extra < 0 else raw + b"\x01" * extra
    return 200, dumps_canonical({"dim": dim, "vectors": base64.b64encode(raw).decode("ascii")})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a fixtures file's ``judge`` value the mocks cannot read, with the reason the CLI gives
MISSHAPEN_JUDGE = [
    pytest.param(5, "judge: expected dict, got int", id="judge not an object"),
    pytest.param({"scores": 5}, 'judge.scores must be "caps" or a JSON object, got 5', id="judge scores a number"),
    pytest.param({"scores": "max"}, """judge.scores must be "caps" or a JSON object, got 'max'""",
                 id="unknown judge scores"),
]


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

    def test_violations_golden_bytes(self, capsys):
        # one draft with thirteen kinds of violation: rule ids, paths, messages
        # and their order (per-item checks of a track before its neighbour
        # checks) are part of the output format
        code, out, _ = run(capsys, "validate", str(FIX / "draft_violations.json"), "--clips", str(FIX / "clips.json"),
                           "--format", "json")
        assert code == 1
        assert out == (
            '{"ok":false,"violations":['
            '{"rule":"voice_empty_text","path":"$.voice_over_track[0].text","message":"sentence text is empty"},'
            '{"rule":"voice_time_order","path":"$.voice_over_track[1]",'
            '"message":"target_start 3000 must be < target_end 2000"},'
            '{"rule":"voice_order","path":"$.voice_over_track[2]","message":"sentences not sorted by target_start"},'
            '{"rule":"voice_overlap","path":"$.voice_over_track[3]",'
            '"message":"sentence starts at 2000 before previous ends at 2500"},'
            '{"rule":"node_time_order","path":"$.video_nodes_track[1]",'
            '"message":"target_start 2500 must be < target_end 2000"},'
            '{"rule":"duplicate_clip_index","path":"$.video_nodes_track[1].index",'
            '"message":"clip 2 already used by node 0"},'
            '{"rule":"unknown_clip_index","path":"$.video_nodes_track[2].index",'
            '"message":"clip 9 not in the 5-clip set"},'
            '{"rule":"clip_overrun","path":"$.video_nodes_track[3]","message":"needs 6500 ms from a 5500 ms clip"},'
            '{"rule":"node_gap","path":"$.video_nodes_track[2]","message":"gap of 1000 ms after previous node"},'
            '{"rule":"node_order","path":"$.video_nodes_track[3]","message":"nodes not sorted by target_start"},'
            '{"rule":"node_overlap","path":"$.video_nodes_track[4]",'
            '"message":"node starts at 7000 before previous ends at 8000"},'
            '{"rule":"duplicate_tag","path":"$.decoration_setting.tts_tags[1]",'
            '"message":"\'Young\' repeated in tts_tags"},'
            '{"rule":"unknown_tag","path":"$.decoration_setting.tts_tags[2]",'
            '"message":"\'Martian\' is not a TTS label"}]}\n'
        )

    def test_table_format_has_one_row_per_violation(self, capsys):
        argv = ["validate", str(FIX / "draft_violations.json"), "--clips", str(FIX / "clips.json")]
        violations = json.loads(run(capsys, *argv)[1])["violations"]
        code, out, err = run(capsys, *argv, "--format", "table")
        assert (code, err) == (1, "")
        assert [row.split(None, 2) for row in out.splitlines()] == [
            [v["rule"], v["path"], v["message"]] for v in violations]

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

    def test_slow_pathway_is_capped_with_the_fast_one(self, capsys, tmp_path):
        # 10**6 s at 30 fps: x4096 brings fast to 488 frames; slow at its own 0.5 fps would list 500 000
        clips = tmp_path / "long.json"
        clips.write_text(json.dumps({"clips": [{"index": 0, "duration_s": 1e6, "frame_count": 30_000_000}]}))
        code, out, err = run(capsys, "plan", str(clips), "--preset", "fast:2/4,slow:0.5/16")
        assert code == 0, err
        assert len(out) < 100_000
        totals = json.loads(out)["totals"]
        assert totals["slow_frames"] <= totals["fast_frames"] <= 600

    def test_more_clips_than_the_frame_ceiling_is_a_violation(self, capsys, tmp_path):
        clips = tmp_path / "many.json"
        clips.write_text(json.dumps({"clips": [{"index": i, "duration_s": 1.0, "frame_count": 30} for i in range(601)]}))
        code, out, err = run(capsys, "plan", str(clips), "--preset", "fast:2/4,slow:0.5/16")
        assert (code, out) == (1, "")
        assert err == "error: 601 clips cannot fit a 600-frame ceiling at one frame per clip\n"

    def test_table_one_style_preset(self, capsys):
        code, out, _ = run(capsys, "plan", str(FIX / "clips.json"), "--preset", "fast:2/4 slow:0.125/64")
        assert code == 0
        plan = json.loads(out)
        assert plan["preset"]["slow"] == {"fps": 0.125, "tokens_per_frame": 64}

    def test_table_format_shows_the_json_plan(self, capsys):
        argv = ["plan", str(FIX / "clips.json"), "--preset", "fast:2/4,slow:0.5/16"]
        plan = json.loads(run(capsys, *argv)[1])
        code, out, err = run(capsys, *argv, "--format", "table")
        assert (code, err) == (0, "")
        *rows, totals = out.splitlines()
        assert [[int(n) for n in re.findall(r"\d+", row)] for row in rows] == [
            [c["index"], len(c["fast"]["frame_indices"]), c["fast"]["tokens"],
             len(c["slow"]["frame_indices"]), c["slow"]["tokens"]] for c in plan["clips"]]
        t = plan["totals"]
        assert re.findall(r"\d[\d.]*", totals) == [str(n) for n in (
            t["fast_frames"], t["fast_tokens"], t["slow_frames"], t["slow_tokens"], plan["effective_fast_fps"],
            plan["reduction_factor"])]

    def test_bad_preset(self, capsys):
        code, _, err = run(capsys, "plan", str(FIX / "clips.json"), "--preset", "nonsense")
        assert code == 2
        assert "preset" in err

    def test_empty_clips(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text('{"clips": []}')
        for preset in (["--preset", "2/4"], []):
            assert run(capsys, "plan", str(empty), *preset) == (2, "", "error: clip set is empty\n")

    def test_no_preset_and_no_config_plans_with_the_default_preset(self, capsys, monkeypatch):
        monkeypatch.delenv("ADCUT_CONFIG", raising=False)
        code, out, err = run(capsys, "plan", str(FIX / "clips.json"))
        assert (code, err) == (0, "")
        assert run(capsys, "plan", str(FIX / "clips.json"), "--preset", "fast:2/4,slow:0.5/16") == (0, out, "")

    @pytest.mark.parametrize("clip, preset, rate", [
        ({"index": 0, "duration_s": 1e300, "frame_count": 10**300}, "fast:100000000000/4,slow:0.5/16",
         "100000000000.0"),
        ({"index": 0, "duration_s": 1.0, "frame_count": 30}, "240.5/4", "240.5"),
    ], ids=["a finite rate that overflows a long clip", "just above 240 fps"])
    def test_a_rate_above_240_fps_is_a_bad_preset(self, capsys, tmp_path, clip, preset, rate):
        path = tmp_path / "clips.json"
        path.write_text(json.dumps({"clips": [clip]}))
        assert run(capsys, "plan", str(path), "--preset", preset) == (
            2, "", f"error: bad preset: fps must be <= 240, got {rate}\n")


# a preset other than the default, so that where a command took its preset shows in its output
OTHER_PRESET = "fast:1/4,slow:0.25/16"


@pytest.mark.parametrize("argv", [["plan", str(FIX / "clips.json")], ["build-dataset", "--seed", "7"]],
                         ids=lambda argv: argv[0])
def test_the_preset_flag_beats_the_config_key_which_beats_the_default(capsys, tmp_path, argv):
    def output(sampling: str, *flags: str) -> bytes:
        ini, out = tmp_path / "cfg.ini", tmp_path / "out"
        ini.write_text(f"[paths]\nfixtures = {FIX / 'videos.json'}\n{sampling}")  # build-dataset's products
        code, _, err = run(capsys, *argv, "--config", str(ini), "--out", str(out), *flags)
        assert code == 0, err
        return out.read_bytes()

    configured = f"[sampling]\npreset = {OTHER_PRESET}\n"
    default = output("")
    assert output("", "--preset", "fast:2/4,slow:0.5/16") == default
    assert output(configured) == output("", "--preset", OTHER_PRESET) != default
    assert output(configured, "--preset", "fast:2/4,slow:0.5/16") == default


_MAIN = "import sys; from adcut.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("given", ["file", "file with a BOM", "pipe on stdin"])
def test_a_config_reads_the_same_from_a_file_with_or_without_a_bom_or_a_pipe(capsys, tmp_path, given):
    text = f"[sampling]\npreset = {OTHER_PRESET}\n"
    flagged = run(capsys, "plan", str(FIX / "clips.json"), "--preset", OTHER_PRESET)
    assert flagged[0] == 0
    if given == "pipe on stdin":
        done = fresh_interpreter(_MAIN, "plan", str(FIX / "clips.json"), "--config", "/dev/stdin", input=text)
        configured = (done.returncode, done.stdout, done.stderr)
    else:
        ini = tmp_path / "cfg.ini"
        ini.write_text("\ufeff" * (given == "file with a BOM") + text, encoding="utf-8")
        configured = run(capsys, "plan", str(FIX / "clips.json"), "--config", str(ini))
    assert configured == flagged


def test_a_config_that_cannot_be_opened_is_a_usage_error_naming_it(capsys, tmp_path, monkeypatch):
    def refused(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    ini = tmp_path / "cfg.ini"
    ini.write_text("[sampling]\n")
    monkeypatch.setattr(cli, "open", refused, raising=False)  # as for a file the user may not read
    assert run(capsys, "plan", str(FIX / "clips.json"), "--config", str(ini)) == (
        2, "", f"error: {ini}: Permission denied\n")


def test_a_piped_config_reads_its_relative_paths_from_the_working_directory(tmp_path):
    piped, filed, ini = tmp_path / "piped.jsonl", tmp_path / "filed.jsonl", tmp_path / "cfg.ini"
    done = fresh_interpreter(_MAIN, "build-dataset", "--config", "/dev/stdin", "--seed", "7", "--out", str(piped),
                             input="[paths]\nfixtures = videos.json\n", cwd=FIX)
    assert (done.returncode, done.stderr) == (0, "")
    ini.write_text(f"[paths]\nfixtures = {FIX / 'videos.json'}\n")
    assert main(["build-dataset", "--config", str(ini), "--seed", "7", "--out", str(filed)]) == 0
    assert piped.read_bytes() == filed.read_bytes()


def test_the_out_flag_beats_the_dataset_out_key_which_beats_no_output(capsys, tmp_path):
    configured, flagged = tmp_path / "configured.jsonl", tmp_path / "flagged.jsonl"
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[paths]\nfixtures = {FIX / 'videos.json'}\n")
    assert run(capsys, "build-dataset", "--config", str(ini)) == (2, "", "error: an output path is required\n")
    ini.write_text(f"[paths]\nfixtures = {FIX / 'videos.json'}\n[dataset]\nout =\n")
    assert run(capsys, "build-dataset", "--config", str(ini)) == (2, "", "error: an output path is required\n")
    ini.write_text(f"[paths]\nfixtures = {FIX / 'videos.json'}\n[dataset]\nout = {configured}\n")
    assert run(capsys, "build-dataset", "--config", str(ini))[0] == 0
    corpus = configured.read_bytes()
    configured.unlink()
    assert run(capsys, "build-dataset", "--config", str(ini), "--out", str(flagged))[0] == 0
    assert flagged.read_bytes() == corpus and not configured.exists()


def test_a_relative_dataset_out_is_read_from_the_config_directory(capsys, tmp_path, monkeypatch):
    conf, cwd = tmp_path / "conf", tmp_path / "run"
    conf.mkdir()
    cwd.mkdir()
    ini = conf / "cfg.ini"
    ini.write_text(f"[paths]\nfixtures = {FIX / 'videos.json'}\n[dataset]\nout = corpus.jsonl\n")
    monkeypatch.chdir(cwd)
    assert run(capsys, "build-dataset", "--config", str(ini))[0] == 0
    assert (conf / "corpus.jsonl").exists() and not (cwd / "corpus.jsonl").exists()


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

    def test_a_video_named_twice_is_a_usage_error(self, capsys, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text((FIX / "adcut.ini").read_text().replace(
            "videos = vid-earbuds,vid-blender,vid-serum", "videos = vid-serum,vid-earbuds,vid-serum"))
        (tmp_path / "videos.json").write_bytes((FIX / "videos.json").read_bytes())
        out = tmp_path / "corpus.jsonl"
        code, _, err = run(capsys, "build-dataset", "--config", str(ini), "--out", str(out))
        assert code == 2
        assert err == "error: [dataset] videos names a video twice: vid-serum,vid-earbuds,vid-serum\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "product, error",
        [
            (None, "fixtures lack product info for video 'vid-serum'"),
            ({"name": "Serum", "selling_points": []},
             "bad product info for video 'vid-serum': at least one selling point is required"),
            ("Serum", "bad product info for video 'vid-serum': not a JSON object"),
            ({"name": 5, "selling_points": ["glow"]},
             "bad product info for video 'vid-serum': name: expected str, got int"),
            ({"name": "Serum", "selling_points": [1]},
             "bad product info for video 'vid-serum': selling_points: expected list of str, got list"),
            ({"name": "Serum", "selling_points": "abc"},
             "bad product info for video 'vid-serum': selling_points: expected list of str, got str"),
            ({"selling_points": ["a"]}, "bad product info for video 'vid-serum': missing field 'name'"),
            ({"name": " ", "selling_points": ["glow"]},
             "bad product info for video 'vid-serum': product name must be non-empty"),
        ],
        ids=["missing", "no selling points", "not an object", "name a number", "selling point a number",
             "selling points a string", "no name", "blank name"],
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
            ("videos", {"vid-serum": 1}, "videos.vid-serum: expected dict, got int"),
            ("negative_pool", [{"index": 0, "duration_ms": "2400"}],
             "negative_pool[0].duration_ms: expected int, got str"),
            ("negative_pool", [{"index": 0, "duration_ms": 1}],
             "negative_pool: native fps 1000.000 outside [1, 240] for clip 0"),
            ("negative_pool", [{"index": 0, "duration_ms": 10**400}], "negative_pool: clip 0: duration_ms too large"),
            ("negative_pool", [{"duration_ms": 2400}], "missing field 'negative_pool[0].index'"),
            *(("judge", *case.values) for case in MISSHAPEN_JUDGE),
            ("corruption", 5, "corruption: expected dict, got int"),
            ("corruption", {"mode": "bogus"},
             "corruption.mode must be none or one of swap_adjacent, inject_negative, drop_tag, got 'bogus'"),
            ("corruption", {"mode": "drop_tag", "rate": 5}, "corruption.rate must be a number in [0, 1], got 5"),
            ("corruption", {"rate": "0.5"}, "corruption.rate must be a number in [0, 1], got '0.5'"),
            ("drafts", 5, "drafts: expected dict, got int"),
            ("drafts", {"vid-serum": []}, "drafts.vid-serum: expected dict, got list"),
            ("negatives", {"vid-serum": [1, "2"]}, "negatives.vid-serum: expected list of int, got list"),
            ("negatives", [], "negatives: expected dict, got list"),
            ("judge", {"scores": "caps\ud800"}, "lone surrogate '\\ud800' in a string"),
        ],
        ids=["video not an object", "pool entry without integer duration", "pool clip too short",
             "pool clip past the float range", "pool entry without index",
             *(case.id for case in MISSHAPEN_JUDGE), "corruption a number", "unknown corruption mode",
             "corruption rate 5", "corruption rate a string", "drafts a number", "draft an array",
             "negative a string", "negatives an array", "lone surrogate"],
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
        "key, kind", [("asr", "array"), ("ocr", "array"), ("shots", "array"), ("captions", "array"), ("tags", "object")]
    )
    def test_misshapen_video_key_is_a_usage_error(self, capsys, tmp_path, video_fixtures, key, kind):
        video_fixtures["videos"]["vid-serum"][key] = 5
        fixtures = tmp_path / "videos.json"
        fixtures.write_text(json.dumps(video_fixtures))
        ini = tmp_path / "cfg.ini"
        ini.write_text((FIX / "adcut.ini").read_text())
        out = tmp_path / "corpus.jsonl"
        code, _, err = run(capsys, "build-dataset", "--config", str(ini), "--out", str(out))
        assert code == 2
        python_kind = {"array": "list", "object": "dict"}[kind]
        assert err == f"error: fixtures file {fixtures}: videos.vid-serum.{key}: expected {python_kind}, got int\n"
        assert not out.exists()

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


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A corpus and its mock predictions, built once for the module."""
    corpus, pred = (tmp_path_factory.mktemp("chain") / name for name in ("corpus.jsonl", "pred.jsonl"))
    assert main(["build-dataset", "--config", str(FIX / "adcut.ini"), "--out", str(corpus)]) == 0
    assert main(["generate", str(corpus), "--seed", "7", "--out", str(pred)]) == 0
    return corpus, pred


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

    def test_an_empty_corpus_is_a_usage_error(self, capsys, tmp_path):
        corpus, out = tmp_path / "corpus.jsonl", tmp_path / "pred.jsonl"
        corpus.write_bytes(b"\n")
        assert run(capsys, "generate", str(corpus), "--endpoint-generate", "mock:", "--seed", "7",
                   "--out", str(out)) == (2, "", "error: corpus is empty\n")
        assert not out.exists()

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
        code, _, err = run(capsys, *argv, "--out", str(out), "--resume")
        assert code == 0, err
        assert out.read_bytes() == full.read_bytes()  # the resumed sample's line is in corpus order

    def test_resume_after_a_gap_writes_corpus_order(self, capsys, corpus_path, tmp_path):
        argv = ["generate", str(corpus_path), "--endpoint-generate", "mock:perfect", "--seed", "7"]
        full = tmp_path / "full.jsonl"
        assert main([*argv, "--out", str(full)]) == 0
        first, second, third = full.read_bytes().splitlines(keepends=True)
        out = tmp_path / "pred.jsonl"
        out.write_bytes(first + third)
        code, _, err = run(capsys, *argv, "--out", str(out), "--resume")
        assert (code, err) == (0, "")
        assert out.read_bytes() == full.read_bytes()
        assert not Path(f"{out}.partial").exists()

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
        # --with-vsr adds VSR to the judge's report and changes nothing else
        argv = ["evaluate", str(corpus_path), str(pred), "--with-judge", "--config", str(FIX / "adcut.ini"),
                "--seed", "7"]
        judged, with_vsr = (json.loads(run(capsys, *argv, *more)[1]) for more in ([], ["--with-vsr"]))
        assert judged["vsr"] is None and with_vsr["vsr"] == report["vsr"]
        for key in ("cra", "csa", "fpf", "sq", "counts"):
            assert with_vsr[key] == judged[key], key

    @pytest.mark.parametrize("judge, reason", MISSHAPEN_JUDGE)
    def test_misshapen_judge_fixture_is_a_usage_error(
        self, capsys, corpus_path, tmp_path, video_fixtures, judge, reason
    ):
        pred = self._generate(corpus_path, tmp_path, "mock:perfect")
        fixtures = tmp_path / "videos.json"
        fixtures.write_text(json.dumps({**video_fixtures, "judge": judge}))
        ini = tmp_path / "cfg.ini"
        ini.write_text("[paths]\nfixtures = videos.json\n")
        code, _, err = run(capsys, "evaluate", str(corpus_path), str(pred), "--with-judge",
                           "--config", str(ini), "--seed", "7")
        assert code == 2
        assert err == f"error: fixtures file {fixtures}: {reason}\n"


class TestEvaluateRunner:
    """evaluate scores its samples on the shared runner: a pool of --concurrency
    threads, and a warning for each sample whose scoring fails."""

    ARGV = ["--config", str(FIX / "adcut.ini"), "--seed", "7"]

    @pytest.fixture
    def pred(self, corpus_path, tmp_path):
        out = tmp_path / "pred.jsonl"
        assert main(["generate", str(corpus_path), "--endpoint-generate", "mock:swap_adjacent:0.5", "--seed", "7",
                     "--out", str(out)]) == 0
        return out

    @pytest.fixture
    def serve(self, monkeypatch, video_fixtures):
        """Install ``answer(role, payload)`` as the HTTP stand-in; where it returns None
        the fixtures mock answers."""
        mock = backends.mock_backend(7, video_fixtures)

        def install(answer):
            def send(transport, role, url, body, headers, timeout_s):
                return answer(role, json.loads(body)) or mock.send(role, url, body, headers, timeout_s)

            monkeypatch.setattr(backends.HttpTransport, "send", send)

        return install

    def test_report_is_identical_across_concurrency(self, capsys, corpus_path, pred, serve, monkeypatch):
        from adcut import metrics

        embedded = []
        serve(lambda role, payload: embedded.append(payload["inputs"]) if role == "embed" else None)
        argv = ["evaluate", str(corpus_path), str(pred), "--with-judge", "--with-vsr", *self.ARGV]
        code, in_process, err = run(capsys, *argv)
        assert code == 0, err
        assert json.loads(in_process)["vsr"] is not None
        records = [json.loads(line) for line in pred.read_text().splitlines()]
        http = ["--endpoint-judge", "http://stub.invalid", "--endpoint-embed", "http://stub.invalid"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so shared clients interleave
        try:
            for limit in (metrics.VSR_CHUNK_INPUTS, 1):  # one chunk, then one per sample
                monkeypatch.setattr(metrics, "VSR_CHUNK_INPUTS", limit)
                chunks = [vsr_inputs(corpus_path, records)] if limit > 1 else [vsr_inputs(corpus_path, [r]) for r in records]
                for endpoints in ([], http):
                    for concurrency in ("1", "2", "4"):
                        embedded.clear()
                        code, out, err = run(capsys, *argv, *endpoints, "--concurrency", concurrency)
                        assert (code, err) == (0, "")
                        assert out == in_process, (limit, endpoints, concurrency)
                        assert sorted(embedded) == (sorted(chunks) if endpoints else [])  # chunks may run at once
        finally:
            sys.setswitchinterval(interval)

    def test_judge_calls_run_on_several_threads(self, capsys, corpus_path, pred, serve):
        threads = set()

        def answer(role, payload):
            if role == "judge":
                threads.add(threading.get_ident())
                time.sleep(0.02)

        serve(answer)
        code, _, err = run(capsys, "evaluate", str(corpus_path), str(pred), "--with-judge", *self.ARGV,
                           "--endpoint-judge", "http://stub.invalid", "--concurrency", "2")
        assert code == 0, err
        assert len(threads) > 1

    def test_a_failing_embed_call_fails_its_sample_only(self, capsys, corpus_path, pred, serve, tmp_path):
        drafts = {r["sample_id"]: json.loads(r["draft_json"]) for r in map(json.loads, pred.read_text().splitlines())}
        scripts = {sid: " ".join(s["text"] for s in d["voice_over_track"]) for sid, d in drafts.items()}
        scored = []

        def answer(role, payload):  # fails the chunk's request, then vid-blender's own
            if role == "embed":
                if scripts["vid-blender"] in payload["inputs"]:
                    return 400, b"{}"
                scored.append(payload["inputs"][0])

        serve(answer)
        report = tmp_path / "report.json"
        code, _, err = run(capsys, "evaluate", str(corpus_path), str(pred), "--with-vsr", *self.ARGV,
                           "--endpoint-embed", "http://stub.invalid", "--concurrency", "2", "--out", str(report))
        assert code == 1
        assert err == "warning: vid-blender: embed: HTTP status 400\n"
        assert sorted(scored) == sorted(v for sid, v in scripts.items() if sid != "vid-blender")  # each alone
        assert not report.exists()

    def test_incomplete_script_quality_scores_fail_each_sample(self, capsys, corpus_path, pred, serve):
        def answer(role, payload):
            if payload.get("rubric_id") == "script_quality_eval":
                return 200, dumps_canonical({"scores": {"basic": 10}})

        serve(answer)
        code, out, err = run(capsys, "evaluate", str(corpus_path), str(pred), "--with-judge", *self.ARGV,
                             "--endpoint-judge", "http://stub.invalid")
        assert (code, out) == (1, "")
        missing = "['creative_narrative', 'native_language_tone', 'touch_the_audience']"
        assert err.splitlines() == [f"warning: {s.sample_id}: judge: missing script-quality categories: {missing}"
                                    for s in read_corpus(corpus_path)]

    def test_a_deeply_nested_judge_answer_fails_each_sample(self, capsys, corpus_path, pred, serve):
        serve(lambda role, payload: (200, b"[" * 100_000 + b"]" * 100_000) if role == "judge" else None)
        code, out, err = run(capsys, "evaluate", str(corpus_path), str(pred), "--with-judge", *self.ARGV,
                             "--endpoint-judge", "http://stub.invalid")
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        assert err.splitlines() == [f"warning: {s.sample_id}: judge: non-JSON body: nested too deeply"
                                    for s in read_corpus(corpus_path)]

    def test_a_non_finite_embed_value_fails_each_sample(self, capsys, corpus_path, pred, serve):
        def answer(role, payload):  # one NaN per vector
            if role == "embed":
                return 200, dumps_canonical(packed_vectors([[0.5, math.nan]] * len(payload["inputs"])))

        serve(answer)
        code, out, err = run(capsys, "evaluate", str(corpus_path), str(pred), "--with-vsr", *self.ARGV,
                             "--endpoint-embed", "http://stub.invalid")
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        assert err.splitlines() == [f"warning: {s.sample_id}: embed: a vector is not a list of finite numbers"
                                    for s in read_corpus(corpus_path)]

    def test_a_prediction_without_a_script_scores_zero_vsr(self, capsys, corpus_path, pred, serve):
        records = [json.loads(line) for line in pred.read_text().splitlines()]
        records[0]["draft_json"] = json.dumps({**json.loads(records[0]["draft_json"]), "voice_over_track": []})
        pred.write_text("".join(json.dumps(r) + "\n" for r in records))
        embedded = []

        def answer(role, payload):  # one vector for every input: each scripted sample scores 100
            if role == "embed":
                embedded.append(payload["inputs"])
                return 200, dumps_canonical(packed_vectors([[1.0, 0.0]] * len(payload["inputs"])))

        serve(answer)
        code, out, err = run(capsys, "evaluate", str(corpus_path), str(pred), "--with-vsr", *self.ARGV,
                             "--endpoint-embed", "http://stub.invalid")
        assert code == 0, err
        assert embedded == [vsr_inputs(corpus_path, records[1:])]  # one request, none of the first sample's inputs
        assert json.loads(out)["vsr"] == pytest.approx(100.0 * (len(records) - 1) / len(records))

    @pytest.mark.parametrize("status", [429, 503])
    def test_an_embed_endpoint_that_always_fails_spends_one_retry_schedule_per_chunk(
            self, capsys, corpus_path, pred, serve, status):
        attempts = []
        serve(lambda role, payload: attempts.append(payload["inputs"]) or (status, b"") if role == "embed" else None)
        code, out, err = run(capsys, "evaluate", str(corpus_path), str(pred), "--with-vsr", *self.ARGV,
                             "--endpoint-embed", "http://stub.invalid", "--concurrency", "2")
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"warning: {s.sample_id}: embed: HTTP status {status}"
                                    for s in read_corpus(corpus_path)]
        records = [json.loads(line) for line in pred.read_text().splitlines()]
        assert attempts == [vsr_inputs(corpus_path, records)] * (backends.MAX_RETRIES + 1)

    @pytest.mark.parametrize("fault, reason", [
        ("status", "HTTP status 400"),
        ("zero row", "zero vector cannot be normalized"),
        ("too few", "vectors holds {short} bytes, not the {whole} of {count} vectors of 32 float64 values"),
    ])
    def test_a_failing_chunk_embeds_each_sample_alone(self, capsys, corpus_path, pred, serve, video_fixtures,
                                                      fault, reason):
        records = [json.loads(line) for line in pred.read_text().splitlines()]
        blender = vsr_inputs(corpus_path, [r for r in records if r["sample_id"] == "vid-blender"])
        mock = backends.mock_backend(7, video_fixtures)
        requests = []

        def answer(role, payload):  # every request that carries vid-blender's inputs fails
            if role != "embed":
                return None
            requests.append(payload["inputs"])
            if blender[0] not in payload["inputs"]:
                return None
            if fault == "status":
                return 400, b"{}"
            vectors = unpacked_vectors(json.loads(mock.send(role, "", dumps_canonical(payload), {}, 1.0)[1]))
            if fault == "zero row":
                vectors[payload["inputs"].index(blender[0])] = [0.0] * len(vectors[0])
            return 200, dumps_canonical(packed_vectors(vectors[:-1] if fault == "too few" else vectors))

        serve(answer)
        code, out, err = run(capsys, "evaluate", str(corpus_path), str(pred), "--with-vsr", *self.ARGV,
                             "--endpoint-embed", "http://stub.invalid", "--concurrency", "2")
        assert (code, out) == (1, "")
        reason = reason.format(short=8 * 32 * (len(blender) - 1), whole=8 * 32 * len(blender), count=len(blender))
        assert err == f"warning: vid-blender: embed: {reason}\n"
        assert requests == [vsr_inputs(corpus_path, records)] + [vsr_inputs(corpus_path, [r]) for r in records]

    @settings(max_examples=40)
    @given(st.lists(st.one_of(
        st.none(),  # the mock answers
        st.tuples(st.just(200), JSON.map(dumps_canonical)),
        st.tuples(st.just(200), st.fixed_dictionaries({"dim": st.integers(-1, 40) | JSON, "vectors": st.text() | JSON})
                  .map(dumps_canonical)),
        PACKED,
        st.tuples(st.sampled_from([200, 204, 301, 400, 404, 422, 429, 503]), st.binary(max_size=40)),
    ), min_size=1, max_size=4))
    @example([None])  # every sample scored from the chunk's request
    @example([(400, b"{}"), None, (400, b"{}"), None])  # the chunk and one sample fail
    @example([(503, b"")])  # the chunk spends its retries
    @example([("packed", 3, [0.25, -1.0], 0)])  # vectors of another dim, of the right byte count, score
    def test_every_embed_answer_scores_or_warns_each_sample(self, chain, answers):
        corpus_path, pred = chain
        ids = [s.sample_id for s in read_corpus(corpus_path)]
        mock = backends.mock_backend(7, json.loads((FIX / "videos.json").read_text()))
        served = itertools.cycle(answers)  # each attempt, retries too, takes the next answer

        def send(self, role, url, body, headers, timeout_s):
            reply = role == "embed" and next(served)
            if reply and reply[0] == "packed":
                return packed_reply(body, *reply[1:])
            return reply or mock.send(role, url, body, headers, timeout_s)

        out, err = StringIO(), StringIO()
        with patch.object(backends.HttpTransport, "send", send), patch.object(backends, "BACKOFF_BASE_S", 0.0), \
                redirect_stderr(err), patch("sys.stdout", out):
            code = main(["evaluate", str(corpus_path), str(pred), "--with-vsr", *self.ARGV,
                         "--endpoint-embed", "http://stub.invalid"])
        assert "Traceback" not in err.getvalue()
        warned = [line.split(": ")[1] for line in err.getvalue().splitlines()]
        assert all(line.startswith(f"warning: {sid}: embed: ")
                   for sid, line in zip(warned, err.getvalue().splitlines()))
        assert sorted(set(warned)) == sorted(warned) and set(warned) <= set(ids)
        if code == 0:
            assert warned == [] and json.loads(out.getvalue())["vsr"] is not None
        else:
            assert code == 1 and warned and out.getvalue() == ""


def vsr_inputs(corpus_path, records) -> list[str]:
    """The embed inputs of the ``records`` of a predictions file, in order: each scripted
    sample's whole script, its sentences and its ground-truth frame references."""
    truth = {s.sample_id: s.ground_truth for s in read_corpus(corpus_path)}
    inputs = []
    for record in records:
        sentences = [s["text"] for s in json.loads(record["draft_json"])["voice_over_track"]]
        if sentences:
            frames = [f"frame:{n.index}:0:{n.target_start}" for n in truth[record["sample_id"]].video_nodes_track]
            inputs += [" ".join(sentences), *sentences, *frames]
    return inputs


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

    def test_catalog_needs_no_seed(self, capsys, monkeypatch):
        # decoration matching is deterministic, so align reads no --seed
        monkeypatch.delenv("ADCUT_CONFIG", raising=False)
        code, out, err = run(
            capsys, "align", str(FIX / "draft_template.json"), str(FIX / "tts_noop.json"),
            str(FIX / "clips.json"), "--catalog", str(FIX / "catalog.json"),
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["assets"]["music_asset"] == "music-pop-happy"

    def test_an_invalid_draft_prints_each_violation(self, capsys):
        draft, clips = str(FIX / "draft_violations.json"), str(FIX / "clips.json")
        violations = json.loads(run(capsys, "validate", draft, "--clips", clips)[1])["violations"]
        code, out, err = run(capsys, "align", draft, str(FIX / "tts_noop.json"), clips)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"invalid draft: {v['rule']} at {v['path']}: {v['message']}" for v in violations]

    def test_a_voice_past_the_last_node_is_a_plan_violation(self, capsys, tmp_path):
        draft, tts = tmp_path / "draft.json", tmp_path / "tts.json"
        draft.write_text(json.dumps({
            "voice_over_track": [{"text": "hi", "target_start": 0, "target_end": 3000}],
            "video_nodes_track": [{"index": 0, "target_start": 0, "target_end": 1000, "source_start": 0}],
            "decoration_setting": {"tts_tags": [], "avatar_tags": [], "music_tags": []},
        }))
        tts.write_text(json.dumps({"durations_ms": [3000]}))
        code, out, err = run(capsys, "align", str(draft), str(tts), str(FIX / "clips.json"))
        assert (code, out) == (1, "")
        assert err == "plan violation: voice_past_end at $.voice_over_track[0]: voice ends at 3000, video at 1000\n"

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


# hostile input files: those that printed a traceback before every input file went through one loader,
# a JSON bool or a fractional index that a clip set took for a number, catalog or TTS fields of the
# wrong JSON type that align took as they came, a frame count too large for a float, and a clip
# whose duration in milliseconds is too large for a float
HOSTILE_INPUTS = [
    ("clip set", {"clips": [1]}, "clips[0]: expected dict, got int"),
    ("clip set", {"clips": [{"index": 0, "duration_s": "5", "frame_count": 150}]},
     "clips[0].duration_s: expected float, got str"),
    ("TTS file", [1], "expected a JSON object, got list"),
    ("catalog", {"assets": [1]}, "assets[0]: expected dict, got int"),
    ("catalog", {"assets": [{"asset_id": "a", "category": "Nope"}]}, "asset a: unknown category 'Nope'"),
    ("taxonomy", None, "No such file or directory"),
    ("taxonomy", {"TTS": 3}, "TTS: expected dict, got int"),
    ("clip set", {"clips": [{"index": True, "duration_s": 2.0, "frame_count": 60}]},
     "clips[0].index: expected int, got bool"),
    ("clip set", {"clips": [{"index": 1.5, "duration_s": 2.0, "frame_count": 60.5}]},
     "clips[0].index: expected int, got float"),
    ("catalog", {"assets": [{"asset_id": 5, "category": "TTS"}]}, "assets[0].asset_id: expected str, got int"),
    ("catalog", {"assets": [{"asset_id": None, "category": "TTS"}]},
     "assets[0].asset_id: expected str, got NoneType"),
    ("catalog", {"assets": [{"asset_id": "a", "category": "TTS", "labels": {"Young": 1}}]},
     "assets[0].labels: expected list of str, got dict"),
    ("TTS file", {"durations_ms": "123"}, "durations_ms: expected list, got str"),
    ("clip set", {"clips": [{"index": 0, "duration_s": 2.0, "frame_count": 10**400}]},
     "clip 0: frame_count or duration_s too large"),
    ("clip set", {"clips": [{"index": 0, "duration_s": 1e306, "frame_count": 3 * 10**306}]},
     "clip 0: frame_count or duration_s too large"),
    ("catalog", {"assets": [{"asset_id": "a\ud800", "category": "TTS"}]}, "lone surrogate '\\ud800' in a string"),
    ("clip set", {"clips": [{"index": -1, "duration_s": 2.0, "frame_count": 60}]}, "clip index must be >= 0, got -1"),
    ("clip set", {"clips": [{"index": 0, "duration_s": 2.0, "frame_count": 0}]}, "frame_count must be >= 1, got 0"),
    ("clip set", {"clips": [{"index": 0, "duration_s": 0, "frame_count": 60}]}, "duration_s must be > 0, got 0"),
    ("clip set", {"clips": [{"index": 0, "duration_s": 2.0, "frame_count": 60}] * 2}, "duplicate clip index 0"),
    ("taxonomy", {"Colour": {}}, "unknown category 'Colour'"),
    ("taxonomy", {"TTS": {"Age": ["Young", "Young"]}}, "duplicate label in TTS/Age"),
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
            ("draft", b'{"\\udc00":1}', "does not parse: malformed JSON: lone surrogate '\\udc00' in a string"),
        ],
        ids=["missing field", "malformed JSON", "nested too deeply", "malformed draft", "lone surrogate"],
    )
    def test_each_failure_class_has_its_reason(self, capsys, tmp_path, what, content, reason):
        code, path = _run_on(tmp_path, what, content)
        assert code == 2
        assert capsys.readouterr().err == f"error: {what} {path}: {reason}\n"

    @pytest.mark.parametrize("what", ["clip set", "TTS file", "catalog", "taxonomy", "fixtures file"])
    def test_a_root_that_is_no_object_is_a_usage_error(self, capsys, tmp_path, what):
        if what == "fixtures file":
            path = tmp_path / "fixtures.json"
            path.write_text("[]")
            (tmp_path / "cfg.ini").write_text(f"[paths]\nfixtures = {path}\n")
            code = main(["build-dataset", "--config", str(tmp_path / "cfg.ini"), "--out", str(tmp_path / "c.jsonl")])
        else:
            code, path = _run_on(tmp_path, what, [])
        assert code == 2
        assert capsys.readouterr().err == f"error: {what} {path}: expected a JSON object, got list\n"

    @pytest.mark.filterwarnings("ignore::adcut.draft.UnknownKeyWarning")
    @settings(max_examples=150)
    @given(input_files())
    @hostile_examples
    @example(("draft", b"\xff\xfe"))
    @example(("taxonomy", b""))
    @example(("catalog", {"assets": [{"asset_id": "a", "category": "TTS", "labels": [["x"]]}]}))
    @example(("clip set", {"clips": [{"index": 0, "duration_s": math.nan, "frame_count": 60}]}))
    @example(("clip set", {"clips": [{"index": 0, "duration_s": math.inf, "frame_count": 60}]}))
    @example(("clip set", {"clips": [{"index": 0, "duration_s": 1e308, "frame_count": 60}]}))
    @example(("clip set", {"clips": [{"index": 0, "duration_s": 2.0, "frame_count": 60.0}]}))
    @example(("clip set", {"clips": [{"index": 0, "duration_s": 10**398, "frame_count": 10**400}]}))
    @example(("TTS file", {"durations_ms": [2800.0, math.nan]}))
    def test_no_input_file_escapes_the_exit_codes(self, tmp_path_factory, case):
        code, _ = _run_on(tmp_path_factory.mktemp("fuzz"), *case)
        assert code in (0, 1, 2)


# JSON values whose strings and keys may hold lone surrogates, which json.dumps writes as \\ud800 escapes
surrogate_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(st.characters(exclude_categories=()), max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(st.characters(exclude_categories=()), max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def fixtures_files(draw):
    """A fixtures file: arbitrary JSON, raw bytes, or ``videos.json`` with one subtree replaced."""
    kind = draw(st.sampled_from(["json", "bytes", "fixture"]))
    if kind == "json":
        return draw(surrogate_json)
    if kind == "bytes":
        return draw(st.binary(max_size=32))
    fixture = json.loads((FIX / "videos.json").read_text("utf-8"))
    return _replaced(fixture, draw(st.sampled_from(list(_subtrees(fixture)))), draw(surrogate_json))


class TestFixturesFile:
    @settings(max_examples=60)
    @given(fixtures_files(), st.booleans())
    @example({"videos": {"vid-earbuds\ud800": {}}}, False)
    @example({"videos": {"vid-earbuds": {"product": {"name": "a\udc00", "brand": "b", "price": "c",
                                                     "selling_points": ["d"]}}}}, True)
    def test_no_fixtures_file_escapes_the_exit_codes(self, tmp_path_factory, content, listed):
        """``build-dataset`` on any fixtures file, with the videos listed in the config or
        taken from the file, exits 0, 1 or 2 and prints no traceback: one error line for
        exit 2, else a warning line per failed sample."""
        tmp = tmp_path_factory.mktemp("fixtures")
        path = tmp / "videos.json"
        path.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
        videos = "videos = vid-earbuds,vid-blender,vid-serum\n" if listed else ""
        (tmp / "cfg.ini").write_text(f"[paths]\nfixtures = {path}\n[dataset]\n{videos}seed = 7\n")
        err = StringIO()
        with redirect_stderr(err):
            code = main(["build-dataset", "--config", str(tmp / "cfg.ini"), "--out", str(tmp / "corpus.jsonl")])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        lines = err.getvalue().splitlines()
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        else:
            assert (code == 1) == bool(lines) and all(line.startswith("warning: ") for line in lines), lines


class TestHostileInput:
    # the second line of a file, given its first line
    BAD_LINES = {
        "malformed JSON": lambda first: "{not json",
        "missing field": lambda first: '{"draft_json": "{}"}',
        "non-object line": lambda first: "[1, 2]",
        "array sample_id": lambda first: json.dumps({**json.loads(first), "sample_id": [1]}),
        "repeated sample_id": lambda first: first,
        "lone surrogate": lambda first: json.dumps({**json.loads(first), "sample_id": "vid\ud800"}),
    }

    @pytest.mark.parametrize(
        "target, problem",
        [
            (target, problem)
            for target in ("corpus", "predictions", "resume file")
            for problem in ("malformed JSON", "missing field", "non-object line", "array sample_id",
                            "repeated sample_id", "lone surrogate", "missing file")
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
            bad.write_text(first + "\n" + self.BAD_LINES[problem](first) + "\n", encoding="utf-8")
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
        if problem == "repeated sample_id":
            assert err == f"{prefix}repeated sample_id {json.loads(first)['sample_id']!r}\n"
        if problem == "lone surrogate":
            assert err == f"{prefix}lone surrogate '\\ud800' in a string\n"


class TestLoneSurrogate:
    """A JSON string holding a lone surrogate, which no UTF-8 text can encode, fails
    where it enters, not when ``generate`` writes or sends it."""

    @pytest.mark.parametrize("surrogate", [b"\\ud800", "\ud800".encode("utf-8", "surrogatepass")],
                             ids=["escaped", "encoded"])
    def test_a_corpus_line_is_a_usage_error(self, capsys, corpus_path, tmp_path, surrogate):
        corpus, predictions = tmp_path / "corpus.jsonl", tmp_path / "pred.jsonl"
        lines = corpus_path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"sample_id":"vid-blender"', b'"sample_id":"vid-blender' + surrogate + b'"')
        corpus.write_bytes(b"".join(lines))
        code, out, err = run(capsys, "generate", str(corpus), "--endpoint-generate", "mock:", "--seed", "7",
                             "--out", str(predictions))
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert err == f"error: {corpus}:2: lone surrogate '\\ud800' in a string\n"
        assert not predictions.exists()

    def test_a_backend_answer_fails_its_sample_only(self, capsys, corpus_path, tmp_path, monkeypatch):
        def send(transport, role, url, body, headers, timeout_s):
            if json.loads(body)["sample_id"] == "vid-blender":
                return 200, b'{"draft":"\\ud800"}'
            return 200, b'{"draft":{}}'

        monkeypatch.setattr(backends.HttpTransport, "send", send)
        out = tmp_path / "pred.jsonl"
        code, _, err = run(capsys, "generate", str(corpus_path), "--endpoint-generate", "http://stub.invalid",
                           "--seed", "7", "--out", str(out))
        assert code == 1
        assert "Traceback" not in err
        assert err == "warning: vid-blender: generate: non-JSON body: lone surrogate '\\ud800' in a string\n"
        assert [json.loads(line)["sample_id"] for line in out.read_text().splitlines()] == ["vid-earbuds", "vid-serum"]


BOM = b"\xef\xbb\xbf"
SURROGATE = "lone surrogate '\\ud800' in a string"
# case -> the bytes every JSON reader is fed and the reason each gives after its prefix
DECODE_CASES = {
    "encoded surrogate": (b'{"sample_id":"\xed\xa0\x80"}', SURROGATE),
    "escaped surrogate": (b'{"sample_id":"\\ud800"}', SURROGATE),
    "invalid UTF-8": (b'{"sample_id":"\xff"}',
                      "'utf-8' codec can't decode byte 0xff in position 14: invalid start byte"),
    "deep nesting": (b"[" * 100_000, "nested too deeply"),
    "huge integer": (b'{"sample_id":' + b"9" * 5000 + b"}",
                     f"an integer has more than {sys.get_int_max_str_digits()} digits"),
}
# the line edits the JSON-lines property draws besides arbitrary bytes
EDITS = ["BOM", *DECODE_CASES, "torn"]
# reader -> its prefixes for bytes that are not JSON and for a lone surrogate; a --resume
# tail that is not JSON is torn, so it is dropped with a warning and generated again
DECODE_PREFIXES = {
    "file read whole": ("error: clip set {path}: does not parse: ", "error: clip set {path}: "),
    "corpus line": ("error: {path}:2: malformed JSON: ", "error: {path}:2: "),
    "resume tail": (None, "error: {path}:2: "),
    "HTTP answer": ("warning: vid-blender: generate: non-JSON body: ",) * 2,
    "draft": ("error: draft {path}: does not parse: malformed JSON: ",) * 2,
}


def _edited(line: bytes, kind: str, arg=None) -> bytes:
    """``line`` after the edit ``kind``: one of ``EDITS`` (``torn`` cuts it after ``arg`` bytes)
    or ``bytes`` (``arg``)."""
    if kind == "BOM":
        return BOM + line
    if kind == "bytes":
        return arg
    if kind == "torn":
        return line[: arg % (len(line) + 1)]
    return DECODE_CASES[kind][0]


class TestDecodeTable:
    """Every reader turns bytes into JSON by one rule, so each gives the same reason for the same bytes."""

    def feed(self, capsys, monkeypatch, tmp, chain, reader, edit):
        """Run the command that reads ``reader`` on its input after ``edit``: the code, stdout,
        stderr and the path of the input file."""
        corpus, pred = chain
        tmp.mkdir()
        if reader in ("file read whole", "draft"):
            path, fixture, command = ((tmp / "clips.json", "clips.json", "plan") if reader == "file read whole"
                                      else (tmp / "draft.json", "draft_template.json", "validate"))
            path.write_bytes(edit((FIX / fixture).read_bytes()))
            return (*run(capsys, command, str(path)), path)
        path, out = corpus, tmp / "pred.jsonl"
        argv = ["generate", str(corpus), "--endpoint-generate", "mock:", "--seed", "7", "--out", str(out)]
        if reader == "corpus line":
            path = argv[1] = tmp / "corpus.jsonl"
            lines = corpus.read_bytes().splitlines()
            lines[1] = edit(lines[1])
            path.write_bytes(b"\n".join(lines) + b"\n")
        elif reader == "resume tail":
            first, second, _ = pred.read_bytes().splitlines()
            (path := out).write_bytes(first + b"\n" + edit(second))  # the tail is vid-blender's line
            argv.append("--resume")
        else:  # the generate answer for vid-blender
            mock = cli._mock_generate("mock:", 7, read_corpus(corpus))

            def send(transport, role, url, body, headers, timeout_s):
                status, answer = mock.send(role, url, body, headers, timeout_s)
                return status, edit(answer) if json.loads(body)["sample_id"] == "vid-blender" else answer

            monkeypatch.setattr(backends.HttpTransport, "send", send)
            argv[3] = "http://stub.invalid"
        return (*run(capsys, *map(str, argv)), path)

    @pytest.mark.parametrize("reader", DECODE_PREFIXES)
    def test_a_leading_bom_is_ignored(self, capsys, monkeypatch, tmp_path, chain, reader):
        plain = self.feed(capsys, monkeypatch, tmp_path / "plain", chain, reader, lambda line: line)
        with_bom = self.feed(capsys, monkeypatch, tmp_path / "bom", chain, reader, lambda line: BOM + line)
        assert plain[:3] == with_bom[:3] and plain[0] == 0, with_bom
        if reader in ("corpus line", "HTTP answer"):
            assert (tmp_path / "plain" / "pred.jsonl").read_bytes() == (tmp_path / "bom" / "pred.jsonl").read_bytes()

    @pytest.mark.parametrize("reader", DECODE_PREFIXES)
    @pytest.mark.parametrize("case", DECODE_CASES)
    def test_each_reader_gives_the_same_reason(self, capsys, monkeypatch, tmp_path, chain, case, reader):
        content, reason = DECODE_CASES[case]
        code, out, err, path = self.feed(capsys, monkeypatch, tmp_path / "run", chain, reader, lambda line: content)
        prefix = DECODE_PREFIXES[reader][reason == SURROGATE]
        if prefix is None:
            assert (code, err) == (0, f"warning: {path}: dropped a torn last line; its sample is generated again\n")
        else:
            code_wanted = 1 if reader == "HTTP answer" else 2
            assert (code, out, err) == (code_wanted, "", prefix.format(path=path) + reason + "\n")


def _jsonl_examples(test):
    """``test`` with an explicit example for each of ``EDITS``, in both files."""
    for target in ("corpus", "predictions"):
        for kind in EDITS:
            test = example(target, 1, (kind, 100))(test)
    return test


class TestJsonLines:
    @settings(max_examples=60)
    @given(st.sampled_from(["corpus", "predictions"]), st.integers(0, 2),
           st.one_of(st.tuples(st.sampled_from(EDITS), st.integers(0)),
                     st.tuples(st.just("bytes"), st.binary(max_size=32))))
    @_jsonl_examples
    def test_no_json_line_escapes_the_exit_codes(self, tmp_path_factory, chain, target, number, edit):
        """``generate``, ``generate --resume`` and ``evaluate`` on the chain's files, one line of
        one of them edited (a torn line is the last, with no newline after it), each exit 0, 1
        or 2 and print no traceback; exit 2 prints one error line."""
        tmp = tmp_path_factory.mktemp("lines")
        files = {"corpus": tmp / "corpus.jsonl", "predictions": tmp / "pred.jsonl"}
        for name, source in zip(files, chain):
            files[name].write_bytes(source.read_bytes())
        lines = files[target].read_bytes().splitlines()
        number = len(lines) - 1 if edit[0] == "torn" else number
        lines[number] = _edited(lines[number], *edit)
        files[target].write_bytes(b"\n".join(lines) + (b"" if edit[0] == "torn" else b"\n"))
        generate = ["generate", str(files["corpus"]), "--endpoint-generate", "mock:", "--seed", "7"]
        for argv in ([*generate, "--out", str(tmp / "fresh.jsonl")],
                     [*generate, "--out", str(files["predictions"]), "--resume"],
                     ["evaluate", str(files["corpus"]), str(files["predictions"])]):
            err = StringIO()
            with redirect_stderr(err), redirect_stdout(StringIO()):
                code = main(argv)
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: "), err.getvalue()


_HUGE_LENGTH = b"9" * 5000  # a Content-Length past int()'s digit limit
# what follows a hostile status line: raw bytes, a Content-Length framing or a chunked one
RAW_REPLIES = st.one_of(
    st.binary(max_size=48),
    st.tuples(st.sampled_from([b"0", b"2", b"50", b"2x", b"-1", _HUGE_LENGTH]), st.binary(max_size=24))
    .map(lambda framed: b"Content-Length: %s\r\n\r\n%s" % framed),
    st.binary(max_size=24).map(lambda body: b"Transfer-Encoding: chunked\r\n\r\n" + body),
)
# ("raw", status, the response after its status line), or ("graft", steps, value): the mock's
# answer with the value that the steps lead to (the whole answer for no steps) replaced by ``value``
REPLIES = st.one_of(
    st.tuples(st.just("raw"), st.integers(100, 599), RAW_REPLIES),
    st.tuples(st.just("graft"), st.lists(st.integers(0, 20), max_size=4), JSON),
)
# an embed answer, {"dim": 32, "vectors": <base64 of 32 float64 values per input>}, with a drawn dim,
# text that is not base64 or is badly padded, or a vectors that is not a string grafted into it; or a
# PACKED reply
EMBED_REPLIES = st.one_of(
    st.tuples(st.just("graft"), st.just([0]), st.integers(-2, 64) | st.just(10**30)),
    st.tuples(st.just("graft"), st.just([1]), st.text(max_size=12) | st.sampled_from(
        ["AAAA AAAA", "AAAAAAAA8D8", "AAAAAAAA8D8=AAAA", "=AAA", "AA=A", "\u00e9", "AAAAAAAA8D8=\n"])),
    st.tuples(st.just("graft"), st.just([1]), JSON.filter(lambda value: type(value) is not str)),
    PACKED,
)
# command -> the roles it calls
COMMAND_ROLES = {"build-dataset": cli.DATASET_ROLES, "generate": ("generate",), "evaluate": ("judge",)}
WARNING = re.compile(r"warning: (vid-[a-z]+): ")


def _grafted(doc, steps, value):
    """``doc`` with the value that ``steps`` lead to replaced by ``value``. Each step picks a
    child of an object or list by its position modulo their count; steps left at a leaf or an
    empty object or list replace that."""
    if not steps or not isinstance(doc, (dict, list)) or not doc:
        return value
    keys = list(doc) if isinstance(doc, dict) else range(len(doc))
    key = keys[steps[0] % len(keys)]
    doc[key] = _grafted(doc[key], steps[1:], value)
    return doc


class _HostileServer:
    """A loopback HTTP server for one role that answers each request on a connection of its
    own and then closes it: the first ``healthy`` requests with the role's mock answer, the
    next ``hostile`` ones (every later one by default) as ``reply`` (one of ``REPLIES`` or
    ``EMBED_REPLIES``) says, and any after those with the mock answer again."""

    def __init__(self, mocks):
        self.mocks = mocks  # role -> the transport whose answers are the healthy ones
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.url = "http://127.0.0.1:%d" % self.listener.getsockname()[1]
        self.stop = threading.Event()
        self.script("judge", 0, ("graft", [], None))

    def script(self, role, healthy, reply, hostile=math.inf):
        self.role, self.healthy, self.reply, self.hostile, self.calls = role, healthy, reply, hostile, 0

    def serve(self):
        while not self.stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5)
                try:
                    request = self.read(conn)
                    if request is not None:
                        conn.sendall(self.answer(*request))
                except OSError:  # the client dropped the connection
                    pass

    def read(self, conn):
        """The path and body of the request on ``conn``; None if it closes first."""
        data = b""
        while b"\r\n\r\n" not in data:
            if not (chunk := conn.recv(65536)):
                return None
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = int(re.search(rb"\r\nContent-Length: (\d+)", head).group(1))
        while len(body) < length:
            if not (chunk := conn.recv(65536)):
                return None
            body += chunk
        return head.split(b" ", 2)[1].decode(), body

    def answer(self, path, body):
        self.calls += 1
        status, answer = self.mocks[self.role].send(self.role, path, body, {}, 1.0)
        if self.healthy < self.calls <= self.healthy + self.hostile:
            kind, *args = self.reply
            if kind == "raw":
                return b"HTTP/1.1 %d Hostile\r\n" % args[0] + args[1]
            if kind == "packed":
                status, answer = packed_reply(body, *args)
            else:
                answer = json.dumps(_grafted(json.loads(answer), *args)).encode()
        return b"HTTP/1.1 %d OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n" % (status, len(answer)) + answer


@pytest.fixture(scope="module")
def hostile_server(chain):
    dataset_mock = backends.mock_backend(7, json.loads((FIX / "videos.json").read_text()))
    mocks = {role: dataset_mock for role in cli.DATASET_ROLES}
    mocks["generate"] = cli._mock_generate("mock:", 7, read_corpus(chain[0]))
    mocks["embed"] = dataset_mock
    server = _HostileServer(mocks)
    thread = threading.Thread(target=server.serve, daemon=True)
    thread.start()
    yield server
    server.stop.set()
    thread.join(timeout=10)
    server.listener.close()
    assert not thread.is_alive()


class TestHostileBackends:
    @settings(max_examples=50)
    @given(st.sampled_from(["generate", *cli.DATASET_ROLES]), st.integers(0, 12), REPLIES)
    @example("judge", 0, ("raw", 200, b"Content-Length: " + _HUGE_LENGTH + b"\r\n\r\n{}"))
    @example("asr", 1, ("graft", [0], []))  # a video with no speech
    @example("shots", 2, ("raw", 503, b"Content-Length: 2\r\n\r\n{}"))
    @example("shots", 0, ("graft", [0, 2], 0))  # vid-blender's shots end before its second sentence
    def test_each_sample_succeeds_or_warns_of_its_role(self, tmp_path_factory, chain, hostile_server, role,
                                                       healthy, reply):
        """``build-dataset``, ``generate`` and ``evaluate --with-judge``, with one role served over
        HTTP by a server that answers it well ``healthy`` times and then with ``reply``, each exit
        0, 1 or 2 and print no traceback. Each sample that fails prints one ``warning: <id>:
        <role>: …``, or says its deconstruction is empty, and every other sample is written. Shots
        that end before the speech, or start after it, fail the sample's ``asr`` sentence instead."""
        tmp = tmp_path_factory.mktemp("hostile")
        corpus, predictions = chain
        outs = {"build-dataset": tmp / "corpus.jsonl", "generate": tmp / "pred.jsonl"}
        commands = {
            "build-dataset": ["build-dataset", "--config", str(FIX / "adcut.ini"), "--out", str(outs["build-dataset"])],
            "generate": ["generate", str(corpus), "--seed", "7", "--out", str(outs["generate"])],
            "evaluate": ["evaluate", str(corpus), str(predictions), "--with-judge"],
        }
        failure = rf"{re.escape(role)}: .*|deconstruction has no shots or no speech"
        if role == "shots":
            failure += r"|asr: sentence \d+ (starts|ends) at \d+, (before the first|after the last) shot boundary \d+"
        failure = re.compile(failure)
        for command, argv in commands.items():
            if role in COMMAND_ROLES[command]:
                argv += [f"--endpoint-{role}", hostile_server.url]
            hostile_server.script(role, healthy, reply)
            err = StringIO()
            with patch.object(backends, "BACKOFF_BASE_S", 0.0), redirect_stderr(err), redirect_stdout(StringIO()):
                code = main(argv)
            lines = err.getvalue().splitlines()
            assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), err.getvalue()
            if code == 2:
                assert len(lines) == 1 and lines[0].startswith("error: "), lines
                continue
            warned = [WARNING.match(line) for line in lines]
            assert all(m and failure.fullmatch(line[m.end():]) for m, line in zip(warned, lines)), lines
            assert len({m.group(1) for m in warned}) == len(lines) and code == (1 if lines else 0), lines
            if command in outs:  # the fixture corpus has three samples
                assert len(outs[command].read_bytes().splitlines()) + len(lines) == 3

    @settings(max_examples=50)
    @given(st.integers(0, 1), st.integers(1, 4) | st.just(math.inf), REPLIES | EMBED_REPLIES)
    @example(0, math.inf, ("packed", 32, [0.0], 0))  # zero vectors
    @example(0, math.inf, ("packed", 32, [1e300, 0.5], 0))  # norms that overflow
    @example(0, math.inf, ("packed", 32, [0.5, math.nan], 0))
    @example(0, math.inf, ("packed", 32, [0.5], -8))  # one value short
    @example(0, math.inf, ("graft", [0], 16))  # a dim that does not fit the bytes
    @example(0, math.inf, ("graft", [1], "AAAAAAAA8D8"))  # bad padding
    @example(0, 2, ("graft", [0], []))  # the chunk and the first sample's own request fail
    def test_evaluate_with_vsr_scores_or_warns_of_embed(self, chain, hostile_server, healthy, hostile, reply):
        """``evaluate --with-vsr`` with the embed role served by a server that answers well
        ``healthy`` times, then ``hostile`` times with ``reply`` and then well again, exits 0
        with a finite VSR, or 1 with one ``warning: <id>: embed: …`` per failed sample, and
        prints no traceback. The fixture corpus is one chunk: its request comes first, and
        when it fails each sample sends its own."""
        corpus, predictions = chain
        hostile_server.script("embed", healthy, reply, hostile)
        out, err = StringIO(), StringIO()
        with patch.object(backends, "BACKOFF_BASE_S", 0.0), redirect_stderr(err), redirect_stdout(out):
            code = main(["evaluate", str(corpus), str(predictions), "--with-vsr",
                         "--endpoint-embed", hostile_server.url])
        lines = err.getvalue().splitlines()
        assert code in (0, 1) and "Traceback" not in err.getvalue(), err.getvalue()
        warned = [WARNING.match(line) for line in lines]
        assert all(m and line[m.end():].startswith("embed: ") for m, line in zip(warned, lines)), lines
        assert len({m.group(1) for m in warned}) == len(lines) and code == (1 if lines else 0), lines
        if code == 0:
            assert math.isfinite(json.loads(out.getvalue())["vsr"])


class TestEndpointResolution:
    @pytest.fixture
    def http_calls(self, monkeypatch, video_fixtures):
        """Serve every HTTP role from the fixture mock and record the URLs called."""
        mock = backends.mock_backend(7, video_fixtures)
        urls = []

        def send(self, role, url, body, headers, timeout_s):
            urls.append(url)
            return mock.send(role, url, body, headers, timeout_s)

        monkeypatch.setattr(backends.HttpTransport, "send", send)
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

    def test_a_config_value_is_read_as_written_like_its_flag(self, capsys, tmp_path, monkeypatch, video_fixtures):
        # '%' starts an interpolation in configparser's default reading, which would reject both values
        monkeypatch.setattr(backends, "BACKOFF_BASE_S", 0.0)
        (tmp_path / "100%").mkdir()
        (tmp_path / "100%" / "videos.json").write_bytes((FIX / "videos.json").read_bytes())
        with socket.create_server(("127.0.0.1", 0)) as listener:
            url = f"http://127.0.0.1:{listener.getsockname()[1]}/a%20b"  # refused once the listener is closed
        paths = "[paths]\nfixtures = 100%/videos.json\n"
        runs = []
        for name, text, flags in [("config", f"{paths}[endpoints]\njudge = {url}\n", []),
                                  ("flag", paths, ["--endpoint-judge", url])]:
            ini = tmp_path / f"{name}.ini"
            ini.write_text(text)
            runs.append(run(capsys, "build-dataset", "--config", str(ini), "--seed", "7",
                            "--out", str(tmp_path / f"{name}.jsonl"), *flags))
        assert runs[0] == runs[1]
        code, _, err = runs[0]
        assert code == 1
        assert [line.split(": ")[:3] for line in err.splitlines()] == [
            ["warning", ref, "judge"] for ref in video_fixtures["videos"]]

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


# a judge's corrected ASR sentence: blank or not, with any order of start and end, negative ones too
CORRECTED_SENTENCE = st.fixed_dictionaries(
    {"text": st.sampled_from(["Buy now.", "", "  "]), "start": st.integers(-1000, 6000), "end": st.integers(-1000, 11000)}
)


class TestBuildDatasetAnswers:
    """A backend answer that build-dataset cannot use fails its sample only."""

    def build(self, capsys, tmp_path, *argv, fixtures=None):
        ini = FIX / "adcut.ini"
        if fixtures is not None:
            (tmp_path / "videos.json").write_text(json.dumps(fixtures))
            ini = tmp_path / "cfg.ini"
            ini.write_text((FIX / "adcut.ini").read_text())
        out = tmp_path / "corpus.jsonl"
        code, _, err = run(capsys, "build-dataset", "--config", str(ini), "--out", str(out), *argv)
        return code, err, out

    @pytest.mark.parametrize(
        "role, body, reason",
        [
            ("shots", {}, "shots: missing field 'boundaries_ms'"),
            ("shots", [1], "shots: expected a JSON object, got list"),
            ("shots", {"boundaries_ms": 5}, "shots: boundaries_ms: expected list of int, got int"),
            ("asr", {"sentences": [1]}, "asr: expected a JSON object, got int"),
            ("ocr", {"lines": [1]}, "ocr: lines: expected list of str, got list"),
            ("caption", {"caption": None}, "caption: caption: expected str, got NoneType"),
            ("judge", {"tags": {"tts_tags": "Young"}}, "judge: tts_tags: expected list of str, got str"),
        ],
        ids=["shots {}", "shots [1]", "shots boundaries 5", "asr entry 1", "ocr line 1", "caption null",
             "judge tags string"],
    )
    def test_misshapen_answer_is_a_recorded_failure(self, capsys, tmp_path, monkeypatch, video_fixtures,
                                                     role, body, reason):
        mock = backends.mock_backend(7, video_fixtures)

        def send(self, sent_role, url, payload, headers, timeout_s):
            if json.loads(payload).get("video_ref") == "vid-serum":
                return 200, json.dumps(body).encode()
            return mock.send(sent_role, url, payload, headers, timeout_s)

        monkeypatch.setattr(backends.HttpTransport, "send", send)
        code, err, out = self.build(capsys, tmp_path, f"--endpoint-{role}", "http://stub.invalid")
        assert code == 1
        assert err == f"warning: vid-serum: {reason}\n"
        assert [s.sample_id for s in read_corpus(out)] == ["vid-earbuds", "vid-blender"]

    def test_an_analysis_with_no_usable_dimension_is_a_recorded_failure(self, capsys, tmp_path, monkeypatch,
                                                                         video_fixtures):
        mock = backends.mock_backend(7, video_fixtures)

        def send(self, role, url, payload, headers, timeout_s):
            request = json.loads(payload)
            if (request.get("task"), request.get("video_ref")) == ("analyze", "vid-serum"):
                return 200, b'{"analysis": {}}'
            return mock.send(role, url, payload, headers, timeout_s)

        monkeypatch.setattr(backends.HttpTransport, "send", send)
        code, err, out = self.build(capsys, tmp_path, "--endpoint-judge", "http://stub.invalid")
        assert code == 1
        assert err == "warning: vid-serum: judge: analysis contains no usable dimensions\n"
        assert [s.sample_id for s in read_corpus(out)] == ["vid-earbuds", "vid-blender"]

    @given(st.lists(CORRECTED_SENTENCE, min_size=1, max_size=4))
    @example([{"text": "a", "start": 0, "end": 2000}, {"text": "b", "start": 1000, "end": 3000}])  # overlapping
    @example([{"text": "a", "start": 3000, "end": 1000}])  # inverted
    @example([{"text": "a", "start": 2000, "end": 3000}, {"text": "b", "start": 0, "end": 1000}])  # unsorted
    @example([{"text": "a", "start": -500, "end": 1000}])  # negative
    @example([{"text": " ", "start": 0, "end": 1000}])  # blank
    @example([{"text": "a", "start": 0, "end": 1000}, {"text": "b", "start": 1000, "end": 2500}])  # usable
    @example([{"text": "a", "start": 0, "end": 1000}, {"text": "b", "start": 1000, "end": 9000}])  # past vid-blender
    @example([{"text": "a", "start": 0, "end": 10501}])  # past every video
    def test_every_corrected_asr_answer_fails_its_sample_or_makes_a_valid_ground_truth(self, tmp_path_factory,
                                                                                      sentences):
        stock = backends.mock_backend(7, json.loads((FIX / "videos.json").read_text()))

        def send(self, role, url, payload, headers, timeout_s):
            if json.loads(payload).get("task") == "correct_asr":
                return 200, dumps_canonical({"sentences": sentences})
            return stock.send(role, url, payload, headers, timeout_s)

        out, err = tmp_path_factory.mktemp("asr") / "corpus.jsonl", StringIO()
        with patch.object(backends.HttpTransport, "send", send), redirect_stderr(err):
            code = main(["build-dataset", "--config", str(FIX / "adcut.ini"), "--out", str(out),
                         "--endpoint-judge", "http://stub.invalid"])
        written = {s.sample_id: s.ground_truth for s in read_corpus(out)}
        well_formed = all(s["text"].strip() and 0 <= s["start"] < s["end"] for s in sentences) and all(
            a["end"] <= b["start"] for a, b in zip(sentences, sentences[1:]))
        video_end = {"vid-earbuds": 9000, "vid-blender": 6200, "vid-serum": 10500}  # last shot boundaries
        usable = {ref: well_formed and sentences[-1]["end"] <= end for ref, end in video_end.items()}
        assert "Traceback" not in err.getvalue()
        assert code == (0 if all(usable.values()) else 1)
        for ref in video_end:
            if usable[ref]:
                assert validate_draft(written[ref]).ok
            else:
                assert ref not in written
                assert f"warning: {ref}: judge: corrected sentence " in err.getvalue()

    def test_misshapen_fixture_asr_is_a_recorded_failure(self, capsys, tmp_path, video_fixtures):
        video_fixtures["videos"]["vid-serum"]["asr"] = [1]
        code, err, out = self.build(capsys, tmp_path, fixtures=video_fixtures)
        assert code == 1
        assert err == "warning: vid-serum: asr: expected a JSON object, got int\n"
        assert [s.sample_id for s in read_corpus(out)] == ["vid-earbuds", "vid-blender"]

    @pytest.mark.parametrize(
        "first, reason",
        [
            ({"start": False, "end": True}, "asr: start: expected int, got bool"),
            ({"start": -500}, "asr: sentence 0 starts at -500"),
            ({"end": 20000}, "asr: sentence 0 ends at 20000, after the last shot boundary 10500"),
        ],
        ids=["bool times", "negative start", "end past the video"],
    )
    def test_unusable_fixture_asr_times_are_a_recorded_failure(self, capsys, tmp_path, video_fixtures, first,
                                                               reason):
        video_fixtures["videos"]["vid-serum"]["asr"][0].update(first)
        code, err, out = self.build(capsys, tmp_path, fixtures=video_fixtures)
        assert code == 1
        assert err == f"warning: vid-serum: {reason}\n"
        assert [s.sample_id for s in read_corpus(out)] == ["vid-earbuds", "vid-blender"]

    def test_voice_times_move_with_the_nodes_to_the_first_shot_boundary(self, capsys, tmp_path, video_fixtures):
        serum = video_fixtures["videos"]["vid-serum"]
        serum["shots"] = [2300, 4600, 7500, 10500]
        del serum["asr"][0]  # the rest span [2300, 10400]
        code, err, out = self.build(capsys, tmp_path, fixtures=video_fixtures)
        assert code == 0, err
        (truth,) = [s.ground_truth for s in read_corpus(out) if s.sample_id == "vid-serum"]
        assert [(s.target_start, s.target_end) for s in truth.voice_over_track] == [(0, 2700), (2700, 5300),
                                                                                   (5300, 8100)]
        assert [(n.target_start, n.target_end) for n in truth.video_nodes_track] == [(0, 2300), (2300, 5200),
                                                                                    (5200, 8200)]
        assert validate_draft(truth).ok

    @pytest.mark.parametrize("role", ["asr", "judge"])
    def test_speech_before_the_first_shot_boundary_is_a_recorded_failure(self, capsys, tmp_path, video_fixtures,
                                                                        role):
        serum = video_fixtures["videos"]["vid-serum"]
        serum["shots"] = [1000, 2000, 4600, 7500, 10500]
        serum["asr"][0]["start"] = 500 if role == "asr" else 1000
        stock = backends.MockTransport._handle_judge

        def judge(self, payload):  # moves each video's first corrected sentence to start at 500
            answer = stock(self, payload)
            if payload["task"] == "correct_asr":
                answer["sentences"][0] = {**answer["sentences"][0], "start": 500}
            return answer

        with patch.object(backends.MockTransport, "_handle_judge", judge) if role == "judge" else nullcontext():
            code, err, out = self.build(capsys, tmp_path, fixtures=video_fixtures)
        assert code == 1
        sentence = "sentence" if role == "asr" else "corrected sentence"
        assert err == f"warning: vid-serum: {role}: {sentence} 0 starts at 500, before the first shot boundary 1000\n"
        assert [s.sample_id for s in read_corpus(out)] == ["vid-earbuds", "vid-blender"]

    def test_too_short_shot_is_a_recorded_failure(self, capsys, tmp_path, video_fixtures):
        video_fixtures["videos"]["vid-serum"]["shots"] = [0, 1, 2000]  # a 1 ms shot is above 240 fps
        code, err, out = self.build(capsys, tmp_path, fixtures=video_fixtures)
        assert code == 1
        assert err == "warning: vid-serum: shots: shot 0 of 1 ms: native fps 1000.000 outside [1, 240] for clip 0\n"
        assert [s.sample_id for s in read_corpus(out)] == ["vid-earbuds", "vid-blender"]

    def test_a_negative_first_shot_boundary_is_a_recorded_failure(self, capsys, tmp_path, video_fixtures):
        video_fixtures["videos"]["vid-serum"]["shots"] = [-1000, 2000, 4600, 7500, 10500]
        code, err, out = self.build(capsys, tmp_path, fixtures=video_fixtures)
        assert code == 1
        assert err == "warning: vid-serum: shots: first boundary at -1000, before 0\n"
        assert [s.sample_id for s in read_corpus(out)] == ["vid-earbuds", "vid-blender"]

    def test_a_shot_past_the_float_range_is_a_recorded_failure(self, capsys, tmp_path, video_fixtures):
        video_fixtures["videos"]["vid-serum"]["shots"] = [0, 10**400]
        code, err, out = self.build(capsys, tmp_path, fixtures=video_fixtures)
        assert code == 1
        assert err == f"warning: vid-serum: shots: shot 0 of {10**400} ms: clip 0: duration_ms too large\n"
        assert [s.sample_id for s in read_corpus(out)] == ["vid-earbuds", "vid-blender"]

    def test_frame_placeholders_follow_the_sampling_plan(self, capsys, tmp_path, video_fixtures):
        video_fixtures["videos"]["vid-serum"]["shots"] = [0, 10**9]  # one shot of 10**6 s
        code, err, out = self.build(capsys, tmp_path, fixtures=video_fixtures)
        assert code == 0, err
        (sample,) = [s for s in read_corpus(out) if s.sample_id == "vid-serum"]
        clips = [line.split("fast frames:")[1].split("; slow frames:") for line in sample.instruction.splitlines()
                 if line.startswith("Clip ")]
        fast, slow = (sum(pathway.count("<image>") for pathway in side) for side in zip(*clips))
        assert slow <= fast <= 600

    def test_clips_over_the_frame_ceiling_are_a_recorded_failure(self, capsys, tmp_path, video_fixtures):
        video_fixtures["videos"]["vid-serum"]["shots"] = list(range(0, 602_000, 1000))  # 601 shots
        code, err, out = self.build(capsys, tmp_path, fixtures=video_fixtures)
        assert code == 1
        assert err.startswith("warning: vid-serum: ") and "cannot fit a 600-frame ceiling" in err
        assert [s.sample_id for s in read_corpus(out)] == ["vid-earbuds", "vid-blender"]


def fresh_interpreter(script: str, *argv: str, **kwargs) -> subprocess.CompletedProcess:
    """``script`` run with ``argv`` in a new Python process that imports this ``adcut``."""
    src = str(Path(adcut.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("ADCUT_CONFIG", None)
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=60,
                          **kwargs)


# Runs one subcommand in a fresh interpreter and reports which of the
# offline pipeline's modules, and of the modules the aligner no longer
# needs, it loaded, and how many threads are alive after it.
_IMPORT_PROBE = """
import json, sys, threading
from adcut.cli import main
code = main(sys.argv[1:])
heavy = ("numpy", "adcut.backends", "adcut.dataset", "adcut.metrics", "concurrent.futures", "fractions")
print(json.dumps({"code": code, "loaded": [m for m in heavy if m in sys.modules], "threads": threading.active_count()}))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", str(FIX / "draft_template.json"), "--clips", str(FIX / "clips.json")],
        ["plan", str(FIX / "clips.json")],  # the default preset comes from sampling, not dataset
        ["align", str(FIX / "draft_template.json"), str(FIX / "tts_noop.json"), str(FIX / "clips.json"),
         "--catalog", str(FIX / "catalog.json")],
    ],
    ids=lambda argv: argv[0],
)
def test_request_commands_skip_offline_pipeline_imports(argv, tmp_path):
    done = fresh_interpreter(_IMPORT_PROBE, *argv, "--out", str(tmp_path / "out.json"))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"code": 0, "loaded": [], "threads": 1}


@pytest.mark.parametrize(
    "argv",
    [
        ["build-dataset"],
        ["generate", "{corpus}", "--endpoint-generate", "mock:swap_adjacent:0.3"],
        ["evaluate", "{corpus}", "{predictions}", "--with-judge", "--with-vsr"],
    ],
    ids=lambda argv: argv[0],
)
def test_all_mock_commands_run_their_samples_on_the_calling_thread(argv, chain, tmp_path):
    corpus, predictions = chain
    argv = [arg.format(corpus=corpus, predictions=predictions) for arg in argv]
    done = fresh_interpreter(_IMPORT_PROBE, *argv, "--config", str(FIX / "adcut.ini"), "--seed", "7",
                             "--concurrency", "2", "--out", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert probe["code"] == 0
    assert "concurrent.futures" not in probe["loaded"]
    assert probe["threads"] == 1


_GENERATE = ["generate", "{corpus}", "--endpoint-generate", "mock:"]
_OUT = ["--out", "{tmp}/out.jsonl"]
_BUILD = ["build-dataset", "--seed", "7", *_OUT]
_INFINITE_RATE = "1" + "0" * 400 + "/4"  # reads as an infinite fps
_HUGE_TOKENS = "1/" + "9" * 4299  # a token count whose plan totals no int can print
_TOKENS_PAST_INT_LIMIT = "1/" + "9" * 5000  # a token count int() refuses to read
# endpoint values that are neither mock: nor an http(s) URL with a host
_BAD_ENDPOINTS = ["mockingbird.example:8080", "mock:bogus", "mock://x", "localhost:8080", "ftp://h/x"]


@pytest.fixture
def polka_files(corpus_path, tmp_path_factory):
    """Perfect predictions for the fixture corpus, and copies of it and of them whose
    first draft carries the music tag Polka, which the taxonomy lacks."""
    out = tmp_path_factory.mktemp("polka")
    paths = {name: out / f"{name}.jsonl" for name in ("predictions", "polka_predictions", "polka_corpus")}
    assert main(["generate", str(corpus_path), "--endpoint-generate", "mock:", "--seed", "7",
                 "--out", str(paths["predictions"])]) == 0

    def with_polka(draft):
        return {**draft, "decoration_setting": {**draft["decoration_setting"], "music_tags": ["Polka"]}}

    for source, name, field in ((paths["predictions"], "polka_predictions", "draft_json"),
                                (corpus_path, "polka_corpus", "ground_truth")):
        first, *rest = source.read_text("utf-8").splitlines(keepends=True)
        record = json.loads(first)
        draft = record[field]
        record[field] = json.dumps(with_polka(json.loads(draft))) if isinstance(draft, str) else with_polka(draft)
        paths[name].write_text(json.dumps(record) + "\n" + "".join(rest), encoding="utf-8")
    return paths


# case -> (argv, config file text or None, start of the error after "error: "); {corpus},
# {tmp}, {nodir}, {ini} and the paths of polka_files are filled in by the test
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
        ([*_BUILD, "--config", str(FIX / "adcut.ini"), "--preset", _INFINITE_RATE], None,
         "bad preset: fps must be <= 240, got inf"),
        (["plan", str(FIX / "clips.json"), "--preset", _INFINITE_RATE], None,
         "bad preset: fps must be <= 240, got inf"),
        ([*_BUILD, "--config", str(FIX / "adcut.ini"), "--preset", _HUGE_TOKENS], None,
         "bad preset: tokens_per_frame must be <= 65536, got 9999"),
        *((["plan", str(FIX / "clips.json"), "--preset", _HUGE_TOKENS, "--format", form], None,
           "bad preset: tokens_per_frame must be <= 65536, got 9999") for form in ("json", "table")),
        (["plan", str(FIX / "clips.json"), "--preset", _TOKENS_PAST_INT_LIMIT], None,
         "bad preset: tokens_per_frame must be <= 65536, got 9999"),
        (["plan", str(FIX / "clips.json"), "--preset", "fast:2/16,slow:0.5/4"], None,
         "bad preset: fast pathway must use at most as many tokens per frame as slow\n"),
        (["plan", str(FIX / "clips.json"), "--preset", "2/4 1/4"], None,
         "bad preset: unnamed fps/token pair must be the only component\n"),
        ([*_GENERATE, *_OUT, "--config", "{tmp}/missing.ini"], None, "config file not found: {tmp}/missing.ini\n"),
        ([*_GENERATE, *_OUT, "--config", "{tmp}"], None, "config file not found: {tmp}\n"),
        ([*_BUILD, *(arg for role in cli.DATASET_ROLES for arg in (f"--endpoint-{role}", "http://127.0.0.1:9"))],
         None, "build-dataset reads its products and negative pool from a fixtures file ([paths] fixtures)\n"),
        (["generate", "{corpus}", "--endpoint-generate", "mock:swap_adjacent:x", "--seed", "7", *_OUT], None,
         "bad mock endpoint 'mock:swap_adjacent:x': the rate is not a number"),
        *(
            (["generate", "{corpus}", "--endpoint-generate", endpoint, "--seed", "7", *_OUT], None,
             f"bad mock endpoint '{endpoint}': {reason}")
            for endpoint, reason in [
                ("mock:swap_adjacent:5", "the rate must be in [0, 1], got 5"),
                ("mock:swap_adjacent:-1", "the rate must be in [0, 1], got -1"),
                ("mock:swap_adjacent:nan", "the rate must be in [0, 1], got nan"),
                ("mock:bogus", "expected mock:, mock:perfect or mock:<mode>[:rate]"),
            ]
        ),
        (["evaluate", "{corpus}", "{polka_predictions}"], None,
         "predictions {polka_predictions}: vid-earbuds prediction: ['Polka'] not in Music taxonomy"),
        (["evaluate", "{polka_corpus}", "{predictions}"], None,
         "corpus {polka_corpus}: vid-earbuds ground truth: ['Polka'] not in Music taxonomy"),
        *(
            (["evaluate", "{corpus}", "{predictions}", "--with-judge", "--endpoint-judge", endpoint], None,
             f"bad judge endpoint '{endpoint}': expected an http:// or https:// URL with a host")
            for endpoint in _BAD_ENDPOINTS
        ),
        ([*_BUILD, "--config", str(FIX / "adcut.ini"), "--endpoint-asr", "mockingbird:1"], None,
         "bad asr endpoint 'mockingbird:1': expected an http:// or https:// URL with a host"),
    ],
    ids=[
        "validate to a missing directory", "build-dataset to a missing directory", "generate to a missing directory",
        "generate without an output path", "--concurrency 0", "--concurrency -3", "evaluate --concurrency 0",
        "no section header", "duplicate key", "seed not an int", "concurrency not an int",
        "dropout_p not a float", "--dropout-p 1.5", "bad preset", "build-dataset infinite rate", "plan infinite rate",
        "build-dataset huge token count", "plan huge token count", "plan table huge token count",
        "token count past int()'s digit limit",
        "fast tokens above slow", "two unnamed pairs", "config file not found", "config path a directory",
        "no fixtures file with every role over HTTP", "bad mock rate",
        "mock rate above 1", "negative mock rate", "mock rate nan", "unknown mock mode",
        "prediction tag outside the taxonomy", "ground-truth tag outside the taxonomy",
        *(f"judge endpoint {endpoint}" for endpoint in _BAD_ENDPOINTS), "asr endpoint mockingbird:1",
    ],
)
def test_bad_output_path_or_config_is_a_usage_error(capsys, corpus_path, polka_files, tmp_path, argv, ini, error):
    names = {"corpus": corpus_path, "tmp": tmp_path, "nodir": tmp_path / "nodir" / "out.jsonl", "ini": tmp_path / "bad.ini"}
    names.update(polka_files)
    if ini is not None:
        names["ini"].write_text(ini)
    code, _, err = run(capsys, *(arg.format(**names) for arg in argv))
    assert code == 2
    assert err.startswith("error: " + error.format(**names)), err
    assert "Traceback" not in err
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize(
    "argv, error",
    [
        (["evaluate", "{corpus}", "{predictions}", "--with-judge", "--endpoint-judge", "http://127.0.0.1:abc"],
         "bad judge endpoint 'http://127.0.0.1:abc': Port could not be cast to integer value as 'abc'"),
        (["evaluate", "{corpus}", "{predictions}", "--with-vsr", "--endpoint-embed", "http://127.0.0.1:70000/v"],
         "bad embed endpoint 'http://127.0.0.1:70000/v': Port out of range 0-65535"),
        (["generate", "{corpus}", "--endpoint-generate", "https://[::1]:99999", "--out", "{tmp}/out.jsonl"],
         "bad generate endpoint 'https://[::1]:99999': Port out of range 0-65535"),
        ([*_BUILD, "--config", str(FIX / "adcut.ini"), "--endpoint-shots", "http://h:-1"],
         "bad shots endpoint 'http://h:-1': Port could not be cast to integer value as '-1'"),
    ],
    ids=["nonnumeric judge port", "embed port 70000", "generate port 99999", "negative shots port"],
)
def test_a_bad_endpoint_port_fails_before_any_backend_call(
    capsys, corpus_path, polka_files, tmp_path, monkeypatch, argv, error
):
    calls = []
    monkeypatch.setattr(backends.Client, "call", lambda client, payload: calls.append(client.role))
    names = {"corpus": corpus_path, "predictions": polka_files["predictions"], "tmp": tmp_path}
    code, out, err = run(capsys, *(arg.format(**names) for arg in argv), "--seed", "7")
    assert (code, out, err) == (2, "", f"error: {error}\n")
    assert calls == []


@pytest.mark.parametrize("endpoint", ["http://user:pw@127.0.0.1:9", "https://token@h/v"])
def test_an_endpoint_with_user_info_fails_before_any_backend_call(capsys, corpus_path, polka_files, monkeypatch,
                                                                   endpoint):
    calls = []
    monkeypatch.setattr(backends.Client, "call", lambda client, payload: calls.append(client.role))
    code, out, err = run(capsys, "evaluate", str(corpus_path), str(polka_files["predictions"]), "--with-judge",
                         "--endpoint-judge", endpoint, "--seed", "7")
    assert (code, out, err) == (2, "", f"error: bad judge endpoint '{endpoint}': user info in a URL is not supported\n")
    assert calls == []


@pytest.mark.parametrize("endpoint, reason", [
    ("http://127.0.0.1:9/a b", "a request line cannot carry the URL's control, space or non-ASCII characters"),
    ("http://127.0.0.1:9/\u00e9", "a request line cannot carry the URL's control, space or non-ASCII characters"),
    ("http:///v", "expected an http:// or https:// URL with a host"),
], ids=["space in the path", "non-ASCII path", "no host"])
def test_an_endpoint_the_transport_rejects_fails_before_any_backend_call(capsys, corpus_path, polka_files,
                                                                          monkeypatch, endpoint, reason):
    calls = []
    monkeypatch.setattr(backends.Client, "call", lambda client, payload: calls.append(client.role))
    code, out, err = run(capsys, "evaluate", str(corpus_path), str(polka_files["predictions"]), "--with-judge",
                         "--endpoint-judge", endpoint, "--seed", "7")
    assert (code, out, err) == (2, "", f"error: bad judge endpoint {endpoint!r}: {reason}\n")
    assert calls == []


def _copies(corpus_path: Path, tmp_path: Path, copies: int) -> tuple[Path, list[str]]:
    """A corpus of ``copies`` copies of the one at ``corpus_path``, with ids ``<id>-<k>``, and its ids."""
    records = [json.loads(line) for line in corpus_path.read_text("utf-8").splitlines()]
    corpus = tmp_path / "corpus.jsonl"
    copied = [{**r, "sample_id": f"{r['sample_id']}-{k}"} for k in range(copies) for r in records]
    corpus.write_text("".join(json.dumps(r) + "\n" for r in copied))
    return corpus, [r["sample_id"] for r in copied]


def test_an_unexpected_error_cancels_the_pending_samples_of_its_command(capsys, corpus_path, tmp_path, monkeypatch):
    corpus, ids = _copies(corpus_path, tmp_path, 4)
    first = ids[0]
    started, finished = [], []
    another_started = threading.Event()

    def generate_draft(request, client):
        started.append(request["sample_id"])
        if request["sample_id"] == first:
            assert another_started.wait(timeout=10)
            raise RuntimeError("not a sample failure")
        another_started.set()
        time.sleep(0.1)
        finished.append(request["sample_id"])
        return b"{}"

    monkeypatch.setattr(backends, "generate_draft", generate_draft)
    with pytest.raises(RuntimeError, match="not a sample failure"):  # a URL endpoint maps on the pool; nothing is sent
        main(["generate", str(corpus), "--endpoint-generate", "http://127.0.0.1:9", "--seed", "7",
              "--concurrency", "2", "--out", str(tmp_path / "pred.jsonl")])
    ran = list(started)
    assert sorted(finished) == sorted(set(ran) - {first})  # each sample that started has finished
    assert len(ran) <= 4 < len(ids)  # the samples not started were cancelled
    time.sleep(0.2)
    assert started == ran


def test_an_unexpected_error_stops_an_in_process_command_at_its_sample(capsys, corpus_path, tmp_path, monkeypatch):
    corpus, ids = _copies(corpus_path, tmp_path, 2)
    started = []

    def generate_draft(request, client):
        started.append((request["sample_id"], threading.current_thread()))
        if len(started) == 3:
            raise RuntimeError("not a sample failure")
        return b"{}"

    monkeypatch.setattr(backends, "generate_draft", generate_draft)
    with pytest.raises(RuntimeError, match="not a sample failure"):
        main(["generate", str(corpus), "--endpoint-generate", "mock:", "--seed", "7", "--concurrency", "2",
              "--out", str(tmp_path / "pred.jsonl")])
    assert started == [(sid, threading.main_thread()) for sid in ids[:3]]  # in order, and none after the error


class _WrappedMock:
    """A transport that hands each request to a mock, as a stub server would."""

    def __init__(self, mock: backends.MockTransport):
        self.mock = mock

    def send(self, *args):
        return self.mock.send(*args)


class _SubclassedMock(backends.MockTransport):
    pass


# transports of a command's clients -> whether its samples map on the calling thread
_RUNNER_CASES = [
    ([], True),
    (["bare mock"], True),
    (["bare mock", "bare mock"], True),
    (["subclassed mock"], False),
    (["wrapped mock"], False),
    (["http"], False),
    (["bare mock", "http"], False),
]


@pytest.mark.parametrize("transports, inline", _RUNNER_CASES,
                         ids=["+".join(transports) or "no client" for transports, _ in _RUNNER_CASES])
def test_only_a_command_whose_clients_are_all_bare_mocks_maps_on_the_calling_thread(transports, inline):
    mock = backends.mock_backend(7)
    build = {
        "bare mock": lambda: mock,
        "subclassed mock": lambda: _SubclassedMock(seed=7, fixtures={}),
        "wrapped mock": lambda: _WrappedMock(mock),
        "http": backends.HttpTransport,  # no connection opens before a call
    }
    clients = [backends.Client("judge", backends.MOCK_ENDPOINT, transport=build[kind]()) for kind in transports]
    assert [client.in_process for client in clients] == [kind == "bare mock" for kind in transports]
    threads = list(cli._map_samples(2, clients, [("a",), ("b",), ("c",)], lambda _: threading.current_thread()))
    if inline:
        assert threads == [threading.main_thread()] * 3
    else:
        assert all(thread.name.startswith("adcut-c2") for thread in threads)


def test_a_tag_outside_the_taxonomy_fails_before_any_backend_call(capsys, corpus_path, polka_files, monkeypatch):
    calls = []
    monkeypatch.setattr(backends.Client, "call", lambda client, payload: calls.append(client.role))
    code, out, err = run(capsys, "evaluate", str(corpus_path), str(polka_files["polka_predictions"]),
                         "--with-judge", "--with-vsr", "--config", str(FIX / "adcut.ini"), "--seed", "7")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: predictions {polka_files['polka_predictions']}: vid-earbuds prediction:"), err
    assert calls == []


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


def test_unknown_subcommand_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_top_level_help_is_a_one_line_description(capsys):
    code, out, _ = run(capsys, "-h")
    assert code == 0
    assert " ".join(out.split("\n\n")[1].split()) == cli.DESCRIPTION


class TestParserReuse:
    """``main`` builds the parser once per process and picks each command by name per call."""

    def fresh_parser_output(self, capsys, argv):
        with pytest.raises(SystemExit):
            cli.build_parser.__wrapped__().parse_args(argv)
        captured = capsys.readouterr()
        return captured.out, captured.err

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_command_patched_after_a_call_is_the_one_run(self, capsys, monkeypatch):
        assert run(capsys, "validate", str(FIX / "draft_template.json"))[0] == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_generate", lambda args: calls.append(args.corpus) or 0)
        assert run(capsys, "generate", "c.jsonl", "--endpoint-generate", "mock:") == (0, "", "")
        assert calls == ["c.jsonl"]

    def test_flag_values_do_not_leak_between_calls(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_generate", lambda args: seen.append((args.resume, args.seed)) or 0)
        assert main(["generate", "c.jsonl", "--resume", "--seed", "3"]) == 0
        assert main(["generate", "c.jsonl"]) == 0
        assert seen == [(True, 3), (False, None)]

    def test_usage_error_after_a_successful_call(self, capsys):
        assert run(capsys, "validate", str(FIX / "draft_template.json"))[0] == 0
        code, out, err = run(capsys, "validate")
        assert (code, out) == (2, "")
        assert err == self.fresh_parser_output(capsys, ["validate"])[1]
        assert err.endswith("adcut validate: error: the following arguments are required: draft\n")

    @pytest.mark.parametrize(
        "command", [[], *([name] for name in SUBCOMMAND_FLAGS)], ids=lambda c: " ".join(c) or "adcut"
    )
    def test_help_matches_a_freshly_built_parser(self, capsys, command):
        main(["validate", str(FIX / "draft_template.json")])
        capsys.readouterr()
        code, out, err = run(capsys, *command, "-h")
        assert (code, err) == (0, "")
        assert out == self.fresh_parser_output(capsys, [*command, "-h"])[0]
        assert out.startswith(f"usage: adcut {command[0]}" if command else "usage: adcut")
