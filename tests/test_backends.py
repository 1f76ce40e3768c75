import copy
import hashlib
import json
import math
import os
import re
import socket
import subprocess
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adcut
from adcut import backends as backends_module
from adcut.backends import (
    GENERATE_MODES,
    ROLES,
    BackendEndpoint,
    BackendError,
    BadStatus,
    Client,
    HttpTransport,
    InvalidResponse,
    MalformedScores,
    MockTransport,
    RequestTimeout,
    TransportFailure,
    embed,
    generate_draft,
    hashed_unit_vector,
    judge_score,
    mock_backend,
    rubric_hash,
    MOCK_ENDPOINT,
    RUBRICS,
)
from adcut.cli import main
from adcut.dataset import read_corpus
from adcut.jsonutil import dumps_canonical, loads
from helpers import mock_backend_set, packed_vectors, reference_embed, reference_unit_vector, rubric_text

FIX = Path(__file__).parent / "fixtures"

GT_DRAFT = {
    "voice_over_track": [{"text": "hello", "target_start": 0, "target_end": 1000}],
    "video_nodes_track": [
        {"index": 0, "target_start": 0, "target_end": 500, "source_start": 0},
        {"index": 1, "target_start": 500, "target_end": 1000, "source_start": 0},
    ],
    "decoration_setting": {"tts_tags": ["Young"], "avatar_tags": [], "music_tags": ["Pop"]},
}


class CountingTransport:
    """Scripted transport: a list of (status, body) or exceptions."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0
        self.bodies = []

    def send(self, role, url, body, headers, timeout_s):
        self.calls += 1
        self.bodies.append(body)
        item = self.script.pop(0) if self.script else (200, b"{}")
        if isinstance(item, Exception):
            raise item
        return item


def make_client(transport, retries=2):
    ep = BackendEndpoint(base_url="http://unit.test", timeout_ms=1000, max_retries=retries)
    return Client("generate", ep, transport=transport, sleeper=lambda s: None)


class TestClient:
    def test_canonical_wire_bytes(self):
        t1, t2 = CountingTransport([(200, b"{}")]), CountingTransport([(200, b"{}")])
        payload = {"b": 1, "a": [1, 2], "nested": {"y": None, "x": "é"}}
        make_client(t1).call(dict(payload))
        make_client(t2).call(json.loads(json.dumps(payload)))
        assert t1.bodies[0] == t2.bodies[0]

    def test_retry_then_success(self):
        transport = CountingTransport(
            [
                TransportFailure("generate", "boom"),
                TransportFailure("generate", "boom again"),
                (200, b'{"ok": true}'),
            ]
        )
        result = make_client(transport, retries=3).call({})
        assert result.retries == 2
        assert transport.calls == 3
        assert result.data == {"ok": True}

    def test_bad_status_after_exhausted_retries(self):
        transport = CountingTransport([(500, b""), (500, b""), (500, b"")])
        with pytest.raises(BadStatus):
            make_client(transport, retries=2).call({})
        assert transport.calls == 3

    def test_client_error_not_retried(self):
        transport = CountingTransport([(404, b"")])
        with pytest.raises(BadStatus):
            make_client(transport, retries=5).call({})
        assert transport.calls == 1

    def test_rate_limited_is_retried(self):
        transport = CountingTransport([(429, b""), (200, b"{}")])
        result = make_client(transport, retries=2).call({})
        assert result.retries == 1
        assert transport.calls == 2

    def test_non_json_response(self):
        transport = CountingTransport([(200, b"<html>")])
        with pytest.raises(InvalidResponse):
            make_client(transport).call({})

    @pytest.mark.parametrize("body", [b'{"draft":"\\ud800"}', b'{"\\udfff":1}', b'[["\\udbff\\u0041"]]'],
                             ids=["value", "key", "high-then-ascii"])
    def test_a_lone_surrogate_in_a_response_is_not_retried(self, body):
        transport = CountingTransport([(200, body)])
        with pytest.raises(InvalidResponse, match=r"^generate: non-JSON body: lone surrogate '\\ud[8-f][0-9a-f]{2}' "
                                                  r"in a string$"):
            make_client(transport, retries=2).call({})
        assert transport.calls == 1

    def test_a_surrogate_pair_in_a_response_is_one_character(self):
        transport = CountingTransport([(200, b'{"draft":"\\ud83c\\udfac"}')])
        assert make_client(transport).call({}).data == {"draft": "\U0001f3ac"}

    def test_backoff_schedule(self):
        sleeps = []
        transport = CountingTransport(
            [TransportFailure("generate", "x"), TransportFailure("generate", "x"), (200, b"{}")]
        )
        ep = BackendEndpoint(base_url="http://unit.test", max_retries=2)
        client = Client("generate", ep, transport=transport, sleeper=sleeps.append)
        client.call({})
        assert len(sleeps) == 2
        assert 0.25 * 0.8 <= sleeps[0] <= 0.25 * 1.2
        assert 0.5 * 0.8 <= sleeps[1] <= 0.5 * 1.2

    def test_calls_are_not_capped_below_the_caller_threads(self):
        # every call waits until all 12 are in flight at once; a limit on
        # in-flight calls below 12 breaks the barrier
        barrier = threading.Barrier(12, timeout=5)

        class Waiting:
            def send(self, role, url, body, headers, timeout_s):
                barrier.wait()
                return 200, b"{}"

        client = make_client(Waiting(), retries=0)
        results = []
        threads = [threading.Thread(target=lambda: results.append(client.call({}).data)) for _ in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [{}] * 12


class TestGenerate:
    def test_mock_echoes_fixture(self):
        transport = mock_backend(7, {"drafts": {"s1": GT_DRAFT}})
        client = Client("generate", MOCK_ENDPOINT, transport=transport)
        draft_json = generate_draft({"sample_id": "s1"}, client)
        assert isinstance(draft_json, bytes)
        assert loads(draft_json) == GT_DRAFT

    def test_missing_draft_field(self):
        transport = CountingTransport([(200, b'{"something": 1}')])
        with pytest.raises(InvalidResponse):
            generate_draft({"sample_id": "s1"}, make_client(transport))


class TestJudgeScore:
    def test_caps_mock_returns_full_scores(self):
        client = mock_backend_set(1).judge
        scores = judge_score({"sample_id": "x"}, "script_quality_eval", client)
        assert scores == {"basic": 30, "native_language_tone": 15, "touch_the_audience": 15, "creative_narrative": 40}

    @pytest.mark.parametrize("dimensions, expected", [
        (None, RUBRICS["free_prompt_eval"][1]),
        (["avatar", "duration", "avatar"], {"duration": 10, "avatar": 10}),
        (["dur", "durationavatar", "basic"], {}),
        ([], {}),
    ], ids=["null", "named", "no-exact-name", "none"])
    def test_caps_mock_answers_each_named_dimension_by_its_exact_name(self, dimensions, expected):
        payload = {"task": "score", "rubric_id": "free_prompt_eval", "dimensions": dimensions}
        assert mock_backend(1).answer("judge", payload) == {"scores": expected}

    def test_over_cap_rejected(self):
        client = mock_backend_set(1, {"judge": {"scores": {"basic": 31}}}).judge
        with pytest.raises(MalformedScores):
            judge_score({}, "script_quality_eval", client)

    def test_unknown_dimension_rejected(self):
        client = mock_backend_set(1, {"judge": {"scores": {"zest": 1}}}).judge
        with pytest.raises(MalformedScores):
            judge_score({}, "script_quality_eval", client)

    def test_rubric_hash_stable_and_in_payload(self):
        h1, h2 = rubric_hash("free_prompt_eval"), rubric_hash("free_prompt_eval")
        assert h1 == h2
        assert "selling_points_emphasis" in rubric_text("free_prompt_eval")
        transport = CountingTransport([(200, dumps_canonical({"scores": {"duration": 5}}))])
        judge_score({"sample_id": "x"}, "free_prompt_eval", make_client(transport))
        sent = loads(transport.bodies[0])
        assert sent["rubric_sha256"] == h1

    @pytest.mark.parametrize("rubric_id", sorted(RUBRICS))
    def test_judge_calls_reuse_the_rubric_hash(self, rubric_id, monkeypatch):
        prompt = Path(backends_module.__file__).parent / "prompts" / RUBRICS[rubric_id][0]
        expected = hashlib.sha256(prompt.read_bytes()).hexdigest()
        transport = CountingTransport([(200, dumps_canonical({"scores": {}}))] * 2)
        client = make_client(transport)
        judge_score({"sample_id": "x"}, rubric_id, client)
        # a second judge call must not read the package resource again
        monkeypatch.setattr(backends_module, "resources", None)
        judge_score({"sample_id": "y"}, rubric_id, client)
        assert [loads(b)["rubric_sha256"] for b in transport.bodies] == [expected, expected]


class TestEmbed:
    def test_unit_norm_and_count(self):
        client = Client("embed", MOCK_ENDPOINT, transport=mock_backend(3))
        vectors = embed(["alpha", "beta", "gamma"], client)
        assert len(vectors) == 3
        for v in vectors:
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-9

    def test_deterministic_per_input(self):
        a = embed(["alpha"], Client("embed", MOCK_ENDPOINT, transport=mock_backend(3)))[0]
        b = embed(["alpha"], Client("embed", MOCK_ENDPOINT, transport=mock_backend(3)))[0]
        assert np.array_equal(a, b)
        c = embed(["alpha"], Client("embed", MOCK_ENDPOINT, transport=mock_backend(4)))[0]
        assert not np.array_equal(a, c)

    def test_normalizes_non_unit_response(self):
        transport = CountingTransport([(200, dumps_canonical(packed_vectors([[3.0, 4.0]])))])
        client = Client("embed", BackendEndpoint("http://unit.test"), transport=transport)
        (v,) = embed(["x"], client)
        assert v.tolist() == [0.6, 0.8]

    @pytest.mark.parametrize(
        "answer, reason",
        [
            (b"[]", "expected a JSON object, got list"),
            (b'{"vectors":"AAAAAAAA8D8="}', "missing field 'dim'"),
            (b'{"dim":"1","vectors":"AAAAAAAA8D8="}', "dim: expected int, got str"),
            (b'{"dim":true,"vectors":"AAAAAAAA8D8="}', "dim: expected int, got bool"),
            (b'{"dim":1.0,"vectors":"AAAAAAAA8D8="}', "dim: expected int, got float"),
            (b'{"dim":0,"vectors":""}', "dim must be at least 1, got 0"),
            (b'{"dim":-1,"vectors":""}', "dim must be at least 1, got -1"),
            (b'{"dim":1}', "missing field 'vectors'"),
            (b'{"dim":1,"vectors":[[1.0]]}', "vectors: expected str, got list"),
            (b'{"dim":1,"vectors":null}', "vectors: expected str, got NoneType"),
            (b'{"dim":1,"vectors":"AAAAAAAA8D8"}', "vectors is not base64: Incorrect padding"),
            (b'{"dim":1,"vectors":"AAAA AAAA8D8="}', "vectors is not base64: Only base64 data is allowed"),
            (b'{"dim":1,"vectors":"AAAAAAAA8D8=AAAA"}', "vectors is not base64: Excess data after padding"),
            (b'{"dim":1,"vectors":"\xc3\xa9"}', "vectors is not base64: string argument should contain only ASCII "
                                               "characters"),
            (b'{"dim":1,"vectors":""}', "vectors holds 0 bytes, not the 8 of 1 vectors of 1 float64 values"),
            (b'{"dim":2,"vectors":"AAAAAAAA8D8="}', "vectors holds 8 bytes, not the 16 of 1 vectors of 2 float64 values"),
            (b'{"dim":1,"vectors":"AAAAAAAA8D8AAAAAAAAAAA=="}',
             "vectors holds 16 bytes, not the 8 of 1 vectors of 1 float64 values"),
            (dumps_canonical(packed_vectors([[math.nan]])), "a vector is not a list of finite numbers"),
            (dumps_canonical(packed_vectors([[1.0, math.inf]])), "a vector is not a list of finite numbers"),
            (dumps_canonical(packed_vectors([[0.0, -0.0]])), "zero vector cannot be normalized"),
        ],
        ids=["array", "no-dim", "dim-a-string", "dim-a-bool", "dim-a-float", "dim-zero", "dim-negative", "no-vectors",
             "vectors-a-list", "vectors-null", "bad-padding", "space", "data-after-padding", "not-ascii", "no-bytes",
             "short", "long", "nan", "infinity", "signed-zeros"],
    )
    def test_a_misshapen_answer_is_an_invalid_response(self, answer, reason):
        transport = CountingTransport([(200, answer)])
        client = Client("embed", BackendEndpoint("http://unit.test"), transport=transport)
        with pytest.raises(InvalidResponse) as raised:
            embed(["a"], client)
        assert str(raised.value) == f"embed: {reason}"

    @pytest.mark.parametrize("rows", [[[0.0], [math.nan]], [[0.0], [-math.inf]]], ids=["nan", "infinity"])
    def test_a_non_finite_value_fails_before_an_earlier_zero_vector(self, rows):
        # the whole answer is checked for finite values first, then each vector's norm
        transport = CountingTransport([(200, dumps_canonical(packed_vectors(rows)))])
        client = Client("embed", BackendEndpoint("http://unit.test"), transport=transport)
        with pytest.raises(InvalidResponse, match="^embed: a vector is not a list of finite numbers$"):
            embed(["a", "b"], client)

    @pytest.mark.parametrize("rows", [[[1e200, 1e200]], [[1.0, 0.0], [1e300, -1e300]]], ids=["one", "second"])
    def test_an_overflowing_norm_is_an_invalid_response_and_prints_nothing(self, rows, capfd):
        transport = CountingTransport([(200, dumps_canonical(packed_vectors(rows)))])
        client = Client("embed", BackendEndpoint("http://unit.test"), transport=transport)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidResponse, match="^embed: a vector's norm overflows$"):
                embed(["a"] * len(rows), client)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=150)
    @given(st.data())
    def test_vectors_equal_the_struct_reference_bit_for_bit(self, data):
        """Drawn float64 rows, as the mock serves them in process, as a wrapped mock serves
        them in bytes, and as drawn packed bytes, come out of ``embed`` bitwise equal to the
        reference, which unpacks them with ``struct``; or both reject the answer."""
        dim, count = data.draw(st.integers(0, 12)), data.draw(st.integers(1, 5))
        rows = [data.draw(float64_rows(dim)) for _ in range(count)]
        inputs = [f"in{i}" for i in range(count)]
        table = dict(zip(inputs, rows))
        mock = mock_backend(3)

        class Wrapping:
            def send(self, *args):
                return mock.send(*args)

        body = dumps_canonical(packed_vectors(rows))
        clients = [lambda: Client("embed", MOCK_ENDPOINT, transport=mock),
                   lambda: Client("embed", BackendEndpoint("http://unit.test"), transport=Wrapping()),
                   lambda: Client("embed", BackendEndpoint("http://unit.test"),
                                  transport=CountingTransport([(200, body)]))]
        with patch.object(backends_module, "hashed_unit_vector", lambda text, seed: np.array(table[text])):
            assert mock.answer("embed", {"inputs": inputs}) == packed_vectors(rows)  # the rows' bytes, as they are
            for client in clients:
                try:
                    expected = reference_embed(inputs, client())
                except InvalidResponse:
                    with pytest.raises(InvalidResponse):  # the message may differ when two vectors are faulty
                        embed(inputs, client())
                    continue
                got = embed(inputs, client())
                assert [v.tobytes() for v in got] == [v.tobytes() for v in expected]
                assert [v.shape for v in got] == [v.shape for v in expected]


SCALES = st.sampled_from([1e-300, 1e-160, 1e-8, 1.0, 3.0, 1e8, 1e150, 1e300])  # underflowing and overflowing norms too
# values from the edges of float64: signed zeros, subnormals, values near 1e+-300, and ones that are not finite
EDGES = st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e-300, -1e300, 1.7976931348623157e308,
                         math.nan, math.inf, -math.inf])


@st.composite
def float64_rows(draw, dim):
    """A vector of ``dim`` float64 values: drawn in [-2, 2] and scaled, sometimes with one value
    from the edges of float64, or all zero."""
    scale = draw(SCALES)
    row = [x * scale for x in draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))]
    if dim and draw(st.integers(0, 3)) == 0:
        row[draw(st.integers(0, dim - 1))] = draw(EDGES)
    return [0.0] * dim if draw(st.integers(0, 9)) == 0 else row


class TestMockPurity:
    def test_replay_identical(self):
        fixtures = {"drafts": {"s1": GT_DRAFT, "s2": GT_DRAFT}, "corruption": {"mode": "swap_adjacent", "rate": 0.5}}
        outs = []
        for _ in range(2):
            transport = mock_backend(11, json.loads(json.dumps(fixtures)))
            outs.append(
                [transport.send("generate", "", dumps_canonical({"sample_id": s}), {}, 1.0) for s in ("s1", "s2")]
            )
        assert outs[0] == outs[1]

    @settings(max_examples=200)
    @given(text=st.text(max_size=40), seed=st.integers(0, 2**63))
    def test_hashed_unit_vectors_equal_the_reference_bit_for_bit(self, text, seed):
        got, expected = hashed_unit_vector(text, seed), reference_unit_vector(text, seed)
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes()

    def test_fixtures_not_mutated(self):
        fixtures = {"drafts": {"s1": json.loads(json.dumps(GT_DRAFT))}, "corruption": {"mode": "swap_adjacent", "rate": 1.0}}
        transport = mock_backend(11, fixtures)
        transport.send("generate", "", dumps_canonical({"sample_id": "s1"}), {}, 1.0)
        assert fixtures["drafts"]["s1"] == GT_DRAFT


def test_mock_rejects_a_judge_fixture_that_is_not_an_object():
    with pytest.raises(ValueError, match="^judge: expected dict, got int$"):
        mock_backend(7, {"judge": 5})


MISSES = [
    ("asr", {"video_ref": "vid-unknown"}),
    ("caption", {"video_ref": "vid-unknown", "shot_index": 0}),
    ("judge", {"task": "recommend_tags", "video_ref": "vid-unknown"}),
    ("generate", {"sample_id": "s-unknown"}),
]


class TestMockMiss:
    @pytest.mark.parametrize(
        "role, payload, in_process",
        [pytest.param(role, payload, in_process, id=f"{role}-payload{i}" + "-in-process" * in_process)
         for in_process in (False, True) for i, (role, payload) in enumerate(MISSES)],
    )
    def test_miss_is_not_retried_and_names_the_role(self, role, payload, in_process):
        # through a wrapping transport the miss comes from the mock's send, else from its answer
        mock = mock_backend(3)
        sends, sleeps = [], []

        class Recording:
            def send(self, *args):
                sends.append(args[0])
                return mock.send(*args)

        ep = BackendEndpoint(base_url="http://unit.test", max_retries=2)
        client = Client(role, ep, transport=mock if in_process else Recording(), sleeper=sleeps.append)
        with pytest.raises(BackendError) as info:
            client.call(payload)
        assert not info.value.retryable
        assert info.value.role == role
        assert (sends, sleeps) == ([] if in_process else [role], [])

    def test_send_answers_an_unknown_role_with_404(self):
        assert mock_backend(3).send("tts", "", b"{}", {}, 1.0) == (404, b"{}")


# a request or fixture draft that the pipeline never sends or builds, and the fault it meets in a handler
FAULTS = [
    pytest.param("generate", {"drafts": {"s": {}}, "corruption": {"mode": "swap_adjacent"}}, {"sample_id": "s"},
                 "KeyError: 'video_nodes_track'", id="swap_adjacent-draft-without-nodes"),
    pytest.param("generate", {"drafts": {"s": {"video_nodes_track": [{"index": 0}]}}, "negatives": {"s": [3]},
                              "corruption": {"mode": "inject_negative"}}, {"sample_id": "s"},
                 "KeyError: 'target_end'", id="inject_negative-node-without-target_end"),
    pytest.param("generate", {"drafts": {"s": {}}, "corruption": {"mode": "drop_tag"}}, {"sample_id": "s"},
                 "KeyError: 'decoration_setting'", id="drop_tag-draft-without-decoration"),
    pytest.param("generate", {"drafts": {"s": {"video_nodes_track": 5}}, "corruption": {"mode": "swap_adjacent"}},
                 {"sample_id": "s"}, "TypeError: ", id="nodes-a-number"),
    pytest.param("generate", {}, {"sample_id": []}, "TypeError: unhashable", id="sample_id-an-array"),
    pytest.param("asr", {}, {"video_ref": []}, "TypeError: unhashable", id="video_ref-an-array"),
    pytest.param("caption", {"videos": {"v": {"captions": ["a"]}}}, {"video_ref": "v", "shot_index": "x"},
                 "FieldError: shot_index: expected int, got str", id="shot_index-a-string"),
    pytest.param("caption", {"videos": {"v": {"captions": ["a", "b"]}}}, {"video_ref": "v", "shot_index": True},
                 "FieldError: shot_index: expected int, got bool", id="shot_index-a-bool"),
    pytest.param("caption", {"videos": {"v": {"captions": ["a", "b"]}}}, {"video_ref": "v", "shot_index": 1.0},
                 "FieldError: shot_index: expected int, got float", id="shot_index-a-float"),
    pytest.param("caption", {"videos": {"v": {"captions": ["a", "b"]}}}, {"video_ref": "v", "shot_index": -1},
                 "ValueError: shot_index must be at least 0, got -1", id="shot_index-negative"),
    pytest.param("embed", {}, {}, "MissingField: 'inputs'", id="no-inputs"),
    pytest.param("embed", {}, {"inputs": "abc"}, "FieldError: inputs: expected list of str, got str",
                 id="inputs-a-string"),
    pytest.param("embed", {}, {"inputs": {"a": 1, "b": 2}}, "FieldError: inputs: expected list of str, got dict",
                 id="inputs-an-object"),
    pytest.param("embed", {}, {"inputs": ["a", 1]}, "FieldError: inputs: expected list of str, got list",
                 id="inputs-holding-a-number"),
    pytest.param("embed", {}, {"inputs": []}, "ValueError: inputs must hold at least one string", id="inputs-empty"),
    pytest.param("embed", {}, [], "TypeError: ", id="embed-request-an-array"),
    pytest.param("asr", {}, [], "AttributeError: ", id="request-an-array"),
    pytest.param("judge", {}, {"task": "score", "rubric_id": "nope"}, "KeyError: ", id="unknown-rubric"),
    pytest.param("judge", {}, {"task": "score"}, "MissingField: 'rubric_id'", id="no-rubric"),
    pytest.param("judge", {}, {"task": "score", "rubric_id": ["free_prompt_eval"]},
                 "FieldError: rubric_id: expected str, got list", id="rubric_id-an-array"),
    pytest.param("judge", {}, {"task": "score", "rubric_id": "free_prompt_eval", "dimensions": "durationavatar"},
                 "FieldError: dimensions: expected list of str, got str", id="dimensions-a-string"),
    pytest.param("judge", {}, {"task": "score", "rubric_id": "free_prompt_eval", "dimensions": {"duration": 1}},
                 "FieldError: dimensions: expected list of str, got dict", id="dimensions-an-object"),
    pytest.param("judge", {"judge": {"scores": {"basic": 1}}},
                 {"task": "score", "rubric_id": "script_quality_eval", "dimensions": [["basic"]]},
                 "FieldError: dimensions: expected list of str, got list", id="dimensions-holding-an-array"),
    pytest.param("judge", {}, {"task": "analyze", "deconstruction": {"shot_boundaries": [0, float("nan")]}},
                 "ValueError: ", id="shot-boundary-nan"),
    pytest.param("judge", {}, {"task": "analyze", "deconstruction": {"shot_boundaries": [0, 10**400]}},
                 "OverflowError: ", id="shot-boundary-past-the-float-range"),
]


@pytest.mark.parametrize("role, fixtures, payload, fault", FAULTS)
def test_a_handler_fault_is_a_non_retryable_backend_error_of_the_role(role, fixtures, payload, fault):
    mock = mock_backend(3, fixtures)

    class Wrapping:
        def send(self, *args):
            return mock.send(*args)

    ep = BackendEndpoint(base_url="http://unit.test", max_retries=2)
    sleeps = []
    calls = [lambda: mock.send(role, "", dumps_canonical(payload), {}, 1.0),
             lambda: Client(role, MOCK_ENDPOINT, transport=mock).call(payload),
             lambda: Client(role, ep, transport=Wrapping(), sleeper=sleeps.append).call(payload)]
    for call in calls:
        with pytest.raises(BackendError) as info:
            call()
        assert type(info.value) is BackendError and not info.value.retryable
        assert info.value.role == role
        assert str(info.value).startswith(f"{role}: cannot answer the request: {fault}")
    assert sleeps == []


@pytest.mark.parametrize("kind", ["bare-mock", "subclassed-mock", "wrapped-mock", "http"])
def test_a_request_with_no_json_encoding_fails_unretried_before_any_send(kind):
    # only the bare mock answers the request as built; every other transport is sent its encoding
    sends, sleeps, mock = [], [], mock_backend(3)

    class Subclassed(MockTransport):
        def send(self, *args):
            sends.append(args[0])
            return super().send(*args)

    class Wrapping:
        def send(self, *args):
            sends.append(args[0])
            return mock.send(*args)

    class Http(HttpTransport):
        def send(self, *args):
            sends.append(args[0])
            return super().send(*args)

    transport = {"bare-mock": mock, "subclassed-mock": Subclassed(3), "wrapped-mock": Wrapping(), "http": Http()}[kind]
    ep = BackendEndpoint(base_url="http://127.0.0.1:9", max_retries=2)
    with pytest.raises(BackendError, match=r"^embed: cannot (encode|answer) the request: UnicodeEncodeError: ") as info:
        Client("embed", ep, transport=transport, sleeper=sleeps.append).call({"inputs": ["\ud800"]})
    assert type(info.value) is BackendError and not info.value.retryable
    assert (sends, sleeps) == ([], [])


# a client-side argument that no backend is asked about, and the ValueError it raises
@pytest.mark.parametrize("call, message", [
    (lambda t: BackendEndpoint(base_url="http://unit.test", timeout_ms=0), "timeout_ms must be > 0"),
    (lambda t: BackendEndpoint(base_url="http://unit.test", max_retries=-1), "max_retries must be >= 0"),
    (lambda t: Client("tts", MOCK_ENDPOINT, transport=t), "unknown backend role 'tts'"),
    (lambda t: embed([], make_client(t)), "embed requires at least one input"),
], ids=["zero-timeout", "negative-retries", "unknown-role", "embed-no-inputs"])
def test_a_bad_client_argument_is_a_value_error_before_any_send(call, message):
    transport = CountingTransport([])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(transport)
    assert transport.calls == 0


def same_json(a, b) -> bool:
    """``a == b`` with each value of the same type, object keys in the same order and NaN equal to NaN."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return list(a) == list(b) and all(same_json(a[k], b[k]) for k in a)
    if type(a) in (list, tuple):
        return len(a) == len(b) and all(map(same_json, a, b))
    return a == b or a != a and b != b


VIDEOS = json.loads((FIX / "videos.json").read_text("utf-8"))["videos"]
# integral float times, so answers hold both int and float times, also in inject_negative's new node
FLOAT_DRAFT = {**GT_DRAFT, "video_nodes_track": [
    {"index": 0, "target_start": 0, "target_end": 500.0, "source_start": 0},
    {"index": 1, "target_start": 500.0, "target_end": 1000.0, "source_start": 0.0},
]}
PARITY_DRAFTS = {"s1": GT_DRAFT, "s2": FLOAT_DRAFT, "s3": {**GT_DRAFT, "video_nodes_track": []}}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)
video_ref = st.sampled_from([*VIDEOS, "vid-unknown"])
texts = st.lists(st.text(max_size=8), max_size=3)
tags = st.fixed_dictionaries({}, optional={key: texts for key in ("tts_tags", "avatar_tags", "music_tags")})
# one request for each role but judge and one for each judge task, shaped as the pipeline sends them
REQUESTS = st.tuples(*(st.tuples(st.just(role), st.fixed_dictionaries(payload)) for role, payload in [
    ("generate", {"sample_id": st.sampled_from([*PARITY_DRAFTS, "s-unknown"])}),
    ("embed", {"inputs": st.lists(st.text(max_size=12), min_size=1, max_size=4)}),
    ("asr", {"video_ref": video_ref}),
    ("ocr", {"video_ref": video_ref}),
    ("shots", {"video_ref": video_ref}),
    ("caption", {"video_ref": video_ref, "shot_index": st.integers(0, 6),
                 "frame_timestamps": st.lists(st.floats(0, 60), max_size=3)}),
    ("judge", {"task": st.just("recommend_tags"), "video_ref": video_ref}),
    ("judge", {"task": st.just("correct_asr"), "sentences": st.lists(json_values, max_size=3)}),
    ("judge", {"task": st.just("analyze"), "video_ref": video_ref, "deconstruction": st.fixed_dictionaries(
        {"shot_boundaries": st.lists(st.integers(0, 10**6), max_size=6), "shot_captions": texts,
         "recommended_tags": tags})}),
    ("judge", {"task": st.just("verify_prompt"), "dimensions": st.dictionaries(
        st.text(max_size=6), st.none() | st.text(max_size=8) | st.integers() | st.floats(), max_size=4)}),
    ("judge", {"task": st.just("score"), "rubric_id": st.sampled_from(sorted(RUBRICS)),
               "dimensions": st.none() | st.lists(st.sampled_from(sorted({k for _, caps in RUBRICS.values()
                                                                          for k in caps})), unique=True)}),
    ("judge", {"task": st.text(max_size=6)}),
]))


def outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return "answer", call()
    except Exception as exc:  # noqa: BLE001 - both paths must fail alike, whatever the failure
        return "error", type(exc), str(exc)


class TestInProcessParity:
    @pytest.mark.parametrize("scores", ["caps", {"basic": 30, "touch_the_audience": 7.5, "duration": 0}])
    @pytest.mark.parametrize("mode", ["none", *GENERATE_MODES])
    @settings(max_examples=25)
    @given(requests=REQUESTS, seed=st.integers(0, 2**32))
    def test_in_process_answer_equals_the_decoded_wire_answer(self, mode, scores, requests, seed):
        fixtures = {"videos": VIDEOS, "drafts": PARITY_DRAFTS, "negatives": {"s1": [9, 0], "s2": [1, 7]},
                    "corruption": {"mode": mode, "rate": 0.5}, "judge": {"scores": scores}}
        mock = mock_backend(seed, json.loads(json.dumps(fixtures)))
        assert {role for role, _ in requests} == set(ROLES)
        for role, payload in requests:
            wire = outcome(lambda: loads(mock.send(role, "mock://local/v1/" + role, dumps_canonical(payload),
                                                   {}, 1.0)[1]))
            sent = copy.deepcopy(payload)
            direct = outcome(lambda: Client(role, MOCK_ENDPOINT, transport=mock).call(payload))
            assert same_json(payload, sent), (role, payload, sent)  # the mock mutates no request
            if direct[0] == "answer":
                assert direct[1].retries == 0
                direct = "answer", direct[1].data
            assert same_json(wire, direct), (role, payload, wire, direct)
        assert mock.fixtures == fixtures  # neither path changed the fixtures

    def test_only_a_bare_mock_skips_both_codecs(self, monkeypatch):
        encoded, decoded = [], []
        encode, decode = backends_module.dumps_canonical, backends_module.loads
        monkeypatch.setattr(backends_module, "dumps_canonical", lambda obj: encoded.append(obj) or encode(obj))
        monkeypatch.setattr(backends_module, "loads", lambda data: decoded.append(data) or decode(data))
        mock = mock_backend(3)

        class Wrapping:
            def send(self, *args):
                return mock.send(*args)

        class Subclass(MockTransport):
            pass

        answers = []
        for transport, codings in ((mock, 0), (Wrapping(), 2), (Subclass(3), 2)):
            encoded.clear()
            decoded.clear()
            answers.append(Client("embed", MOCK_ENDPOINT, transport=transport).call({"inputs": ["a"]}).data)
            # the request and then the answer, each encoded and decoded once, unless the mock is called itself
            assert (len(encoded), len(decoded)) == (codings, codings)
        assert answers[0] == answers[1] == answers[2]


class TestMockCorruption:
    def _predictions(self, fixtures, seed=5):
        transport = mock_backend(seed, fixtures)
        client = Client("generate", MOCK_ENDPOINT, transport=transport)
        out = {}
        for sid in fixtures["drafts"]:
            out[sid] = loads(generate_draft({"sample_id": sid}, client))
        return out

    def test_rate_zero_perfect(self):
        fixtures = {
            "drafts": {f"s{i}": GT_DRAFT for i in range(10)},
            "corruption": {"mode": "swap_adjacent", "rate": 0.0},
        }
        for draft in self._predictions(fixtures).values():
            assert draft == GT_DRAFT

    def test_swap_adjacent_changes_order_only(self):
        fixtures = {
            "drafts": {f"s{i}": GT_DRAFT for i in range(10)},
            "corruption": {"mode": "swap_adjacent", "rate": 1.0},
        }
        for draft in self._predictions(fixtures).values():
            pred = [n["index"] for n in draft["video_nodes_track"]]
            assert sorted(pred) == [0, 1]
            assert pred != [0, 1]

    def test_inject_negative_exact_half(self):
        n = 20
        fixtures = {
            "drafts": {f"s{i}": GT_DRAFT for i in range(n)},
            "negatives": {f"s{i}": [9] for i in range(n)},
            "corruption": {"mode": "inject_negative", "rate": 0.5},
        }
        corrupted = sum(
            1
            for draft in self._predictions(fixtures).values()
            if 9 in [node["index"] for node in draft["video_nodes_track"]]
        )
        assert corrupted == n // 2

    def test_drop_tag(self):
        fixtures = {
            "drafts": {"s0": GT_DRAFT},
            "corruption": {"mode": "drop_tag", "rate": 1.0},
        }
        (draft,) = self._predictions(fixtures).values()
        deco = draft["decoration_setting"]
        total = len(deco["tts_tags"]) + len(deco["avatar_tags"]) + len(deco["music_tags"])
        assert total == 1  # one of the two original tags dropped


def test_the_readme_names_every_generate_mode_and_no_other():
    readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
    (usage,) = re.findall(r"^#   mock: \| mock:perfect \| (.*)$", readme, re.M)
    fixtures = re.search(r"whose `mode` is `none`,(.*?), and whose `rate`", readme, re.S)[1]
    generate = re.search(r"one of the corruption modes(.*?)\(each defined in", readme, re.S)[1]
    assert sorted(usage.split(" | ")) == sorted(f"mock:{mode}[:rate]" for mode in GENERATE_MODES)
    for prose in (fixtures, generate):
        assert sorted(re.findall(r"`(\w+)`", prose)) == sorted(GENERATE_MODES)


class _EchoHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        body = json.dumps({"echo": payload, "path": self.path}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_real_http_roundtrip():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EchoHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        with HttpTransport() as http:
            client = Client("judge", BackendEndpoint(base_url=f"http://127.0.0.1:{port}", max_retries=0), http)
            result = client.call({"ping": 1})
        assert result.data["echo"] == {"ping": 1}
        assert result.data["path"] == "/v1/judge"
    finally:
        server.shutdown()


# ---------------------------------------------------------------------------
# HttpTransport against in-process servers


class _MockHandler(BaseHTTPRequestHandler):
    """Answers ``/v1/<role>`` from the server's mock over HTTP/1.1 keep-alive.
    Like any ``BaseHTTPRequestHandler``, it writes the headers and then the
    body in a second write, with Nagle's algorithm on."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.server.peers.append(self.client_address)

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.authorizations.append(self.headers["Authorization"])
        if self.server.statuses:
            status, payload = self.server.statuses.pop(0), b"{}"
        else:
            status, payload = self.server.mock.send(self.path.rsplit("/", 1)[1], self.path, body, {}, 1.0)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        # closing without a Connection: close header is what an idle timeout looks like to the client
        self.close_connection = self.server.close_each

    def log_message(self, *args):
        pass


class _MockServer(ThreadingHTTPServer):
    def __init__(self, mock, statuses, close_each):
        super().__init__(("127.0.0.1", 0), _MockHandler)
        self.mock = mock
        self.statuses = list(statuses)  # answered with an empty body before the mock answers
        self.close_each = close_each
        self.peers = []  # one entry per accepted connection
        self.authorizations = []  # the Authorization header of each request, None when it has none

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}"


@contextmanager
def serving(mock=None, statuses=(), close_each=False):
    server = _MockServer(mock or mock_backend(7), statuses, close_each)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def http_client(transport, url, timeout_ms=5000, retries=0):
    ep = BackendEndpoint(base_url=url, timeout_ms=timeout_ms, max_retries=retries)
    return Client("embed", ep, transport=transport, sleeper=lambda s: None)


@pytest.fixture(scope="module")
def corpus_and_predictions(tmp_path_factory):
    out = tmp_path_factory.mktemp("http")
    corpus, predictions = out / "corpus.jsonl", out / "pred.jsonl"
    assert main(["build-dataset", "--config", str(FIX / "adcut.ini"), "--out", str(corpus)]) == 0
    assert main(["generate", str(corpus), "--endpoint-generate", "mock:swap_adjacent:0.5", "--seed", "7",
                 "--out", str(predictions)]) == 0
    return corpus, predictions


OK = b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n{\"ok\":true}"


class _ScriptedServer:
    """Answers the n-th request it reads, on whichever connection, with ``replies[n]``: raw
    response bytes, or (bytes, True) to close that connection after writing them. Each
    request must arrive in one read; ``reads`` holds those reads and ``peers`` counts the
    connections accepted."""

    def __init__(self, replies):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.replies = [r if isinstance(r, tuple) else (r, False) for r in replies]
        self.reads, self.peers, self.stop = [], 0, threading.Event()
        self.netloc = b"127.0.0.1:%d" % self.listener.getsockname()[1]
        self.url = f"http://{self.netloc.decode()}/v"

    def serve(self):
        while not self.stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                continue
            self.peers += 1
            with conn:
                conn.settimeout(5)
                while self.replies and (data := conn.recv(1 << 20)):
                    self.reads.append(data)
                    reply, close = self.replies.pop(0)
                    conn.sendall(reply)
                    if close:
                        break


@contextmanager
def scripted(*replies):
    server = _ScriptedServer(replies)
    thread = threading.Thread(target=server.serve, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.stop.set()
        thread.join(timeout=10)
        server.listener.close()
    assert not thread.is_alive()


class TestHttpTransport:
    def test_sequential_calls_share_one_connection(self):
        with serving() as server, HttpTransport() as transport:
            client = http_client(transport, server.url)
            results = [client.call({"inputs": [f"text {i}"]}) for i in range(20)]
        assert len(server.peers) == 1
        assert [r.retries for r in results] == [0] * 20
        expected = [loads(mock_backend(7).send("embed", "", dumps_canonical({"inputs": [f"text {i}"]}), {}, 1.0)[1])
                    for i in range(20)]
        assert [r.data for r in results] == expected

    def test_two_generate_runs_with_two_workers_open_at_most_two_connections(self, tmp_path, corpus_and_predictions):
        from adcut.cli import _mock_generate

        corpus, _ = corpus_and_predictions
        argv = ["generate", str(corpus), "--seed", "7", "--concurrency", "2"]
        with serving(_mock_generate("mock:", 7, read_corpus(corpus))) as server:
            for run in ("http1", "http2"):
                assert main([*argv, "--endpoint-generate", server.url, "--out", str(tmp_path / f"{run}.jsonl")]) == 0
        assert main([*argv, "--endpoint-generate", "mock:", "--out", str(tmp_path / "mock.jsonl")]) == 0
        assert (tmp_path / "http1.jsonl").read_bytes() == (tmp_path / "mock.jsonl").read_bytes()
        assert (tmp_path / "http2.jsonl").read_bytes() == (tmp_path / "mock.jsonl").read_bytes()
        assert 1 <= len(server.peers) <= 2

    def test_generate_then_evaluate_share_one_connection(self, capsys, tmp_path, corpus_and_predictions):
        from adcut.cli import _mock_generate

        corpus, _ = corpus_and_predictions
        with serving(_mock_generate("mock:", 7, read_corpus(corpus))) as server:
            chain = _chain(corpus, tmp_path / "http.jsonl", server.url)
            assert [main(argv) for argv in chain] == [0, 0]
        http_report = capsys.readouterr().out
        assert [main(argv) for argv in _chain(corpus, tmp_path / "mock.jsonl", "mock:")] == [0, 0]
        assert capsys.readouterr().out == http_report
        assert len(server.peers) == 1

    def test_split_write_server_does_not_stall_a_reused_connection(self):
        # a delayed ACK per reused call (about 40 ms each) would take at least 0.8 s
        with serving() as server, HttpTransport() as transport:
            client = http_client(transport, server.url)
            client.call({"inputs": ["warm up"]})
            started = time.monotonic()
            for i in range(20):
                client.call({"inputs": [f"text {i}"]})
            elapsed = time.monotonic() - started
        assert len(server.peers) == 1
        assert elapsed < 0.5

    def test_a_connection_the_server_closed_is_reopened_without_a_retry(self):
        with serving(close_each=True) as server, HttpTransport() as transport:
            client = http_client(transport, server.url)
            retries = [client.call({"inputs": [f"text {i}"]}).retries for i in range(3)]
        assert retries == [0, 0, 0]
        assert len(server.peers) == 3

    def test_unavailable_then_ok_is_one_retry_on_the_same_connection(self):
        with serving(statuses=[503]) as server, HttpTransport() as transport:
            result = http_client(transport, server.url, retries=2).call({"inputs": ["x"]})
        assert result.retries == 1
        assert len(server.peers) == 1

    def test_a_server_that_never_answers_times_out(self):
        # the listener's backlog completes the connection; nothing ever reads the request
        with socket.create_server(("127.0.0.1", 0)) as listener, HttpTransport() as transport:
            client = http_client(transport, f"http://127.0.0.1:{listener.getsockname()[1]}", timeout_ms=200)
            started = time.monotonic()
            with pytest.raises(RequestTimeout):
                client.call({"inputs": ["x"]})
            elapsed = time.monotonic() - started
        assert 0.15 <= elapsed < 1.0  # 200 ms, with slack for a loaded host

    def test_a_refused_connection_is_a_transport_failure(self):
        with socket.create_server(("127.0.0.1", 0)) as closed:
            port = closed.getsockname()[1]
        with HttpTransport() as transport, pytest.raises(TransportFailure):
            http_client(transport, f"http://127.0.0.1:{port}").call({"inputs": ["x"]})

    @pytest.mark.parametrize("url", ["ftp://h/x", "localhost:8080", "http:///x", "http://127.0.0.1:abc"])
    def test_an_unsupported_url_is_sent_once(self, url):
        sends, sleeps = [], []

        class Recording(HttpTransport):
            def send(self, *args):
                sends.append(args[1])
                return super().send(*args)

        ep = BackendEndpoint(base_url=url, max_retries=2)
        with Recording() as transport, pytest.raises(BackendError, match="unsupported URL") as info:
            Client("embed", ep, transport=transport, sleeper=sleeps.append).call({"inputs": ["x"]})
        assert not info.value.retryable
        assert (sends, sleeps) == ([url.rstrip("/") + "/v1/embed"], [])

    @pytest.mark.parametrize("port", ["70000", "65536", "-1"])
    def test_a_port_outside_the_tcp_range_is_never_dialled(self, port, monkeypatch):
        # a dial would reach port 70000 % 65536 == 4464, as http.client's did
        dialled, sleeps = [], []

        def dial(address, *args, **kwargs):
            dialled.append(address)
            raise ConnectionRefusedError

        monkeypatch.setattr(socket, "create_connection", dial)
        ep = BackendEndpoint(base_url=f"http://127.0.0.1:{port}", max_retries=2)
        with HttpTransport() as transport, pytest.raises(BackendError, match="unsupported URL") as info:
            Client("embed", ep, transport, sleeper=sleeps.append).call({"inputs": ["x"]})
        assert not info.value.retryable
        assert (dialled, sleeps) == ([], [])

    def test_a_url_with_user_info_is_never_dialled(self, monkeypatch):
        dialled, sleeps = [], []
        monkeypatch.setattr(socket, "create_connection", lambda address, *args, **kwargs: dialled.append(address))
        ep = BackendEndpoint(base_url="http://user:pw@127.0.0.1:9", max_retries=2)
        with HttpTransport() as transport, pytest.raises(BackendError, match="unsupported URL") as info:
            Client("embed", ep, transport, sleeper=sleeps.append).call({"inputs": ["x"]})
        assert not info.value.retryable
        assert (dialled, sleeps) == ([], [])

    def test_the_request_is_one_write_with_host_and_identity_encoding(self):
        with scripted(OK) as server, HttpTransport() as transport:
            http_client(transport, server.url).call({"inputs": ["x"]})
        body = dumps_canonical({"inputs": ["x"]})
        assert server.reads == [
            b"POST /v/v1/embed HTTP/1.1\r\nHost: " + server.netloc + b"\r\nAccept-Encoding: identity\r\n"
            b"Content-Length: %d\r\nContent-Type: application/json\r\n\r\n" % len(body) + body
        ]

    def test_a_chunked_body_with_a_trailer_keeps_the_connection(self):
        chunked = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                   b"5;name=value\r\n{\"a\":\r\n2\r\n1}\r\n0\r\nX-Checksum: 1\r\n\r\n")
        with scripted(chunked, OK) as server, HttpTransport() as transport:
            client = http_client(transport, server.url)
            assert [client.call({}).data for _ in range(2)] == [{"a": 1}, {"ok": True}]
        assert server.peers == 1

    def test_a_body_delimited_by_the_server_closing_ends_the_connection(self):
        with scripted((b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{\"a\":2}", True), OK) as server, \
                HttpTransport() as transport:
            client = http_client(transport, server.url)
            assert [client.call({}).data for _ in range(2)] == [{"a": 2}, {"ok": True}]
        assert server.peers == 2

    def test_a_new_connection_closed_without_a_response_is_a_transport_failure_retried_anew(self):
        # only a reused connection is reopened inside the transport; a new one fails the attempt
        with scripted((b"", True)) as server, HttpTransport() as transport:
            with pytest.raises(TransportFailure, match="^embed: the server closed the connection without a response$"):
                transport.send("embed", server.url + "/v1/embed", b"{}", {}, 5.0)
            assert transport._conns == {}
        with scripted((b"", True), OK) as server, HttpTransport() as transport:
            result = http_client(transport, server.url, retries=1).call({})
        assert (result.data, result.retries, server.peers) == ({"ok": True}, 1, 2)

    @pytest.mark.parametrize("head", [b"HTTP/1.1 200 OK\r\nConnection: close", b"HTTP/1.0 200 OK"])
    def test_a_response_that_closes_makes_the_next_call_open_a_new_connection(self, head):
        # the server keeps the connection open: only the client can have dropped it
        with scripted(head + b"\r\nContent-Length: 7\r\n\r\n{\"a\":3}", OK) as server, HttpTransport() as transport:
            client = http_client(transport, server.url)
            assert [client.call({}).data for _ in range(2)] == [{"a": 3}, {"ok": True}]
        assert server.peers == 2

    def test_a_status_line_without_a_reason_phrase_is_accepted(self):
        with scripted(b"HTTP/1.1 200\r\nContent-Length: 11\r\n\r\n{\"ok\":true}") as server, \
                HttpTransport() as transport:
            assert http_client(transport, server.url).call({}).data == {"ok": True}

    def test_exactly_100_headers_are_accepted(self):
        reply = b"HTTP/1.1 200 OK\r\n" + b"X-Many: 1\r\n" * 99 + b"Content-Length: 11\r\n\r\n{\"ok\":true}"
        with scripted(reply) as server, HttpTransport() as transport:
            assert http_client(transport, server.url).call({}).data == {"ok": True}

    def test_a_204_without_a_body_keeps_the_connection(self):
        # a 204 has no body whatever its headers say, so reading one would wait for the timeout
        with scripted(b"HTTP/1.1 204 No Content\r\n\r\n", OK) as server, HttpTransport() as transport:
            url = server.url + "/v1/embed"
            assert transport.send("embed", url, b"{}", {}, 2.0) == (204, b"")
            assert transport.send("embed", url, b"{}", {}, 2.0) == (200, b'{"ok":true}')
        assert server.peers == 1

    def test_an_interim_continue_is_skipped(self):
        with scripted(b"HTTP/1.1 100 Continue\r\n\r\n" + OK) as server, HttpTransport() as transport:
            assert http_client(transport, server.url).call({}).data == {"ok": True}

    @pytest.mark.parametrize("reply, reason", [
        # a short body ends when the server closes; any other reply leaves the connection open,
        # so only the client can have dropped it
        ((b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n{}", True), "short body: 2 of 50 bytes"),
        ((b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n{}" % 10**15, True),
         "short body: 2 of 1000000000000000 bytes"),
        (b"HTTX/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}", "bad status line"),
        (b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65536 + b"\r\nContent-Length: 2\r\n\r\n{}",
         "longer than 65536 bytes"),
        (b"HTTP/1.1 200 OK\r\n" + b"X-Many: 1\r\n" * 100 + b"Content-Length: 2\r\n\r\n{}", "more than 100 headers"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-2\r\n{}\r\n0\r\n\r\n", "bad chunk size"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nno colon\r\n\r\n{}", "bad header line"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 2x\r\n\r\n{}", "bad Content-Length"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n{}", "bad Content-Length"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}XX\r\n0\r\n\r\n",
         "a chunk does not end with CRLF"),
    ], ids=["short body", "short body of a huge length", "bad status line", "long header line", "101 headers",
            "negative chunk size", "header without colon", "non-digit Content-Length",
            "Content-Length past int()'s digit limit", "chunk without CRLF"])
    def test_a_malformed_response_is_a_transport_failure_that_drops_the_connection(self, reply, reason):
        with scripted(reply, OK) as server, HttpTransport() as transport:
            client = http_client(transport, server.url)
            with pytest.raises(TransportFailure, match=reason):
                client.call({})
            assert client.call({}).data == {"ok": True}
        assert server.peers == 2

    def test_https_verifies_with_the_default_context_and_the_host_name(self, monkeypatch):
        import ssl

        contexts, wrapped = [], []

        class Context:  # hands back the plain socket, so the exchange needs no certificate
            def wrap_socket(self, sock, server_hostname):
                wrapped.append(server_hostname)
                return sock

        def create_default_context(*args, **kwargs):
            contexts.append((args, kwargs))
            return Context()

        monkeypatch.setattr(ssl, "create_default_context", create_default_context)
        with serving(close_each=True) as server, HttpTransport() as transport:
            client = http_client(transport, server.url.replace("http://", "https://"))
            assert [client.call({"inputs": ["x"]}).retries for _ in range(2)] == [0, 0]
        assert contexts == [((), {})]  # one context per transport
        assert wrapped == ["127.0.0.1", "127.0.0.1"]

    @pytest.mark.parametrize("refused_by", ["listener", "context"])
    def test_a_failed_tls_wrap_closes_its_socket_and_keeps_no_connection(self, refused_by, monkeypatch):
        # the listener answers the client hello with plain HTTP and hangs up; the context
        # refuses before it takes the socket over, so only the transport can close it
        import ssl

        dialled, create_connection = [], socket.create_connection

        def dial(*args):
            dialled.append(create_connection(*args))
            return dialled[-1]

        class Refusing:
            def wrap_socket(self, sock, server_hostname):
                raise ssl.SSLError("refused")

        monkeypatch.setattr(socket, "create_connection", dial)
        if refused_by == "context":
            monkeypatch.setattr(ssl, "create_default_context", Refusing)
        with scripted((OK, True)) as server, HttpTransport() as transport:
            with pytest.raises(TransportFailure):
                http_client(transport, server.url.replace("http://", "https://")).call({"inputs": ["x"]})
            assert transport._conns == {}
        assert len(dialled) == 1 and dialled[0].fileno() == -1


class TestAuthToken:
    """``[auth] <role>`` names the environment variable whose token the role sends."""

    @pytest.fixture
    def evaluate(self, capsys, tmp_path, monkeypatch, corpus_and_predictions):
        """``run(url)`` runs evaluate with the judge at ``url`` and ``[auth] judge = ADCUT_TEST_TOKEN``,
        and returns the exit code, stderr and the number of sends so far."""
        corpus, predictions = corpus_and_predictions
        ini = tmp_path / "auth.ini"
        ini.write_text("[auth]\njudge = ADCUT_TEST_TOKEN\n")
        sends = []
        send = HttpTransport.send
        monkeypatch.setattr(HttpTransport, "send", lambda self, *args: sends.append(args) or send(self, *args))

        def run(url):
            code = main(["evaluate", str(corpus), str(predictions), "--with-judge", "--seed", "7",
                         "--config", str(ini), "--endpoint-judge", url])
            return code, capsys.readouterr().err, len(sends)

        return run

    @pytest.mark.parametrize("token, header", [("s3cret", "Bearer s3cret"), ("", None), (None, None)],
                             ids=["set", "empty", "unset"])
    def test_only_a_set_variable_sends_a_bearer_token(self, evaluate, monkeypatch, token, header):
        if token is None:
            monkeypatch.delenv("ADCUT_TEST_TOKEN", raising=False)
        else:
            monkeypatch.setenv("ADCUT_TEST_TOKEN", token)
        with serving() as server:
            code, err, _ = evaluate(server.url)
        assert code == 0, err
        assert server.authorizations and set(server.authorizations) == {header}

    def test_a_token_with_a_line_break_is_never_sent(self, evaluate, monkeypatch, corpus_and_predictions):
        monkeypatch.setenv("ADCUT_TEST_TOKEN", "s3cret\r\nX-Injected: 1")
        samples = [s.sample_id for s in read_corpus(corpus_and_predictions[0])]
        with serving() as server:
            code, err, sends = evaluate(server.url)
        assert code == 1
        assert err.splitlines() == [
            f"warning: {sid}: judge: unsendable header: 'Authorization' is not a valid header name and value"
            for sid in samples
        ]
        assert sends == len(samples)  # one send a sample: not retried
        assert server.peers == []


def _chain(corpus, predictions, endpoint):
    """argv for generate, then evaluate with judge and VSR, every role at ``endpoint``."""
    common = ["--seed", "7", "--concurrency", "1"]
    return [
        ["generate", str(corpus), *common, "--endpoint-generate", endpoint, "--out", str(predictions)],
        ["evaluate", str(corpus), str(predictions), *common, "--with-judge", "--with-vsr",
         "--endpoint-judge", endpoint, "--endpoint-embed", endpoint],
    ]


# Runs the commands of a JSON list of argv in one fresh interpreter that turns
# ResourceWarning into an error, collects garbage (finalizing any socket left
# open) and exits (closing the process's transport), and reports whether
# ``requests``, ``http.client`` or its header parser ``email.parser`` was imported.
_LEAK_PROBE = """
import gc, json, sys
from adcut.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
gc.collect()
modules = ("requests", "http.client", "email.parser")
print(json.dumps({"codes": codes, **{name: name in sys.modules for name in modules}}))
"""


def test_two_commands_over_http_leave_no_socket_open(capsys, tmp_path, corpus_and_predictions):
    from adcut.cli import _mock_generate

    corpus, _ = corpus_and_predictions
    src = str(Path(adcut.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("ADCUT_CONFIG", None)
    with serving(_mock_generate("mock:", 7, read_corpus(corpus))) as server:
        done = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-c", _LEAK_PROBE,
             json.dumps(_chain(corpus, tmp_path / "http.jsonl", server.url))],
            capture_output=True, text=True, env=env, timeout=120,
        )
    assert "ResourceWarning" not in done.stderr and "unclosed <socket" not in done.stderr, done.stderr
    *report, probe = done.stdout.splitlines()
    assert json.loads(probe) == {"codes": [0, 0], "requests": False, "http.client": False, "email.parser": False}, \
        done.stderr
    assert [main(argv) for argv in _chain(corpus, tmp_path / "mock.jsonl", "mock:")] == [0, 0]
    assert report == capsys.readouterr().out.splitlines()
    assert len(server.peers) == 1
