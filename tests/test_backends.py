import hashlib
import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from adcut import backends as backends_module
from adcut.backends import (
    BackendEndpoint,
    BackendError,
    BadStatus,
    Client,
    DimensionMismatch,
    GenerationResponse,
    InvalidResponse,
    MalformedScores,
    TransportFailure,
    embed,
    generate_draft,
    judge_score,
    mock_backend,
    mock_backend_set,
    rubric_hash,
    rubric_text,
    MOCK_ENDPOINT,
    RUBRICS,
)
from adcut.jsonutil import dumps_canonical, loads

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

    def test_backoff_schedule(self):
        sleeps = []
        transport = CountingTransport(
            [TransportFailure("generate", "x"), TransportFailure("generate", "x"), (200, b"{}")]
        )
        ep = BackendEndpoint(base_url="http://unit.test", max_retries=2)
        client = Client("generate", ep, transport=transport, sleeper=sleeps.append,
                        jitter_rng=random.Random(0))
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
        resp = generate_draft({"sample_id": "s1"}, client)
        assert isinstance(resp, GenerationResponse)
        assert loads(resp.draft_json) == GT_DRAFT

    def test_structured_request_wire_format(self):
        from adcut.backends import GenerationRequest
        from adcut.dataset import ProductInfo, free_prompt_from_dimensions

        product = ProductInfo("SoundPod", "Auralis", "$49.99", ("battery",))
        prompt = free_prompt_from_dimensions({"duration": "10s"})
        clip_entry = {"index": 0, "duration_s": 8.0, "fast_timestamps": [0.0, 0.5], "slow_timestamps": [0.0]}
        request = GenerationRequest(product, prompt, (clip_entry,), sample_id="s1")
        wire = request.to_wire()
        assert wire["sample_id"] == "s1"
        assert wire["product_info"]["name"] == "SoundPod"
        assert wire["free_prompt"]["duration"] == "10s"
        assert wire["clips"] == [clip_entry]
        # identical values -> identical wire bytes
        assert dumps_canonical(wire) == dumps_canonical(request.to_wire())
        transport = mock_backend(7, {"drafts": {"s1": GT_DRAFT}})
        client = Client("generate", MOCK_ENDPOINT, transport=transport)
        assert loads(generate_draft(request, client).draft_json) == GT_DRAFT

    def test_structured_request_requires_clips(self):
        from adcut.backends import GenerationRequest
        from adcut.dataset import ProductInfo, free_prompt_from_dimensions

        with pytest.raises(ValueError):
            GenerationRequest(
                ProductInfo("X", "", "", ("p",)),
                free_prompt_from_dimensions({"duration": "5s"}),
                (),
            )

    def test_missing_draft_field(self):
        transport = CountingTransport([(200, b'{"something": 1}')])
        with pytest.raises(InvalidResponse):
            generate_draft({"sample_id": "s1"}, make_client(transport))


class TestJudgeScore:
    def test_caps_mock_returns_full_scores(self):
        client = mock_backend_set(1).judge
        scores = judge_score({"sample_id": "x"}, "script_quality_eval", client)
        assert scores == {"basic": 30, "native_language_tone": 15, "touch_the_audience": 15, "creative_narrative": 40}

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
        client = mock_backend_set(3).embed
        vectors = embed(["alpha", "beta", "gamma"], client)
        assert len(vectors) == 3
        for v in vectors:
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-9

    def test_deterministic_per_input(self):
        a = embed(["alpha"], mock_backend_set(3).embed)[0]
        b = embed(["alpha"], mock_backend_set(3).embed)[0]
        assert np.array_equal(a, b)
        c = embed(["alpha"], mock_backend_set(4).embed)[0]
        assert not np.array_equal(a, c)

    def test_normalizes_non_unit_response(self):
        transport = CountingTransport([(200, dumps_canonical({"vectors": [[3.0, 4.0]]}))])
        client = Client("embed", BackendEndpoint("http://unit.test"), transport=transport)
        (v,) = embed(["x"], client)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-9

    def test_ragged_dimensions(self):
        transport = CountingTransport([(200, dumps_canonical({"vectors": [[1.0], [1.0, 2.0]]}))])
        client = Client("embed", BackendEndpoint("http://unit.test"), transport=transport)
        with pytest.raises(DimensionMismatch):
            embed(["a", "b"], client)


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

    def test_fixtures_not_mutated(self):
        fixtures = {"drafts": {"s1": json.loads(json.dumps(GT_DRAFT))}, "corruption": {"mode": "swap_adjacent", "rate": 1.0}}
        transport = mock_backend(11, fixtures)
        transport.send("generate", "", dumps_canonical({"sample_id": "s1"}), {}, 1.0)
        assert fixtures["drafts"]["s1"] == GT_DRAFT


class TestMockMiss:
    @pytest.mark.parametrize(
        "role, payload",
        [
            ("asr", {"video_ref": "vid-unknown"}),
            ("caption", {"video_ref": "vid-unknown", "shot_index": 0}),
            ("judge", {"task": "recommend_tags", "video_ref": "vid-unknown"}),
            ("generate", {"sample_id": "s-unknown"}),
        ],
    )
    def test_miss_is_not_retried_and_names_the_role(self, role, payload):
        mock = mock_backend(3)
        sends, sleeps = [], []

        class Recording:
            def send(self, *args):
                sends.append(args[0])
                return mock.send(*args)

        ep = BackendEndpoint(base_url="http://unit.test", max_retries=2)
        client = Client(role, ep, transport=Recording(), sleeper=sleeps.append)
        with pytest.raises(BackendError) as info:
            client.call(payload)
        assert not info.value.retryable
        assert info.value.role == role
        assert (sends, sleeps) == ([role], [])


class TestMockCorruption:
    def _predictions(self, fixtures, seed=5):
        transport = mock_backend(seed, fixtures)
        client = Client("generate", MOCK_ENDPOINT, transport=transport)
        out = {}
        for sid in fixtures["drafts"]:
            out[sid] = loads(generate_draft({"sample_id": sid}, client).draft_json)
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
        client = Client("judge", BackendEndpoint(base_url=f"http://127.0.0.1:{port}", max_retries=0))
        result = client.call({"ping": 1})
        assert result.data["echo"] == {"ping": 1}
        assert result.data["path"] == "/v1/judge"
    finally:
        server.shutdown()
