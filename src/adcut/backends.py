"""Client seams for every external model role, plus deterministic mocks.

One wire contract serves all roles: POST /v1/{generate|judge|embed|asr|
ocr|shots|caption} with a canonical-JSON body and a JSON response. The
concrete services behind each role are configuration. Mock transports
implement the same interface in-process as pure functions of
(seed, fixtures, request) so the whole pipeline runs offline and
reproducibly.

``numpy`` is imported inside :func:`embed` and :func:`hashed_unit_vector`,
the only functions here that build arrays, so importing this module does
not load it.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import TYPE_CHECKING, Any, Callable

from .draft import DECORATION_KEYS, DecorationSetting, VideoNode, nodes_track_to_list
from .jsonutil import dumps_canonical, loads

if TYPE_CHECKING:  # structured request fields live in the dataset module
    import numpy as np

    from .dataset import FreePrompt, ProductInfo

ROLES = ("generate", "judge", "embed", "asr", "ocr", "shots", "caption")

BACKOFF_BASE_S = 0.25
BACKOFF_JITTER = 0.2

# rubric id -> (prompt file, per-dimension score caps)
RUBRICS: dict[str, tuple[str, dict[str, float]]] = {
    "free_prompt_eval": (
        "free_prompt_eval.txt",
        {
            "duration": 10,
            "visual_storyline": 20,
            "target_audience": 10,
            "script_routine": 10,
            "selling_points_emphasis": 20,
            "avatar": 10,
            "tts_timbre": 10,
            "music_style": 10,
        },
    ),
    "script_quality_eval": (
        "script_quality_eval.txt",
        {
            "basic": 30,
            "native_language_tone": 15,
            "touch_the_audience": 15,
            "creative_narrative": 40,
        },
    ),
}


class BackendError(RuntimeError):
    def __init__(self, role: str, message: str, retryable: bool = False):
        super().__init__(f"{role}: {message}")
        self.role = role
        self.retryable = retryable


class TransportFailure(BackendError):
    def __init__(self, role: str, message: str):
        super().__init__(role, message, retryable=True)


class RequestTimeout(BackendError):
    def __init__(self, role: str, message: str):
        super().__init__(role, message, retryable=True)


class BadStatus(BackendError):
    """Non-200 response; 429 (rate limited) and 5xx are retryable."""

    def __init__(self, role: str, status: int):
        super().__init__(role, f"HTTP status {status}", retryable=status == 429 or 500 <= status < 600)
        self.status = status


class InvalidResponse(BackendError):
    pass


class MalformedScores(BackendError):
    pass


class DimensionMismatch(BackendError):
    pass


class _NoAnswer(LookupError):
    """The mock's fixtures hold no answer to a request."""


@dataclass(frozen=True)
class BackendEndpoint:
    base_url: str
    timeout_ms: int = 30000
    max_retries: int = 2
    auth_env: str | None = None

    def __post_init__(self) -> None:
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass(frozen=True)
class CallResult:
    data: Any
    raw: bytes
    status: int
    retries: int
    latency_ms: float


class RequestsTransport:
    """Real HTTP transport (requests); one instance is shareable across threads."""

    def send(self, role: str, url: str, body: bytes, headers: dict, timeout_s: float) -> tuple[int, bytes]:
        import requests

        try:
            resp = requests.post(url, data=body, headers=headers, timeout=timeout_s)
        except requests.Timeout as exc:
            raise RequestTimeout(role, str(exc)) from exc
        except requests.RequestException as exc:
            raise TransportFailure(role, str(exc)) from exc
        return resp.status_code, resp.content


class Client:
    """One backend role: canonical-JSON POST with idempotent retries.

    Transport failures, 429 and 5xx responses are retried up to
    ``endpoint.max_retries`` times with exponential backoff (base 250 ms,
    doubling, +/-20% jitter). Forwarded payload bytes are never mutated.
    """

    def __init__(
        self,
        role: str,
        endpoint: BackendEndpoint,
        transport: Any | None = None,
        sleeper: Callable[[float], None] = time.sleep,
        jitter_rng: random.Random | None = None,
    ):
        if role not in ROLES:
            raise ValueError(f"unknown backend role {role!r}")
        self.role = role
        self.endpoint = endpoint
        self.transport = transport or RequestsTransport()
        self._sleep = sleeper
        self._jitter = jitter_rng or random.Random(0)

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.endpoint.auth_env:
            token = os.environ.get(self.endpoint.auth_env)
            if token:
                headers["Authorization"] = f"Bearer {token}"
        return headers

    def call(self, payload: dict) -> CallResult:
        body = dumps_canonical(payload)
        url = self.endpoint.base_url.rstrip("/") + "/v1/" + self.role
        timeout_s = self.endpoint.timeout_ms / 1000.0
        attempts = self.endpoint.max_retries + 1
        started = time.monotonic()
        last_error: BackendError | None = None
        for attempt in range(attempts):
            if attempt:
                base = BACKOFF_BASE_S * (2 ** (attempt - 1))
                self._sleep(base * (1 + self._jitter.uniform(-BACKOFF_JITTER, BACKOFF_JITTER)))
            try:
                status, raw = self.transport.send(self.role, url, body, self._headers(), timeout_s)
            except BackendError as exc:
                last_error = exc
                if exc.retryable:
                    continue
                raise
            if status != 200:
                last_error = BadStatus(self.role, status)
                if last_error.retryable:
                    continue
                raise last_error
            try:
                data = loads(raw)
            except ValueError as exc:
                raise InvalidResponse(self.role, f"non-JSON body: {exc}") from exc
            return CallResult(
                data=data,
                raw=raw,
                status=status,
                retries=attempt,
                latency_ms=(time.monotonic() - started) * 1000.0,
            )
        assert last_error is not None
        raise last_error


@dataclass(frozen=True)
class BackendSet:
    """All role clients used by the pipeline."""

    generate: Client
    judge: Client
    embed: Client
    asr: Client
    ocr: Client
    shots: Client
    caption: Client


# ---------------------------------------------------------------------------
# high-level operations


@dataclass(frozen=True)
class GenerationRequest:
    """Structured request for the draft-generation model."""

    product_info: "ProductInfo"
    free_prompt: "FreePrompt"
    clips: tuple[dict, ...]
    sample_id: str | None = None

    def __post_init__(self) -> None:
        if not self.clips:
            raise ValueError("clip list must be non-empty")

    def to_wire(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "product_info": self.product_info.to_dict(),
            "free_prompt": self.free_prompt.to_dict(),
            "clips": list(self.clips),
        }


@dataclass(frozen=True)
class GenerationResponse:
    draft_json: bytes
    model_id: str
    latency_ms: float
    retries: int = 0


def generate_draft(request: GenerationRequest | dict, client: Client) -> GenerationResponse:
    """POST a generation request; returns the raw draft bytes unmodified."""
    wire = request.to_wire() if isinstance(request, GenerationRequest) else request
    result = client.call(wire)
    if not isinstance(result.data, dict) or "draft" not in result.data:
        raise InvalidResponse(client.role, "response lacks a draft field")
    return GenerationResponse(
        draft_json=dumps_canonical(result.data["draft"])
        if isinstance(result.data["draft"], dict)
        else str(result.data["draft"]).encode("utf-8"),
        model_id=result.data.get("model_id", "unknown"),
        latency_ms=result.latency_ms,
        retries=result.retries,
    )


@lru_cache(maxsize=None)
def rubric_text(rubric_id: str) -> str:
    """Verbatim rubric prompt text shipped under prompts/ (read once per rubric)."""
    filename, _ = _rubric(rubric_id)
    return resources.files("adcut").joinpath(f"prompts/{filename}").read_text("utf-8")


@lru_cache(maxsize=None)
def rubric_hash(rubric_id: str) -> str:
    return hashlib.sha256(rubric_text(rubric_id).encode("utf-8")).hexdigest()


def _rubric(rubric_id: str) -> tuple[str, dict[str, float]]:
    if rubric_id not in RUBRICS:
        raise KeyError(f"unknown rubric {rubric_id!r}")
    return RUBRICS[rubric_id]


def judge_score(payload: dict, rubric_id: str, client: Client) -> dict[str, float]:
    """Request per-dimension scores; numbers are validated against rubric caps."""
    _, caps = _rubric(rubric_id)
    wire = dict(payload)
    wire["task"] = "score"
    wire["rubric_id"] = rubric_id
    wire["rubric_sha256"] = rubric_hash(rubric_id)
    result = client.call(wire)
    scores = result.data.get("scores") if isinstance(result.data, dict) else None
    if not isinstance(scores, dict):
        raise MalformedScores(client.role, "response lacks a scores map")
    checked: dict[str, float] = {}
    for dim, value in scores.items():
        if dim not in caps:
            raise MalformedScores(client.role, f"unknown dimension {dim!r} for rubric {rubric_id}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise MalformedScores(client.role, f"non-numeric score for {dim!r}")
        if not 0 <= value <= caps[dim]:
            raise MalformedScores(client.role, f"{dim} score {value} outside [0, {caps[dim]}]")
        checked[dim] = float(value)
    return checked


def embed(inputs: list[str], client: Client) -> list[np.ndarray]:
    """Embed texts or frame references; vectors are L2-normalized client-side."""
    if not inputs:
        raise ValueError("embed requires at least one input")
    result = client.call({"inputs": list(inputs)})
    vectors = result.data.get("vectors") if isinstance(result.data, dict) else None
    if not isinstance(vectors, list) or len(vectors) != len(inputs):
        raise InvalidResponse(client.role, "vector count does not match input count")
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise DimensionMismatch(client.role, f"mixed vector dimensions {sorted(dims)}")
    import numpy as np

    out = []
    for v in vectors:
        arr = np.asarray(v, dtype=np.float64)
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise InvalidResponse(client.role, "zero vector cannot be normalized")
        out.append(arr / norm)
    return out


# ---------------------------------------------------------------------------
# deterministic mocks


def _stable_hash(*parts: str) -> int:
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def hashed_unit_vector(text: str, seed: int, dim: int = 32) -> np.ndarray:
    import numpy as np

    rng = np.random.default_rng(_stable_hash(str(seed), text) % (2**63))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


@dataclass
class MockTransport:
    """In-process stand-in for every role; a pure function of
    (seed, fixtures, request).

    Fixture keys (all optional):
      videos:      ref -> {asr, ocr, shots, captions, tags, analysis?}
      drafts:      sample_id -> ground-truth draft dict (generation role)
      negatives:   sample_id -> negative clip indices (for inject_negative)
      corruption:  {mode: none|swap_adjacent|inject_negative|drop_tag, rate: float}
      judge:       {verify: approve|revise_always, scores: "caps" | map}
      embeddings:  input string -> vector (overrides hashed embedding)
      embed_dim:   int (default 32)

    A request the fixtures cannot answer raises a non-retryable
    :class:`BackendError` for the role that sent it.
    """

    seed: int
    fixtures: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        drafts = self.fixtures.get("drafts", {})
        corruption = self.fixtures.get("corruption", {}) or {}
        mode = corruption.get("mode", "none")
        rate = float(corruption.get("rate", 1.0 if mode != "none" else 0.0))
        ids = list(drafts)
        k = round(rate * len(ids))
        rng = random.Random(self.seed)
        self._corrupt_ids = set(rng.sample(ids, k)) if mode != "none" else set()
        self._corrupt_mode = mode

    # transport interface -------------------------------------------------
    def send(self, role: str, url: str, body: bytes, headers: dict, timeout_s: float) -> tuple[int, bytes]:
        del url, headers, timeout_s
        payload = loads(body)
        handler = getattr(self, f"_handle_{role}", None)
        if handler is None:
            return 404, b"{}"
        try:
            return 200, dumps_canonical(handler(payload))
        except _NoAnswer as exc:
            raise BackendError(role, str(exc)) from None

    # role handlers --------------------------------------------------------
    def _video(self, payload: dict) -> dict:
        ref = payload.get("video_ref")
        videos = self.fixtures.get("videos", {})
        if ref not in videos:
            raise _NoAnswer(f"no fixture for video {ref!r}")
        return videos[ref]

    def _handle_asr(self, payload: dict) -> dict:
        return {"sentences": self._video(payload).get("asr", [])}

    def _handle_ocr(self, payload: dict) -> dict:
        return {"lines": self._video(payload).get("ocr", [])}

    def _handle_shots(self, payload: dict) -> dict:
        return {"boundaries_ms": self._video(payload).get("shots", [])}

    def _handle_caption(self, payload: dict) -> dict:
        captions = self._video(payload).get("captions", [])
        shot = payload.get("shot_index", 0)
        text = captions[shot] if shot < len(captions) else f"shot {shot}"
        return {"caption": text}

    def _handle_embed(self, payload: dict) -> dict:
        overrides = self.fixtures.get("embeddings", {})
        dim = int(self.fixtures.get("embed_dim", 32))
        vectors = []
        for item in payload["inputs"]:
            if item in overrides:
                vectors.append(list(overrides[item]))
            else:
                vectors.append([float(x) for x in hashed_unit_vector(item, self.seed, dim)])
        return {"vectors": vectors}

    def _handle_judge(self, payload: dict) -> dict:
        task = payload.get("task")
        if task == "recommend_tags":
            return {"tags": self._video(payload).get("tags", DecorationSetting().to_dict())}
        if task == "correct_asr":
            # pass-through correction
            return {"sentences": payload.get("sentences", [])}
        if task == "analyze":
            return {"analysis": self._analyze(payload)}
        if task == "verify_prompt":
            behavior = (self.fixtures.get("judge", {}) or {}).get("verify", "approve")
            if behavior == "revise_always":
                revised = dict(payload.get("dimensions", {}))
                for key in revised:
                    if revised[key] is not None:
                        revised[key] = str(revised[key]) + " (revised)"
                return {"approved": False, "revision": revised}
            return {"approved": True, "revision": None}
        if task == "score":
            return {"scores": self._scores(payload)}
        raise _NoAnswer(f"unknown judge task {task!r}")

    def _analyze(self, payload: dict) -> dict:
        dec = payload.get("deconstruction", {})
        override = None
        ref = payload.get("video_ref")
        if ref is not None:
            override = self.fixtures.get("videos", {}).get(ref, {}).get("analysis")
        if override is not None:
            return dict(override)
        shots = dec.get("shot_boundaries", [])
        captions = dec.get("shot_captions", [])
        tags = dec.get("recommended_tags", {})
        total_s = round((shots[-1] - shots[0]) / 1000) if len(shots) >= 2 else 0
        return {
            "duration": f"about {total_s} seconds",
            "visual_storyline": "; ".join(captions) if captions else None,
            "target_audience": "general short-video audience",
            "script_routine": "hook, selling points, call to action",
            "selling_points_emphasis": "stress the main selling points",
            "avatar": ", ".join(tags.get("avatar_tags", [])) or None,
            "tts_timbre": ", ".join(tags.get("tts_tags", [])) or None,
            "music_style": ", ".join(tags.get("music_tags", [])) or None,
        }

    def _scores(self, payload: dict) -> dict:
        rubric_id = payload.get("rubric_id", "")
        _, caps = _rubric(rubric_id)
        behavior = (self.fixtures.get("judge", {}) or {}).get("scores", "caps")
        if behavior == "caps":
            present = payload.get("dimensions")
            keys = [k for k in caps if present is None or k in present]
            return {k: caps[k] for k in keys}
        if isinstance(behavior, dict):
            return dict(behavior)
        raise _NoAnswer(f"unknown scores behavior {behavior!r}")

    def _handle_generate(self, payload: dict) -> dict:
        sample_id = payload.get("sample_id")
        drafts = self.fixtures.get("drafts", {})
        if sample_id not in drafts:
            raise _NoAnswer(f"no ground-truth draft for sample {sample_id!r}")
        draft = loads(dumps_canonical(drafts[sample_id]))  # deep copy, fixtures stay pristine
        if sample_id in self._corrupt_ids:
            draft = self._corrupt(sample_id, draft)
        return {"draft": draft, "model_id": f"mock-gen-seed{self.seed}"}

    def _corrupt(self, sample_id: str, draft: dict) -> dict:
        rng = random.Random(_stable_hash(str(self.seed), "corrupt", sample_id))
        nodes = draft["video_nodes_track"]
        if self._corrupt_mode == "swap_adjacent" and len(nodes) >= 2:
            i = rng.randrange(len(nodes) - 1)
            nodes[i]["index"], nodes[i + 1]["index"] = nodes[i + 1]["index"], nodes[i]["index"]
        elif self._corrupt_mode == "inject_negative":
            negatives = self.fixtures.get("negatives", {}).get(sample_id, [])
            used = {n["index"] for n in nodes}
            free = [i for i in negatives if i not in used]
            if free and nodes:
                end = nodes[-1]["target_end"]
                nodes.extend(nodes_track_to_list([VideoNode(free[0], end, end + 1000, 0)]))
        elif self._corrupt_mode == "drop_tag":
            deco = draft["decoration_setting"]
            for key in DECORATION_KEYS:
                if deco[key]:
                    deco[key].pop(rng.randrange(len(deco[key])))
                    break
        return draft


def mock_backend(seed: int, fixtures: dict | None = None) -> MockTransport:
    """In-process endpoint serving every role deterministically."""
    return MockTransport(seed=seed, fixtures=fixtures or {})


MOCK_ENDPOINT = BackendEndpoint(base_url="mock://local", timeout_ms=1000, max_retries=0)


def mock_backend_set(seed: int, fixtures: dict | None = None) -> BackendSet:
    """A full client set wired to one shared mock transport."""
    transport = mock_backend(seed, fixtures)
    clients = {role: Client(role, MOCK_ENDPOINT, transport=transport) for role in ROLES}
    return BackendSet(**clients)
