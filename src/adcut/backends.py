"""Client seams for every external model role, plus deterministic mocks.

One wire contract serves all roles: POST /v1/{generate|judge|embed|asr|
ocr|shots|caption} with a canonical-JSON body and a JSON response. The
concrete services behind each role are configuration. Mock transports
implement the same interface in-process as pure functions of
(seed, fixtures, request) so the whole pipeline runs offline and
reproducibly. :meth:`Client.call` hands a bare :class:`MockTransport` the
request as it is built and takes the mock's answer as it is built, with no
JSON codec either way: the handlers only read their payload, and a JSON round
trip gives back equal values of the same types, so no caller can tell. Any
other transport, including one that wraps a mock or subclasses it (or the
benchmark's HTTP stub, which serves one), exchanges canonical bytes both ways.

:class:`HttpTransport` speaks HTTP/1.1 over the standard library's ``socket``
(``ssl`` for ``https``), one write per request, on keep-alive connections.

``numpy`` is imported inside :func:`embed` and :func:`hashed_unit_vector`,
the only functions here that build arrays, and ``socket`` and ``ssl`` when
:class:`HttpTransport` opens a connection, so importing this module loads
none of them.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import re
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable
from urllib.parse import urlsplit

from .draft import DECORATION_KEYS, DecorationSetting, VideoNode, nodes_track_to_list
from .jsonutil import FieldError, dumps_canonical, loads
from .jsonutil import field as json_field

if TYPE_CHECKING:
    import numpy as np

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
    retries: int


class HttpTransport:
    """HTTP/1.1 POST client on the standard library's ``socket`` (and ``ssl``
    for ``https``), shareable across threads.

    Each thread keeps one keep-alive connection per origin (scheme, host,
    port), each with one buffered reader for its whole life. A request is one
    ``sendall`` of the request line, ``Host``, ``Accept-Encoding: identity``,
    ``Content-Length``, the caller's headers and the body. After the write the
    transport sets ``TCP_QUICKACK`` where the platform has it: a server that
    writes a response's headers and body separately with Nagle's algorithm on
    would otherwise wait for the client's delayed ACK, about 40 ms, on every
    reused connection. Interim ``1xx`` responses are skipped; a body is framed
    by ``Content-Length``, by chunks (trailers read and dropped) or by the
    server closing. A status line, header or chunk-size line is at most 65536
    bytes, and a response has at most 100 headers. ``Connection: close`` or an
    HTTP/1.0 status line closes the connection after the exchange.

    A reused connection the server has closed is reopened once, which the
    client does not count as a retry. A timeout raises :class:`RequestTimeout`;
    any other socket error, or a response that breaks the framing above
    (a malformed status line, header or chunk size, or a short body), raises
    :class:`TransportFailure`; either drops the connection. A URL that is not
    ``http`` or ``https`` with a host, that carries user info or a character
    that cannot go on the request line, or whose port is not a number in
    [0, 65535], raises a :class:`BackendError` that is not retried, as does a
    header that cannot be sent as it is. ``https`` verifies the server's
    certificate and host name with :func:`ssl.create_default_context`. Proxy
    environment variables are not read.

    The transport holds each connection until it fails, the server closes
    it, or :meth:`close` (or leaving a ``with`` block) closes every
    connection it holds, whichever thread opened it. So threads that outlive
    one batch of calls reuse their connections in the next; the CLI keeps one
    transport, and a worker pool per ``--concurrency`` value, for the life of
    the process.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._conns: dict[tuple, _Connection] = {}  # (thread id, scheme, netloc) -> connection
        self._tls: Any = None  # the https context, built on the first https connection

    def __enter__(self) -> HttpTransport:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        with self._lock:
            conns, self._conns = self._conns, {}
        for conn in conns.values():
            conn.close()

    def send(self, role: str, url: str, body: bytes, headers: dict, timeout_s: float) -> tuple[int, bytes]:
        try:
            scheme, netloc, host, port, head = _route(url)
        except ValueError as exc:
            raise BackendError(role, f"unsupported URL {url!r}: {exc}") from None
        try:
            request = f"{head}Content-Length: {len(body)}\r\n{_header_lines(headers)}\r\n".encode("latin-1") + body
        except ValueError as exc:  # also a UnicodeEncodeError
            raise BackendError(role, f"unsendable header: {exc}") from None
        key = (threading.get_ident(), scheme, netloc)
        with self._lock:
            conn = self._conns.get(key)
        reused = conn is not None
        try:
            try:
                conn = conn if reused else self._open(key, scheme, host, port, timeout_s)
                status, data, closing = conn.exchange(request, timeout_s)
            except (ConnectionResetError, BrokenPipeError):
                if not reused:
                    raise
                self._drop(key)  # the server closed the idle connection: reopen it once
                conn = self._open(key, scheme, host, port, timeout_s)
                status, data, closing = conn.exchange(request, timeout_s)
        except TimeoutError as exc:
            self._drop(key)
            raise RequestTimeout(role, str(exc)) from exc
        except (OSError, _Malformed) as exc:
            self._drop(key)
            raise TransportFailure(role, str(exc)) from exc
        if closing:
            self._drop(key)
        return status, data

    def _open(self, key: tuple, scheme: str, host: str, port: int, timeout_s: float) -> _Connection:
        import socket

        sock = socket.create_connection((host, port), timeout_s)
        if scheme == "https":
            try:
                if self._tls is None:
                    import ssl

                    self._tls = ssl.create_default_context()
                sock = self._tls.wrap_socket(sock, server_hostname=host)
            except BaseException:
                sock.close()
                raise
        conn = _Connection(sock)
        with self._lock:
            self._conns[key] = conn
        return conn

    def _drop(self, key: tuple) -> None:
        with self._lock:
            conn = self._conns.pop(key, None)
        if conn is not None:
            conn.close()


_DEFAULT_PORTS = {"http": 80, "https": 443}
_UNSENDABLE = re.compile(r"[^\x21-\x7e]")  # what cannot go on a request line: controls, space, non-ASCII
_HEADER_NAME = re.compile(r"[^:\s][^:\r\n\x00]*")  # http.client's rule
_BAD_VALUE = re.compile(r"[\x00\r\n]")
_MAX_LINE = 65536  # bytes in a status, header or chunk-size line
_MAX_HEADERS = 100
_MAX_LENGTH_DIGITS = 19  # 2**63 - 1 has 19; a longer Content-Length may also pass int()'s digit limit
_PIECE = 1 << 20  # a body is read in pieces of at most this, so a huge Content-Length allocates nothing up front


@lru_cache(maxsize=64)
def _route(url: str) -> tuple[str, str, str, int, str]:
    """The scheme, netloc, host and port that ``url`` dials, and the head of a request to
    it up to its caller's headers. ``ValueError`` for a URL :class:`HttpTransport` rejects."""
    scheme, netloc, path, query, _ = split = urlsplit(url)
    port = split.port  # out of [0, 65535] raises ValueError
    target = (path or "/") + (f"?{query}" if query else "")
    if scheme not in _DEFAULT_PORTS or not split.hostname:
        raise ValueError("expected an http:// or https:// URL with a host")
    if "@" in netloc:  # the transport sends no credentials from a URL
        raise ValueError("user info in a URL is not supported")
    host_field = netloc if netloc.isascii() else netloc.encode("idna").decode("ascii")  # IDNA for a non-ASCII host
    if _UNSENDABLE.search(target + host_field):
        raise ValueError("a request line cannot carry the URL's control, space or non-ASCII characters")
    head = f"POST {target} HTTP/1.1\r\nHost: {host_field}\r\nAccept-Encoding: identity\r\n"
    return scheme, netloc, split.hostname, _DEFAULT_PORTS[scheme] if port is None else port, head


def _header_lines(headers: dict) -> str:
    for name, value in headers.items():
        if not _HEADER_NAME.fullmatch(name) or _BAD_VALUE.search(value):
            raise ValueError(f"{name!r} is not a valid header name and value")
    return "".join(f"{name}: {value}\r\n" for name, value in headers.items())


class _Malformed(Exception):
    """A response that breaks HTTP/1.1's framing."""


class _Connection:
    """A connected socket and the one buffered reader it keeps for its life."""

    def __init__(self, sock: Any) -> None:
        import socket

        self.sock = sock
        self.reader = sock.makefile("rb")
        self.quickack = (socket.IPPROTO_TCP, socket.TCP_QUICKACK) if hasattr(socket, "TCP_QUICKACK") else None

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def exchange(self, request: bytes, timeout_s: float) -> tuple[int, bytes, bool]:
        """Send ``request`` in one write; the response's status, its body and whether
        the server closes the connection after it."""
        self.sock.settimeout(timeout_s)
        self.sock.sendall(request)
        if self.quickack is not None:
            self.sock.setsockopt(*self.quickack, 1)
        reader = self.reader
        while True:
            line = _line(reader)
            if not line:
                raise ConnectionResetError("the server closed the connection without a response")
            version, status = _status(line)
            fields = _fields(reader)
            if status >= 200:
                break
        closing = version == b"HTTP/1.0" or b"close" in fields.get(b"connection", b"").lower()
        if status in (204, 304):
            return status, b"", closing
        if fields.get(b"transfer-encoding", b"").lower() == b"chunked":
            return status, _chunked(reader), closing
        length = fields.get(b"content-length")
        if length is None:
            return status, reader.read(), True
        if not length.isdigit() or len(length) > _MAX_LENGTH_DIGITS:
            raise _Malformed(f"bad Content-Length {length[:80]!r}")
        return status, _exactly(reader, int(length)), closing


def _line(reader: Any) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise _Malformed(f"a response line is longer than {_MAX_LINE} bytes")
    return line


def _status(line: bytes) -> tuple[bytes, int]:
    """The version and status code of a status line such as ``HTTP/1.1 200 OK``."""
    parts = line.split(None, 2)
    if len(parts) < 2 or parts[0] not in (b"HTTP/1.0", b"HTTP/1.1") or len(parts[1]) != 3 \
            or not parts[1].isdigit() or parts[1] < b"100":
        raise _Malformed(f"bad status line {line[:80]!r}")
    return parts[0], int(parts[1])


def _fields(reader: Any) -> dict[bytes, bytes]:
    """Header (or trailer) fields up to the blank line, by lower-case name; the first
    of a repeated name counts."""
    fields: dict[bytes, bytes] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _line(reader)
        if line in (b"\r\n", b"\n"):
            return fields
        name, colon, value = line.partition(b":")
        if not colon:
            raise _Malformed(f"bad header line {line[:80]!r}")
        fields.setdefault(name.strip().lower(), value.strip())
    raise _Malformed(f"more than {_MAX_HEADERS} headers")


def _chunked(reader: Any) -> bytes:
    chunks = []
    while True:
        digits = _line(reader).split(b";", 1)[0].strip()
        if not digits or digits.strip(b"0123456789abcdefABCDEF"):
            raise _Malformed(f"bad chunk size {digits[:80]!r}")
        size = int(digits, 16)
        if not size:
            _fields(reader)  # trailers
            return b"".join(chunks)
        chunks.append(_exactly(reader, size))
        if _line(reader) not in (b"\r\n", b"\n"):
            raise _Malformed("a chunk does not end with CRLF")


def _exactly(reader: Any, n: int) -> bytes:
    pieces, left = [], n
    while left:
        piece = reader.read(min(left, _PIECE))
        if not piece:
            raise _Malformed(f"short body: {n - left} of {n} bytes")
        pieces.append(piece)
        left -= len(piece)
    return b"".join(pieces)


class Client:
    """One backend role: canonical-JSON POST with idempotent retries.

    Transport failures, 429 and 5xx responses are retried up to
    ``endpoint.max_retries`` times with exponential backoff (base 250 ms,
    doubling, +/-20% jitter). Forwarded payload bytes are never mutated. A
    payload with no UTF-8 JSON encoding raises a non-retryable
    :class:`BackendError` before any send.
    """

    def __init__(
        self,
        role: str,
        endpoint: BackendEndpoint,
        transport: Any,
        sleeper: Callable[[float], None] = time.sleep,
        jitter_rng: random.Random | None = None,
    ):
        if role not in ROLES:
            raise ValueError(f"unknown backend role {role!r}")
        self.role = role
        self.endpoint = endpoint
        self.transport = transport
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
        if type(self.transport) is MockTransport:
            # in-process: neither the request nor the answer is encoded, and no mock error is retryable
            return CallResult(data=self.transport.answer(self.role, payload), retries=0)
        try:
            body = dumps_canonical(payload)
        except ValueError as exc:  # a lone surrogate in a string has no UTF-8 encoding
            raise BackendError(self.role, f"cannot encode the request: {type(exc).__name__}: {exc}") from None
        url = self.endpoint.base_url.rstrip("/") + "/v1/" + self.role
        timeout_s = self.endpoint.timeout_ms / 1000.0
        attempts = self.endpoint.max_retries + 1
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
            return CallResult(data=data, retries=attempt)
        assert last_error is not None
        raise last_error


def checked(role: str, data: Any, key: str, kind: type, item: type | None = None) -> Any:
    """:func:`~adcut.jsonutil.field` of a ``role`` answer, or of an entry in one; an
    answer that is no object or lacks the field as asked raises :class:`InvalidResponse`."""
    if type(data) is not dict:
        raise InvalidResponse(role, f"expected a JSON object, got {type(data).__name__}")
    try:
        return json_field(data, key, kind, item=item)
    except KeyError:
        raise InvalidResponse(role, f"missing field {key!r}") from None
    except FieldError as exc:
        raise InvalidResponse(role, str(exc)) from None


def answer(client: Client, payload: dict, key: str, kind: type, item: type | None = None) -> Any:
    """Field ``key`` of ``client``'s answer to ``payload``, checked by :func:`checked`."""
    return checked(client.role, client.call(payload).data, key, kind, item)


@dataclass(frozen=True)
class BackendSet:
    """The role clients that corpus construction calls."""

    judge: Client
    asr: Client
    ocr: Client
    shots: Client
    caption: Client


# ---------------------------------------------------------------------------
# high-level operations


def generate_draft(request: dict, client: Client) -> bytes:
    """POST a generation request; returns the draft's bytes: canonical JSON for
    a draft object, else the answer's text unmodified."""
    result = client.call(request)
    if not isinstance(result.data, dict) or "draft" not in result.data:
        raise InvalidResponse(client.role, "response lacks a draft field")
    draft = result.data["draft"]
    return dumps_canonical(draft) if isinstance(draft, dict) else str(draft).encode("utf-8")


@lru_cache(maxsize=None)
def prompt_text(filename: str) -> str:
    """Verbatim prompt text shipped under prompts/ (read once per file)."""
    return resources.files("adcut").joinpath(f"prompts/{filename}").read_text("utf-8")


@lru_cache(maxsize=None)
def prompt_sha256(filename: str) -> str:
    """SHA-256 of :func:`prompt_text`, which requests carry to name the prompt they follow."""
    return hashlib.sha256(prompt_text(filename).encode("utf-8")).hexdigest()


def rubric_hash(rubric_id: str) -> str:
    return prompt_sha256(_rubric(rubric_id)[0])


def _rubric(rubric_id: str) -> tuple[str, dict[str, float]]:
    if rubric_id not in RUBRICS:
        raise KeyError(f"unknown rubric {rubric_id!r}")
    return RUBRICS[rubric_id]


def judge_score(payload: dict, rubric_id: str, client: Client) -> dict[str, float]:
    """Request per-dimension scores. An answer without a ``scores`` object of
    numbers raises :class:`InvalidResponse` (:func:`checked`), and a
    dimension outside the rubric or a score outside its cap :class:`MalformedScores`."""
    _, caps = _rubric(rubric_id)
    wire = dict(payload)
    wire["task"] = "score"
    wire["rubric_id"] = rubric_id
    wire["rubric_sha256"] = rubric_hash(rubric_id)
    scores = answer(client, wire, "scores", dict)
    out: dict[str, float] = {}
    for dim in scores:
        if dim not in caps:
            raise MalformedScores(client.role, f"unknown dimension {dim!r} for rubric {rubric_id}")
        value = checked(client.role, scores, dim, float)
        if not 0 <= value <= caps[dim]:
            raise MalformedScores(client.role, f"{dim} score {value} outside [0, {caps[dim]}]")
        out[dim] = float(value)
    return out


def embed(inputs: list[str], client: Client) -> list[np.ndarray]:
    """Embed texts or frame references; vectors are L2-normalized client-side.

    The answer is checked as one array: a value that is not a finite JSON
    number (a string or a bool is not one) anywhere in it fails before any
    zero vector, or vector whose norm overflows, does."""
    if not inputs:
        raise ValueError("embed requires at least one input")
    vectors = answer(client, {"inputs": list(inputs)}, "vectors", list, list)
    if len(vectors) != len(inputs):
        raise InvalidResponse(client.role, "vector count does not match input count")
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise DimensionMismatch(client.role, f"mixed vector dimensions {sorted(dims)}")
    import numpy as np

    numeric = set(map(type, chain.from_iterable(vectors))) <= {float, int}  # numpy reads "3" and true as numbers
    try:
        arr = np.asarray(vectors, dtype=np.float64) if numeric else None
    except OverflowError:  # an integer past the float range
        numeric = False
    if not numeric or not np.isfinite(arr).all():
        raise InvalidResponse(client.role, "a vector is not a list of finite numbers")
    with np.errstate(over="ignore"):
        norms = np.array([math.sqrt(row.dot(row)) for row in arr])
    if not norms.all():
        raise InvalidResponse(client.role, "zero vector cannot be normalized")
    if not np.isfinite(norms).all():
        raise InvalidResponse(client.role, "a vector's norm overflows")
    return list(arr / norms[:, None])


# ---------------------------------------------------------------------------
# deterministic mocks


def _stable_hash(*parts: str) -> int:
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def hashed_unit_vector(text: str, seed: int) -> np.ndarray:
    import numpy as np

    rng = np.random.default_rng(_stable_hash(str(seed), text) % (2**63))
    v = rng.standard_normal(32)
    return v / math.sqrt(v.dot(v))


# the keys of a fixtures video that the role handlers read, with their JSON types
_VIDEO_KEYS = {"asr": list, "ocr": list, "shots": list, "captions": list, "tags": dict}


def _swap_adjacent(draft: dict, rng: random.Random, negatives: list[int]) -> None:
    nodes = draft["video_nodes_track"]
    if len(nodes) >= 2:
        i = rng.randrange(len(nodes) - 1)
        nodes[i]["index"], nodes[i + 1]["index"] = nodes[i + 1]["index"], nodes[i]["index"]


def _inject_negative(draft: dict, rng: random.Random, negatives: list[int]) -> None:
    nodes = draft["video_nodes_track"]
    used = {n["index"] for n in nodes}
    free = [i for i in negatives if i not in used]
    if free and nodes:
        end = nodes[-1]["target_end"]
        nodes.extend(nodes_track_to_list([VideoNode(free[0], end, end + 1000, 0)]))


def _drop_tag(draft: dict, rng: random.Random, negatives: list[int]) -> None:
    deco = draft["decoration_setting"]
    tags = next((deco[key] for key in DECORATION_KEYS if deco[key]), [])
    if tags:
        tags.pop(rng.randrange(len(tags)))


# the generate modes: name -> a function that corrupts a copy of a ground-truth draft in place
GENERATE_MODES = {"swap_adjacent": _swap_adjacent, "inject_negative": _inject_negative, "drop_tag": _drop_tag}


@dataclass
class MockTransport:
    """In-process stand-in for every role; a pure function of
    (seed, fixtures, request).

    Fixture keys (all optional):
      videos:      ref -> {asr, ocr, shots, captions, tags}
      drafts:      sample_id -> ground-truth draft dict (generation role)
      negatives:   sample_id -> negative clip indices (a mode may inject one)
      corruption:  {mode: none or a key of GENERATE_MODES, rate: float}
      judge:       {verify: approve|revise_always, scores: "caps" | map}

    Embeddings are 32-dimensional hashed unit vectors. Building the mock
    raises ``ValueError`` (:class:`~adcut.jsonutil.FieldError` for a wrong
    JSON type) for a fixture key not shaped as above (a ``rate`` is a number
    in [0, 1]).

    A request the fixtures cannot answer raises a non-retryable
    :class:`BackendError` for the role that sent it.
    """

    seed: int
    fixtures: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # each key is read once, with its default, and kept for the role handlers
        self._videos = json_field(self.fixtures, "videos", dict, default={})
        for ref in self._videos:
            video, path = json_field(self._videos, ref, dict, "videos"), f"videos.{ref}"
            for key, kind in _VIDEO_KEYS.items():
                json_field(video, key, kind, path, default=None)
        judge = json_field(self.fixtures, "judge", dict, default={})
        self._judge_verify = judge.get("verify", "approve")
        if self._judge_verify not in ("approve", "revise_always"):
            raise ValueError(f"judge.verify must be approve or revise_always, got {self._judge_verify!r}")
        self._judge_scores = judge.get("scores", "caps")
        if self._judge_scores != "caps" and not isinstance(self._judge_scores, dict):
            raise ValueError(f'judge.scores must be "caps" or a JSON object, got {self._judge_scores!r}')
        self._drafts = json_field(self.fixtures, "drafts", dict, default={})
        for sample_id in self._drafts:
            json_field(self._drafts, sample_id, dict, "drafts")
        self._negatives = json_field(self.fixtures, "negatives", dict, default={})
        for sample_id in self._negatives:
            json_field(self._negatives, sample_id, list, "negatives", int)
        corruption = json_field(self.fixtures, "corruption", dict, default={})
        mode = corruption.get("mode", "none")
        if mode not in ("none", *GENERATE_MODES):
            raise ValueError(f"corruption.mode must be none or one of {', '.join(GENERATE_MODES)}, got {mode!r}")
        rate = corruption.get("rate", 1.0 if mode != "none" else 0.0)
        if type(rate) not in (int, float) or not 0 <= rate <= 1:
            raise ValueError(f"corruption.rate must be a number in [0, 1], got {rate!r}")
        ids = list(self._drafts) if mode != "none" else []
        self._corrupt_ids = set(random.Random(self.seed).sample(ids, round(rate * len(ids))))
        self._corrupt_mode = mode

    # transport interface -------------------------------------------------
    def send(self, role: str, url: str, body: bytes, headers: dict, timeout_s: float) -> tuple[int, bytes]:
        del url, headers, timeout_s
        payload = loads(body)
        if role not in ROLES:
            return 404, b"{}"
        return 200, dumps_canonical(self.answer(role, payload))

    def answer(self, role: str, payload: dict) -> Any:
        """The answer of ``role`` to ``payload`` as JSON values, not encoded. No
        handler mutates ``payload``. The answer may share lists and objects with
        the fixtures and with ``payload`` (``correct_asr`` echoes its
        ``sentences``), so callers copy what they keep and mutate none of it."""
        try:
            return getattr(self, f"_handle_{role}")(payload)
        except _NoAnswer as exc:
            raise BackendError(role, str(exc)) from None
        except (LookupError, TypeError, AttributeError, ValueError, ArithmeticError) as exc:  # a misshapen request
            raise BackendError(role, f"cannot answer the request: {type(exc).__name__}: {exc}") from exc

    # role handlers --------------------------------------------------------
    def _video(self, payload: dict) -> dict:
        ref = payload.get("video_ref")
        if ref not in self._videos:
            raise _NoAnswer(f"no fixture for video {ref!r}")
        return self._videos[ref]

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
        return {"vectors": [hashed_unit_vector(item, self.seed).tolist() for item in payload["inputs"]]}

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
            if self._judge_verify == "revise_always":
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
        if self._judge_scores == "caps":
            present = payload.get("dimensions")
            keys = [k for k in caps if present is None or k in present]
            return {k: caps[k] for k in keys}
        return dict(self._judge_scores)

    def _handle_generate(self, payload: dict) -> dict:
        sample_id = payload.get("sample_id")
        if sample_id not in self._drafts:
            raise _NoAnswer(f"no ground-truth draft for sample {sample_id!r}")
        draft = self._drafts[sample_id]
        if sample_id in self._corrupt_ids:  # corrupt a deep copy, so the fixtures stay pristine
            draft = loads(dumps_canonical(draft))
            rng = random.Random(_stable_hash(str(self.seed), "corrupt", sample_id))
            GENERATE_MODES[self._corrupt_mode](draft, rng, self._negatives.get(sample_id, []))
        return {"draft": draft}


def mock_backend(seed: int, fixtures: dict | None = None) -> MockTransport:
    """In-process endpoint serving every role deterministically."""
    return MockTransport(seed=seed, fixtures=fixtures or {})


MOCK_ENDPOINT = BackendEndpoint(base_url="mock://local", timeout_ms=1000, max_retries=0)
