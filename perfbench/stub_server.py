"""Loopback HTTP stub serving ``adcut``'s mock backends, for the http workload.

Usage: python3 stub_server.py MANIFEST.json

The manifest names the ``src`` directory, the seed, the generate-mock mode
and rate, and for each job id its corpus and fixtures files. ``POST
/j/<job>/v1/<role>`` is answered by ``MockTransport``: for ``generate`` a
transport holding that job's ground-truth drafts (built exactly as
``adcut generate --endpoint-generate mock:<mode>:<rate>`` builds it), for
every other role one built from the job's fixtures file (as ``adcut
evaluate`` does for ``mock:`` endpoints). Responses are therefore the bytes
the in-process mocks would produce.

The server speaks HTTP/1.1 with keep-alive and sends each response's headers
and body in a single write, so a client that reuses connections is not held
up by delayed ACKs. ``GET /_stats`` returns the connections and ``/v1``
calls served so far with their payload bytes; stats requests are not
counted. The port is printed as one JSON line once the server listens. The
server exits when its standard input closes, so it never outlives the
benchmark process.
"""

from __future__ import annotations

import gc
import json
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

REASONS = {200: "OK", 404: "Not Found", 500: "Internal Server Error"}


def load_routes(manifest: dict) -> dict[str, dict]:
    sys.path.insert(0, manifest["src"])
    from adcut import backends as be
    from adcut import dataset as ds

    seed = manifest["seed"]
    routes = {}
    for job_id, job in manifest["jobs"].items():
        samples = ds.read_corpus(job["corpus"])
        drafts = {
            "drafts": {s.sample_id: ds.draft_to_dict(s.ground_truth) for s in samples},
            "negatives": {s.sample_id: list(s.negatives) for s in samples},
            "corruption": {"mode": manifest["generate_mode"], "rate": manifest["generate_rate"]},
        }
        fixtures = json.loads(Path(job["fixtures"]).read_text("utf-8"))
        routes[job_id] = {"generate": be.mock_backend(seed, drafts), "other": be.mock_backend(seed, fixtures)}
    return routes


class Server(ThreadingHTTPServer):
    request_queue_size = 64


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.values = {"connections": 0, "calls": 0, "request_bytes": 0, "response_bytes": 0}

    def add(self, **deltas: int) -> None:
        with self.lock:
            for key, delta in deltas.items():
                self.values[key] += delta

    def snapshot(self) -> dict:
        with self.lock:
            return dict(self.values)


def make_handler(routes: dict[str, dict], stats: Stats):
    from adcut.backends import BackendError

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self) -> None:
            super().setup()
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.served = False

        def _reply(self, status: int, body: bytes) -> None:
            head = (
                f"HTTP/1.1 {status} {REASONS[status]}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + body)

        def do_GET(self) -> None:
            if self.path == "/_stats":
                self._reply(200, json.dumps(stats.snapshot()).encode("utf-8"))
            else:
                self._reply(404, b"{}")

        def do_POST(self) -> None:
            body = self.rfile.read(int(self.headers.get("Content-Length") or 0))
            parts = self.path.strip("/").split("/")  # j, <job>, v1, <role>
            route = routes.get(parts[1]) if len(parts) == 4 and parts[0] == "j" and parts[2] == "v1" else None
            if route is None:
                status, payload = 404, b"{}"
            else:
                role = parts[3]
                transport = route["generate" if role == "generate" else "other"]
                try:
                    status, payload = transport.send(role, self.path, body, {}, 0.0)
                except BackendError as exc:
                    status, payload = 500, json.dumps({"error": str(exc)}).encode("utf-8")
            stats.add(connections=0 if self.served else 1, calls=1, request_bytes=len(body), response_bytes=len(payload))
            self.served = True
            self._reply(status, payload)

        def log_message(self, format: str, *args) -> None:  # noqa: A002 - base-class signature
            pass

    return Handler


def main(argv: list[str]) -> int:
    manifest = json.loads(Path(argv[1]).read_text("utf-8"))
    routes = load_routes(manifest)
    gc.freeze()  # keep the stub's own collections short: they would show as backend latency
    stats = Stats()
    server = Server(("127.0.0.1", 0), make_handler(routes, stats))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
