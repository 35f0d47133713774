"""Stdlib HTTP front door for the advisor.

A thin ``ThreadingHTTPServer`` shell: every route parses, delegates to
the :class:`~repro.serve.advisor.Advisor` / worker pool, and renders
JSON.  All robustness (deadlines, backpressure, breakers, fault
injection) lives below this layer, so the HTTP handler has nothing to
get wrong under load.

Routes::

    GET  /v1/health   liveness + breaker/registry/pool state
    GET  /v1/ready    readiness (workers up, not shutting down)
    GET  /v1/models   registered model versions (?target=&vectorizer=)
    POST /v1/advise   {"kernel": "<DSL>"| "ir": {...}, "target": ...}
    POST /v1/reload   atomic registry hot-reload

Status codes: 200 verdict, 400 client error, 404 unknown route,
429 queue full (Retry-After), 503 deadline exceeded / shutting down
(Retry-After).
"""

from __future__ import annotations

import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from .advisor import Advisor
from .workers import WorkerPool

#: Request bodies above this are rejected outright (anti-DoS).
MAX_BODY_BYTES = 1 << 20


class AdvisorServer:
    """Owns the HTTP listener, the advisor, and the worker pool."""

    def __init__(
        self,
        advisor: Optional[Advisor] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        pool: Optional[WorkerPool] = None,
        **pool_kwargs,
    ):
        self.advisor = advisor if advisor is not None else Advisor()
        self.pool = (
            pool
            if pool is not None
            else WorkerPool(self.advisor, **pool_kwargs)
        )
        self._ready = threading.Event()
        self._draining = threading.Event()
        handler = _make_handler(self)
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "AdvisorServer":
        self.pool.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="serve-http",
            daemon=True,
        )
        self._thread.start()
        self._ready.set()
        return self

    def stop(self, *, drain: bool = True, timeout: float = 10.0) -> None:
        """Graceful shutdown: stop admitting, drain in-flight, close.

        ``/v1/ready`` flips to 503 immediately so load balancers stop
        routing here; requests already inside the pool complete.
        """
        self._ready.clear()
        self._draining.set()
        self.httpd.shutdown()
        self.pool.stop(drain=drain, timeout=timeout)
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=1.0)

    def serve_forever(self) -> None:
        """Foreground mode for the CLI: blocks until interrupted.

        SIGTERM triggers the same graceful drain as Ctrl-C — shells
        start background jobs with SIGINT ignored, so ``kill -TERM``
        is the only reliable stop signal for a scripted deployment.
        """
        import signal

        def _terminate(signum, frame):
            raise KeyboardInterrupt

        previous = None
        if threading.current_thread() is threading.main_thread():
            previous = signal.signal(signal.SIGTERM, _terminate)
        self.pool.start()
        self._ready.set()
        try:
            self.httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self._ready.clear()
            self._draining.set()
            self.pool.stop(drain=True)
            self.httpd.server_close()
            if previous is not None:
                signal.signal(signal.SIGTERM, previous)


def _make_handler(server: AdvisorServer):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body go out in separate sends; with Nagle on, a
        # kept-alive client that delays its ACKs stalls ~40 ms on the
        # second one.
        disable_nagle_algorithm = True
        # BaseHTTPRequestHandler logs every request to stderr; the
        # service speaks through /v1/health and the bench harness.
        def log_message(self, fmt, *args):  # noqa: N802
            pass

        # -- plumbing -------------------------------------------------------

        def _send(
            self, status: int, body: dict, *, retry_after: Optional[float] = None
        ) -> None:
            blob = json.dumps(body).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(blob)))
            if retry_after is not None:
                # RFC 7231 allows delay-seconds only as an integer;
                # round up so "retry in 0.2s" is not rendered as "0".
                self.send_header(
                    "Retry-After", str(max(1, int(retry_after + 0.999)))
                )
            self.end_headers()
            try:
                self.wfile.write(blob)
            except (BrokenPipeError, ConnectionResetError):
                pass

        def _read_json(self) -> Optional[dict]:
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                length = 0
            if length <= 0:
                self._send(400, {"error": "missing request body"})
                return None
            if length > MAX_BODY_BYTES:
                self._send(
                    400,
                    {"error": f"body exceeds {MAX_BODY_BYTES} bytes"},
                )
                return None
            raw = self.rfile.read(length)
            try:
                payload = json.loads(raw)
            except ValueError:
                self._send(400, {"error": "body is not valid JSON"})
                return None
            if not isinstance(payload, dict):
                self._send(400, {"error": "body must be a JSON object"})
                return None
            return payload

        # -- routes ---------------------------------------------------------

        def do_GET(self):  # noqa: N802
            url = urlparse(self.path)
            if url.path == "/v1/health":
                body = server.advisor.health()
                body["pool"] = server.pool.health()
                body["draining"] = server._draining.is_set()
                self._send(200, body)
            elif url.path == "/v1/ready":
                if server._ready.is_set() and not server._draining.is_set():
                    self._send(200, {"ready": True})
                else:
                    self._send(
                        503, {"ready": False}, retry_after=1.0
                    )
            elif url.path == "/v1/models":
                q = parse_qs(url.query)
                target = q.get("target", ["armv8-neon"])[0]
                vectorizer = q.get("vectorizer", ["llv"])[0]
                self._send(
                    200,
                    {
                        "target": target,
                        "vectorizer": vectorizer,
                        "versions": server.advisor.registry.versions(
                            target, vectorizer
                        ),
                    },
                )
            else:
                self._send(404, {"error": f"no route {url.path}"})

        def do_POST(self):  # noqa: N802, runs on a per-connection thread
            url = urlparse(self.path)
            if url.path == "/v1/advise":
                if server._draining.is_set():
                    self._send(
                        503,
                        {"error": "shutting down", "retry_after": 1.0},
                        retry_after=1.0,
                    )
                    return
                payload = self._read_json()
                if payload is None:
                    return
                request_id = str(
                    payload.pop("request_id", "")
                ) or hashlib.sha256(
                    json.dumps(payload, sort_keys=True).encode()
                ).hexdigest()[:12]
                try:
                    attempt = int(payload.pop("attempt", 0))
                except (TypeError, ValueError):
                    attempt = 0
                status, body = server.pool.submit(
                    payload, request_id=request_id, attempt=attempt
                )
                self._send(
                    status,
                    body,
                    retry_after=body.get("retry_after")
                    if status in (429, 503)
                    else None,
                )
            elif url.path == "/v1/reload":
                self._send(200, {"reloaded": server.advisor.registry.reload()})
            else:
                self._send(404, {"error": f"no route {url.path}"})

    return Handler


def main(argv=None) -> int:
    """``python -m repro.experiments serve`` entry point."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments serve",
        description="Run the fault-tolerant vectorization-advisor service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787)
    parser.add_argument(
        "--registry", default=None, help="model registry root (default: cache)"
    )
    parser.add_argument(
        "--fit",
        action="store_true",
        help="fit + publish a model per target before serving (measures "
        "--fit-kernels TSVC kernels; otherwise the service answers from "
        "already-published models or the static baseline)",
    )
    parser.add_argument("--fit-kernels", type=int, default=32)
    parser.add_argument(
        "--targets",
        default="armv8-neon",
        help="comma-separated targets to fit models for (with --fit)",
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--queue", type=int, default=None)
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-request deadline in seconds (default: 10)",
    )
    args = parser.parse_args(argv)

    from .registry import ModelRegistry

    registry = ModelRegistry(args.registry)
    if args.fit:
        from .chaos import bootstrap_registry, suite_payloads

        for target in args.targets.split(","):
            target = target.strip()
            selected = suite_payloads(args.fit_kernels, target=target)
            entry = bootstrap_registry(
                registry,
                [s for _, _, s in selected],
                target=target,
                vectorizer="llv",
            )
            print(
                f"[serve] published {entry.version} for {target} "
                f"({len(selected)} kernels, {len(entry.weights)} weights)"
            )

    srv = AdvisorServer(
        Advisor(registry),
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue,
        timeout=args.timeout,
    )
    print(f"[serve] advisor listening on {srv.url} (Ctrl-C to stop)")
    srv.serve_forever()
    print("[serve] drained and stopped")
    return 0
