"""The long-lived HTTP daemon: warm state + coalescing over stdlib http.

:class:`ServeDaemon` wires the pieces together: a
:class:`~http.server.ThreadingHTTPServer` accepts requests on
per-connection threads; ``/fitness`` bodies are admitted to the
:class:`~repro.serve.batching.Coalescer` (one dispatcher thread, one
warm engine per key); ``/compress`` bodies run one at a time on a
persistent worker thread, so one long EA run cannot monopolize the
accept loop and the per-request timeout can abandon it.
All pricing flows through the shared
:class:`~repro.serve.service.CompressionService`, which the offline
``repro request`` command drives directly — the byte-parity contract.

Degradation ladder, in order of preference:

* **429** — admission queue (or compress pool backlog) full; retry
  later, nothing was started;
* **504** — the per-request timeout elapsed; the work is abandoned
  PR-6-style (its slot frees when it finishes, the result discarded);
* **503** — the daemon is draining; in-flight requests finish, new
  ones are turned away.

``shutdown(drain=True)`` — the SIGTERM path — stops admission,
flushes the coalescer, waits out the worker pool, then stops the
accept loop.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, TimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import json

from ..core.kernels import kernel_availability
from ..core.kernels.native import native_status, native_warning_emitted
from .batching import Coalescer, QueueFullError
from .protocol import ProtocolError, canonical_json
from .service import CompressionService

__all__ = ["ServeDaemon"]


class _Handler(BaseHTTPRequestHandler):
    """Route HTTP verbs to the owning daemon; never log to stderr."""

    protocol_version = "HTTP/1.1"
    # A response goes out in two writes (headers, then body).  On a
    # keep-alive connection Nagle's algorithm would hold the body until
    # the client's delayed ACK of the headers, ~40 ms later; TCP_NODELAY
    # on every accepted socket sends it at once.
    disable_nagle_algorithm = True
    daemon: "ServeDaemon"  # set on the subclass the daemon builds

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging would swamp the daemon's stderr

    def _send(self, status: int, payload) -> None:
        body = canonical_json(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ProtocolError(400, "request needs a JSON body")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise ProtocolError(400, f"invalid JSON body: {error}") from None

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        daemon = self.daemon
        if self.path == "/healthz":
            self._send(200, daemon.health())
        elif self.path == "/stats":
            self._send(200, daemon.stats())
        else:
            self._send(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        daemon = self.daemon
        route = {
            "/tables": daemon.handle_tables,
            "/fitness": daemon.handle_fitness,
            "/compress": daemon.handle_compress,
        }.get(self.path)
        if route is None:
            self._send(404, {"error": f"unknown path {self.path!r}"})
            return
        if daemon.draining:
            daemon.count("rejected")
            self._send(503, {"error": "daemon is draining"})
            return
        try:
            status, payload = route(self._read_body())
        except ProtocolError as error:
            daemon.count("errors")
            status, payload = error.status, {"error": error.message}
        except Exception as error:  # a bug, not a bad request
            daemon.count("errors")
            status, payload = 500, {"error": f"internal error: {error}"}
        self._send(status, payload)


class ServeDaemon:
    """Warm-state compression service over stdlib HTTP."""

    def __init__(
        self,
        service: CompressionService,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_window_ms: float = 5.0,
        max_batch: int = 64,
        max_queue: int = 256,
        request_timeout: float | None = None,
    ) -> None:
        self._service = service
        self._max_queue = int(max_queue)
        self._timeout = request_timeout
        self._coalescer = Coalescer(
            service.evaluate,
            window_ms=batch_window_ms,
            max_batch=max_batch,
            max_queue=max_queue,
        )
        # One compress worker: extra threads only contend for the GIL
        # (an EA run is Python-bound), which measured slower, not faster.
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-compress"
        )
        self._compress_in_flight = 0
        self._lock = threading.Lock()
        self._counters = {
            "tables": 0,
            "fitness": 0,
            "compress": 0,
            "rejected": 0,
            "timeouts": 0,
            "errors": 0,
        }
        self._draining = False
        self._started = time.monotonic()
        handler = type("_BoundHandler", (_Handler,), {"daemon": self})
        # The stdlib listen backlog (5) drops connects under bursty
        # concurrency before backpressure can answer 429; size it to
        # the admission bound so refusal is always an HTTP status.
        server = type(
            "_BoundServer",
            (ThreadingHTTPServer,),
            {"request_queue_size": max(128, self._max_queue)},
        )
        self._httpd = server((host, port), handler)
        self._serve_thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — port resolved when 0 was asked."""
        return self._httpd.server_address[:2]

    @property
    def draining(self) -> bool:
        """Whether new requests are being turned away (503)."""
        return self._draining

    def start(self) -> None:
        """Serve in a background thread (tests, benches, the example)."""
        self._coalescer.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve",
            daemon=True,
        )
        self._serve_thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (the CLI)."""
        self._coalescer.start()
        try:
            self._httpd.serve_forever()
        finally:
            self._httpd.server_close()

    def shutdown(self, drain: bool = True) -> None:
        """Stop serving; with ``drain`` (SIGTERM), finish accepted work.

        Order matters: mark draining (new requests → 503), flush the
        coalescer (fitness waiters resolve), wait out the compress
        pool, then stop the accept loop.
        """
        self._draining = True
        self._coalescer.stop(drain=drain)
        self._pool.shutdown(wait=drain, cancel_futures=not drain)
        self._httpd.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join()
            self._httpd.server_close()
            self._serve_thread = None

    def count(self, counter: str) -> None:
        """Bump one request counter (thread-safe)."""
        with self._lock:
            self._counters[counter] += 1

    # -- endpoint handlers (called from connection threads) ------------

    def handle_tables(self, body: dict) -> tuple[int, dict]:
        self.count("tables")
        return 200, self._service.register_table(body)

    def handle_fitness(self, body: dict) -> tuple[int, dict]:
        self.count("fitness")
        key, genomes = self._service.parse_fitness(body)
        try:
            future = self._coalescer.submit(key, genomes)
        except QueueFullError as error:
            self.count("rejected")
            status = 503 if self._draining else 429
            raise ProtocolError(status, str(error)) from None
        rates = self._await(future)
        return 200, self._service.fitness_payload(key, rates)

    def handle_compress(self, body: dict) -> tuple[int, dict]:
        self.count("compress")
        with self._lock:
            if self._compress_in_flight >= self._max_queue:
                self._counters["rejected"] += 1
                raise ProtocolError(
                    429,
                    f"compress backlog full ({self._max_queue} requests)",
                )
            self._compress_in_flight += 1
        future = self._pool.submit(self._run_compress, body)
        return 200, self._await(future)

    def _run_compress(self, body: dict) -> dict:
        try:
            return self._service.run_compress(body)
        finally:
            with self._lock:
                self._compress_in_flight -= 1

    def _await(self, future: Future):
        """Wait out a future under the per-request timeout (504 past it).

        On timeout the work is *abandoned*, PR-6 style: the slot frees
        whenever the worker finishes, and the late result is discarded
        with it.
        """
        try:
            return future.result(timeout=self._timeout)
        except TimeoutError:
            self.count("timeouts")
            raise ProtocolError(
                504,
                f"request exceeded the {self._timeout}s timeout; "
                "the work was abandoned",
            ) from None
        except ProtocolError:
            raise
        except Exception as error:
            raise ProtocolError(500, f"execution failed: {error}") from None

    # -- introspection -------------------------------------------------

    def health(self) -> dict:
        return {"status": "draining" if self._draining else "ok"}

    def stats(self) -> dict:
        """Operational counters — deliberately *not* part of parity.

        Batch occupancy and queue depth depend on what other requests
        did, so they live here and never in a response body.
        """
        available, reason = native_status()
        with self._lock:
            counters = dict(self._counters)
            in_flight = self._compress_in_flight
        return {
            "uptime_s": time.monotonic() - self._started,
            "draining": self._draining,
            "requests": counters,
            "batch": self._coalescer.stats.as_dict(
                self._coalescer.queue_depth
            ),
            "compress_in_flight": in_flight,
            "tables": self._service.registry.stats(),
            "native": {
                "available": available,
                "reason": reason,
                "warned": native_warning_emitted(),
            },
            "kernels": kernel_availability(),
        }
