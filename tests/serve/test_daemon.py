"""End-to-end tests for the HTTP daemon: endpoints, parity, backpressure."""

import inspect
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import canonical_json
from repro.serve.service import CompressionService
from repro.serve.state import WarmRegistry

TABLE = {
    "patterns": ["01X10X", "X10011", "110100", "0XX01X"],
    "block_length": 3,
    "name": "daemon-test",
}

FITNESS_BODIES = [
    {"table": TABLE, "n_vectors": 3, "genomes": ["01U1U0UUU"]},
    {"table": TABLE, "n_vectors": 3, "genomes": ["UUUUUUUUU", "0101UU101"]},
    {"table": TABLE, "n_vectors": 3, "genomes": ["111000UUU"]},
]

COMPRESS_BODY = {
    "table": TABLE,
    "seed": 23,
    "config": {
        "n_vectors": 3,
        "runs": 2,
        "ea": {
            "population_size": 8,
            "children_per_generation": 8,
            "max_generations": 3,
        },
    },
}


def make_service():
    return CompressionService(WarmRegistry())


def http(address, path, body=None, method=None):
    """One request; returns ``(status, raw_bytes)`` without raising."""
    host, port = address
    url = f"http://{host}:{port}{path}"
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        url,
        data=data,
        method=method or ("POST" if data is not None else "GET"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


@pytest.fixture
def daemon():
    instance = ServeDaemon(
        make_service(),
        port=0,
        batch_window_ms=10_000.0,  # flush only via max_batch in tests
        max_batch=len(FITNESS_BODIES),
    )
    instance.start()
    yield instance
    if not instance.draining:
        instance.shutdown(drain=True)


class TestEndpoints:
    def test_healthz(self, daemon):
        status, body = http(daemon.address, "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_unknown_paths_are_404(self, daemon):
        assert http(daemon.address, "/nope")[0] == 404
        assert http(daemon.address, "/nope", body={})[0] == 404

    def test_tables_roundtrip(self, daemon):
        status, body = http(daemon.address, "/tables", TABLE)
        assert status == 200
        payload = json.loads(body)
        assert payload["block_length"] == 3
        # The response is canonical-JSON rendered.
        assert body == canonical_json(payload)

    def test_fitness_unknown_digest_is_404(self, daemon):
        body = dict(FITNESS_BODIES[0], table="e" * 64)
        status, raw = http(daemon.address, "/fitness", body)
        assert status == 404
        assert "digest" in json.loads(raw)["error"]

    def test_malformed_json_is_400(self, daemon):
        host, port = daemon.address
        request = urllib.request.Request(
            f"http://{host}:{port}/fitness",
            data=b"{not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400

    def test_missing_field_is_400(self, daemon):
        status, raw = http(daemon.address, "/fitness", {"table": TABLE})
        assert status == 400
        assert "n_vectors" in json.loads(raw)["error"]

    def test_empty_body_is_400(self, daemon):
        status, _ = http(daemon.address, "/compress", method="POST")
        assert status == 400


class TestKeepAlive:
    def test_accepted_sockets_set_tcp_nodelay(self):
        """Headers and body leave in two writes; without TCP_NODELAY a
        keep-alive client's delayed ACK stalls every response ~40 ms."""
        instance = ServeDaemon(make_service(), port=0)
        handler = instance._httpd.RequestHandlerClass
        setup = handler.setup
        nodelay = []

        def recording_setup(self):
            setup(self)
            nodelay.append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        handler.setup = recording_setup
        instance.start()
        try:
            status, _ = http(instance.address, "/healthz")
        finally:
            instance.shutdown(drain=True)
        assert status == 200
        assert nodelay and all(nodelay)


class TestParity:
    def test_concurrent_fitness_is_byte_identical_to_offline(self, daemon):
        """The acceptance pin: served bytes == offline bytes, with the
        batch window held open so all requests coalesce into ONE flush."""
        results = [None] * len(FITNESS_BODIES)
        barrier = threading.Barrier(len(FITNESS_BODIES))

        def send(index):
            barrier.wait()
            results[index] = http(
                daemon.address, "/fitness", FITNESS_BODIES[index]
            )

        threads = [
            threading.Thread(target=send, args=(i,))
            for i in range(len(FITNESS_BODIES))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        offline = make_service()  # cold, serial, no daemon
        for (status, raw), body in zip(results, FITNESS_BODIES):
            assert status == 200
            assert raw == canonical_json(offline.run_fitness(body))

        stats = json.loads(http(daemon.address, "/stats")[1])
        assert stats["batch"]["max_occupancy"] == len(FITNESS_BODIES)
        assert stats["batch"]["batched_requests"] == len(FITNESS_BODIES)
        assert stats["requests"]["fitness"] == len(FITNESS_BODIES)

    def test_compress_is_byte_identical_to_offline(self, daemon):
        status, raw = http(daemon.address, "/compress", COMPRESS_BODY)
        assert status == 200
        assert raw == canonical_json(make_service().run_compress(COMPRESS_BODY))

    def test_warm_repeat_is_byte_identical(self, daemon):
        first = http(daemon.address, "/compress", COMPRESS_BODY)
        second = http(daemon.address, "/compress", COMPRESS_BODY)
        assert first == second


class TestStats:
    def test_stats_fields(self, daemon):
        http(daemon.address, "/tables", TABLE)
        status, raw = http(daemon.address, "/stats")
        assert status == 200
        stats = json.loads(raw)
        assert stats["draining"] is False
        assert stats["uptime_s"] >= 0
        for field in ("requests", "batch", "tables", "native", "kernels"):
            assert field in stats
        # /compress runs on one worker: no pool size to set or report.
        assert "jobs" not in stats
        assert "jobs" not in inspect.signature(ServeDaemon).parameters
        assert set(stats["native"]) == {"available", "reason", "warned"}
        assert sorted(stats["kernels"]) == ["bitpack", "native"]
        (digest,) = stats["tables"]
        assert stats["tables"][digest]["engines"] == 0
        assert "mv_cache" not in stats["tables"][digest]


class TestRemovedKernel:
    """The kernel is the fitness layer's own choice: a request naming
    one carries a field the service does not read, which is a 400."""

    def test_kernel_field_is_400_naming_it(self):
        daemon = ServeDaemon(make_service(), port=0, batch_window_ms=1.0)
        daemon.start()
        try:
            config = dict(COMPRESS_BODY["config"], kernel="auto")
            for path, body, where in (
                ("/fitness", dict(FITNESS_BODIES[0], kernel="auto"), "/fitness body"),
                ("/compress", dict(COMPRESS_BODY, kernel="auto"), "/compress body"),
                ("/compress", dict(COMPRESS_BODY, config=config), "config"),
            ):
                status, raw = http(daemon.address, path, body)
                error = json.loads(raw)["error"]
                assert (status, error) == (400, f"unknown {where} fields: kernel")
        finally:
            daemon.shutdown(drain=True)

    def test_stray_fields_are_400(self):
        daemon = ServeDaemon(make_service(), port=0, batch_window_ms=1.0)
        daemon.start()
        try:
            for path, body, error in (
                (
                    "/fitness",
                    dict(FITNESS_BODIES[0], typo_field=1),
                    "unknown /fitness body fields: typo_field",
                ),
                (
                    "/compress",  # n_vectors belongs inside config
                    dict(COMPRESS_BODY, n_vectors=3),
                    "unknown /compress body fields: n_vectors",
                ),
            ):
                status, raw = http(daemon.address, path, body)
                assert (status, json.loads(raw)["error"]) == (400, error)
        finally:
            daemon.shutdown(drain=True)


class TestDegradation:
    def test_timeout_is_504_and_counted(self):
        daemon = ServeDaemon(make_service(), port=0, request_timeout=1e-6)
        daemon.start()
        try:
            status, raw = http(daemon.address, "/compress", COMPRESS_BODY)
            assert status == 504
            assert "abandoned" in json.loads(raw)["error"]
            stats = json.loads(http(daemon.address, "/stats")[1])
            assert stats["requests"]["timeouts"] == 1
        finally:
            daemon.shutdown(drain=True)

    def test_draining_daemon_answers_503(self):
        # Shutdown stops the accept loop, so drain-mode refusal is
        # exercised by flagging a live daemon as draining directly.
        daemon = ServeDaemon(make_service(), port=0)
        daemon.start()
        try:
            daemon._draining = True
            status, raw = http(daemon.address, "/fitness", FITNESS_BODIES[0])
            assert status == 503
            assert json.loads(http(daemon.address, "/stats")[1])["draining"]
        finally:
            daemon.shutdown(drain=True)

    def test_compress_backlog_full_is_429(self):
        daemon = ServeDaemon(make_service(), port=0, max_queue=1)
        daemon.start()
        try:
            daemon._compress_in_flight = 1  # a long run holds the slot
            status, raw = http(daemon.address, "/compress", COMPRESS_BODY)
            assert status == 429
            assert "backlog" in json.loads(raw)["error"]
        finally:
            daemon._compress_in_flight = 0
            daemon.shutdown(drain=True)

    def test_shutdown_is_idempotent(self):
        daemon = ServeDaemon(make_service(), port=0)
        daemon.start()
        daemon.shutdown(drain=True)
        daemon.shutdown(drain=True)
