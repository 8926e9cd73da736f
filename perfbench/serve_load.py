"""Load process of the ``serve-mixed`` workload.

``perfbench/run.py`` starts this script once per run::

    python3 perfbench/serve_load.py --seed N --budget S --trace 0|1

Before anything is timed it builds the seeded bench-large table and
prices every request it will send through an offline
``CompressionService`` (the daemon's own code path, as ``repro
request`` uses it), keeping the expected response bytes:

* the ``/fitness`` stream replays seeded EA runs — each generation's
  post-memo batch, exactly what a remote EA client sends;
* the ``/compress`` stream cycles through a few seeded QUICK-budget
  searches (one run each) against the same table.

It then spawns ``repro serve`` daemons.  Each spawn registers the
table and answers one ``/fitness`` before it counts as ready
(``setup_s``).  The last daemon serves the two streams at once for
``--budget`` seconds: one keep-alive connection per stream, each a
closed loop (an EA cannot breed generation g+1 before generation g is
priced).  Every response must equal its expected bytes; non-200
statuses and connection errors are failed operations too.

With ``--trace 1`` the budget is split between an untraced daemon and
a traced one (``perfbench/serve_daemon.py``), whose spans are paired
with the client's round trips request by request.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import http.client
import json
import re
import signal
import subprocess
import sys
import threading
import time

import common
import tracing

SIZES = {
    # (patterns, pattern bits, K, L, max evaluations, replayed runs,
    #  distinct compress requests)
    "full": (500, 128, 12, 64, 1500, 3, 8),
    "small": (60, 64, 12, 16, 120, 1, 2),
}
STAGNATION_LIMIT = 30
SETUP_SPAWNS = 5
HEADERS = {"Content-Type": "application/json"}
_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")


class PinAllU:
    """The paper's repair: the last matching vector is all-U."""

    def __init__(self, block_length: int) -> None:
        self._block_length = block_length

    def __call__(self, genome):
        from repro.core.trits import DC

        repaired = genome.copy()
        repaired[-self._block_length:] = DC
        return repaired


def build_inputs(seed: int, size: str) -> dict:
    """Every request of the run plus its expected response bytes."""
    import numpy as np

    from repro.core.config import EAParameters
    from repro.core.trits import format_trits
    from repro.ea.engine import EvolutionaryEngine
    from repro.serve import CompressionService, WarmRegistry, canonical_json
    from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set

    n_patterns, pattern_bits, block_length, n_vectors, budget, replays, compresses = (
        SIZES[size]
    )
    spec = SyntheticSpec(
        "bench-large",
        n_patterns=n_patterns,
        pattern_bits=pattern_bits,
        care_density=0.35,
        seed=seed,
    )
    patterns = [format_trits(row) for row in synthetic_test_set(spec).patterns]
    table_body = {
        "name": "bench-large", "patterns": patterns, "block_length": block_length,
    }
    # The daemon's defaults: auto kernel, default shared MV cache, no
    # persistence, no tuning profile.
    service = CompressionService(WarmRegistry())
    table = service.register_table(table_body)
    digest = table["digest"]
    fitness: list[tuple[bytes, bytes]] = []

    class RemoteFitness:
        """A remote EA client's fitness: each batch becomes one request."""

        def evaluate_batch(self, genomes):
            body = {
                "table": digest,
                "n_vectors": n_vectors,
                "genomes": [format_trits(genome) for genome in genomes],
            }
            payload = service.run_fitness(body)
            fitness.append((json.dumps(body).encode(), canonical_json(payload)))
            return np.asarray(payload["rates"], dtype=np.float64)

        def __call__(self, genome):
            return float(self.evaluate_batch(genome[None, :])[0])

    params = EAParameters(stagnation_limit=STAGNATION_LIMIT, max_evaluations=budget)
    counts = []
    for replay in range(replays):
        result = EvolutionaryEngine(
            RemoteFitness(),
            genome_length=n_vectors * block_length,
            params=params,
            seed=common.derive_seed(seed, "replay", replay),
            repair=PinAllU(block_length),
        ).run()
        counts.append(
            [result.evaluations, result.generations, result.cache_hits]
        )
    compress = []
    for index in range(compresses):
        body = {
            "table": digest,
            "seed": common.derive_seed(seed, "compress", index),
            "config": {
                "n_vectors": n_vectors,
                "runs": 1,
                "ea": {
                    "stagnation_limit": STAGNATION_LIMIT,
                    "max_evaluations": budget,
                },
            },
        }
        compress.append(
            (json.dumps(body).encode(), canonical_json(service.run_compress(body)))
        )
    responses = hashlib.sha256()
    for _, expected in [*fitness, *compress]:
        responses.update(expected)
    entry = service.registry.get(digest)
    return {
        "digest": digest,
        "table": (json.dumps(table_body).encode(), canonical_json(table)),
        "fitness": fitness,
        "compress": compress,
        "digests": {
            "replay_counts": common.digest(counts),
            "responses": responses.hexdigest()[:16],
        },
        "kernel": sorted({engine.kernel_name for engine in entry.engines.values()}),
    }


class Client:
    """One keep-alive HTTP/1.1 connection to the daemon."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._connection: http.client.HTTPConnection | None = None

    def call(self, method: str, path: str, body: bytes | None = None):
        """``(status or None, response bytes, round-trip seconds)``."""
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                "127.0.0.1", self._port, timeout=120
            )
        started = time.perf_counter()
        try:
            self._connection.request(method, path, body=body, headers=HEADERS)
            response = self._connection.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as error:
            self.close()
            status, data = None, repr(error).encode()
        return status, data, time.perf_counter() - started

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


class Tally:
    """Operations attempted and failed; thread-safe."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def check(self, status, data: bytes, expected: bytes | None) -> bool:
        """Count one operation; OK only for a 200 carrying ``expected``."""
        ok = status == 200 and (expected is None or data == expected)
        with self._lock:
            self.attempted += 1
            self.failed += not ok
        return ok


class Daemon:
    """One spawned ``repro serve`` process."""

    def __init__(self, traced_as: str | None) -> None:
        if traced_as is None:
            command = [sys.executable, "-m", "repro"]
        else:
            command = [sys.executable, str(common.HERE / "serve_daemon.py"), traced_as]
        command += ["serve", "--host", "127.0.0.1", "--port", "0"]
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            env=common.hermetic_env(),
            cwd=common.ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.stderr: list[str] = []
        self.port = self._await_port()
        self._drainer = threading.Thread(target=self._drain, daemon=True)
        self._drainer.start()

    def _await_port(self) -> int:
        for line in self.process.stderr:
            self.stderr.append(line)
            match = _LISTENING.search(line)
            if match:
                return int(match.group(2))
        self.stop()
        raise RuntimeError("daemon exited before listening: " + "".join(self.stderr))

    def _drain(self) -> None:
        for line in self.process.stderr:
            self.stderr.append(line)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """SIGTERM (the daemon drains), then wait for the exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        if hasattr(self, "_drainer"):
            self._drainer.join(timeout=10)
        return code


class Ready:
    """A spawned daemon that registered the table and answered one ``/fitness``.

    A context manager: leaving the block closes the client and drains
    the daemon, so no exit path (an error, a SIGTERM turned into
    ``SystemExit``) leaves a daemon running.
    """

    def __init__(self, inputs: dict, tally: Tally, traced_as: str | None = None):
        self.daemon = Daemon(traced_as)
        self.client = Client(self.daemon.port)
        self.exit_code: int | None = None
        try:
            body, expected = inputs["table"]
            status, data, self.register_rt = self.client.call("POST", "/tables", body)
            tally.check(status, data, expected)
            body, expected = inputs["fitness"][0]
            status, data, self.first_rt = self.client.call("POST", "/fitness", body)
            tally.check(status, data, expected)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - self.daemon.spawned

    def close(self) -> None:
        self.client.close()
        if self.exit_code is None:
            self.exit_code = self.daemon.stop()

    def __enter__(self) -> "Ready":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_streams(ready: Ready, inputs: dict, tally: Tally, budget: float) -> dict:
    """Both closed-loop streams until ``budget`` seconds have passed."""
    deadline = time.perf_counter() + budget
    fitness_records: list[tuple[float, bool]] = []
    compress_records: list[tuple[float, bool]] = []

    def fitness_stream() -> None:
        requests = inputs["fitness"]
        index = 0
        while time.perf_counter() < deadline:
            body, expected = requests[index % len(requests)]
            status, data, seconds = ready.client.call("POST", "/fitness", body)
            fitness_records.append((seconds, tally.check(status, data, expected)))
            index += 1

    compress_client = Client(ready.daemon.port)

    def compress_stream() -> None:
        requests = inputs["compress"]
        last = 0.0
        while not compress_records or time.perf_counter() + last / 2 < deadline:
            body, expected = requests[len(compress_records) % len(requests)]
            status, data, last = compress_client.call("POST", "/compress", body)
            compress_records.append((last, tally.check(status, data, expected)))

    threads = [
        threading.Thread(target=fitness_stream, name="fitness-stream"),
        threading.Thread(target=compress_stream, name="compress-stream"),
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        status, data, _ = compress_client.call("GET", "/stats")
    finally:
        compress_client.close()
    return {
        "fitness": fitness_records,
        "compress": compress_records,
        "stats": json.loads(data) if status == 200 else {},
        "peak_rss_mb": ready.daemon.peak_rss_mb(),
    }


def run_daemon(inputs: dict, tally: Tally, budget: float, traced_as: str | None = None):
    """One ready daemon serving both streams, then drained."""
    with Ready(inputs, tally, traced_as) as ready:
        served = serve_streams(ready, inputs, tally, budget)
    served.update(
        setup_s=ready.setup_s,
        register_rt=ready.register_rt,
        first_rt=ready.first_rt,
        exit=ready.exit_code,
    )
    return served


def pair_serve_spans(spans: list[tracing.Span], round_trips: list[float]) -> dict:
    """Split each ``/fitness`` round trip into parse/queue/execute/net.

    Only one connection sends ``/fitness`` and it waits for every
    answer, so the daemon's ``handle_fitness`` spans, in start order,
    are the client's requests in send order.  A request's queue time
    runs from its ``Coalescer.submit`` to the start of the
    ``evaluate`` that priced it (the next one to start).
    """
    children: dict[int, list[tracing.Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    handled = sorted(
        (span for span in spans if span.name == "serve.fitness"),
        key=lambda span: span.start,
    )
    executes = sorted(
        (span for span in spans if span.name == "serve.execute"),
        key=lambda span: span.start,
    )
    starts = [span.start for span in executes]
    parts: dict[str, list[float]] = {
        "parse": [], "queue": [], "execute": [], "net": [], "round_trip": [],
    }
    # The first request is the setup call (engine build); skip it.
    for span, round_trip in list(zip(handled, round_trips))[1:]:
        own = {child.name: child for child in children.get(span.id, [])}
        submit = own.get("serve.submit")
        after = bisect.bisect_left(starts, submit.start) if submit else len(starts)
        if after == len(starts):
            continue  # refused before pricing; counted as a failed operation
        execute = executes[after]
        parts["parse"].append(own["serve.parse"].duration)
        parts["queue"].append(execute.start - submit.start)
        parts["execute"].append(execute.duration)
        parts["net"].append(round_trip - span.duration)
        parts["round_trip"].append(round_trip)
    return {
        name: common.median(values) * 1000.0 if values else 0.0
        for name, values in parts.items()
    }


def traced_metrics(spans, payload: dict, served: dict, digest: str) -> dict:
    """Per-layer metrics of the traced daemon run."""
    layers = tracing.layer_metrics(spans, "serve.compress_exec")
    round_trips = [served["first_rt"]] + [rt for rt, _ in served["fitness"]]
    pairs = pair_serve_spans(spans, round_trips)
    compress_exec = [
        span.duration for span in spans if span.name == "serve.compress_exec"
    ]
    stats = served["stats"]
    requests = stats.get("requests", {})
    table = stats.get("tables", {}).get(digest, {})

    def first(name: str) -> float:
        matching = [span for span in spans if span.name == name]
        return min(matching, key=lambda span: span.start).duration if matching else 0.0

    layers.update(
        {
            "serve.parse_ms_p50": pairs["parse"],
            "serve.queue_ms_p50": pairs["queue"],
            "serve.execute_ms_p50": pairs["execute"],
            "serve.net_ms_p50": pairs["net"],
            "serve.round_trip_ms_p50": pairs["round_trip"],
            "serve.occupancy_mean": stats.get("batch", {}).get("mean_occupancy", 0.0),
            "serve.cache_hit_ratio": table.get("mv_cache", {}).get("hit_rate", 0.0),
            "serve.compress_exec_s_p50": (
                common.median(compress_exec) if compress_exec else 0.0
            ),
            "serve.rejected": requests.get("rejected", 0),
            "serve.timeouts": requests.get("timeouts", 0),
            "serve.errors": requests.get("errors", 0),
            "setup.import_s": payload.get("import_s", 0.0),
            "setup.data_s": first("serve.tables"),
            "setup.first_call_s": first("serve.fitness"),
            "setup.register_s": served["register_rt"],
        }
    )
    return layers


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)
    # A SIGTERM (the parent's timeout) unwinds the `with` blocks, which
    # drain every daemon this process started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    inputs = build_inputs(args.seed, args.size)
    tally = Tally()
    result = {"digests": inputs["digests"], "kernel": inputs["kernel"]}
    if not args.trace:
        setup = []
        for _ in range(SETUP_SPAWNS - 1):
            with Ready(inputs, tally) as ready:
                setup.append(ready.setup_s)
        served = run_daemon(inputs, tally, args.budget)
        setup.append(served["setup_s"])
        result.update(
            setup_s=setup,
            fitness_ms=[rt * 1000.0 for rt, _ in served["fitness"]],
            compress_s=[rt for rt, _ in served["compress"]],
            peak_rss_mb=served["peak_rss_mb"],
            exit_codes=[served["exit"]],
        )
    else:
        plain = run_daemon(inputs, tally, args.budget / 2)
        name = f"serve-mixed-s{args.seed}"
        traced = run_daemon(inputs, tally, args.budget / 2, traced_as=name)
        spans, payload = tracing.read_spans(tracing.spans_path(name))
        result.update(
            layers=traced_metrics(spans, payload, traced, inputs["digest"]),
            compress_s=[rt for rt, _ in plain["compress"]],
            traced_compress_s=[rt for rt, _ in traced["compress"]],
            kernels=payload["kernels"],
            exit_codes=[plain["exit"], traced["exit"]],
        )
    result.update(attempted=tally.attempted, failed=tally.failed)
    common.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
