"""Serve-daemon throughput: cold per-request vs warm + batched.

What the serve tentpole claims to buy and this bench prices:

* **cold per-request** — the offline baseline: a one-shot request
  must ship the table inline, so every request pays trit parsing of
  all 500 patterns, block-table packing, kernel preparation and
  engine construction before a single genome is priced (what one
  ``repro request`` invocation does, minus interpreter startup,
  which would only make cold look worse);
* **warm serial** — one long-lived :class:`CompressionService` used
  as the protocol intends: the table registered once, every request
  referencing it by digest, the prepared engine and shared MV cache
  resident — but requests priced one at a time, no HTTP;
* **daemon** — the full ``repro serve`` stack over real HTTP at
  concurrency ∈ {1, 8, 64}: warm state *plus* the coalescer folding
  concurrent same-table requests into single ``evaluate_batch``
  passes, minus real socket and connection-thread overhead.  Each
  client thread sends all of its requests over one keep-alive
  connection, as a long-lived client does, so a stall that only
  shows on a reused connection shows here.

Before any timing, every daemon response is checked byte-identical
to the offline service's canonical rendering — and the inline-table
and digest-reference forms of the same request are checked to render
the same bytes, so the cold and warm contenders answer the *same*
question.

All numbers come from one process on however many cores the
container has (``cpu_count`` is recorded as provenance); on a single
core the daemon's win is warm state and fewer kernel passes, not
parallelism.
"""

from __future__ import annotations

import http.client
import json
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import numpy as np

from repro.core.trits import format_trits
from repro.ea.genome import random_genome
from repro.serve import CompressionService, WarmRegistry, canonical_json
from repro.serve.daemon import ServeDaemon
from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set

# The served workload: the paper's default L=64 EA shape on a large
# synthetic table.  Warm state pays off when per-request *setup* —
# parsing 500 trit patterns, packing the block table, preparing the
# kernel layout — dominates the evaluation itself; that is exactly
# the regime a long-lived test-compression service exists for, and
# exactly what every cold one-shot request re-pays.
SPEC = SyntheticSpec(
    "bench-serve", n_patterns=500, pattern_bits=128, care_density=0.35, seed=21
)
BLOCK_LENGTH = 12
N_VECTORS = 64
GENOMES_PER_REQUEST = 4

CONCURRENCIES = (1, 8, 64)
REQUESTS_PER_LEVEL = 64
COLD_REQUESTS = 8  # cold is slow; extrapolate from fewer requests


def build_workload() -> tuple[dict, list[dict], list[dict]]:
    """The `/tables` body plus inline-table and digest request forms."""
    test_set = synthetic_test_set(SPEC)
    patterns = [format_trits(row) for row in test_set.patterns]
    table = {
        "patterns": patterns,
        "block_length": BLOCK_LENGTH,
        "name": SPEC.name,
    }
    digest = CompressionService(WarmRegistry()).register_table(table)["digest"]
    rng = np.random.default_rng(SPEC.seed)
    genome_sets = [
        [
            format_trits(random_genome(N_VECTORS * BLOCK_LENGTH, rng))
            for _ in range(GENOMES_PER_REQUEST)
        ]
        for _ in range(REQUESTS_PER_LEVEL)
    ]
    inline_bodies = [
        {"table": table, "n_vectors": N_VECTORS, "genomes": genomes}
        for genomes in genome_sets
    ]
    digest_bodies = [
        {"table": digest, "n_vectors": N_VECTORS, "genomes": genomes}
        for genomes in genome_sets
    ]
    return table, inline_bodies, digest_bodies


def fresh_service() -> CompressionService:
    return CompressionService(WarmRegistry())


def connect(address: tuple[str, int]) -> http.client.HTTPConnection:
    """One keep-alive connection to the daemon."""
    host, port = address
    return http.client.HTTPConnection(host, port, timeout=120)


def post(connection: http.client.HTTPConnection, path: str, body: dict) -> bytes:
    """POST ``body`` as JSON on ``connection`` and return the raw reply."""
    connection.request(
        "POST",
        path,
        body=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    raw = response.read()
    if response.status != 200:
        raise RuntimeError(f"{path} answered {response.status}: {raw!r}")
    return raw


def time_cold(inline_bodies: list[dict]) -> float:
    """Seconds per request when every request rebuilds all state."""
    start = time.perf_counter()
    for body in inline_bodies[:COLD_REQUESTS]:
        fresh_service().run_fitness(body)
    return (time.perf_counter() - start) / COLD_REQUESTS


def time_warm_serial(table: dict, digest_bodies: list[dict]) -> float:
    """Seconds per request on one warm service, no batching, no HTTP."""
    service = fresh_service()
    service.register_table(table)
    service.run_fitness(digest_bodies[0])  # engine built outside the clock
    start = time.perf_counter()
    for body in digest_bodies:
        service.run_fitness(body)
    return (time.perf_counter() - start) / len(digest_bodies)


def time_daemon(
    table: dict,
    digest_bodies: list[dict],
    concurrency: int,
    expected: list[bytes],
) -> dict:
    """Req/s over HTTP at one concurrency level, parity-checked."""
    daemon = ServeDaemon(
        fresh_service(),
        port=0,
        batch_window_ms=5.0,
        max_batch=max(concurrency, 1),
        max_queue=4 * REQUESTS_PER_LEVEL,
    )
    daemon.start()
    try:
        with closing(connect(daemon.address)) as setup:
            post(setup, "/tables", table)
            # One warm-up request builds the engine (cold-start cost is
            # the cold contender's story); its parity is still checked.
            warmup = post(setup, "/fitness", digest_bodies[0])
        assert warmup == expected[0], "served bytes diverged from offline"

        mismatches = []

        def client(indices: range) -> None:
            """One client thread: its requests, in order, on one connection."""
            with closing(connect(daemon.address)) as connection:
                for index in indices:
                    raw = post(connection, "/fitness", digest_bodies[index])
                    if raw != expected[index]:
                        mismatches.append(index)

        shares = [
            range(first, len(digest_bodies), concurrency)
            for first in range(concurrency)
        ]
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            list(pool.map(client, shares))
        elapsed = time.perf_counter() - start
        assert not mismatches, f"parity broke for requests {mismatches}"
        stats = daemon.stats()
    finally:
        daemon.shutdown(drain=True)
    batch = stats["batch"]
    return {
        "concurrency": concurrency,
        "requests": len(digest_bodies),
        "requests_per_second": round(len(digest_bodies) / elapsed, 1),
        "mean_batch_occupancy": round(batch["mean_occupancy"], 2),
        "max_batch_occupancy": batch["max_occupancy"],
        "flushes": batch["flushes"],
    }


def serve_report() -> dict:
    """The full cold/warm/batched comparison (BENCH_serve.json body)."""
    table, inline_bodies, digest_bodies = build_workload()

    # The offline reference bytes every daemon response must equal —
    # and the inline-table form must render the same bytes as the
    # digest form, so cold and warm price the same question.
    reference = fresh_service()
    reference.register_table(table)
    expected = [
        canonical_json(reference.run_fitness(body)) for body in digest_bodies
    ]
    for index in (0, len(digest_bodies) // 2, len(digest_bodies) - 1):
        inline = canonical_json(
            fresh_service().run_fitness(inline_bodies[index])
        )
        assert inline == expected[index], "inline/digest forms diverged"

    cold_s = time_cold(inline_bodies)
    warm_s = time_warm_serial(table, digest_bodies)
    daemon_rows = [
        time_daemon(table, digest_bodies, concurrency, expected)
        for concurrency in CONCURRENCIES
    ]

    cold_rps = 1.0 / cold_s
    warm_rps = 1.0 / warm_s
    best = max(row["requests_per_second"] for row in daemon_rows)
    at_64 = next(
        row for row in daemon_rows if row["concurrency"] == CONCURRENCIES[-1]
    )
    return {
        "workload": {
            "n_patterns": SPEC.n_patterns,
            "pattern_bits": SPEC.pattern_bits,
            "block_length": BLOCK_LENGTH,
            "n_vectors": N_VECTORS,
            "genomes_per_request": GENOMES_PER_REQUEST,
            "requests_per_level": REQUESTS_PER_LEVEL,
        },
        "parity": {
            "checked_requests": len(digest_bodies) * len(CONCURRENCIES)
            + len(CONCURRENCIES)
            + 3,
            "byte_identical": True,  # asserted above, or we never got here
        },
        "cold_per_request": {
            "requests_timed": COLD_REQUESTS,
            "requests_per_second": round(cold_rps, 1),
            "note": (
                "fresh service per request, table shipped inline — "
                "interpreter startup excluded, which flatters cold"
            ),
        },
        "warm_serial": {
            "requests_per_second": round(warm_rps, 1),
            "speedup_vs_cold": round(warm_rps / cold_rps, 2),
        },
        "daemon": daemon_rows,
        "speedup_warm_batched_64_vs_cold": round(
            at_64["requests_per_second"] / cold_rps, 2
        ),
        "speedup_best_daemon_vs_cold": round(best / cold_rps, 2),
    }


if __name__ == "__main__":
    print(json.dumps(serve_report(), indent=2))
