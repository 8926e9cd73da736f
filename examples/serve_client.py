"""Compression as a service: a complete `repro serve` client.

Run with::

    python examples/serve_client.py

The script starts a serve daemon in-process (so the example is
self-contained — against a real deployment, point ``ADDRESS`` at it
and drop the daemon setup), then walks the whole protocol:

1. register a block table once (``POST /tables``) and keep its
   digest — the key to all warm state;
2. fire concurrent ``/fitness`` requests referencing the digest and
   let the daemon coalesce them into shared ``evaluate_batch``
   passes;
3. run a seeded ``/compress`` twice and check the two responses are
   byte-identical (the serve determinism contract);
4. read ``/stats`` — batching occupancy and per-table warm engines,
   the operational story that never appears in response bodies.

The CLI equivalents::

    python -m repro serve --port 8477 --jobs 2
    python -m repro request body.json   # offline byte-parity reference
"""

from __future__ import annotations

import json
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.trits import format_trits
from repro.ea.genome import random_genome
from repro.serve import CompressionService, WarmRegistry
from repro.serve.daemon import ServeDaemon
from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set

BLOCK_LENGTH = 12
N_VECTORS = 32
N_REQUESTS = 24
CONCURRENCY = 8


def call(address: tuple[str, int], path: str, body: dict | None = None):
    host, port = address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=None if body is None else json.dumps(body).encode(),
        method="GET" if body is None else "POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def main() -> None:
    daemon = ServeDaemon(
        CompressionService(WarmRegistry()),
        port=0,  # a free port; use --port 8477 for a real deployment
        jobs=2,
        batch_window_ms=5.0,
    )
    daemon.start()
    try:
        address = daemon.address
        print(f"daemon listening on http://{address[0]}:{address[1]}")

        # 1. Register the table once; every later request is a digest.
        spec = SyntheticSpec(
            "serve-example",
            n_patterns=200,
            pattern_bits=64,
            care_density=0.4,
            seed=5,
        )
        patterns = [
            format_trits(row) for row in synthetic_test_set(spec).patterns
        ]
        table = call(
            address,
            "/tables",
            {"patterns": patterns, "block_length": BLOCK_LENGTH},
        )
        digest = table["digest"]
        print(
            f"registered table {digest[:16]}… "
            f"({table['n_blocks']} blocks, {table['n_distinct']} distinct)"
        )

        # 2. Concurrent fitness pricing — the daemon coalesces these.
        rng = np.random.default_rng(5)

        def make_genome() -> str:
            genome = random_genome(N_VECTORS * BLOCK_LENGTH, rng)
            genome[-BLOCK_LENGTH:] = 2  # an all-U MV: covering never fails
            return format_trits(genome)

        bodies = [
            {
                "table": digest,
                "n_vectors": N_VECTORS,
                "genomes": [make_genome() for _ in range(4)],
            }
            for _ in range(N_REQUESTS)
        ]
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=CONCURRENCY) as pool:
            responses = list(
                pool.map(lambda b: call(address, "/fitness", b), bodies)
            )
        elapsed = time.perf_counter() - start
        best = max(max(r["rates"]) for r in responses)
        print(
            f"priced {N_REQUESTS} fitness requests at concurrency "
            f"{CONCURRENCY} in {elapsed:.3f}s "
            f"({N_REQUESTS / elapsed:.0f} req/s); best rate {best:.2f}%"
        )

        # 3. Seeded compression — byte-reproducible across requests.
        compress = {
            "table": digest,
            "seed": 42,
            "config": {
                "n_vectors": N_VECTORS,
                "runs": 2,
                "ea": {"population_size": 16, "max_generations": 10},
            },
        }
        first = call(address, "/compress", compress)
        second = call(address, "/compress", compress)
        assert first == second, "seeded responses must be identical"
        print(
            f"compress seed=42: best rate {first['best_rate']:.2f}% "
            f"(run {first['best_run']}, "
            f"{first['total_evaluations']} evaluations; "
            "repeat request byte-identical)"
        )

        # 4. Operational counters — never part of response bodies.
        stats = call(address, "/stats")
        batch = stats["batch"]
        table = stats["tables"][digest]
        print(
            f"batching: {batch['flushes']} flushes, "
            f"mean occupancy {batch['mean_occupancy']:.2f}, "
            f"max {batch['max_occupancy']}"
        )
        print(
            f"warm table: {table['engines']} engine(s), "
            f"{table['fitness_requests']} fitness / "
            f"{table['compress_requests']} compress requests"
        )
    finally:
        daemon.shutdown(drain=True)
        print("daemon drained and stopped")


if __name__ == "__main__":
    main()
