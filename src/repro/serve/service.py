"""Request execution shared by the daemon and the offline runner.

Byte parity between a served response and the offline CLI is the
serve contract, and this module is how it is enforced *structurally*
rather than by testing alone: both the HTTP daemon and ``repro
request`` parse, execute and render every request through the same
:class:`CompressionService` methods, so the two paths cannot drift —
they are one path.  The daemon adds concurrency around it (the
coalescer batches fitness requests, a worker pool runs compress
requests), but both of those layers are semantically inert:
``evaluate_batch`` is elementwise-identical to per-row evaluation,
and every compress request derives its run seeds from its **own**
``SeedSequence(seed)`` via the optimizer's spawn discipline, so no
interleaving of requests can leak into any response.

Response payloads contain only *seed-pure* fields — rates, MV sets,
evaluation and generation counts — never counters or timings, which
depend on what other requests did and therefore belong in ``/stats``,
not in parity-compared bodies.
"""

from __future__ import annotations

import numpy as np

from ..core.blocks import BlockSet
from ..core.blocks_io import load_block_table
from ..core.config import CompressionConfig, EAParameters
from ..core.optimizer import (
    EAMVOptimizer,
    OptimizationResult,
    execute_run_task,
)
from ..parallel import RetryPolicy, SerialBackend
from ..testdata.test_set import TestSet
from .protocol import (
    ProtocolError,
    decode_genomes,
    encode_mv_set,
    parse_strategy,
    reject_unknown_fields,
    require,
)
from .state import FitnessKey, TableEntry, WarmRegistry

__all__ = ["CompressionService"]

# The fields each request object may carry; anything else is a 400.
_FITNESS_FIELDS = frozenset(("table", "n_vectors", "genomes", "strategy"))
_COMPRESS_FIELDS = frozenset(("table", "seed", "config"))
_CONFIG_FIELDS = frozenset(
    ("n_vectors", "runs", "strategy", "fill_default", "ea")
)
_EA_FIELDS = frozenset(
    (
        "population_size",
        "children_per_generation",
        "crossover_probability",
        "mutation_probability",
        "inversion_probability",
        "stagnation_limit",
        "max_evaluations",
        "max_generations",
        "include_all_u",
        "seed_nine_c",
        "parent_selection",
        "tournament_size",
        "adaptive_operators",
    )
)


class CompressionService:
    """Parse → execute → payload, identically online and offline."""

    def __init__(
        self,
        registry: WarmRegistry,
        retry: RetryPolicy | None = None,
    ) -> None:
        self._registry = registry
        self._retry = retry

    @property
    def registry(self) -> WarmRegistry:
        """The warm-state registry behind this service."""
        return self._registry

    # -- tables --------------------------------------------------------

    def register_table(self, body: dict) -> dict:
        """`/tables`: build + register a block table; its description."""
        entry = self._build_entry(body)
        return entry.describe()

    def _build_entry(self, body: dict) -> TableEntry:
        if not isinstance(body, dict):
            raise ProtocolError(400, "table must be a JSON object")
        name = body.get("name", "")
        if not isinstance(name, str):
            raise ProtocolError(400, "field 'name' must be a string")
        if "path" in body:
            path = require(body, "path", str)
            try:
                blocks = load_block_table(path)
            except (OSError, ValueError, KeyError) as error:
                raise ProtocolError(
                    400, f"cannot load block table from {path!r}: {error}"
                ) from None
            return self._registry.register(blocks, name or path)
        patterns = require(body, "patterns", list)
        block_length = require(body, "block_length", int)
        if block_length < 1:
            raise ProtocolError(400, "block_length must be >= 1")
        if not all(isinstance(row, str) for row in patterns):
            raise ProtocolError(400, "patterns must be trit strings")
        try:
            test_set = TestSet.from_strings(name or "served", patterns)
            blocks = test_set.blocks(block_length)
        except ValueError as error:
            raise ProtocolError(400, str(error)) from None
        return self._registry.register(blocks, name)

    def _resolve_entry(self, value) -> TableEntry:
        """A request's ``table`` field → its warm entry.

        A string is a digest reference (404 when unknown); an object
        is an inline table, auto-registered — which is what lets one
        request body serve both the daemon and the offline runner.
        """
        if isinstance(value, str):
            entry = self._registry.get(value)
            if entry is None:
                raise ProtocolError(
                    404,
                    f"no table registered under digest {value!r}; "
                    "POST it to /tables first or inline it",
                )
            return entry
        if isinstance(value, dict):
            return self._build_entry(value)
        raise ProtocolError(
            400, "field 'table' must be a digest string or a table object"
        )

    # -- fitness -------------------------------------------------------

    def parse_fitness(self, body: dict) -> tuple[FitnessKey, np.ndarray]:
        """Validate a `/fitness` body into its coalescing key + matrix."""
        reject_unknown_fields(body, _FITNESS_FIELDS, "/fitness body")
        entry = self._resolve_entry(require(body, "table", (str, dict)))
        n_vectors = require(body, "n_vectors", int)
        if n_vectors < 1:
            raise ProtocolError(400, "n_vectors must be >= 1")
        block_length = entry.blocks.block_length
        strategy = parse_strategy(body.get("strategy", "huffman"))
        genomes = decode_genomes(
            require(body, "genomes", list), n_vectors * block_length
        )
        entry.fitness_requests += 1
        key = FitnessKey(
            digest=entry.digest,
            n_vectors=n_vectors,
            block_length=block_length,
            strategy=strategy,
        )
        return key, genomes

    def evaluate(self, key: FitnessKey, genomes: np.ndarray) -> np.ndarray:
        """Price a (possibly coalesced) genome matrix on the warm engine.

        The coalescer's pricing hook; also the offline runner's direct
        path.  Single-caller per engine by construction (one
        dispatcher thread, or one offline thread).
        """
        try:
            engine = self._registry.engine_for(key)
        except (ValueError, KeyError) as error:
            raise ProtocolError(400, str(error)) from None
        return engine.evaluate_batch(genomes)

    def fitness_payload(
        self, key: FitnessKey, rates: np.ndarray
    ) -> dict:
        """The `/fitness` response payload (seed-pure fields only)."""
        return {
            "table": key.digest,
            "n_vectors": key.n_vectors,
            "block_length": key.block_length,
            "strategy": key.strategy.value,
            "n_genomes": int(rates.size),
            "rates": [float(rate) for rate in rates],
        }

    def run_fitness(self, body: dict) -> dict:
        """One `/fitness` request end to end — the offline reference.

        The daemon result is byte-identical by construction: it runs
        the same three calls, with the coalescer between
        :meth:`parse_fitness` and :meth:`evaluate` — inert because
        ``evaluate_batch`` prices concatenated rows elementwise.
        """
        key, genomes = self.parse_fitness(body)
        return self.fitness_payload(key, self.evaluate(key, genomes))

    # -- compress ------------------------------------------------------

    def run_compress(self, body: dict) -> dict:
        """One `/compress` request end to end (daemon and offline).

        Seeds follow the optimizer's spawn discipline: the request's
        ``seed`` spawns one ``SeedSequence`` child per run, so the
        response is a pure function of (table, config, seed) — warm
        engines and request interleaving cannot reach it.
        """
        reject_unknown_fields(body, _COMPRESS_FIELDS, "/compress body")
        entry = self._resolve_entry(require(body, "table", (str, dict)))
        seed = require(body, "seed", int)
        config = self._parse_config(body, entry.blocks)
        entry.compress_requests += 1
        optimizer = EAMVOptimizer(config, seed=seed)
        tasks = optimizer.build_run_tasks(entry.blocks)
        # SerialBackend inside the daemon's worker thread: the PR-6
        # retry policy re-attempts crashed runs (self-seeded →
        # identical retried results).
        outcomes = SerialBackend().map(
            execute_run_task, tasks, retry=self._retry
        )
        result = OptimizationResult(config=config, runs=tuple(outcomes))
        return self._compress_payload(entry, seed, config, result)

    def _parse_config(self, body: dict, blocks: BlockSet) -> CompressionConfig:
        spec = body.get("config", {})
        reject_unknown_fields(spec, _CONFIG_FIELDS, "config")
        ea_spec = spec.get("ea", {})
        reject_unknown_fields(ea_spec, _EA_FIELDS, "ea")
        try:
            ea = EAParameters(**ea_spec)
            return CompressionConfig(
                block_length=blocks.block_length,
                n_vectors=int(spec.get("n_vectors", 64)),
                strategy=parse_strategy(spec.get("strategy", "huffman")),
                fill_default=int(spec.get("fill_default", 0)),
                runs=int(spec.get("runs", 5)),
                ea=ea,
            )
        except (TypeError, ValueError) as error:
            raise ProtocolError(400, str(error)) from None

    def _compress_payload(
        self,
        entry: TableEntry,
        seed: int,
        config: CompressionConfig,
        result: OptimizationResult,
    ) -> dict:
        best = result.best_run
        return {
            "table": entry.digest,
            "seed": seed,
            "config": {
                "block_length": config.block_length,
                "n_vectors": config.n_vectors,
                "strategy": config.strategy.value,
                "runs": config.runs,
            },
            "mean_rate": float(result.mean_rate),
            "best_rate": float(best.rate),
            "best_run": best.run_index,
            "best_mv_set": encode_mv_set(result.best_mv_set),
            "total_evaluations": int(result.total_evaluations),
            "runs": [
                {
                    "run": outcome.run_index,
                    "rate": float(outcome.rate),
                    "evaluations": int(outcome.ea_result.evaluations),
                    "generations": int(outcome.ea_result.generations),
                    "terminated_by": outcome.ea_result.terminated_by,
                }
                for outcome in result.runs
            ],
        }
