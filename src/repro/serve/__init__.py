"""Compression-as-a-service: the `repro serve` daemon.

A long-lived, stdlib-only HTTP service that keeps prepared block
tables and warm fitness engines resident across requests
(:mod:`.state`), coalesces concurrent same-table fitness requests
into single ``evaluate_batch`` passes (:mod:`.batching`), and
degrades gracefully under load — 429 on a full queue, 504 past the
per-request timeout, 503 while draining (:mod:`.daemon`).  The
determinism contract: a served response is byte-identical to the
same request executed offline by ``repro request``, because both
drive the one :class:`~repro.serve.service.CompressionService`.  See
``docs/serve.md`` for the wire protocol.
"""

from .batching import BatchStats, Coalescer, QueueFullError
from .daemon import ServeDaemon
from .protocol import ProtocolError, canonical_json
from .service import CompressionService
from .state import FitnessKey, TableEntry, WarmRegistry

__all__ = [
    "BatchStats",
    "Coalescer",
    "CompressionService",
    "FitnessKey",
    "ProtocolError",
    "QueueFullError",
    "ServeDaemon",
    "TableEntry",
    "WarmRegistry",
    "canonical_json",
]
