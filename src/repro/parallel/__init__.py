"""Parallel execution subsystem: pluggable backends for fan-out work.

The paper's experimental protocol is embarrassingly parallel above the
EA engine: independent seeded runs are averaged per table row, the
'EA-Best' column sweeps a K/L grid, and every table is a set of
independent rows.  This package turns each of those loops into a list
of *work units* submitted through an :class:`ExecutionBackend`:

* :class:`SerialBackend` — plain in-process loop (the default; zero
  overhead, exact historical behavior);
* :class:`ProcessBackend` — a process pool for full-run fan-out.
  Work units must be picklable module-level callables; every unit
  carries its own :class:`numpy.random.SeedSequence`-derived stream,
  so results are independent of worker scheduling.

Determinism is the backbone of the design: :func:`spawn_seeds` derives
independent child streams from one master seed, work units are built
*before* submission in a fixed order, and :meth:`ExecutionBackend.map`
returns results in submission order no matter which worker finished
first.  A given ``(seed, workload)`` therefore produces bit-identical
results on every backend and at every job count.

Progress reporting under concurrency goes through
:class:`OrderedProgress`, which buffers out-of-order completions and
releases messages to a single sink in submission order — no
interleaved or garbled lines.

Fault tolerance layers on top without touching determinism: a
:class:`RetryPolicy` re-attempts transient failures with
deterministically-jittered backoff, per-task timeouts abandon hung
slots, a broken process pool is rebuilt once and then gives way to
serial execution (see :mod:`repro.parallel.retry`), and the
:mod:`repro.parallel.chaos` harness injects reproducible faults so
every one of those paths is tested rather than hoped-for.
"""

from .backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    in_worker,
    resolve_backend,
)
from .chaos import Fault, FaultPlan, InjectedFaultError, chaos_wrap
from .grouped import grouped_map
from .progress import OrderedProgress
from .retry import (
    DEFAULT_RETRYABLE,
    NO_RETRY,
    FaultToleranceStats,
    RetryPolicy,
    TaskTimeoutError,
    TransientTaskError,
    WorkerCrashError,
)
from .seeding import spawn_seeds

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "resolve_backend",
    "in_worker",
    "grouped_map",
    "OrderedProgress",
    "spawn_seeds",
    "RetryPolicy",
    "NO_RETRY",
    "DEFAULT_RETRYABLE",
    "FaultToleranceStats",
    "TaskTimeoutError",
    "WorkerCrashError",
    "TransientTaskError",
    "Fault",
    "FaultPlan",
    "InjectedFaultError",
    "chaos_wrap",
]
