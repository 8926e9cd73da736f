"""Retry policies and fault accounting for backend fan-out.

Long experiment campaigns (a ``--budget paper`` table is hours of
seeded EA runs) meet transient faults: a worker process OOM-killed, a
wedged BLAS call, a flaky filesystem.  :class:`RetryPolicy` classifies
which failures are worth retrying and how long to wait between
attempts — capped exponential backoff with **deterministic jitter**:
the jitter draw comes from a :class:`numpy.random.SeedSequence` child
keyed by ``(task entropy, attempt)``, so two runs of the same seeded
campaign sleep the same milliseconds and nothing about retrying can
perturb results (work units are pure functions of their fields; a
retried task returns bit-identical output, only later).

:class:`FaultToleranceStats` is the mutable accounting object a caller
may pass into :meth:`ExecutionBackend.map` to learn what the map
absorbed: attempts, retries, timeouts, worker crashes, pool rebuilds
and backend downgrades.  The experiment runner surfaces it per table
row so absorbed faults stay visible instead of silently eating wall
clock.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "TaskTimeoutError",
    "WorkerCrashError",
    "TransientTaskError",
    "DEFAULT_RETRYABLE",
    "RetryPolicy",
    "NO_RETRY",
    "FaultToleranceStats",
    "jitter_entropy",
]


class TaskTimeoutError(RuntimeError):
    """A work unit exceeded the per-task timeout and was abandoned."""


class WorkerCrashError(RuntimeError):
    """A pool worker died (process killed, pool broken) mid-task."""


class TransientTaskError(RuntimeError):
    """Base class applications can raise to mark a failure retryable."""


# Worth retrying by default: our own timeout/crash markers, explicit
# transient errors, and the OS-level failures (OSError covers
# ConnectionError and friends) that flaky infrastructure produces.
# Deterministic application bugs (ValueError, TypeError, ...) are NOT
# retryable — re-running a pure function on the same input can only
# burn wall clock.
DEFAULT_RETRYABLE: tuple[type[BaseException], ...] = (
    TaskTimeoutError,
    WorkerCrashError,
    TransientTaskError,
    TimeoutError,
    OSError,
)


def jitter_entropy(item: object, index: int) -> tuple[int, ...]:
    """Deterministic per-task entropy for backoff jitter.

    Self-seeded work units (e.g. :class:`repro.core.optimizer.RunTask`)
    carry a ``seed_sequence`` whose ``(entropy, spawn_key)`` already
    uniquely names the task; anything else falls back to its
    submission index.  Either way the returned tuple is a pure
    function of the task, never of wall clock or scheduling.
    """
    sequence = getattr(item, "seed_sequence", None)
    if isinstance(sequence, np.random.SeedSequence):
        entropy = sequence.entropy
        if entropy is None:
            parts: tuple[int, ...] = ()
        elif isinstance(entropy, (list, tuple)):
            parts = tuple(int(part) for part in entropy)
        else:
            parts = (int(entropy),)
        return parts + tuple(int(key) for key in sequence.spawn_key)
    return (int(index),)


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts a work unit gets and how long to back off.

    ``max_attempts`` counts every execution including the first —
    ``max_attempts=1`` disables retries (:data:`NO_RETRY`).  Between
    attempts the delay grows as ``base_delay · backoff_factor^(n-1)``
    capped at ``max_delay``, then shrinks by a deterministic jitter
    fraction drawn from ``SeedSequence((task entropy, attempt))`` —
    desynchronizing retries without introducing nondeterminism.

    ``retryable`` classifies exceptions: a failure is retried only if
    it is an instance of one of these types.  ``KeyboardInterrupt``
    and ``SystemExit`` are *never* retried or buffered — they
    propagate immediately no matter what this tuple says.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff_factor: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.5
    retryable: tuple[type[BaseException], ...] = DEFAULT_RETRYABLE

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be within [0, 1], got {self.jitter}")

    def is_retryable(self, error: BaseException) -> bool:
        """Whether ``error`` is worth another attempt (type-based)."""
        if isinstance(error, (KeyboardInterrupt, SystemExit)):
            return False
        return isinstance(error, self.retryable)

    def delay_before(
        self, attempt: int, entropy: Sequence[int] = ()
    ) -> float:
        """Seconds to wait before attempt number ``attempt`` (2-based).

        ``attempt`` is the attempt about to run, so the first retry
        (attempt 2) waits ``base_delay``-ish, the second retry
        ``base_delay · backoff_factor``, and so on, capped at
        ``max_delay``.  The jitter multiplier lies in
        ``[1 - jitter, 1]`` and is a pure function of
        ``(entropy, attempt)``.
        """
        if attempt <= 1:
            return 0.0
        delay = min(
            self.base_delay * self.backoff_factor ** (attempt - 2),
            self.max_delay,
        )
        if delay <= 0.0 or self.jitter == 0.0:
            return delay
        draw = np.random.default_rng(
            np.random.SeedSequence([*map(int, entropy), int(attempt)])
        ).random()
        return delay * (1.0 - self.jitter * float(draw))

    def with_updates(self, **changes) -> "RetryPolicy":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


NO_RETRY = RetryPolicy(max_attempts=1)


@dataclass
class FaultToleranceStats:
    """What one (or many, via :meth:`merge`) ``map`` calls absorbed.

    ``attempts`` counts every task execution started, ``retries`` the
    re-executions among them; ``timeouts``/``crashes`` classify the
    absorbed failures; ``pool_rebuilds`` counts executor recreations
    after pool breakage and ``downgrades`` the times a broken pool
    gave way to serial execution.  ``resumed`` is filled by the
    checkpoint layer: completed work served from a journal instead of
    being re-run.
    """

    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    pool_rebuilds: int = 0
    downgrades: int = 0
    resumed: int = 0

    _FIELDS = (
        "attempts", "retries", "timeouts", "crashes",
        "pool_rebuilds", "downgrades", "resumed",
    )

    def merge(self, other: "FaultToleranceStats") -> "FaultToleranceStats":
        """Accumulate ``other`` into this instance (returns self)."""
        for name in self._FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (what rides on ``RowResult.fault_stats``)."""
        return {name: getattr(self, name) for name in self._FIELDS}

    @property
    def eventful(self) -> bool:
        """True when anything beyond plain first-attempt successes happened."""
        return any(
            getattr(self, name) for name in self._FIELDS if name != "attempts"
        )

    def summary(self) -> str:
        """One human line, e.g. ``retries=2 (timeouts=1 crashes=1)``."""
        parts = [f"attempts={self.attempts}"]
        for name in self._FIELDS[1:]:
            value = getattr(self, name)
            if value:
                parts.append(f"{name}={value}")
        return " ".join(parts)
