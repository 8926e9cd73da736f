"""Tests for retry policies, backoff math and fault accounting."""

import numpy as np
import pytest

from repro.parallel import (
    DEFAULT_RETRYABLE,
    NO_RETRY,
    FaultToleranceStats,
    ProcessBackend,
    RetryPolicy,
    SerialBackend,
    TaskTimeoutError,
    TransientTaskError,
    WorkerCrashError,
)
from repro.parallel.retry import jitter_entropy


class TestPolicyValidation:
    def test_defaults_are_sane(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.retryable == DEFAULT_RETRYABLE

    def test_no_retry_is_single_attempt(self):
        assert NO_RETRY.max_attempts == 1

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)

    def test_rejects_shrinking_backoff(self):
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    def test_rejects_jitter_outside_unit_interval(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_with_updates_returns_modified_copy(self):
        base = RetryPolicy()
        tweaked = base.with_updates(max_attempts=7)
        assert tweaked.max_attempts == 7
        assert base.max_attempts == 3


class TestClassification:
    @pytest.mark.parametrize(
        "error",
        [
            TaskTimeoutError("t"),
            WorkerCrashError("c"),
            TransientTaskError("x"),
            TimeoutError(),
            OSError("flaky fs"),
            ConnectionResetError(),  # OSError subclass
        ],
    )
    def test_default_retryable_failures(self, error):
        assert RetryPolicy().is_retryable(error)

    @pytest.mark.parametrize(
        "error", [ValueError("bug"), TypeError("bug"), RuntimeError("bug")]
    )
    def test_deterministic_bugs_are_terminal(self, error):
        assert not RetryPolicy().is_retryable(error)

    @pytest.mark.parametrize("error", [KeyboardInterrupt(), SystemExit(1)])
    def test_interrupts_never_retryable(self, error):
        # Even a policy that claims BaseException is retryable must not
        # swallow an interrupt.
        policy = RetryPolicy(retryable=(BaseException,))
        assert not policy.is_retryable(error)

    def test_custom_classification(self):
        policy = RetryPolicy(retryable=(ValueError,))
        assert policy.is_retryable(ValueError())
        assert not policy.is_retryable(TaskTimeoutError("t"))


class TestBackoff:
    def test_first_attempt_has_no_delay(self):
        assert RetryPolicy().delay_before(1) == 0.0

    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(
            base_delay=0.1, backoff_factor=2.0, max_delay=10.0, jitter=0.0
        )
        assert policy.delay_before(2) == pytest.approx(0.1)
        assert policy.delay_before(3) == pytest.approx(0.2)
        assert policy.delay_before(4) == pytest.approx(0.4)

    def test_delay_caps_at_max_delay(self):
        policy = RetryPolicy(
            base_delay=1.0, backoff_factor=10.0, max_delay=3.0, jitter=0.0
        )
        assert policy.delay_before(5) == 3.0

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.5)
        for attempt in range(2, 10):
            delay = policy.delay_before(attempt, (123, 4))
            ceiling = min(
                policy.base_delay * policy.backoff_factor ** (attempt - 2),
                policy.max_delay,
            )
            assert ceiling * 0.5 <= delay <= ceiling

    def test_jitter_is_deterministic(self):
        policy = RetryPolicy()
        a = policy.delay_before(3, (42, 7))
        b = policy.delay_before(3, (42, 7))
        assert a == b

    def test_jitter_varies_with_entropy_and_attempt(self):
        policy = RetryPolicy(base_delay=1.0, backoff_factor=1.0)
        draws = {
            policy.delay_before(attempt, entropy)
            for attempt in (2, 3, 4)
            for entropy in ((1,), (2,), (3,))
        }
        assert len(draws) > 1


class TestJitterEntropy:
    def test_falls_back_to_index(self):
        assert jitter_entropy("anything", 5) == (5,)

    def test_uses_seed_sequence_identity(self):
        class Task:
            seed_sequence = np.random.SeedSequence(99, spawn_key=(2, 1))

        assert jitter_entropy(Task(), 0) == (99, 2, 1)

    def test_seeded_tasks_ignore_submission_index(self):
        class Task:
            seed_sequence = np.random.SeedSequence(7)

        assert jitter_entropy(Task(), 3) == jitter_entropy(Task(), 9)


class TestFaultToleranceStats:
    def test_starts_quiet(self):
        stats = FaultToleranceStats()
        assert not stats.eventful
        assert stats.as_dict() == {
            "attempts": 0,
            "retries": 0,
            "timeouts": 0,
            "crashes": 0,
            "pool_rebuilds": 0,
            "downgrades": 0,
            "resumed": 0,
        }

    def test_plain_attempts_are_not_eventful(self):
        stats = FaultToleranceStats(attempts=12)
        assert not stats.eventful

    def test_any_fault_is_eventful(self):
        assert FaultToleranceStats(retries=1).eventful
        assert FaultToleranceStats(resumed=1).eventful

    def test_merge_accumulates(self):
        total = FaultToleranceStats(attempts=2, retries=1)
        total.merge(FaultToleranceStats(attempts=3, crashes=1))
        assert total.attempts == 5
        assert total.retries == 1
        assert total.crashes == 1

    def test_summary_names_only_nonzero_faults(self):
        summary = FaultToleranceStats(attempts=4, timeouts=2).summary()
        assert "attempts=4" in summary
        assert "timeouts=2" in summary
        assert "crashes" not in summary


# Module-level so ProcessBackend can pickle it: fails on the first
# attempt(s) using a state file as the cross-process attempt counter.
def _flaky(args):
    value, state_path, failures = args
    import os

    for attempt in range(10_000):
        marker = f"{state_path}.{value}.{attempt}"
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            continue
        if attempt < failures:
            raise TransientTaskError(f"flaky value {value} attempt {attempt}")
        return value * 10


BACKENDS = {
    "serial": lambda: SerialBackend(),
    "process": lambda: ProcessBackend(3),
}


@pytest.mark.chaos
@pytest.mark.parametrize("name", list(BACKENDS))
class TestRetryThroughBackends:
    def test_transient_failures_absorbed_in_order(self, name, tmp_path):
        backend = BACKENDS[name]()
        policy = RetryPolicy(max_attempts=3, base_delay=0.001)
        stats = FaultToleranceStats()
        items = [(v, str(tmp_path / "state"), 1 if v == 2 else 0) for v in range(5)]
        results = backend.map(_flaky, items, retry=policy, stats=stats)
        assert results == [0, 10, 20, 30, 40]
        assert stats.attempts == 6
        assert stats.retries == 1

    def test_exhausted_retries_reraise_original(self, name, tmp_path):
        backend = BACKENDS[name]()
        policy = RetryPolicy(max_attempts=2, base_delay=0.001)
        items = [(v, str(tmp_path / "state"), 5) for v in range(2)]
        with pytest.raises(TransientTaskError):
            backend.map(_flaky, items, retry=policy)

    def test_non_retryable_not_retried(self, name, tmp_path):
        backend = BACKENDS[name]()
        policy = RetryPolicy(
            max_attempts=3, base_delay=0.001, retryable=(TaskTimeoutError,)
        )
        items = [(0, str(tmp_path / "state"), 2)]
        with pytest.raises(TransientTaskError):
            backend.map(_flaky, items, retry=policy)
        # Only the single first attempt left a marker.
        assert (tmp_path / "state.0.0").exists()
        assert not (tmp_path / "state.0.1").exists()
