"""Tests for the deterministic fault-injection harness and the
fault-tolerance paths it exercises (retry, timeout, crash, downgrade,
prompt interrupts, failure ordering)."""

import logging
import pickle
import time

import pytest

from repro.parallel import (
    Fault,
    FaultPlan,
    FaultToleranceStats,
    InjectedFaultError,
    ProcessBackend,
    RetryPolicy,
    SerialBackend,
    TaskTimeoutError,
    TransientTaskError,
    WorkerCrashError,
    chaos_wrap,
)
from repro.parallel.chaos import DIE, HANG, RAISE, default_task_key

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)


# Module-level so ProcessBackend can pickle them.
def _times_ten(x):
    return x * 10


def _fail_with_index(x):
    raise RuntimeError(f"unit {x} failed")


def _interrupt_on_zero(x):
    if x == 0:
        raise KeyboardInterrupt
    time.sleep(2.0)
    return x


def _nap(x):
    time.sleep(0.3)
    return x


class TestFault:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Fault(kind="explode")

    def test_rejects_negative_seconds(self):
        with pytest.raises(ValueError):
            Fault(kind=HANG, seconds=-1.0)


class TestDefaultTaskKey:
    def test_run_task_like_items_key_by_identity(self):
        class Config:
            block_length = 8
            n_vectors = 16

        class Task:
            run_index = 1
            config = Config()

        assert default_task_key(Task()) == "K8L16r1"

    def test_plain_items_key_by_str(self):
        assert default_task_key(3) == "3"


class TestFaultPlan:
    def test_attempt_counter_is_monotonic(self, tmp_path):
        plan = FaultPlan(state_dir=tmp_path, faults={})
        assert [plan.begin_attempt("a") for _ in range(3)] == [0, 1, 2]
        assert plan.attempts("a") == 3
        assert plan.attempts("b") == 0

    def test_attempt_counter_shared_across_plan_objects(self, tmp_path):
        # Two plan objects over the same directory model two processes.
        first = FaultPlan(state_dir=tmp_path, faults={})
        second = FaultPlan(state_dir=tmp_path, faults={})
        assert first.begin_attempt("k") == 0
        assert second.begin_attempt("k") == 1

    def test_inject_faults_only_planned_attempts(self, tmp_path):
        plan = FaultPlan(state_dir=tmp_path, faults={"3": {0: Fault(RAISE)}})
        with pytest.raises(InjectedFaultError):
            plan.inject("3")
        plan.inject("3")  # attempt 1 is unlisted: clean
        plan.inject("other")  # unlisted key: clean

    def test_non_retryable_raise_is_plain_runtime_error(self, tmp_path):
        plan = FaultPlan(
            state_dir=tmp_path,
            faults={"x": {0: Fault(RAISE, retryable=False)}},
        )
        with pytest.raises(RuntimeError) as info:
            plan.inject("x")
        assert not isinstance(info.value, TransientTaskError)

    def test_chaos_function_is_picklable(self, tmp_path):
        wrapped = chaos_wrap(
            _times_ten, FaultPlan(state_dir=tmp_path, faults={})
        )
        clone = pickle.loads(pickle.dumps(wrapped))
        assert clone(4) == 40


BACKENDS = {
    "serial": lambda: SerialBackend(),
    "process": lambda: ProcessBackend(3),
}


def _backend_with_jobs(name, jobs):
    return SerialBackend() if name == "serial" else ProcessBackend(jobs)


@pytest.mark.chaos
@pytest.mark.parametrize("name", list(BACKENDS))
class TestInjectedRaises:
    def test_transient_raise_absorbed_by_retry(self, name, tmp_path):
        plan = FaultPlan(state_dir=tmp_path, faults={"2": {0: Fault(RAISE)}})
        stats = FaultToleranceStats()
        results = BACKENDS[name]().map(
            chaos_wrap(_times_ten, plan),
            list(range(5)),
            retry=FAST_RETRY,
            stats=stats,
        )
        assert results == [0, 10, 20, 30, 40]
        assert stats.retries == 1
        assert plan.attempts("2") == 2

    def test_injected_raise_terminal_without_retry(self, name, tmp_path):
        plan = FaultPlan(state_dir=tmp_path, faults={"1": {0: Fault(RAISE)}})
        with pytest.raises(InjectedFaultError):
            BACKENDS[name]().map(chaos_wrap(_times_ten, plan), list(range(4)))
        assert plan.attempts("1") == 1


@pytest.mark.chaos
@pytest.mark.parametrize("name", list(BACKENDS))
@pytest.mark.parametrize("jobs", [2, 3])
class TestFailureOrdering:
    def test_lowest_index_failure_wins(self, name, jobs):
        backend = _backend_with_jobs(name, jobs)
        with pytest.raises(RuntimeError, match="unit 0 failed"):
            backend.map(_fail_with_index, list(range(6)))

    def test_permanent_failure_wins_over_transient_ones(self, name, jobs, tmp_path):
        backend = _backend_with_jobs(name, jobs)
        # Unit 2 fails on every attempt; the others fail once and then
        # recover.  Only unit 2 can fail permanently, so the map must
        # re-raise *its* exhausted failure, never a transient one.
        faults = {
            str(v): {a: Fault(RAISE) for a in range(5)} if v == 2
            else {0: Fault(RAISE)}
            for v in range(6)
        }
        plan = FaultPlan(state_dir=tmp_path, faults=faults)
        with pytest.raises(InjectedFaultError, match="task '2'"):
            backend.map(
                chaos_wrap(_times_ten, plan), list(range(6)), retry=FAST_RETRY
            )


@pytest.mark.chaos
class TestHangsAndTimeouts:
    def test_hung_task_times_out_and_retries(self, tmp_path):
        plan = FaultPlan(
            state_dir=tmp_path,
            faults={"1": {0: Fault(HANG, seconds=1.0)}},
        )
        stats = FaultToleranceStats()
        results = ProcessBackend(3).map(
            chaos_wrap(_times_ten, plan),
            list(range(4)),
            retry=FAST_RETRY,
            timeout=0.15,
            stats=stats,
        )
        assert results == [0, 10, 20, 30]
        assert stats.timeouts >= 1
        assert stats.retries >= 1

    def test_queued_units_do_not_time_out(self):
        # Six 0.3 s units on two workers take ~0.9 s in all, but no
        # single unit runs past the 0.5 s deadline: a unit's clock
        # must not run while it waits for a free worker.
        stats = FaultToleranceStats()
        results = ProcessBackend(2).map(
            _nap, list(range(6)), timeout=0.5, stats=stats
        )
        assert results == list(range(6))
        assert stats.timeouts == 0

    def test_timeout_without_retry_raises(self, tmp_path):
        plan = FaultPlan(
            state_dir=tmp_path,
            faults={"0": {0: Fault(HANG, seconds=1.0)}},
        )
        with pytest.raises(TaskTimeoutError):
            ProcessBackend(2).map(
                chaos_wrap(_times_ten, plan), list(range(3)), timeout=0.15
            )

    def test_serial_backend_ignores_timeout(self, tmp_path):
        plan = FaultPlan(
            state_dir=tmp_path,
            faults={"0": {0: Fault(HANG, seconds=0.05)}},
        )
        assert SerialBackend().map(
            chaos_wrap(_times_ten, plan), [0, 1], timeout=0.001
        ) == [0, 10]


@pytest.mark.chaos
@pytest.mark.slow
class TestWorkerDeath:
    def test_worker_death_absorbed_by_rebuild_and_retry(self, tmp_path):
        plan = FaultPlan(state_dir=tmp_path, faults={"2": {0: Fault(DIE)}})
        stats = FaultToleranceStats()
        results = ProcessBackend(3).map(
            chaos_wrap(_times_ten, plan),
            list(range(6)),
            retry=FAST_RETRY,
            stats=stats,
        )
        assert results == [0, 10, 20, 30, 40, 50]
        assert stats.crashes >= 1
        assert stats.pool_rebuilds >= 1

    def test_worker_death_terminal_without_retry(self, tmp_path):
        plan = FaultPlan(state_dir=tmp_path, faults={"1": {0: Fault(DIE)}})
        with pytest.raises(WorkerCrashError):
            ProcessBackend(3).map(chaos_wrap(_times_ten, plan), list(range(4)))

    def test_repeated_breakage_finishes_serially(self, tmp_path, caplog):
        # The same task dies on attempts 0 and 1: the first breakage
        # rebuilds the process pool, the second finishes the map inline,
        # where attempt 2 (unlisted: clean) finally succeeds.
        plan = FaultPlan(
            state_dir=tmp_path,
            faults={"0": {0: Fault(DIE), 1: Fault(DIE)}},
        )
        stats = FaultToleranceStats()
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            results = ProcessBackend(2).map(
                chaos_wrap(_times_ten, plan),
                list(range(4)),
                retry=RetryPolicy(max_attempts=4, base_delay=0.01),
                stats=stats,
            )
        assert results == [0, 10, 20, 30]
        assert stats.crashes == 2
        assert stats.pool_rebuilds == 1
        assert stats.downgrades == 1
        breakages = [
            record.getMessage() for record in caplog.records
            if record.getMessage().startswith("worker pool broke")
        ]
        assert len(breakages) == 2
        assert "rebuilt process pool" in breakages[0]
        assert "serial in-process execution" in breakages[1]


@pytest.mark.chaos
class TestPromptInterrupt:
    def test_keyboard_interrupt_propagates_immediately(self):
        # Workers sleep 2s each; the interrupt from unit 0 must not
        # wait for them — it cancels pending work and surfaces at once.
        backend = ProcessBackend(2)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            backend.map(_interrupt_on_zero, list(range(4)))
        assert time.monotonic() - start < 1.5
