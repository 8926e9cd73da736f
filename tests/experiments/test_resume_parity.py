"""Acceptance tests: a seeded table killed mid-sweep resumes to a
byte-identical result.

The scenario from the robustness issue: run a seeded ``table1`` build,
kill it partway (a chaos-injected worker death, or a non-retryable
injected raise, under the process backend), restart with the
checkpoint store — the resumed table must be byte-identical to an
uninterrupted run, with the journal demonstrably serving completed
runs (``resumed > 0``).
"""

import pytest

import repro.experiments.runner as runner_module
from repro.core.optimizer import execute_run_task
from repro.experiments.checkpoint import CheckpointStore
from repro.experiments.runner import ExperimentBudget
from repro.experiments.tables import build_table1, format_table
from repro.parallel import (
    Fault,
    FaultPlan,
    ProcessBackend,
    RetryPolicy,
    WorkerCrashError,
    chaos_wrap,
)
from repro.parallel.chaos import DIE, RAISE

MICRO = ExperimentBudget(
    runs=2,
    stagnation_limit=8,
    max_evaluations=250,
    kl_grid=((8, 16),),
    search_bit_cap=20_000,
)
CIRCUITS = ("s298", "s386")
SEED = 11


def _reference_text():
    """The uninterrupted serial build — the byte-parity baseline."""
    return format_table(build_table1(CIRCUITS, MICRO, seed=SEED))


@pytest.mark.chaos
@pytest.mark.slow
class TestResumeByteParity:
    def test_process_backend_worker_death_then_resume(
        self, tmp_path, monkeypatch
    ):
        reference = _reference_text()
        store = CheckpointStore(root=tmp_path / "checkpoints")
        # The EA-Best configuration's last run dies; both rows share the
        # task key, so whichever row worker reaches it first is killed
        # the way an OOM kill would — the pool breaks and, without a
        # retry policy, the whole build aborts mid-sweep.
        plan = FaultPlan(
            state_dir=tmp_path / "chaos",
            faults={"K8L16r1": {0: Fault(DIE)}},
        )
        monkeypatch.setattr(
            runner_module, "execute_run_task",
            chaos_wrap(execute_run_task, plan),
        )
        with pytest.raises(WorkerCrashError):
            build_table1(
                CIRCUITS, MICRO, seed=SEED,
                backend=ProcessBackend(2), checkpoint=store,
            )
        monkeypatch.setattr(runner_module, "execute_run_task", execute_run_task)

        resumed = build_table1(
            CIRCUITS, MICRO, seed=SEED,
            backend=ProcessBackend(2), checkpoint=store,
        )
        assert format_table(resumed) == reference
        assert resumed.fault_stats()["resumed"] > 0

    def test_process_backend_terminal_failure_then_resume(
        self, tmp_path, monkeypatch
    ):
        reference = _reference_text()
        store = CheckpointStore(root=tmp_path / "checkpoints")
        # A non-retryable injected raise aborts the build the way a
        # real bug in one unit would — completed runs stay journaled.
        plan = FaultPlan(
            state_dir=tmp_path / "chaos",
            faults={"K8L16r1": {0: Fault(RAISE, retryable=False)}},
        )
        monkeypatch.setattr(
            runner_module, "execute_run_task",
            chaos_wrap(execute_run_task, plan),
        )
        with pytest.raises(RuntimeError, match="injected fault"):
            build_table1(
                CIRCUITS, MICRO, seed=SEED,
                backend=ProcessBackend(2), checkpoint=store,
            )
        monkeypatch.setattr(runner_module, "execute_run_task", execute_run_task)

        resumed = build_table1(
            CIRCUITS, MICRO, seed=SEED,
            backend=ProcessBackend(2), checkpoint=store,
        )
        assert format_table(resumed) == reference
        assert resumed.fault_stats()["resumed"] > 0

    def test_injected_worker_death_absorbed_with_retry_in_one_go(
        self, tmp_path
    ):
        """With a retry policy and the journal, the same kill is
        absorbed inside a single build: the crashed row retries, its
        journal serves the runs that had already finished, and the
        table's fault accounting reports the crash."""
        import unittest.mock

        reference = _reference_text()
        store = CheckpointStore(root=tmp_path / "checkpoints")
        plan = FaultPlan(
            state_dir=tmp_path / "chaos",
            faults={"K8L16r1": {0: Fault(DIE)}},
        )
        with unittest.mock.patch.object(
            runner_module, "execute_run_task",
            chaos_wrap(execute_run_task, plan),
        ):
            result = build_table1(
                CIRCUITS, MICRO, seed=SEED,
                backend=ProcessBackend(2), checkpoint=store,
                retry=RetryPolicy(max_attempts=3, base_delay=0.01),
            )
        assert format_table(result) == reference
        stats = result.fault_stats()
        assert stats["resumed"] > 0
        assert stats["crashes"] >= 1
        assert stats["pool_rebuilds"] == 1
