"""Tests for the checkpoint journal, task fingerprints and resume cache."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.blocks import BlockSet
from repro.core.config import CompressionConfig, EAParameters
from repro.core.optimizer import EAMVOptimizer, execute_run_task
from repro.experiments.checkpoint import (
    CheckpointStore,
    RunJournal,
    RunTaskCache,
    default_checkpoint_root,
    encode_outcome,
    task_fingerprint,
)
from repro.parallel import FaultToleranceStats
from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set

TINY_EA = EAParameters(
    population_size=4,
    children_per_generation=2,
    stagnation_limit=4,
    max_evaluations=40,
)
TINY_CONFIG = CompressionConfig(
    block_length=4, n_vectors=6, runs=2, ea=TINY_EA
)
BLOCKS = BlockSet.from_string("1010 0X10 1111 0000 10X1", 4)


def _tasks(config=TINY_CONFIG, seed=7, blocks=BLOCKS):
    return EAMVOptimizer(config, seed=seed).build_run_tasks(blocks)


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        assert task_fingerprint(_tasks()[0]) == task_fingerprint(_tasks()[0])

    def test_distinguishes_runs_of_one_config(self):
        first, second = _tasks()
        assert task_fingerprint(first) != task_fingerprint(second)

    def test_sensitive_to_seed(self):
        assert task_fingerprint(_tasks(seed=7)[0]) != task_fingerprint(
            _tasks(seed=8)[0]
        )

    def test_sensitive_to_semantic_config(self):
        bigger = dataclasses.replace(TINY_CONFIG, n_vectors=8)
        assert task_fingerprint(_tasks()[0]) != task_fingerprint(
            _tasks(config=bigger)[0]
        )

    def test_sensitive_to_ea_parameters(self):
        tweaked = dataclasses.replace(
            TINY_CONFIG, ea=dataclasses.replace(TINY_EA, max_evaluations=41)
        )
        assert task_fingerprint(_tasks()[0]) != task_fingerprint(
            _tasks(config=tweaked)[0]
        )

    def test_sensitive_to_blocks(self):
        other = BlockSet.from_string("1010 0X10 1111 0000 1011", 4)
        assert task_fingerprint(_tasks()[0]) != task_fingerprint(
            _tasks(blocks=other)[0]
        )

    def test_insensitive_to_performance_knobs(self):
        """The kernel choice never changes results, so switching it must
        not invalidate journaled work."""
        switched = dataclasses.replace(TINY_CONFIG, kernel="scalar")
        assert task_fingerprint(_tasks()[0]) == task_fingerprint(
            _tasks(config=switched)[0]
        )


class TestOutcomeRoundTrip:
    def test_decode_restores_exact_outcome(self, tmp_path):
        task = _tasks()[0]
        outcome = execute_run_task(task)
        journal = RunJournal.open(tmp_path / "j.jsonl")
        # Force a full JSON round trip, exactly what disk storage does.
        journal.record(
            task_fingerprint(task),
            json.loads(json.dumps(encode_outcome(outcome))),
        )
        restored = RunTaskCache(journal=journal).get(task)
        assert restored is not None
        assert restored.rate == outcome.rate  # exact, not approx
        assert restored.run_index == outcome.run_index
        assert np.array_equal(
            restored.ea_result.best_genome, outcome.ea_result.best_genome
        )
        assert restored.mv_set == outcome.mv_set
        assert restored.ea_result.evaluations == outcome.ea_result.evaluations
        assert restored.ea_result.history == ()


# A record journaled before the MV match-column cache was removed: the
# dedup path was engaged (D >= 2048), so its ``mv_cache_*`` keys are
# non-zero.  Fingerprint and record are that version's exact output.
PINNED_FINGERPRINT = "6248ced18db37d670ba91cebf1676a07fab5340db27be77df57d022d00145aba"
PINNED_RECORD = {
    "ea": {
        "best_fitness": 28.678977272727273,
        "cache_hit_rate": 0.75,
        "cache_hits": 33,
        "evaluations": 44,
        "generations": 8,
        "mv_cache_hit_rate": 0.3673469387755102,
        "mv_cache_hits": 18,
        "mv_cache_misses": 31,
        "mv_cache_warm_loaded": 0,
        "terminated_by": "evaluations(40)",
    },
    "genome": [
        2, 2, 0, 1, 1, 1, 0, 0, 1, 2, 1, 0, 1, 1, 1, 0, 0, 1, 2, 1, 0, 2, 0, 0,
        1, 2, 0, 2, 0, 0, 2, 2, 2, 0, 1, 2, 2, 0, 0, 2, 1, 1, 1, 1, 1, 1, 2, 2,
        0, 2, 2, 0, 2, 1, 2, 0, 0, 1, 2, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    ],
    "rate": 28.678977272727273,
    "run_index": 0,
}


def _pinned_task():
    spec = SyntheticSpec(
        "journal-pin", n_patterns=220, pattern_bits=192, care_density=0.35, seed=11
    )
    ea = EAParameters(
        population_size=4,
        children_per_generation=5,
        stagnation_limit=4,
        max_evaluations=40,
    )
    config = CompressionConfig(block_length=12, n_vectors=6, runs=1, ea=ea)
    blocks = synthetic_test_set(spec).blocks(12)
    return EAMVOptimizer(config, seed=2005).build_run_tasks(blocks)[0]


class TestJournalFromBeforeCacheRemoval:
    def test_fingerprint_is_unchanged(self):
        assert task_fingerprint(_pinned_task()) == PINNED_FINGERPRINT

    def test_old_record_resumes_byte_identically(self, tmp_path):
        task = _pinned_task()
        journal = RunJournal.open(tmp_path / "j.jsonl")
        journal.record(PINNED_FINGERPRINT, PINNED_RECORD)
        restored = RunTaskCache(journal=RunJournal.open(tmp_path / "j.jsonl")).get(task)
        fresh = execute_run_task(task)
        assert restored is not None
        assert restored.rate == fresh.rate
        assert restored.mv_set == fresh.mv_set
        assert np.array_equal(
            restored.ea_result.best_genome, fresh.ea_result.best_genome
        )

    def test_encoder_drops_mv_cache_keys(self):
        document = encode_outcome(execute_run_task(_pinned_task()))
        expected = dict(PINNED_RECORD)
        expected["ea"] = {
            key: value
            for key, value in PINNED_RECORD["ea"].items()
            if not key.startswith("mv_cache_")
        }
        assert json.loads(json.dumps(document)) == expected


class TestRunJournal:
    def test_round_trips_through_disk(self, tmp_path):
        path = tmp_path / "row.jsonl"
        journal = RunJournal.open(path)
        journal.record("abc", {"rate": 1.5})
        journal.record("def", {"rate": 2.5})
        reloaded = RunJournal.open(path)
        assert len(reloaded) == 2
        assert reloaded.get("abc") == {"rate": 1.5}

    def test_missing_file_is_empty(self, tmp_path):
        assert len(RunJournal.open(tmp_path / "absent.jsonl")) == 0

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "row.jsonl"
        good = json.dumps(
            {"version": 1, "fingerprint": "ok", "outcome": {"rate": 3.0}}
        )
        path.write_text(
            good + "\n"
            + "{truncated...\n"                       # malformed JSON
            + '{"fingerprint": "no-version"}\n'        # missing version
            + '{"version": 99, "fingerprint": "v99", "outcome": {}}\n'
        )
        journal = RunJournal.open(path)
        assert len(journal) == 1
        assert journal.get("ok") == {"rate": 3.0}

    def test_record_rewrites_parseable_document(self, tmp_path):
        path = tmp_path / "row.jsonl"
        journal = RunJournal.open(path)
        journal.record("k", {"rate": 1.0})
        for line in path.read_text().splitlines():
            entry = json.loads(line)
            assert entry["version"] == 1


class TestRunTaskCache:
    def test_miss_then_hit_after_put(self, tmp_path):
        task = _tasks()[0]
        outcome = execute_run_task(task)
        stats = FaultToleranceStats()
        cache = RunTaskCache(
            journal=RunJournal.open(tmp_path / "j.jsonl"), stats=stats
        )
        assert cache.get(task) is None
        cache.put(task, outcome)
        restored = cache.get(task)
        assert restored is not None
        assert restored.rate == outcome.rate
        assert cache.misses == 1
        assert cache.hits == 1
        assert stats.resumed == 1

    def test_non_run_task_items_bypass_cache(self, tmp_path):
        cache = RunTaskCache(journal=RunJournal.open(tmp_path / "j.jsonl"))
        assert cache.get("not a task") is None
        cache.put("not a task", "not an outcome")  # silently ignored
        assert cache.misses == 0

    def test_unusable_entry_treated_as_miss(self, tmp_path):
        task = _tasks()[0]
        journal = RunJournal.open(tmp_path / "j.jsonl")
        journal.record(task_fingerprint(task), {"garbage": True})
        cache = RunTaskCache(journal=journal)
        assert cache.get(task) is None
        assert cache.misses == 1


class TestCheckpointStore:
    def test_default_root_honors_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_checkpoint_root() == tmp_path / "checkpoints"
        assert CheckpointStore.default().root == tmp_path / "checkpoints"

    def test_labels_map_to_distinct_journals(self, tmp_path):
        store = CheckpointStore(root=tmp_path)
        first = store.journal("table1:s298:seed42")
        second = store.journal("table1:s386:seed42")
        assert first.path != second.path
        assert first.path.parent == tmp_path

    def test_hostile_labels_sanitized(self, tmp_path):
        store = CheckpointStore(root=tmp_path)
        journal = store.journal("../../../etc/passwd")
        assert journal.path.parent == tmp_path

    def test_cache_shares_store_journal(self, tmp_path):
        store = CheckpointStore(root=tmp_path)
        task = _tasks()[0]
        outcome = execute_run_task(task)
        store.cache("label").put(task, outcome)
        restored = store.cache("label").get(task)
        assert restored is not None
        assert restored.rate == pytest.approx(outcome.rate)
