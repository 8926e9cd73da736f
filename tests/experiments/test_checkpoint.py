"""Tests for the checkpoint journal, task fingerprints and resume cache."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.core.blocks import BlockSet
from repro.core.config import CompressionConfig, EAParameters
from repro.core.optimizer import EAMVOptimizer, execute_run_task
from repro.ea.engine import GenerationStats
from repro.ea.multi_objective import MOGenerationStats
from repro.experiments.checkpoint import (
    CheckpointStore,
    RunJournal,
    RunTaskCache,
    default_checkpoint_root,
    encode_outcome,
    task_fingerprint,
)
from repro.experiments.pareto import (
    OBJECTIVE_SETS,
    ParetoRunTask,
    ParetoTaskCache,
    build_pareto_front,
    execute_pareto_task,
    pareto_markdown,
    pareto_task_fingerprint,
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

    def test_insensitive_to_performance_knobs(self, force_kernel):
        """The covering kernel never changes results, so a journal
        written while one kernel priced serves runs another would price:
        same fingerprint, same journaled outcome."""
        records = []
        for kernel in ("auto", "bitpack"):
            force_kernel(kernel)
            task = _tasks()[0]
            records.append(
                (task_fingerprint(task), encode_outcome(execute_run_task(task)))
            )
        assert records[0] == records[1]


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


PINNED_CONFIG = CompressionConfig(
    block_length=12,
    n_vectors=6,
    runs=1,
    ea=EAParameters(
        population_size=4,
        children_per_generation=5,
        stagnation_limit=4,
        max_evaluations=40,
    ),
)


def _pinned_blocks():
    spec = SyntheticSpec(
        "journal-pin", n_patterns=220, pattern_bits=192, care_density=0.35, seed=11
    )
    return synthetic_test_set(spec).blocks(12)


def _pinned_task(config=PINNED_CONFIG):
    return EAMVOptimizer(config, seed=2005).build_run_tasks(_pinned_blocks())[0]


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


# Golden seeded runs on the pinned table, one per engine mode.  Every
# RNG draw of a mode (operator, parents, crossover mask, mutation site,
# inversion span) shows in these values, so a draw-order slip in any
# mode fails here even where the mode is otherwise only checked against
# itself.
GOLDEN_EA = EAParameters(
    population_size=6,
    children_per_generation=5,
    stagnation_limit=10,
    max_evaluations=300,
)
GOLDEN_CONFIG = CompressionConfig(
    block_length=12, n_vectors=10, runs=1, ea=GOLDEN_EA
)
GOLDEN_RUNS = {
    "default": (
        {},
        {
            "best_fitness": 37.41950757575758,
            "generations": 59,
            "evaluations": 301,
            "cache_hits": 209,
            "terminated_by": "evaluations(300)",
            "genome_sha256": "4a61855168ed192f97932087f2f92270f89f6edf80646f38fe30c75e00a39644",
            "last": GenerationStats(59, 37.41950757575758, 36.973642676767675, 301, True),
        },
    ),
    "adaptive": (
        {"adaptive_operators": True},
        {
            "best_fitness": 37.66098484848485,
            "generations": 59,
            "evaluations": 301,
            "cache_hits": 111,
            "terminated_by": "evaluations(300)",
            "genome_sha256": "b462a285eda2b8ec8c84af99d672567e696163da158534bea5e3578d36b115e5",
            "last": GenerationStats(59, 37.66098484848485, 37.39149305555555, 301, False),
        },
    ),
    "tournament": (
        {"parent_selection": "tournament", "tournament_size": 3},
        {
            "best_fitness": 35.11126893939394,
            "generations": 59,
            "evaluations": 301,
            "cache_hits": 229,
            "terminated_by": "evaluations(300)",
            "genome_sha256": "9d2659a23b38699ac299f9d20f6d8d72291884113d3bd11e4fe2e402d3cec788",
            "last": GenerationStats(59, 35.11126893939394, 35.11126893939394, 301, False),
        },
    ),
    "nine-c": (
        {"seed_nine_c": True, "include_all_u": True},
        {
            "best_fitness": 36.50094696969697,
            "generations": 14,
            "evaluations": 76,
            "cache_hits": 24,
            "terminated_by": "stagnation(10)",
            "genome_sha256": "b26b119ae55a1e4a0d76a94984d3d769bcf077c654b3ef6f6c64dcb05ca92321",
            "last": GenerationStats(14, 36.50094696969697, 36.26183712121212, 76, False),
        },
    ),
}

GOLDEN_PARETO_FINGERPRINT = (
    "25558094ff607b4d8132b49eac312babfbb5e9f2cb1caa6d927a3f2025939a33"
)
GOLDEN_PARETO_MARKDOWN = """\
### Pareto front (rate, area, time)

| # | Rate % | Area bits | Time cycles |
|--:|------:|------:|------:|
| 1 | 36.61 | 297 | 52535 |
| 2 | 36.22 | 297 | 52511 |
| 3 | 36.12 | 297 | 52272 |
| 4 | 35.79 | 297 | 52168 |
| 5 | 34.98 | 298 | 52097 |
| 6 | 34.64 | 297 | 52151 |
| 7 | 34.52 | 297 | 51738 |
| 8 | 34.46 | 298 | 51594 |
| 9 | 34.10 | 297 | 51499 |
| 10 | 33.32 | 305 | 51382 |
| 11 | 33.23 | 306 | 51319 |
| 12 | 32.46 | 299 | 51381 |
| 13 | 32.23 | 305 | 51340 |
| 14 | 32.03 | 305 | 51335 |
| 15 | 31.14 | 305 | 50916 |
| 16 | 31.09 | 304 | 51315 |
| 17 | 30.53 | 305 | 50854 |
| 18 | 30.46 | 297 | 51463 |
| 19 | 29.97 | 307 | 50736 |
| 20 | 29.89 | 305 | 50632 |
| 21 | 29.86 | 305 | 50611 |
| 22 | 29.11 | 304 | 51241 |
| 23 | 28.70 | 305 | 50585 |
| 24 | 28.51 | 304 | 51189 |
| 25 | 28.46 | 304 | 51165 |
| 26 | 28.22 | 311 | 50357 |
| 27 | 27.64 | 301 | 51335 |
| 28 | 26.80 | 304 | 50953 |
| 29 | 26.41 | 308 | 50579 |
| 30 | 26.38 | 308 | 50538 |
| 31 | 25.85 | 308 | 50474 |

- non-dominated points: 31 (from 2 runs, 602 evaluations)
- hypervolume: 207202.7652 (reference: rate 24.85 %, area 312 bits, time 52536 cycles)
"""
# (evaluations, cache_hits, last MOGenerationStats) per run.
GOLDEN_PARETO_RUNS = [
    (301, 147, MOGenerationStats(59, 6, 28, 301, True)),
    (301, 135, MOGenerationStats(59, 6, 20, 301, True)),
]
GOLDEN_PARETO_FRONT_SHA256 = [
    "208736123e5865cc9ec6f3d34d1cb566b0fbda2b0333f6d1ea01fb40e0e21d2c",
    "c009538db92c1af54ce6100c49ae07639fe818d0106c133a51e9b3e7a039654c",
    "152b1be5243fd585a0924fb9369525b4f9671e3d026ea6c1e3fc55af505f41be",
    "05fdd2875dfc01fede3031e46ce080fbf0c81a22f219740f72f7e829745f62cd",
    "85aabddc095b8512bcc563013491575da9a59156e7719bf068c2255bd9ddb3c7",
    "eb2728a5add9ab5b78a89db2b7527316c1ea29ea9739b598773d05679f0d7c57",
    "94fb701ebce9164f4235726e907a99507a0982950c38d543f8eb31015aa1f4a6",
    "55238225a4afe8223251e616dcf2514b6fbfb421c78a9043a549d7dcf9893994",
    "1d9bd33001885f0761007805a2e37e30b4e07ceb32d8d2e21af2d818b4afe070",
    "b898b17ea8b8180cc26a1b8f638180ec22136706a81bb2cf7a19d95228946a0d",
    "7a79755b142ab908545a3428aef634b9d4b4a7b123f23cad04397901f8fddcc0",
    "77785b7b87ee9d49080bcf227cb0af72417217bdb5bfbebbf19a593bbfd2947b",
    "9f5c0174d6cb966f8650fa74328fc1f3d268302cec1e38109018446a44d0003c",
    "88a6842cf481a593e67cb55de068857b74f859f804c159ef4394bf7afc8584db",
    "61bba32f639af3150310062ca13e2cec4151f6e2bd6d74c2acd9c4f29afaa965",
    "324836534e3e9775e3a1edbe12abd4996e1dcd38493bd3980b0b591443e398f9",
    "d049a41294362539dea1652429baa6dc3313c2a77b010d6fc00f0f4257c2aca6",
    "a6bded2ba414cbc69728ce17acf8a1f902f2a9140c60c58855c6d96da256574b",
    "1b68ce75709bf0f5fc33c40c68c5de7c2e352009b9c639645829ffee06c98766",
    "b2817958c2539b685f6c2e31e0f26b403082c02f051ca2bfd7dc6727085a21b4",
    "d7d4a48cc53ed66c58f86a8d52b1e26d36ae3ba63a5a019be183c7c98af844d2",
    "bd442d7024be543ce6250c2d8d0708dab6d0471d4cb66536c004d05d896eecab",
    "eee7330e60edfcecd57378b8fa1ef57a6be4c0e481db6537e22713e3227ec6ac",
    "c9d5f10dd2411ec105a74d71af3ccfe708a173893ed73b3308caddcf95aecf98",
    "e8fe9295548d3aeb061138edd2eb9ce70540c35bcc319c2ac513f28ae04374c7",
    "aa90edb550334ee75d79bff375b78e1653f41c4783e8a0553ca00f3e27ba8915",
    "ee6a4e709bae8f14497bdeaf1c3ea7c3f820d625fb2bb08c17597af0fe036324",
    "33911355414ab4105a20ac011ed080af02c4559571091a035fe17e54a35bc09c",
    "ea1d0c1d3dab00bee8836aaf60d47025dc4adc26485197765ca24060644a7809",
    "d0263a82b347f028cee40d8e6c6064fc387b6cdf5f2f5292bdb90d438409b7bf",
    "5d4376cf80e71ce8fe7b96edc5c1391560b953d63ab3dfef988c9c295a059db6",
]


def _sha256(genome):
    return hashlib.sha256(np.asarray(genome).tobytes()).hexdigest()


class TestGoldenRuns:
    @pytest.mark.parametrize("mode", sorted(GOLDEN_RUNS))
    def test_seeded_run_is_pinned(self, mode):
        overrides, expected = GOLDEN_RUNS[mode]
        config = dataclasses.replace(
            GOLDEN_CONFIG, ea=dataclasses.replace(GOLDEN_EA, **overrides)
        )
        result = execute_run_task(_pinned_task(config)).ea_result
        assert {
            "best_fitness": result.best_fitness,
            "generations": result.generations,
            "evaluations": result.evaluations,
            "cache_hits": result.cache_hits,
            "terminated_by": result.terminated_by,
            "genome_sha256": _sha256(result.best_genome),
            "last": result.history[-1],
        } == expected

    def test_pareto_front_is_pinned(self):
        config = dataclasses.replace(GOLDEN_CONFIG, runs=2)
        result = build_pareto_front(_pinned_blocks(), config, seed=13)
        assert pareto_markdown(result) == GOLDEN_PARETO_MARKDOWN
        assert [
            (run.result.evaluations, run.result.cache_hits, run.result.history[-1])
            for run in result.runs
        ] == GOLDEN_PARETO_RUNS
        assert [
            _sha256(point.genome) for point in result.front
        ] == GOLDEN_PARETO_FRONT_SHA256

    def test_pareto_fingerprint_is_pinned(self):
        task = ParetoRunTask(
            run_index=0,
            blocks=_pinned_blocks(),
            config=dataclasses.replace(GOLDEN_CONFIG, runs=2),
            objectives=OBJECTIVE_SETS["rate+area+time"],
            seed_sequence=np.random.SeedSequence(13).spawn(1)[0],
        )
        assert pareto_task_fingerprint(task) == GOLDEN_PARETO_FINGERPRINT


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

    def test_run_and_pareto_caches_serve_only_their_own_tasks(self, tmp_path):
        """The Pareto adapter is this cache with the task and outcome
        types, fingerprint and codec swapped: on a shared journal each
        records and serves only its own tasks."""
        journal = RunJournal.open(tmp_path / "j.jsonl")
        run_task = _tasks()[0]
        pareto_task = ParetoRunTask(
            run_index=0,
            blocks=BLOCKS,
            config=TINY_CONFIG,
            objectives=OBJECTIVE_SETS["rate+area"],
            seed_sequence=run_task.seed_sequence,
        )
        run_outcome = execute_run_task(run_task)
        pareto_outcome = execute_pareto_task(pareto_task)
        run_cache = RunTaskCache(journal=journal)
        pareto_cache = ParetoTaskCache(journal=journal)
        for cache in (run_cache, pareto_cache):
            cache.put(run_task, run_outcome)
            cache.put(pareto_task, pareto_outcome)
        assert len(journal) == 2
        assert run_cache.get(pareto_task) is None
        assert pareto_cache.get(run_task) is None
        assert run_cache.get(run_task).rate == run_outcome.rate
        assert [point.values for point in pareto_cache.get(pareto_task).front] == [
            point.values for point in pareto_outcome.front
        ]
        assert (run_cache.hits, run_cache.misses) == (1, 0)
        assert (pareto_cache.hits, pareto_cache.misses) == (1, 0)


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
