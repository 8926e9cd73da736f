"""Tests for the warm registry and the shared request service."""

import numpy as np
import pytest

from repro.core.encoding import EncodingStrategy
from repro.serve.protocol import ProtocolError, canonical_json
from repro.serve.service import CompressionService
from repro.serve.state import FitnessKey, WarmRegistry

PATTERNS = ["01X10X", "X10011", "110100", "0XX01X"]
BLOCK_LENGTH = 3

TABLE = {
    "patterns": PATTERNS,
    "block_length": BLOCK_LENGTH,
    "name": "unit",
}

FITNESS_BODY = {
    "table": TABLE,
    "n_vectors": 3,
    "genomes": ["01U1U0UUU", "UUUUUUUUU", "0101UU101"],
}

COMPRESS_BODY = {
    "table": TABLE,
    "seed": 17,
    "config": {
        "n_vectors": 3,
        "runs": 2,
        "ea": {
            "population_size": 8,
            "children_per_generation": 8,
            "max_generations": 3,
        },
    },
}


def make_service():
    return CompressionService(WarmRegistry())


class TestRegistry:
    def test_register_is_idempotent_by_digest(self):
        service = make_service()
        first = service.register_table(TABLE)
        second = service.register_table(dict(TABLE, name="other"))
        assert first["digest"] == second["digest"]
        assert service.registry.digests() == [first["digest"]]
        # The warm entry survived re-registration.
        entry = service.registry.get(first["digest"])
        assert entry.name == "unit"

    def test_tables_digest_is_pinned(self):
        """The `/tables` digest clients hold across daemon restarts and
        versions: pinned to the value this exact table always had."""
        table = {
            "patterns": ["01X10X110", "X10011X01", "111000XXX", "0X0X0X0X1"],
            "block_length": 3,
            "name": "small",
        }
        payload = make_service().register_table(table)
        assert payload["digest"] == (
            "a2364dee120d2a5ee4f41866aab88c2322334f6a518317935394139ce1b1b3b1"
        )
        assert canonical_json(payload) == (
            b'{"block_length":3,"digest":"a2364dee120d2a5ee4f41866aab88c2322334f6a'
            b'518317935394139ce1b1b3b1","n_blocks":12,"n_distinct":12,'
            b'"name":"small","original_bits":36}\n'
        )
        other = dict(table, patterns=["01X10X111", *table["patterns"][1:]])
        assert make_service().register_table(other)["digest"] != payload["digest"]

    def test_describe_payload(self):
        payload = make_service().register_table(TABLE)
        assert payload["block_length"] == BLOCK_LENGTH
        assert payload["n_blocks"] * BLOCK_LENGTH >= payload["original_bits"]
        assert payload["n_distinct"] <= payload["n_blocks"]
        assert len(payload["digest"]) == 64

    def test_engine_reuse(self):
        service = make_service()
        digest = service.register_table(TABLE)["digest"]
        entry = service.registry.get(digest)
        key = FitnessKey(
            digest=digest,
            n_vectors=3,
            block_length=BLOCK_LENGTH,
            strategy=EncodingStrategy.HUFFMAN,
        )
        engine = service.registry.engine_for(key)
        assert service.registry.engine_for(key) is engine
        other = service.registry.engine_for(
            FitnessKey(
                digest=digest,
                n_vectors=4,
                block_length=BLOCK_LENGTH,
                strategy=EncodingStrategy.HUFFMAN,
            )
        )
        assert other is not engine
        assert len(entry.engines) == 2

    def test_engine_for_unknown_digest(self):
        with pytest.raises(KeyError):
            make_service().registry.engine_for(
                FitnessKey(
                    digest="0" * 64,
                    n_vectors=3,
                    block_length=3,
                    strategy=EncodingStrategy.HUFFMAN,
                )
            )

    def test_stats_shape(self):
        service = make_service()
        digest = service.register_table(TABLE)["digest"]
        service.run_fitness(FITNESS_BODY)
        stats = service.registry.stats()
        assert digest in stats
        table_stats = stats[digest]
        assert table_stats["fitness_requests"] == 1
        assert table_stats["engines"] == 1
        assert "mv_cache" not in table_stats


class TestValidation:
    def test_unknown_digest_is_404(self):
        with pytest.raises(ProtocolError) as info:
            make_service().run_fitness(dict(FITNESS_BODY, table="f" * 64))
        assert info.value.status == 404

    def test_bad_table_type_is_400(self):
        with pytest.raises(ProtocolError) as info:
            make_service().run_fitness(dict(FITNESS_BODY, table=7))
        assert info.value.status == 400

    def test_unknown_config_field_is_400(self):
        body = dict(COMPRESS_BODY, config={"n_vectros": 3})
        with pytest.raises(ProtocolError, match="n_vectros"):
            make_service().run_compress(body)

    def test_unknown_ea_field_is_400(self):
        body = dict(COMPRESS_BODY, config={"ea": {"pop_size": 8}})
        with pytest.raises(ProtocolError, match="pop_size"):
            make_service().run_compress(body)

    def test_bad_strategy_is_400(self):
        with pytest.raises(ProtocolError) as info:
            make_service().run_fitness(dict(FITNESS_BODY, strategy="fixed"))
        assert info.value.status == 400

    def test_genome_length_mismatch_is_400(self):
        body = dict(FITNESS_BODY, genomes=["01U"])
        with pytest.raises(ProtocolError) as info:
            make_service().run_fitness(body)
        assert info.value.status == 400

    def test_missing_seed_is_400(self):
        body = {k: v for k, v in COMPRESS_BODY.items() if k != "seed"}
        with pytest.raises(ProtocolError, match="seed"):
            make_service().run_compress(body)

    def test_bad_path_table_is_400(self):
        with pytest.raises(ProtocolError) as info:
            make_service().register_table({"path": "/no/such/table.npz"})
        assert info.value.status == 400


class TestFitnessParity:
    def test_digest_and_inline_table_give_identical_bytes(self):
        service = make_service()
        digest = service.register_table(TABLE)["digest"]
        by_digest = service.run_fitness(dict(FITNESS_BODY, table=digest))
        inline = service.run_fitness(FITNESS_BODY)
        assert canonical_json(by_digest) == canonical_json(inline)

    def test_warm_service_matches_cold_service(self):
        warm = make_service()
        for _ in range(3):  # warms the shared MV cache between calls
            warm_payload = warm.run_fitness(FITNESS_BODY)
        cold_payload = make_service().run_fitness(FITNESS_BODY)
        assert canonical_json(warm_payload) == canonical_json(cold_payload)

    def test_stacked_evaluation_slices_to_per_request_rates(self):
        """The coalescer's core assumption, pinned at the service level:
        pricing a concatenated matrix equals pricing each part."""
        service = make_service()
        key, matrix = service.parse_fitness(FITNESS_BODY)
        singles = [
            service.evaluate(key, matrix[i : i + 1]) for i in range(len(matrix))
        ]
        stacked = service.evaluate(key, matrix)
        np.testing.assert_array_equal(stacked, np.concatenate(singles))


class TestCompress:
    def test_same_body_is_deterministic_and_warm_inert(self):
        warm = make_service()
        first = warm.run_compress(COMPRESS_BODY)
        second = warm.run_compress(COMPRESS_BODY)  # warm cache this time
        cold = make_service().run_compress(COMPRESS_BODY)
        assert canonical_json(first) == canonical_json(second)
        assert canonical_json(first) == canonical_json(cold)

    def test_payload_shape(self):
        payload = make_service().run_compress(COMPRESS_BODY)
        assert payload["seed"] == 17
        assert payload["config"]["runs"] == 2
        assert len(payload["runs"]) == 2
        # Higher rate = better compression; the best run tops the mean.
        assert payload["best_rate"] >= payload["mean_rate"] - 1e-12
        best = payload["runs"][payload["best_run"]]
        assert best["rate"] == payload["best_rate"]
        for text in payload["best_mv_set"]:
            assert len(text) == BLOCK_LENGTH
            assert set(text) <= set("01U")

    def test_different_seeds_may_differ_but_are_each_stable(self):
        service = make_service()
        a = service.run_compress(COMPRESS_BODY)
        b = service.run_compress(dict(COMPRESS_BODY, seed=18))
        assert canonical_json(a) == canonical_json(
            make_service().run_compress(COMPRESS_BODY)
        )
        assert canonical_json(b) == canonical_json(
            make_service().run_compress(dict(COMPRESS_BODY, seed=18))
        )
