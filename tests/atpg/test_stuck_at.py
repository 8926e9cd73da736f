"""Integration tests for the uncompacted stuck-at test-set flow."""


from repro.atpg.fault_sim import fault_coverage
from repro.atpg.faults import collapse_faults
from repro.atpg.stuck_at import generate_stuck_at_tests
from repro.circuits.generator import random_netlist
from repro.circuits.library import load_circuit
from repro.core.trits import DC


class TestStuckAtFlow:
    def test_c17_full_coverage(self):
        result = generate_stuck_at_tests(load_circuit("c17"))
        assert result.fault_coverage == 1.0
        assert not result.untestable
        assert not result.aborted

    def test_s27_full_coverage(self):
        result = generate_stuck_at_tests(load_circuit("s27"))
        assert result.fault_coverage == 1.0

    def test_gen_small_coverage(self):
        """The bundled generated netlist, not only the ISCAS ones."""
        result = generate_stuck_at_tests(load_circuit("gen_small"))
        assert result.fault_coverage > 0.9

    def test_test_set_shape(self):
        c17 = load_circuit("c17")
        result = generate_stuck_at_tests(c17)
        assert result.test_set.n_inputs == len(c17.inputs)
        assert result.test_set.n_patterns >= 1

    def test_cubes_are_x_rich(self):
        """Uncompacted PODEM cubes keep don't-cares — the property the
        compression paper depends on."""
        result = generate_stuck_at_tests(load_circuit("c17"))
        assert result.test_set.x_density() > 0.2

    def test_coverage_verified_independently(self):
        """Re-simulate the produced test set against a fresh collapsed
        fault list: coverage must be 100% (minus untestable faults)."""
        c17 = load_circuit("c17")
        result = generate_stuck_at_tests(c17)
        cubes = [
            {
                net: int(result.test_set.patterns[row, col])
                for col, net in enumerate(c17.inputs)
                if result.test_set.patterns[row, col] != DC
            }
            for row in range(result.test_set.n_patterns)
        ]
        testable = [
            f for f in collapse_faults(c17) if f not in result.untestable
        ]
        assert fault_coverage(c17, cubes, testable) == 1.0

    def test_deterministic(self):
        first = generate_stuck_at_tests(load_circuit("c17"))
        second = generate_stuck_at_tests(load_circuit("c17"))
        assert first.test_set.to_string() == second.test_set.to_string()

    def test_generated_circuit_flow(self):
        netlist = random_netlist(10, 50, seed=21)
        result = generate_stuck_at_tests(netlist, max_backtracks=300)
        # Redundant faults are fine; coverage counts testable ones only.
        assert result.fault_coverage > 0.95
        assert result.test_set.x_density() > 0.1

    def test_ea_beats_nine_c_on_generated_circuit_cubes(self):
        """On genuine ATPG cubes the EA's searched MVs beat the fixed
        9C code."""
        from repro.core.config import CompressionConfig, EAParameters
        from repro.core.nine_c import compress_nine_c
        from repro.core.optimizer import EAMVOptimizer

        result = generate_stuck_at_tests(
            random_netlist(24, 150, seed=42), max_backtracks=300
        )
        test_set = result.test_set
        config = CompressionConfig(
            block_length=12,
            n_vectors=32,
            runs=1,
            ea=EAParameters(stagnation_limit=15, max_evaluations=500),
        )
        ea = EAMVOptimizer(config, seed=1).optimize(test_set.blocks(12))
        assert ea.best_rate > compress_nine_c(test_set.blocks(8)).rate

    def test_custom_name(self):
        result = generate_stuck_at_tests(load_circuit("c17"), name="mine")
        assert result.test_set.name == "mine"
