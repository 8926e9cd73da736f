"""Probe determinism under a scripted clock, and the selection logic."""

import pytest

from repro.core.kernels import kernel_unavailable_reason
from repro.tuning.probes import (
    crossover_point,
    probe_huffman_lockstep,
    run_probes,
)
from repro.tuning.profile import (
    TuningProfile,
    current_fingerprint,
    fingerprint_matches,
)


class FakeClock:
    """Deterministic perf_counter stand-in: each reading advances by
    ``step``, so every timed interval measures exactly ``step`` seconds
    regardless of real wall time.  ``step`` defaults to a power of two
    so the accumulated float is exact and every interval compares
    equal to every other — true ties, no last-ulp noise."""

    def __init__(self, step: float = 0.5) -> None:
        self.now = 0.0
        self.step = step
        self.readings = 0

    def __call__(self) -> float:
        self.now += self.step
        self.readings += 1
        return self.now


class TestCrossoverPoint:
    def test_clean_crossover(self):
        points = [(64, 1.0, 2.0), (256, 1.0, 1.0), (1024, 1.0, 0.5)]
        assert crossover_point(points) == 256  # ties go to the challenger

    def test_never_wins(self):
        assert crossover_point([(64, 1.0, 2.0), (256, 1.0, 1.5)]) is None

    def test_always_wins(self):
        assert crossover_point([(64, 2.0, 1.0), (256, 2.0, 1.0)]) == 64

    def test_noisy_middle_win_does_not_count(self):
        # The challenger must keep winning through the largest probed x;
        # an isolated mid-range win (noise) is not a crossover.
        points = [(64, 1.0, 2.0), (256, 1.0, 0.5), (1024, 1.0, 1.5)]
        assert crossover_point(points) is None

    def test_regression_after_loss_restarts_from_later_point(self):
        points = [(64, 1.0, 0.5), (256, 1.0, 1.5), (1024, 1.0, 0.5)]
        assert crossover_point(points) == 1024

    def test_unsorted_input(self):
        points = [(1024, 1.0, 0.5), (64, 1.0, 2.0), (256, 1.0, 0.8)]
        assert crossover_point(points) == 256


class TestDeterminism:
    def test_same_clock_same_profile(self):
        first = run_probes(
            quick=True, repeats=1, timer=FakeClock(), created="pinned"
        )
        second = run_probes(
            quick=True, repeats=1, timer=FakeClock(), created="pinned"
        )
        assert first == second

    def test_profile_is_valid_for_this_machine(self):
        profile = run_probes(
            quick=True, repeats=1, timer=FakeClock(), created="pinned"
        )
        assert profile.version == TuningProfile().version
        assert fingerprint_matches(profile.fingerprint, current_fingerprint())
        assert profile.source.startswith("repro tune")
        assert profile.measurements  # raw probe timings recorded

    def test_constant_clock_ties_resolve_to_smallest_probed_shape(self):
        # Every interval measures exactly one step, so every contender
        # ties and the challenger wins from the smallest probed point —
        # the selection is a pure function of the clock readings.
        profile = run_probes(
            quick=True, repeats=1, timer=FakeClock(), created="pinned"
        )
        assert profile.bitpack_min_distinct == 128
        assert profile.bitpack_wide_min_distinct == 256
        if kernel_unavailable_reason("native") is None:
            # native probed: ties → challenger from the smallest point.
            assert profile.native_min_distinct == 128
            assert profile.native_wide_min_distinct == 256
        else:
            # no toolchain: the shipped defaults pass through unprobed.
            defaults = TuningProfile()
            assert profile.native_min_distinct == defaults.native_min_distinct
            assert (
                profile.native_wide_min_distinct
                == defaults.native_wide_min_distinct
            )
        assert profile.huffman_lockstep_min_rows == 16

    def test_probe_seconds_comes_from_the_injected_clock(self):
        clock = FakeClock(step=0.5)
        profile = run_probes(
            quick=True, repeats=1, timer=clock, created="pinned"
        )
        # started at reading 1, finished near the last reading — wall
        # seconds are whatever the scripted clock says, not real time.
        assert profile.probe_seconds == pytest.approx(
            0.5 * (clock.readings - 1), abs=1.0
        )

    def test_huffman_probe_reports_every_point(self):
        rows, measurements = probe_huffman_lockstep(
            quick=True, repeats=1, timer=FakeClock()
        )
        assert rows == 16  # constant clock: lockstep ties everywhere
        assert {name.split("/")[1] for name in measurements} == {
            "r16", "r32", "r64", "r96", "r128",
        }


@pytest.mark.slow
class TestRealProbes:
    """One real (wall-clock) quick probe pass — the `repro tune` core."""

    def test_quick_probes_produce_a_sane_profile(self):
        profile = run_probes(quick=True, repeats=1)
        assert profile.bitpack_min_distinct >= 1
        assert profile.huffman_lockstep_min_rows >= 1
        assert profile.probe_seconds > 0
        # Probed on this machine, for this machine.
        assert fingerprint_matches(profile.fingerprint, current_fingerprint())
        assert profile.fingerprint.gemm_us > 0
