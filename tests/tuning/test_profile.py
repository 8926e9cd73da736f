"""TuningProfile JSON round-trip, mismatch fallback, active-profile scope."""

import json

import pytest

from repro.core import kernels as kernels_module
from repro.coding import huffman as huffman_module
from repro.tuning.profile import (
    PROFILE_FORMAT,
    PROFILE_VERSION,
    MachineFingerprint,
    ProfileLoadError,
    TuningProfile,
    current_fingerprint,
    default_profile,
    default_profile_path,
    fingerprint_matches,
    get_active_profile,
    load_profile,
    load_profile_or_none,
    save_profile,
    set_active_profile,
    use_profile,
)


def tuned_profile(**overrides) -> TuningProfile:
    base = dict(
        fingerprint=current_fingerprint(gemm_us=12.5, bitand_us=3.25),
        bitpack_min_distinct=192,
        bitpack_wide_min_distinct=1536,
        bitpack_shard_size=512,
        huffman_lockstep_min_rows=128,
        source="test",
        created="2026-07-29T00:00:00+00:00",
        probe_seconds=1.5,
        measurements=(("kernel_narrow/d256/gemm", 0.001),),
    )
    base.update(overrides)
    return TuningProfile(**base)


class TestRoundTrip:
    def test_save_load_is_identity(self, tmp_path):
        profile = tuned_profile()
        path = save_profile(profile, tmp_path / "profile.json")
        assert load_profile(path) == profile

    def test_document_structure(self, tmp_path):
        path = save_profile(tuned_profile(), tmp_path / "profile.json")
        document = json.loads(path.read_text())
        assert document["format"] == PROFILE_FORMAT
        assert document["version"] == PROFILE_VERSION
        assert document["thresholds"]["bitpack_min_distinct"] == 192
        assert document["thresholds"]["bitpack_shard_size"] == 512
        assert document["fingerprint"]["cpu_count"] >= 1
        assert document["measurements"] == {"kernel_narrow/d256/gemm": 0.001}

    def test_none_shard_size_round_trips(self, tmp_path):
        profile = tuned_profile(bitpack_shard_size=None)
        path = save_profile(profile, tmp_path / "profile.json")
        assert load_profile(path).bitpack_shard_size is None

    def test_save_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "profile.json"
        save_profile(tuned_profile(), path)
        assert path.exists()


class TestLoadFallback:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ProfileLoadError, match="cannot read"):
            load_profile(tmp_path / "absent.json")

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text("{not json")
        with pytest.raises(ProfileLoadError, match="invalid JSON"):
            load_profile(path)

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ProfileLoadError, match="not a repro-tuning-profile"):
            load_profile(path)

    def test_version_mismatch(self, tmp_path):
        document = tuned_profile().to_dict()
        document["version"] = PROFILE_VERSION + 1
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ProfileLoadError, match="version"):
            load_profile(path)

    def test_profile_from_before_cache_removal_asks_for_retune(self, tmp_path):
        """A version-1 profile still carries the removed MV-cache fields;
        it is turned away with the one-line re-tune reason."""
        document = tuned_profile().to_dict()
        document["version"] = 1
        document["thresholds"].update(
            mv_dedup_min_genomes=16,
            mv_dedup_min_table=512,
            mv_dedup_min_distinct=2048,
            mv_feedback_min_hit_rate=0.25,
            mv_feedback_patience=10,
            mv_feedback_reprobe_period=50,
            mv_cache_policy=None,
        )
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(document))
        reasons = []
        assert load_profile_or_none(path, warn=reasons.append) is None
        assert len(reasons) == 1 and "re-run `repro tune`" in reasons[0]

    def test_unknown_threshold_field_rejected(self, tmp_path):
        document = tuned_profile().to_dict()
        document["thresholds"]["warp_drive_coils"] = 7
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ProfileLoadError, match="warp_drive_coils"):
            load_profile(path)

    def test_fingerprint_mismatch(self, tmp_path):
        machine = current_fingerprint()
        foreign = MachineFingerprint(
            cpu_count=machine.cpu_count + 8,
            machine="riscv128",
            blas_vendor="hypothetical-blas",
            python=machine.python,
            numpy=machine.numpy,
        )
        path = save_profile(
            tuned_profile(fingerprint=foreign), tmp_path / "profile.json"
        )
        with pytest.raises(ProfileLoadError, match="different machine"):
            load_profile(path)
        # ... unless the caller explicitly opts out of the check.
        assert load_profile(path, check_fingerprint=False).fingerprint == foreign

    def test_or_none_returns_none_and_warns(self, tmp_path):
        reasons = []
        profile = load_profile_or_none(
            tmp_path / "absent.json", warn=reasons.append
        )
        assert profile is None
        assert len(reasons) == 1 and "cannot read" in reasons[0]

    def test_or_none_passes_through_valid_profiles(self, tmp_path):
        path = save_profile(tuned_profile(), tmp_path / "profile.json")
        assert load_profile_or_none(path) == tuned_profile()


class TestFingerprint:
    def test_matches_itself(self):
        fingerprint = current_fingerprint()
        assert fingerprint_matches(fingerprint, fingerprint)

    def test_timing_signature_is_informational(self):
        machine = current_fingerprint()
        slower = MachineFingerprint(**{**vars(machine), "gemm_us": 999.0})
        assert fingerprint_matches(slower, machine)

    def test_cpu_count_gates(self):
        machine = current_fingerprint()
        other = MachineFingerprint(
            **{**vars(machine), "cpu_count": machine.cpu_count + 1}
        )
        assert not fingerprint_matches(other, machine)

    def test_none_never_matches(self):
        assert not fingerprint_matches(None, current_fingerprint())

    def test_default_profile_is_stamped_for_this_machine(self):
        profile = default_profile()
        assert fingerprint_matches(profile.fingerprint, current_fingerprint())


class TestDefaultsStayInSync:
    """The shipped TuningProfile defaults ARE the module constants.

    The no-profile fallback reads the constants and a default-valued
    profile must describe identical behavior — if either side moves
    without the other, tuned and untuned runs silently diverge in
    engagement decisions.
    """

    def test_kernel_thresholds(self):
        profile = TuningProfile()
        assert profile.bitpack_min_distinct == kernels_module.BITPACK_MIN_DISTINCT
        assert (
            profile.bitpack_wide_min_distinct
            == kernels_module.BITPACK_WIDE_MIN_DISTINCT
        )
        assert profile.native_min_distinct == kernels_module.NATIVE_MIN_DISTINCT
        assert (
            profile.native_wide_min_distinct
            == kernels_module.NATIVE_WIDE_MIN_DISTINCT
        )
        assert profile.scalar_max_work == kernels_module.SCALAR_MAX_WORK

    def test_huffman_threshold(self):
        assert (
            TuningProfile().huffman_lockstep_min_rows
            == huffman_module._LOCKSTEP_MIN_ROWS
        )


class TestValidation:
    def test_rejects_nonpositive_thresholds(self):
        with pytest.raises(ValueError, match="scalar_max_work"):
            TuningProfile(scalar_max_work=0)

    def test_rejects_bad_shard_size(self):
        with pytest.raises(ValueError, match="bitpack_shard_size"):
            TuningProfile(bitpack_shard_size=0)

    def test_with_updates(self):
        profile = TuningProfile().with_updates(bitpack_min_distinct=64)
        assert profile.bitpack_min_distinct == 64
        assert profile.scalar_max_work == TuningProfile().scalar_max_work


class TestActiveProfile:
    def test_default_is_none(self):
        assert get_active_profile() is None

    def test_set_and_clear(self):
        profile = tuned_profile()
        set_active_profile(profile)
        try:
            assert get_active_profile() is profile
        finally:
            set_active_profile(None)
        assert get_active_profile() is None

    def test_use_profile_restores_previous(self):
        outer = tuned_profile()
        inner = tuned_profile(bitpack_min_distinct=64)
        set_active_profile(outer)
        try:
            with use_profile(inner):
                assert get_active_profile() is inner
            assert get_active_profile() is outer
        finally:
            set_active_profile(None)

    def test_use_profile_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_profile(tuned_profile()):
                raise RuntimeError("boom")
        assert get_active_profile() is None


class TestDefaultPath:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert default_profile_path() == tmp_path / "cache" / "tuning_profile.json"

    def test_home_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert (
            default_profile_path()
            == tmp_path / ".cache" / "repro" / "tuning_profile.json"
        )
