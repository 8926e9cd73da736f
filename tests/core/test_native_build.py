"""Build-cache behavior of the native kernel: compile once, degrade well.

The compile machinery's contract (``repro.core.kernels.build``):

* cold start compiles exactly once, every later call warm-loads from
  the on-disk cache with zero subprocesses;
* a corrupt cached ``.so`` is discarded with one warning and rebuilt —
  a bad cache costs a cold start, never a wrong result or a crash;
* no compiler (or a disabled toolchain) surfaces as ONE stderr
  warning and an unavailable ``native`` kernel, while every ``auto``
  path keeps running on bitpack;
* concurrent builders — ProcessBackend workers racing on a fresh
  cache — compile exactly once via the exclusive-create lock file.
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.blocks import BlockSet
from repro.core.fitness import BatchCompressionRateFitness
from repro.core.kernels import kernel_availability
from repro.core.trits import DC
from repro.core.kernels.build import (
    NativeBuildError,
    build_key,
    compile_cached,
    describe_build_file,
    find_compiler,
    load_native_library,
    native_build_dir,
)
from repro.core.kernels.native import NATIVE_C_SOURCE, _SYMBOLS
from repro.parallel import ProcessBackend

from ..conftest import subprocess_environment

NATIVE_UNAVAILABLE = kernel_availability()["native"]
requires_native = pytest.mark.skipif(
    NATIVE_UNAVAILABLE is not None,
    reason=f"native kernel unavailable: {NATIVE_UNAVAILABLE}",
)


@pytest.fixture
def no_native(monkeypatch):
    """Force the no-compiler path for the duration of one test."""
    from repro.core.kernels import native as native_module

    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    native_module._reset_native_state()
    yield
    native_module._reset_native_state()


def _compile_worker(directory: str) -> bool:
    """Module-level for pickling: one racing build, returns compiled_now."""
    return compile_cached(NATIVE_C_SOURCE, Path(directory))[1]


@requires_native
class TestBuildCache:
    def test_cold_compile_then_warm_load(self, tmp_path):
        path, compiled_now = compile_cached(NATIVE_C_SOURCE, tmp_path)
        assert compiled_now
        assert path.exists() and path.suffix == ".so"
        again, compiled_again = compile_cached(NATIVE_C_SOURCE, tmp_path)
        assert again == path
        assert not compiled_again  # warm: same key, no compiler run

    def test_key_covers_source_compiler_and_flags(self):
        base = build_key("int x;", "cc 1.0", ("-O3",))
        assert build_key("int y;", "cc 1.0", ("-O3",)) != base
        assert build_key("int x;", "cc 2.0", ("-O3",)) != base
        assert build_key("int x;", "cc 1.0", ("-O2",)) != base
        assert build_key("int x;", "cc 1.0", ("-O3",)) == base

    def test_sidecar_describes_the_build(self, tmp_path):
        path, _ = compile_cached(NATIVE_C_SOURCE, tmp_path)
        info = describe_build_file(path)
        assert info["format"] == "repro-native-build"
        assert info["key"] in path.name
        assert "-O3" in info["flags"]
        assert info["source_bytes"] == len(NATIVE_C_SOURCE.encode())
        assert "error" not in info

    def test_describe_survives_corrupt_sidecar(self, tmp_path):
        path, _ = compile_cached(NATIVE_C_SOURCE, tmp_path)
        path.with_suffix(".json").write_text("{not json")
        info = describe_build_file(path)
        assert "unreadable sidecar" in info["error"]
        path.with_suffix(".json").unlink()
        assert describe_build_file(path)["error"] == "no build sidecar"

    def test_corrupt_so_discarded_with_warning_and_rebuilt(self, tmp_path):
        path, _ = compile_cached(NATIVE_C_SOURCE, tmp_path)
        path.write_bytes(b"this is not a shared library")
        warnings = []
        library = load_native_library(
            NATIVE_C_SOURCE, _SYMBOLS, tmp_path, warn=warnings.append
        )
        assert len(warnings) == 1
        assert "discarding corrupt native kernel build" in warnings[0]
        # The rebuilt library is real: the symbols resolve and run.
        assert all(hasattr(library, symbol) for symbol in _SYMBOLS)
        rebuilt, compiled_now = compile_cached(NATIVE_C_SOURCE, tmp_path)
        assert rebuilt.exists() and not compiled_now

    def test_missing_symbol_is_a_build_error(self, tmp_path):
        trivial = "int repro_nothing(void) { return 0; }\n"
        with pytest.raises(NativeBuildError, match="lacks symbol"):
            load_native_library(trivial, ("repro_cover_grid",), tmp_path)

    def test_compile_failure_carries_compiler_stderr(self, tmp_path):
        with pytest.raises(NativeBuildError, match="compile failed"):
            compile_cached("this is not C at all!!!", tmp_path)

    def test_stale_lock_is_broken(self, tmp_path, monkeypatch):
        from repro.core.kernels import build as build_module

        path, _ = compile_cached(NATIVE_C_SOURCE, tmp_path)
        path.unlink()  # force a cold rebuild under the same key
        lock = path.with_suffix(".lock")
        lock.touch()  # orphaned lock from a builder killed mid-compile
        monkeypatch.setattr(build_module, "_LOCK_STALE_SECONDS", -1.0)
        rebuilt, compiled_now = compile_cached(NATIVE_C_SOURCE, tmp_path)
        assert compiled_now and rebuilt == path
        assert not lock.exists()

    def test_concurrent_workers_compile_exactly_once(self, tmp_path):
        backend = ProcessBackend(jobs=4)
        compiled = backend.map(_compile_worker, [str(tmp_path)] * 4)
        assert sum(compiled) == 1  # one builder, three warm loads
        libraries = list(tmp_path.glob("*.so"))
        locks = list(tmp_path.glob("*.lock"))
        assert len(libraries) == 1
        assert locks == []  # lock released even by the winning builder


class TestNoCompilerFallback:
    """The pinned no-toolchain path: one warning, every command runs."""

    def test_disable_env_reports_unavailable(self, no_native):
        assert "REPRO_NATIVE_DISABLE" in kernel_availability()["native"]

    def test_missing_compiler_reports_unavailable(self, monkeypatch):
        from repro.core.kernels import native as native_module

        monkeypatch.delenv("REPRO_NATIVE_DISABLE", raising=False)
        monkeypatch.setenv(
            "REPRO_NATIVE_CC", "no-such-compiler-on-this-machine"
        )
        native_module._reset_native_state()
        try:
            reason = kernel_availability()["native"]
            assert "no C compiler found" in reason
        finally:
            native_module._reset_native_state()

    def test_find_compiler_raises_without_any_candidate(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_DISABLE", raising=False)
        monkeypatch.setenv("REPRO_NATIVE_CC", "no-such-compiler")
        with pytest.raises(NativeBuildError, match="no C compiler found"):
            find_compiler()

    def test_auto_runs_with_one_warning(self, no_native, capsys):
        rng = np.random.default_rng(3)
        blocks = BlockSet.from_trit_array(
            rng.integers(0, 2, 8 * 300).astype(np.int8), 8
        )
        all_u = np.full((4, 6 * 8), DC, dtype=np.int8)
        for _ in range(3):  # repeated engines must not repeat the warning
            fitness = BatchCompressionRateFitness(
                blocks, n_vectors=6, block_length=8
            )
            rates = fitness.evaluate_batch(all_u)
            assert fitness.kernel_name == "bitpack"
            assert (rates > -1e6).all()  # all-U MVs cover everything
        stderr = capsys.readouterr().err
        assert stderr.count("native kernel unavailable") == 1

    def test_native_build_dir_follows_cache_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert native_build_dir() == tmp_path / "native"


# Serial native runs (the parent runs OpenMP parallel regions), then
# the same runs forked into a process pool.
FORK_AFTER_OPENMP_SCRIPT = textwrap.dedent(
    """
    from repro.core.config import CompressionConfig, EAParameters
    from repro.core.kernels import select_kernel_name
    from repro.core.optimizer import EAMVOptimizer
    from repro.parallel import ProcessBackend
    from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set

    spec = SyntheticSpec(
        "fork", n_patterns=60, pattern_bits=96, care_density=0.4, seed=3
    )
    blocks = synthetic_test_set(spec).blocks(12)
    assert select_kernel_name() == "native"  # the fitness's auto pick
    config = CompressionConfig(
        block_length=12, n_vectors=8, runs=2,
        ea=EAParameters(stagnation_limit=5, max_evaluations=60),
    )
    serial = EAMVOptimizer(config, seed=5).optimize(blocks)
    pooled = EAMVOptimizer(
        config, seed=5, backend=ProcessBackend(2)
    ).optimize(blocks)
    assert [run.rate for run in pooled.runs] == [run.rate for run in serial.runs]
    print("ok")
    """
)


@requires_native
def test_process_pool_after_openmp_regions_does_not_hang():
    """GNU libgomp is not fork-safe: without the at-fork hook, a forked
    worker's first parallel region waits forever for threads the fork
    did not copy.  Runs in its own session so a hang can be killed
    with every pool worker it forked."""
    child = subprocess.Popen(
        [sys.executable, "-c", FORK_AFTER_OPENMP_SCRIPT],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=subprocess_environment(OMP_NUM_THREADS="2"),
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("process pool hung after the parent ran OpenMP regions")
    assert child.returncode == 0, err
    assert out.strip() == "ok"


# Pool workers that load the library only after the fork: the parent
# never prices a genome, exactly like `repro compress --jobs 2`.
LOAD_AFTER_FORK_SCRIPT = textwrap.dedent(
    """
    from repro.core.kernels import native
    from repro.parallel import ProcessBackend

    def openmp_threads(_):
        library = native._load_library()[0]
        return library.omp_get_max_threads()

    assert native._LOADED is None
    print(ProcessBackend(2).map(openmp_threads, range(4)))
    """
)


@requires_native
def test_pool_workers_loading_after_fork_run_one_openmp_thread():
    """Each worker loads the library itself; without the forked-child
    flag libgomp would start one thread per core in every worker and
    two workers would oversubscribe the machine."""
    child = subprocess.Popen(
        [sys.executable, "-c", LOAD_AFTER_FORK_SCRIPT],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=subprocess_environment(OMP_NUM_THREADS="2"),
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("process pool hung while loading the native library")
    assert child.returncode == 0, err
    assert out.strip() == "[1, 1, 1, 1]"
