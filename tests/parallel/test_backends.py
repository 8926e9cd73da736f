"""Tests for the execution backends' shared map contract."""

import os

import pytest

from repro.parallel import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    in_worker,
    resolve_backend,
)

BACKENDS = {
    "serial": SerialBackend(),
    "process": ProcessBackend(3),
}


# Module-level so ProcessBackend can pickle them.
def _square(x):
    return x * x


def _fail_on_two(x):
    if x == 2:
        raise RuntimeError("unit 2 exploded")
    return x


def _nested_map(x):
    """Run a nested backend inside a worker; report worker status."""
    inner = ProcessBackend(2).map(_square, [x, x + 1])
    return (in_worker(), inner)


@pytest.mark.parametrize("name", list(BACKENDS))
class TestMapContract:
    def test_results_in_submission_order(self, name):
        backend = BACKENDS[name]
        assert backend.map(_square, list(range(10))) == [
            x * x for x in range(10)
        ]

    def test_empty_items(self, name):
        assert BACKENDS[name].map(_square, []) == []

    def test_single_item(self, name):
        assert BACKENDS[name].map(_square, [6]) == [36]

    def test_on_result_sees_every_indexed_result(self, name):
        seen = {}
        BACKENDS[name].map(
            _square, [3, 4, 5], on_result=lambda i, r: seen.__setitem__(i, r)
        )
        assert seen == {0: 9, 1: 16, 2: 25}

    def test_unit_exception_propagates(self, name):
        with pytest.raises(RuntimeError, match="unit 2 exploded"):
            BACKENDS[name].map(_fail_on_two, [0, 1, 2, 3])

    def test_satisfies_protocol(self, name):
        assert isinstance(BACKENDS[name], ExecutionBackend)


class TestWorkerGuard:
    def test_parent_is_not_a_worker(self):
        assert not in_worker()

    @pytest.mark.slow
    def test_nested_backend_degrades_to_serial_in_worker(self):
        """A backend used inside a process-pool worker must not fork a
        pool-of-pools; it runs the nested map serially instead."""
        results = ProcessBackend(2).map(_nested_map, [1, 5])
        assert results == [(True, [1, 4]), (True, [25, 36])]
        assert not in_worker()  # the parent flag is untouched


class TestResolveBackend:
    def test_default_is_serial(self):
        assert isinstance(resolve_backend(), SerialBackend)
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend(1), SerialBackend)

    def test_zero_means_all_cores(self):
        backend = resolve_backend(0)
        expected = os.cpu_count() or 1
        if expected == 1:
            assert isinstance(backend, SerialBackend)
        else:
            assert isinstance(backend, ProcessBackend)
            assert backend.jobs == expected

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend(-1)

    def test_unknown_kind_rejected(self):
        # Processes are the only pool: a pool flavor is no argument.
        assert isinstance(resolve_backend(4), ProcessBackend)
        for kind in ("thread", "process"):
            with pytest.raises(TypeError):
                resolve_backend(2, kind)

    def test_pool_backends_reject_zero_jobs(self):
        with pytest.raises(ValueError):
            ProcessBackend(0)
