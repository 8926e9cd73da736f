"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.blocks import BlockSet


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG for tests that need randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def force_kernel(monkeypatch):
    """``force_kernel(name)`` makes the ``auto`` pick return ``name``.

    Covering kernels are private to the fitness layer, so a test that
    drives the optimizer, the CLI or serve forces one by patching the
    ``auto`` rule — in this process and in every worker it forks.
    ``force_kernel("auto")`` restores the real rule.
    """
    from repro.core import kernels

    auto = kernels.select_kernel_name

    def force(name: str) -> None:
        pick = auto if name == "auto" else (lambda: name)
        monkeypatch.setattr(kernels, "select_kernel_name", pick)

    return force


def subprocess_environment(**overrides: str) -> dict[str, str]:
    """This environment with ``src/`` first on ``PYTHONPATH``.

    For tests that run ``repro`` in a child interpreter, which does
    not see pytest's ``pythonpath`` setting.
    """
    environment = dict(os.environ, **overrides)
    source_root = str(Path(__file__).resolve().parents[1] / "src")
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = (
        os.pathsep.join((source_root, existing)) if existing else source_root
    )
    return environment


def trit_strings(min_size: int = 1, max_size: int = 200) -> st.SearchStrategy[str]:
    """Strategy producing 0/1/X test-set strings."""
    return st.text(alphabet="01X", min_size=min_size, max_size=max_size)


def mv_strings(length: int) -> st.SearchStrategy[str]:
    """Strategy producing fixed-length matching-vector strings."""
    return st.text(alphabet="01U", min_size=length, max_size=length)


def random_block_set(
    rng: np.random.Generator,
    n_bits: int,
    block_length: int,
    care_probability: float = 0.5,
    one_bias: float = 0.5,
) -> BlockSet:
    """Build a random block set with the given care-bit density."""
    care = rng.random(n_bits) < care_probability
    values = rng.random(n_bits) < one_bias
    trits = np.where(care, values.astype(np.int8), np.int8(2))
    return BlockSet.from_trit_array(trits.astype(np.int8), block_length)
