"""Genome representation for the MV-search EA.

An individual is the concatenation of ``L`` matching vectors, i.e. a
string of ``K·L`` genes over the trit alphabet ``{0, 1, U}``
(Section 3.1).  Genomes are small numpy ``int8`` arrays; every operator
returns a fresh array, never mutating its input.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TRIT_ALPHABET_SIZE", "random_genome", "validate_genome"]

TRIT_ALPHABET_SIZE = 3


def random_genome(length: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a uniform random trit genome of the given length.

    >>> g = random_genome(6, np.random.default_rng(0))
    >>> g.shape, g.dtype.name
    ((6,), 'int8')
    """
    if length < 1:
        raise ValueError("genome length must be >= 1")
    return rng.integers(0, TRIT_ALPHABET_SIZE, size=length, dtype=np.int8)


def validate_genome(genome: np.ndarray) -> np.ndarray:
    """Check dtype/range and return the genome as a contiguous array."""
    array = np.ascontiguousarray(genome, dtype=np.int8)
    if array.ndim != 1:
        raise ValueError("genome must be one-dimensional")
    if array.size == 0:
        raise ValueError("genome must be non-empty")
    if array.min() < 0 or array.max() >= TRIT_ALPHABET_SIZE:
        raise ValueError(f"genes must be in [0, {TRIT_ALPHABET_SIZE})")
    return array
