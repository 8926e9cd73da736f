"""Evolutionary operators: crossover, mutation, inversion, copy.

Paper, Section 3.1:

* *crossover* takes two parents and produces two children "by
  exchanging bit positions (genes) of the parents" — implemented as
  uniform crossover (each gene independently from either parent), with
  one-point crossover available as a variant;
* *mutation* "generates one child from one parent by replacing one
  randomly selected gene of a parent by a random value";
* *inversion* "produces a child by reverting the ordering of the genes
  between two random positions of a parent".

All operators are pure: parents are never modified.  Each call draws
from the RNG a fixed number of times in a fixed order and is
vectorized internally (one bulk draw, numpy gene manipulation) — the
batched engine relies on that stability to generate a whole
generation of genomes up front and price them in one fitness call
while staying bit-for-bit reproducible under a seed.
"""

from __future__ import annotations

import numpy as np

from .genome import TRIT_ALPHABET_SIZE

__all__ = [
    "uniform_crossover",
    "one_point_crossover",
    "point_mutation",
    "segment_inversion",
    "reproduce",
]


def uniform_crossover(
    parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Exchange genes position-wise; each child takes each gene from a
    uniformly chosen parent (complementary choices for the siblings)."""
    if parent_a.shape != parent_b.shape:
        raise ValueError("parents must have equal genome length")
    take_from_a = rng.random(parent_a.size) < 0.5
    child_one = np.where(take_from_a, parent_a, parent_b).astype(np.int8, copy=False)
    child_two = np.where(take_from_a, parent_b, parent_a).astype(np.int8, copy=False)
    return child_one, child_two


def one_point_crossover(
    parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Classic one-point crossover: swap the tails after a random cut."""
    if parent_a.shape != parent_b.shape:
        raise ValueError("parents must have equal genome length")
    if parent_a.size < 2:
        return parent_a.copy(), parent_b.copy()
    cut = int(rng.integers(1, parent_a.size))
    child_one = np.concatenate([parent_a[:cut], parent_b[cut:]]).astype(
        np.int8, copy=False
    )
    child_two = np.concatenate([parent_b[:cut], parent_a[cut:]]).astype(
        np.int8, copy=False
    )
    return child_one, child_two


def point_mutation(parent: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Replace one randomly selected gene by a random trit."""
    child = parent.copy()
    position = int(rng.integers(0, child.size))
    child[position] = np.int8(rng.integers(0, TRIT_ALPHABET_SIZE))
    return child


def segment_inversion(parent: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Reverse the gene order between two random positions (inclusive)."""
    child = parent.copy()
    if child.size < 2:
        return child
    draws = rng.integers(0, child.size, size=2)
    first, second = int(draws.min()), int(draws.max())
    child[first : second + 1] = child[first : second + 1][::-1]
    return child


def reproduce(parent: np.ndarray) -> np.ndarray:
    """Plain reproduction: an identical copy of the parent."""
    return parent.copy()
