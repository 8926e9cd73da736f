"""Static test-set compaction (the thing the paper's inputs do NOT do).

The paper deliberately compresses *uncompacted* test sets: compaction
merges compatible cubes, which shrinks the pattern count but destroys
don't-cares — and code-based compression feeds on don't-cares.  This
module implements greedy static compaction so the trade-off can be
measured: compaction reduces ``T·n`` up front, compression reduces
transferred bits; the interesting question is the product.

Two cubes are *compatible* when no position pairs a specified 0 with
a specified 1; their merge specifies the union of their care bits.
Greedy first-fit merging preserves fault coverage by construction
(every original cube is contained in some merged cube).
"""

from __future__ import annotations

import numpy as np

from ..core.trits import DC
from ..testdata.test_set import TestSet

__all__ = ["cubes_compatible", "merge_cubes", "compact_test_set"]


def cubes_compatible(first: np.ndarray, second: np.ndarray) -> bool:
    """True iff no position has specified, conflicting values.

    >>> import numpy as np
    >>> a = np.asarray([0, 2, 1], dtype=np.int8)
    >>> b = np.asarray([0, 1, 2], dtype=np.int8)
    >>> cubes_compatible(a, b)
    True
    """
    both_specified = (first != DC) & (second != DC)
    return bool((first[both_specified] == second[both_specified]).all())


def merge_cubes(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Union of two compatible cubes (specified bits win over X)."""
    if not cubes_compatible(first, second):
        raise ValueError("cannot merge incompatible cubes")
    return np.where(first != DC, first, second).astype(np.int8)


def compact_test_set(test_set: TestSet) -> TestSet:
    """Greedy first-fit static compaction.

    Cubes are processed in order; each is merged into the first
    existing merged cube it is compatible with, or starts a new one.
    The result detects every fault the input detects (each input cube
    is covered by its merged cube), with fewer patterns and a lower X
    density.

    >>> ts = TestSet.from_strings("t", ["1X0", "10X", "0XX"])
    >>> compacted = compact_test_set(ts)
    >>> compacted.n_patterns
    2
    """
    merged: list[np.ndarray] = []
    for row in range(test_set.n_patterns):
        cube = test_set.patterns[row]
        for index, existing in enumerate(merged):
            if cubes_compatible(existing, cube):
                merged[index] = merge_cubes(existing, cube)
                break
        else:
            merged.append(cube.copy())
    return TestSet(
        name=f"{test_set.name}-compacted",
        patterns=np.stack(merged),
    )
