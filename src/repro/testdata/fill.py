"""Don't-care fill strategies — what compression loses if X is spent.

The paper's premise is that matching vectors exploit unspecified
values: an X matches anything, so X-rich blocks fall into cheap MVs.
Testers, by contrast, must eventually apply concrete values; classic
fill policies are 0-fill, 1-fill, and random fill (power-aware flows
also use adjacent fill, included here as ``repeat``).

Filling *before* compression destroys exactly the freedom the encoder
feeds on: under 9C no policy compresses its filled vectors better than
the cubes (``tests/testdata/test_fill.py`` checks it), which is the
argument for compressing test *cubes* rather than test *vectors*.
"""

from __future__ import annotations

import numpy as np

from ..core.trits import DC
from .test_set import TestSet

__all__ = ["FILL_STRATEGIES", "fill_test_set"]

FILL_STRATEGIES = ("zero", "one", "random", "repeat")


def fill_test_set(
    test_set: TestSet, strategy: str = "zero", seed: int = 0
) -> TestSet:
    """Replace every X with a concrete bit per the given policy.

    * ``zero`` / ``one`` — constant fill;
    * ``random`` — i.i.d. fair coin (seeded);
    * ``repeat`` — adjacent fill: each X copies the last specified bit
      to its left in the same pattern (0 if none), the standard
      low-transition scan fill.

    >>> ts = TestSet.from_strings("t", ["1XX0", "X1XX"])
    >>> fill_test_set(ts, "repeat").pattern_string(0)
    '1110'
    """
    if strategy not in FILL_STRATEGIES:
        raise ValueError(
            f"unknown fill strategy {strategy!r}; choose from {FILL_STRATEGIES}"
        )
    patterns = test_set.patterns.copy()
    unspecified = patterns == DC
    if strategy == "zero":
        patterns[unspecified] = 0
    elif strategy == "one":
        patterns[unspecified] = 1
    elif strategy == "random":
        rng = np.random.default_rng(seed)
        draws = rng.integers(0, 2, size=int(unspecified.sum()), dtype=np.int8)
        patterns[unspecified] = draws
    else:  # repeat (adjacent fill)
        for row in range(patterns.shape[0]):
            last = np.int8(0)
            for col in range(patterns.shape[1]):
                if patterns[row, col] == DC:
                    patterns[row, col] = last
                else:
                    last = patterns[row, col]
    return TestSet(name=f"{test_set.name}-{strategy}-fill", patterns=patterns)
