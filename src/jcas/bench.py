"""Complexity comparison of the two estimators' transform stages.

Counts complex multiplications on each estimator's own naive transform path
(one length-n DFT needs n^2; the 2-D pass needs n row DFTs plus n column
IDFTs, 2*n^3 total). Counting is by explicit counter increments in the
naive method, never hardware counters or wall time, so the numbers are
portable and exact: the grid/diagonal ratio is 2n for every n.
"""

from __future__ import annotations

import numpy as np

from .channel import DiagonalVector, SymbolMatrix
from .diag_estimator import diag_spectrum
from .grid_estimator import range_doppler_map
from .transforms import MultiplyCounter

ALGORITHMS = ("grid2d", "diag")


def count_ops(algorithm: str, n: int) -> int:
    """Run the estimator's naive transform on an n-point block; return the multiplies."""
    if n < 2:
        raise ValueError("n must be >= 2")
    counter = MultiplyCounter()
    if algorithm == "grid2d":
        range_doppler_map(SymbolMatrix(np.ones((n, n))), method="naive", counter=counter)
    elif algorithm == "diag":
        diag_spectrum(DiagonalVector(np.ones(n)), method="naive", counter=counter)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    return counter.count


def run_bench(sizes: list[int]) -> list[tuple[int, int, int]]:
    """One (n, grid2d multiplies, diag multiplies) per size, in the order given."""
    return [(n, count_ops("grid2d", n), count_ops("diag", n)) for n in sizes]
