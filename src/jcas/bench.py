"""Complexity comparison of the two estimators' transform stages.

Counts complex multiplications on each estimator's own naive transform path
(one length-n DFT needs n^2; the 2-D pass needs n row DFTs plus n column
IDFTs, 2*n^3 total). Counting is by explicit counter increments in the
kernels, never hardware counters or wall time, so the numbers are portable
and exact: the grid/diagonal ratio is 2n for every n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import DiagonalVector, SymbolMatrix
from .diag_estimator import diag_spectrum
from .grid_estimator import range_doppler_map
from .transforms import MultiplyCounter

ALGORITHMS = ("grid2d", "diag")


@dataclass(frozen=True)
class OpCount:
    complex_multiplies: int
    transform_label: str
    n: int


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[OpCount, ...]
    ratio_counted: dict[int, float]


def count_ops(algorithm: str, n: int) -> OpCount:
    """Run the estimator's naive transform on an n-point block and count."""
    if n < 2:
        raise ValueError("n must be >= 2")
    counter = MultiplyCounter()
    if algorithm == "grid2d":
        range_doppler_map(SymbolMatrix(np.ones((n, n))), method="naive", counter=counter)
    elif algorithm == "diag":
        diag_spectrum(DiagonalVector(np.ones(n)), method="naive", counter=counter)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    return OpCount(complex_multiplies=counter.count, transform_label=algorithm, n=n)


def run_bench(sizes: list[int]) -> BenchReport:
    """Counted multiplies per algorithm and size, and the grid/diag ratio."""
    rows: list[OpCount] = []
    ratio_counted: dict[int, float] = {}
    for n in sizes:
        grid, diag = count_ops("grid2d", n), count_ops("diag", n)
        rows += [grid, diag]
        ratio_counted[n] = grid.complex_multiplies / diag.complex_multiplies
    return BenchReport(rows=tuple(rows), ratio_counted=ratio_counted)
