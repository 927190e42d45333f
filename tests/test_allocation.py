import dataclasses

import pytest

from jcas.allocation import AllocationKind, build_allocation, overhead
from jcas.config import OfdmConfig


def test_grid_allocation_table1(table1):
    alloc = build_allocation(table1, AllocationKind.GRID)
    assert len(alloc.entries) == 480 * 480
    assert alloc.entries[0] == (0, 0)
    # next frequency step sits seven subcarriers up
    assert alloc.entries[480] == (7, 0)
    assert len(set(alloc.entries)) == len(alloc.entries)


def test_diagonal_allocation_table1(table1):
    alloc = build_allocation(table1, AllocationKind.DIAGONAL)
    assert len(alloc.entries) == 480
    assert alloc.entries[2] == (14, 14)
    ms = [m for m, _ in alloc.entries]
    ns = [n for _, n in alloc.entries]
    assert ms == sorted(ms) and len(set(ms)) == len(ms)
    assert ns == sorted(ns) and len(set(ns)) == len(ns)


def test_diagonal_projections_match_grid_axes(table1):
    grid = build_allocation(table1, AllocationKind.GRID)
    diag = build_allocation(table1, AllocationKind.DIAGONAL)
    assert {m for m, _ in diag.entries} == {m for m, _ in grid.entries}
    assert {n for _, n in diag.entries} == {n for _, n in grid.entries}


def test_overhead_table1(table1):
    og = overhead(build_allocation(table1, AllocationKind.GRID))
    od = overhead(build_allocation(table1, AllocationKind.DIAGONAL))
    assert og == pytest.approx(480**2 / 3360**2)
    assert og == pytest.approx(0.0204, abs=5e-5)
    assert od == pytest.approx(480 / 3360**2)
    assert od == pytest.approx(4.25e-5, abs=5e-8)
    assert og / od == 480.0


def test_dense_allocation_overhead_is_one():
    cfg = OfdmConfig(carrier_freq=28e9, subcarrier_spacing=120e3,
                     n_subcarriers=48, n_symbols=48,
                     n_sensing_freq=48, n_sensing_time=48)
    assert overhead(build_allocation(cfg, AllocationKind.GRID)) == 1.0


def test_allocation_immutable(table1):
    alloc = build_allocation(table1, AllocationKind.DIAGONAL)
    with pytest.raises(dataclasses.FrozenInstanceError):
        alloc.kind = AllocationKind.GRID
