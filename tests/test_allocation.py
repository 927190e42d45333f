import pytest

from jcas.config import OfdmConfig, overhead, sensing_positions


def test_grid_allocation_table1(table1):
    entries = sensing_positions(table1, diagonal=False)
    assert len(entries) == 480 * 480
    assert entries[0] == (0, 0)
    # next frequency step sits seven subcarriers up
    assert entries[480] == (7, 0)
    assert len(set(entries)) == len(entries)


def test_diagonal_allocation_table1(table1):
    entries = sensing_positions(table1, diagonal=True)
    assert len(entries) == 480
    assert entries[2] == (14, 14)
    ms = [m for m, _ in entries]
    ns = [n for _, n in entries]
    assert ms == sorted(ms) and len(set(ms)) == len(ms)
    assert ns == sorted(ns) and len(set(ns)) == len(ns)


def test_diagonal_projections_match_grid_axes(table1):
    grid = sensing_positions(table1, diagonal=False)
    diag = sensing_positions(table1, diagonal=True)
    assert {m for m, _ in diag} == {m for m, _ in grid}
    assert {n for _, n in diag} == {n for _, n in grid}


def test_overhead_table1(table1):
    og = overhead(table1, diagonal=False)
    od = overhead(table1, diagonal=True)
    assert og == pytest.approx(480**2 / 3360**2)
    assert og == pytest.approx(0.0204, abs=5e-5)
    assert od == pytest.approx(480 / 3360**2)
    assert od == pytest.approx(4.25e-5, abs=5e-8)
    assert og / od == 480.0


def test_dense_allocation_overhead_is_one():
    cfg = OfdmConfig(carrier_freq=28e9, subcarrier_spacing=120e3,
                     n_subcarriers=48, n_symbols=48,
                     n_sensing_freq=48, n_sensing_time=48)
    assert overhead(cfg, diagonal=False) == 1.0


@pytest.mark.parametrize("layout", [sensing_positions, overhead])
def test_diagonal_refuses_non_square_comb(table1, layout):
    cfg = OfdmConfig(**(table1.__dict__ | {"n_sensing_freq": 240}))
    with pytest.raises(ValueError, match="diagonal scheme requires n_sensing_freq == "
                                         "n_sensing_time, got 240/480"):
        layout(cfg, diagonal=True)
    assert layout(cfg, diagonal=False)
