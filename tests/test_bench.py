import numpy as np
import pytest

from jcas.channel import LinkBudget, synthesize_diag, synthesize_grid, target_amplitudes
from jcas.cli import count_ops
from jcas.diag_estimator import diag_spectrum
from jcas.grid_estimator import range_doppler_map
from jcas.scenario import builtin_scene, targets_at
from jcas.transforms import MultiplyCounter, dft, idft


@pytest.mark.parametrize("n,expected", [(64, 2 * 64**3), (128, 2 * 128**3),
                                        (480, 2 * 480**3)])
def test_grid2d_count(n, expected):
    assert count_ops(n)[0] == expected


@pytest.mark.parametrize("n", [64, 128, 480])
def test_diag_count(n):
    assert count_ops(n)[1] == n * n


@pytest.mark.parametrize("n", [2, 16, 64, 128, 256, 480])
def test_ratio_is_two_n(n):
    g, d = count_ops(n)
    assert g / d == 2 * n


def test_count_independent_of_data():
    # same size, different data: identical counts
    c1, c2 = MultiplyCounter(), MultiplyCounter()
    rng = np.random.default_rng(0)
    dft(rng.standard_normal(32) + 0j, method="naive", counter=c1)
    dft(np.ones(32, dtype=complex), method="naive", counter=c2)
    assert c1.count == c2.count == 32 * 32


def test_instrumentation_preserves_results():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    plain = idft(dft(x, axis=1, method="naive"), axis=0, method="naive")
    counted = idft(dft(x, axis=1, method="naive", counter=MultiplyCounter()), axis=0,
                   method="naive", counter=MultiplyCounter())
    assert np.array_equal(plain, counted)


def test_bad_size():
    with pytest.raises(ValueError, match="n must be >= 2"):
        count_ops(1)


def test_count_ops_report_shape():
    report = {n: count_ops(n) for n in (64, 128)}
    assert all(type(c) is int for counts in report.values() for c in counts)
    assert {n: grid / diag for n, (grid, diag) in report.items()} == {64: 128.0, 128: 256.0}


@pytest.mark.parametrize("algorithm", ["diag", "grid2d"])
def test_count_ops_matches_estimator_on_fig5_frame(algorithm, table1):
    # The table counts on the estimators' own naive path: a real fig5 frame
    # costs what count_ops reports for n = 480.
    scene = builtin_scene("fig5")
    t = scene.measurement_times_s[0]
    targets = targets_at(scene, t)
    amps = target_amplitudes(table1, LinkBudget(), targets, 1, 0)
    counter = MultiplyCounter()
    if algorithm == "diag":
        diag_spectrum(synthesize_diag(table1, targets, amps), method="naive",
                      counter=counter)
    else:
        range_doppler_map(synthesize_grid(table1, targets, amps), method="naive",
                          counter=counter)
    grid, diag = count_ops(table1.n_diag)
    assert (diag if algorithm == "diag" else grid) == counter.count
