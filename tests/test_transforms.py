import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jcas.transforms import MultiplyCounter, dft, idft
from oracles import brute_2d, brute_dft, brute_idft


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


@pytest.mark.parametrize("n", [2, 3, 16, 64])
def test_naive_matches_brute_force(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert _rel_err(dft(x, method="naive"), brute_dft(x)) < 1e-9
    assert _rel_err(idft(x, method="naive"), brute_idft(x)) < 1e-9


@pytest.mark.parametrize("n", [4, 48, 64, 480])
def test_naive_matches_fast(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert _rel_err(dft(x, method="naive"), dft(x)) < 1e-6
    assert _rel_err(idft(x, method="naive"), idft(x)) < 1e-6


def test_2d_composition_matches_brute():
    rng = np.random.default_rng(7)
    c = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    ours = idft(dft(c, axis=1, method="naive"), axis=0, method="naive")
    assert _rel_err(ours, brute_2d(c)) < 1e-9


def test_2d_pass_order_is_interchangeable():
    rng = np.random.default_rng(8)
    c = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    rows_then_cols = idft(dft(c, axis=1, method="naive"), axis=0, method="naive")
    cols_then_rows = dft(idft(c, axis=0, method="naive"), axis=1, method="naive")
    assert _rel_err(rows_then_cols, cols_then_rows) < 1e-9


def test_parseval_1d():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    # forward DFT carries no scale: output energy is n times input energy
    ex = np.sum(np.abs(x) ** 2)
    ey = np.sum(np.abs(dft(x, method="naive")) ** 2)
    assert ey == pytest.approx(64 * ex, rel=1e-9)


def test_parseval_2d():
    rng = np.random.default_rng(10)
    c = rng.standard_normal((32, 48)) + 1j * rng.standard_normal((32, 48))
    m = idft(dft(c, axis=1, method="naive"), axis=0, method="naive")
    # rows gain N_t, columns lose N_f under the 1/N_f inverse scale
    assert np.sum(np.abs(m) ** 2) == pytest.approx(
        (48 / 32) * np.sum(np.abs(c) ** 2), rel=1e-9)


def test_counter_tallies_square_cost():
    x = np.ones(48, dtype=complex)
    counter = MultiplyCounter()
    dft(x, method="naive", counter=counter)
    assert counter.count == 48 * 48
    counter = MultiplyCounter()
    idft(np.ones((48, 48), dtype=complex), axis=0, method="naive", counter=counter)
    assert counter.count == 48 * 48 * 48


def test_counter_does_not_change_results():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    counted = dft(x, method="naive", counter=MultiplyCounter())
    assert np.array_equal(counted, dft(x, method="naive"))


def test_method_dispatch():
    x = np.arange(8, dtype=complex)
    assert _rel_err(dft(x, method="naive"), dft(x, method="fast")) < 1e-9
    assert _rel_err(idft(x, method="naive"), idft(x, method="fast")) < 1e-9
    with pytest.raises(ValueError):
        dft(x, method="fastest")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=40))
def test_roundtrip_inverse(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert _rel_err(idft(dft(x, method="naive"), method="naive"), x) < 1e-9


@pytest.mark.parametrize("transform", [dft, idft])
def test_counter_on_fast_path_refused(transform):
    # The FFT path counts nothing, so a counter there would read zero.
    counter = MultiplyCounter()
    with pytest.raises(ValueError, match="naive"):
        transform(np.ones(8, dtype=complex), method="fast", counter=counter)
    assert counter.count == 0


@pytest.mark.parametrize("axis", [0, 1])
def test_fast_out_receives_the_result_in_place(axis):
    rng = np.random.default_rng(13)
    x = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
    for transform, fresh in ((dft, np.fft.fft), (idft, np.fft.ifft)):
        buf = x.copy()
        assert transform(buf, axis=axis, out=buf) is buf
        assert np.array_equal(buf, fresh(x, axis=axis))


def test_out_on_naive_path_refused():
    x = np.ones(8, dtype=complex)
    with pytest.raises(ValueError, match="fast"):
        dft(x, method="naive", out=x)
    assert np.array_equal(x, np.ones(8))
