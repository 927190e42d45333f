import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jcas.channel import NoiseSpec, SymbolMatrix, synthesize_grid
from jcas.config import Target, capabilities, doppler_bin, range_bin
from jcas.transforms import MultiplyCounter
from jcas.grid_estimator import (GridDetection, RadarImage, bins_to_estimate,
                                 circular_maxima, detect_peaks_2d, range_doppler_map,
                                 to_normalized_db)
from oracles import brute_2d, local_maxima_2d, out_of_place_map


def _top_peak(rd):
    return np.unravel_index(np.argmax(rd.magnitude_db), rd.magnitude_db.shape)


def test_single_target_peak_bins_table1(table1):
    c = synthesize_grid(table1, [Target(40.0, 5.0, 1.0)], np.array([1.0]))
    rd = range_doppler_map(c, method="naive")
    p, q = _top_peak(rd)
    # bin centers 107.52 and 26.13
    assert abs(p - 108) <= 1 and abs(q - 26) <= 1


def test_map_matches_brute_force_oracle(small_cfg):
    c = synthesize_grid(small_cfg, [Target(31.0, 7.0, 1.0)], np.array([0.7 - 0.2j]))
    rd = range_doppler_map(c, method="naive")
    oracle = np.abs(brute_2d(c.values))
    oracle_db = 20 * np.log10(np.maximum(oracle, oracle.max() * 1e-15) / oracle.max())
    assert np.max(np.abs(rd.magnitude_db - oracle_db)) < 1e-6


def test_naive_and_fast_paths_agree(table1):
    c = synthesize_grid(table1, [Target(40.0, 5.0, 1.0), Target(90.0, 30.0, 1.0)],
                        np.array([1.0, 0.3]))
    a = range_doppler_map(c, method="naive")
    b = range_doppler_map(c, method="fast")
    assert np.max(np.abs(a.magnitude_db - b.magnitude_db)) < 1e-6


@pytest.mark.parametrize("shape", [(48, 48), (7, 12), (12, 7), (1, 9), (9, 1), (1, 1)])
def test_fast_map_overwrites_complex_values_with_spectrum(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c = SymbolMatrix(x.copy())
    rd = range_doppler_map(c, method="fast")
    assert rd.magnitude_db.tobytes() == out_of_place_map(x).tobytes()
    # the map is packed into the frame's one buffer, over its first N_f*N_t floats
    assert np.shares_memory(rd.magnitude_db, c.values)
    assert rd.magnitude_db.tobytes() == c.values.view(np.float64).ravel()[:x.size].tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 70), st.integers(1, 70), st.integers(0, 2 ** 32 - 1))
@example(1, 1, 0)
@example(1, 33, 1)
@example(33, 1, 2)
@example(2, 2, 3)
@example(3, 127, 4)
@example(129, 5, 5)
def test_fast_map_packed_in_place_is_the_out_of_place_map(n_f, n_t, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_f, n_t)) + 1j * rng.standard_normal((n_f, n_t))
    rd = range_doppler_map(SymbolMatrix(x.copy()), method="fast")
    assert rd.magnitude_db.flags.c_contiguous
    assert rd.magnitude_db.tobytes() == out_of_place_map(x).tobytes()


def test_noisy_table1_frame_holds_one_frame_sized_array(table1):
    # Synthesis and map share the product's complex buffer; the noise chunk,
    # the ramps and the FFT's working rows stay under 1 MiB beside it.
    rng = np.random.default_rng(23)
    targets = [Target(r, v, 1.0) for r, v in zip(rng.uniform(1.0, 170.0, 16),
                                                  rng.uniform(-60.0, 60.0, 16))]
    amps = rng.uniform(0.1, 1.0, 16) * np.exp(2j * np.pi * rng.uniform(size=16))
    noise = NoiseSpec(snr_db=20.0, rng_seed=3)
    tracemalloc.start()
    try:
        range_doppler_map(synthesize_grid(table1, targets, amps, noise=noise))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * table1.n_sensing_freq * table1.n_sensing_time + 2 ** 20, peak


@pytest.mark.parametrize("shape", [(7, 12), (1, 9)])
def test_fast_map_copies_float_and_read_only_values(shape):
    rng = np.random.default_rng(sum(shape))
    real = rng.standard_normal(shape)
    frozen = real + 1j * rng.standard_normal(shape)
    frozen.flags.writeable = False
    for x in (real, frozen):
        before = x.copy()
        rd = range_doppler_map(SymbolMatrix(x), method="fast")
        assert rd.magnitude_db.tobytes() == out_of_place_map(before).tobytes()
        assert x.tobytes() == before.tobytes()


def test_naive_map_leaves_values_and_counts_2n_cubed():
    n = 12
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    before = x.copy()
    counter = MultiplyCounter()
    rd = range_doppler_map(SymbolMatrix(x), method="naive", counter=counter)
    assert x.tobytes() == before.tobytes()
    assert counter.count == 2 * n ** 3
    assert np.max(np.abs(rd.magnitude_db - out_of_place_map(before))) < 1e-6


def test_counter_on_fast_map_refused_before_writing():
    x = np.ones((8, 8), dtype=complex)
    with pytest.raises(ValueError, match="naive"):
        range_doppler_map(SymbolMatrix(x), method="fast", counter=MultiplyCounter())
    assert np.array_equal(x, np.ones((8, 8)))


def test_all_ones_peaks_at_dc(small_cfg):
    c = SymbolMatrix(np.ones((48, 48), dtype=complex))
    rd = range_doppler_map(c, method="naive")
    assert _top_peak(rd) == (0, 0)
    assert rd.magnitude_db[0, 0] == 0.0


def test_parseval_with_map_convention(small_cfg):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
    c = SymbolMatrix(values)
    spectrum_energy = np.sum(10 ** (range_doppler_map(c, method="naive").magnitude_db / 10.0))
    # recover absolute energy through the stored reference level
    rd = range_doppler_map(c, method="naive")
    ref = 10 ** (rd.reference_level / 20.0)
    absolute = np.sum((ref * 10 ** (rd.magnitude_db / 20.0)) ** 2)
    expected = (48 / 48) * np.sum(np.abs(values) ** 2)
    assert absolute == pytest.approx(expected, rel=1e-9)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(0.0, 1e12), min_size=1, max_size=64).filter(lambda v: max(v) > 1e-200))
def test_to_normalized_db_matches_expression_in_place(values):
    # The expression with its temporaries is the reference, bit for bit.
    mag = np.array(values)
    peak = float(mag.max())
    expect = 20.0 * np.log10(np.maximum(mag, peak * 1e-15) / peak)
    db, ref = to_normalized_db(mag)
    assert db is mag and db.tobytes() == expect.tobytes()
    assert ref == 20.0 * np.log10(peak)


def test_equal_targets_with_matched_bin_offsets(table1):
    # same fractional bin positions so scalloping cancels in the comparison
    r1, v1 = 20.0, 5.0
    r2 = r1 + 27 / (range_bin(table1, 1.0))
    v2 = v1 + 10 / (doppler_bin(table1, 1.0))
    c = synthesize_grid(table1, [Target(r1, v1, 1.0), Target(r2, v2, 1.0)],
                        np.array([1.0, 1.0]))
    rd = range_doppler_map(c)
    dets = detect_peaks_2d(rd, threshold_db=-20.0, cfg=table1)
    assert len(dets) == 2
    assert abs(dets[0].magnitude_db - dets[1].magnitude_db) < 0.5


def test_32db_gap_preserved(table1):
    r1, v1 = 20.0, 5.0
    r2 = r1 + 40 / range_bin(table1, 1.0)
    v2 = v1 + 25 / doppler_bin(table1, 1.0)
    gap = 10 ** (-32 / 20)
    c = synthesize_grid(table1, [Target(r1, v1, 1.0), Target(r2, v2, 1.0)],
                        np.array([1.0, gap]))
    rd = range_doppler_map(c)
    dets = detect_peaks_2d(rd, threshold_db=-40.0, cfg=table1)
    strong = max(dets, key=lambda d: d.magnitude_db)
    weak = [d for d in dets if abs(d.range_bin - strong.range_bin) > 5][0]
    assert strong.magnitude_db - weak.magnitude_db == pytest.approx(32.0, abs=0.5)


def test_single_target_exactly_one_detection(table1):
    # the 2-D skirt is a separable product of monotone 1-D skirts, so a lone
    # target yields exactly one local maximum at any threshold
    c = synthesize_grid(table1, [Target(40.0, 5.0, 1.0)], np.array([1.0]))
    dets = detect_peaks_2d(range_doppler_map(c), threshold_db=-40.0, cfg=table1)
    assert len(dets) == 1
    assert (dets[0].range_bin, dets[0].doppler_bin) == (108, 26)


def test_masked_weak_target_suppressed_by_threshold(table1):
    gap = 10 ** (-32 / 20)
    c = synthesize_grid(table1, [Target(20.0, 5.0, 1.0), Target(60.0, 25.0, 1.0)],
                        np.array([1.0, gap]))
    dets = detect_peaks_2d(range_doppler_map(c), threshold_db=-20.0, cfg=table1)
    assert len(dets) == 1


def test_flat_map_yields_no_peaks(small_cfg):
    rd = range_doppler_map(SymbolMatrix(np.ones((48, 48), dtype=complex)))
    flat = rd.magnitude_db.copy()
    flat[:] = 0.0
    assert detect_peaks_2d(RadarImage(flat, 0.0), threshold_db=-3.0,
                           cfg=small_cfg) == []


def _oracle_detections(db, threshold_db, guard, cfg):
    found = [GridDetection(p, q, float(db[p, q]), *bins_to_estimate(cfg, p, q))
             for p, q in local_maxima_2d(db, threshold_db, guard)]
    return sorted(found, key=lambda d: -d.magnitude_db)


@pytest.mark.parametrize("guard", [1, 2, 3])
@pytest.mark.parametrize("shape", [(3, 5), (4, 4), (5, 3), (7, 9), (16, 16)])
def test_detect_matches_loop_oracle_with_ties(small_cfg, shape, guard):
    # Quarter-dB levels tie often. On an axis of at most guard bins the
    # wrapped neighbourhood reaches the cell itself, and that offset is
    # skipped. detect_peaks_2d's guard is 2 cells.
    rng = np.random.default_rng(10 * shape[0] + shape[1] + guard)
    for _ in range(20):
        db = rng.integers(-240, 1, size=shape) * 0.25
        for threshold in (-10.0, -20.0, -30.0, -40.0, -50.0, -60.0):
            if guard == 2:
                want = _oracle_detections(db, threshold, guard, small_cfg)
                assert detect_peaks_2d(RadarImage(db, 0.0), threshold, cfg=small_cfg) == want
            assert circular_maxima(db, threshold, guard).tolist() == [
                p * shape[1] + q for p, q in local_maxima_2d(db, threshold, guard)]


@pytest.mark.parametrize("guard", [1, 2, 3])
def test_short_axis_compares_a_cell_with_other_cells_only(guard):
    # On a 2-bin axis an offset of +-2 wraps back onto the cell itself; a
    # comparison with itself would leave no cell standing.
    assert circular_maxima(np.array([[0.0, -6.0], [-3.0, -9.0]]), -30.0, guard).tolist() == [0]
    assert circular_maxima(np.array([[-4.0, -1.0, -8.0]]), -30.0, guard).tolist() == [1]
    assert circular_maxima(np.zeros((2, 2)), -30.0, guard).tolist() == []


def test_detect_noisy_full_map_matches_loop_oracle(table1):
    rng = np.random.default_rng(3)
    values = rng.standard_normal((480, 480)) + 1j * rng.standard_normal((480, 480))
    values += 2.0 * synthesize_grid(table1, [Target(40.0, 5.0, 1.0),
                                             Target(90.0, -12.0, 1.0)],
                                    np.array([1.0, 0.1])).values
    rd = range_doppler_map(SymbolMatrix(values))
    want = _oracle_detections(rd.magnitude_db, -60.0, 2, table1)
    assert len(want) > 1000
    assert detect_peaks_2d(rd, -60.0, cfg=table1) == want


def test_detect_rejects_bad_arguments(small_cfg):
    rd = range_doppler_map(SymbolMatrix(np.ones((48, 48), dtype=complex)))
    with pytest.raises(ValueError):
        detect_peaks_2d(rd, threshold_db=1.0, cfg=small_cfg)


def test_bins_to_estimate_values(table1):
    assert bins_to_estimate(table1, 0, 0) == (0.0, 0.0)
    r, v = bins_to_estimate(table1, 108, 26)
    assert r == pytest.approx(40.1786, abs=1e-4)
    assert v == pytest.approx(4.97449, abs=1e-5)


def test_unequal_comb_spacings_read_within_one_cell(unequal_cfg):
    # L_t = 4, L_f = 7: the Doppler bin maps back over the n_symbols = 1920
    # symbols the time comb spans.
    caps = capabilities(unequal_cfg)
    c = synthesize_grid(unequal_cfg, [Target(40.0, 5.0, 1.0)], np.array([1.0]))
    p, q = _top_peak(range_doppler_map(c))
    r_hat, v_hat = bins_to_estimate(unequal_cfg, int(p), int(q))
    assert abs(r_hat - 40.0) <= caps.range_resolution
    assert abs(v_hat - 5.0) <= caps.velocity_resolution


def test_bins_to_estimate_bounds(table1):
    with pytest.raises(ValueError):
        bins_to_estimate(table1, 480, 0)
    with pytest.raises(ValueError):
        bins_to_estimate(table1, 0, -1)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.8, max_value=177.0),
       st.floats(min_value=0.4, max_value=91.0))
def test_roundtrip_recovers_target(table1, r, v):
    c = synthesize_grid(table1, [Target(r, v, 1.0)], np.array([1.0]))
    rd = range_doppler_map(c)
    p, q = _top_peak(rd)
    r_hat, v_hat = bins_to_estimate(table1, int(p), int(q))
    assert abs(r_hat - r) <= 3e8 / (2 * 403.2e6)
    assert abs(v_hat - v) <= 0.1913265306122449
