import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jcas.channel import DiagonalVector, synthesize_diag
from jcas.config import Target, capabilities, tone_pair_bins
from jcas.diag_estimator import (DEFAULT_MIN_SEPARATION, DEFAULT_THRESHOLD_DB,
                                 PAIR_TOLERANCE_DB, Peak, PeakPair, WindowKind,
                                 apply_window, candidates, detect_peaks_1d,
                                 diag_spectrum, pair_peaks, RadarImage,
                                 window_coefficients)
from jcas.grid_estimator import circular_maxima
from oracles import (MAINLOBE_HALFWIDTH, frame_image, local_maxima_1d, psl,
                     single_tone_diag, thin_pairwise)

FIG3_TARGET = Target(40.0, 5.0, 1.0)
# Hand-made peaks come from no window's image; they pair at Hamming's 3 dB.
_TOLERANCE = PAIR_TOLERANCE_DB[WindowKind.HAMMING]


def _tone(n, f):
    k = np.arange(n)
    return DiagonalVector(np.exp(2j * np.pi * f * k / n))


def _image_of(table1, targets, amps, window=WindowKind.RECTANGULAR):
    d = synthesize_diag(table1, targets, np.asarray(amps, dtype=complex))
    return diag_spectrum(apply_window(d, window))


class TestWindow:
    def test_rectangular_is_identity(self, table1):
        d = synthesize_diag(table1, [FIG3_TARGET], np.array([1.0]))
        assert apply_window(d, WindowKind.RECTANGULAR) is d

    def test_hamming_edges_and_center(self):
        w = window_coefficients(WindowKind.HAMMING, 481)
        assert w[0] == pytest.approx(0.08)
        assert w[-1] == pytest.approx(0.08)
        assert w[240] == pytest.approx(1.0)

    def test_hamming_symmetric(self):
        w = window_coefficients(WindowKind.HAMMING, 480)
        assert np.allclose(w, w[::-1])

    def test_short_window_rejected(self):
        with pytest.raises(ValueError):
            window_coefficients(WindowKind.HAMMING, 1)


class TestSpectrum:
    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(st.integers(1, 40), st.sampled_from([2, 6, 7, 97, 100, 256, 480])),
           seed=st.integers(0, 2 ** 32 - 1), window=st.sampled_from(list(WindowKind)))
    def test_block_rows_equal_the_per_frame_image(self, shape, seed, window):
        # A block's windowed, transformed and normalized rows equal each row
        # run alone through the literal per-frame formula, bit for bit.
        rng = np.random.default_rng(seed)
        block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        images = diag_spectrum(apply_window(DiagonalVector(block), window))
        assert len(images) == shape[0]
        for row, img in zip(block, images):
            assert img.magnitude_db.tobytes() == frame_image(row, window.value).tobytes()

    def test_block_refuses_any_all_zero_frame(self):
        block = np.ones((3, 16), dtype=complex)
        block[1] = 0.0
        with pytest.raises(ValueError, match="all-zero"):
            diag_spectrum(DiagonalVector(block))

    def test_window_coefficients_are_cached_read_only(self):
        w = window_coefficients(WindowKind.HAMMING, 64)
        assert window_coefficients(WindowKind.HAMMING, 64) is w
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 1.0

    def test_fig3_dual_peaks(self, table1):
        # golden value on the naive transform path
        d = synthesize_diag(table1, [FIG3_TARGET], np.array([1.0]))
        img = diag_spectrum(d, method="naive")
        peaks = detect_peaks_1d(img, threshold_db=-30.0)
        assert sorted(p.bin for p in peaks) == [81, 134]

    def test_constant_vector_is_dc(self):
        img = diag_spectrum(DiagonalVector(np.ones(480, dtype=complex)))
        peaks = detect_peaks_1d(img, threshold_db=-30.0)
        assert [p.bin for p in peaks] == [0]
        assert img.magnitude_db[0] == 0.0

    def test_integer_bin_tone_has_no_leakage(self):
        img = diag_spectrum(_tone(480, 100))
        others = np.delete(img.magnitude_db, 100)
        assert img.magnitude_db[100] == 0.0
        assert others.max() < -200.0

    def test_half_bin_tone_first_sidelobe_level(self):
        # worst-case straddle: skirt next to the mainlobe reads about -9.5 dB,
        # two bins out about -14 dB
        img = diag_spectrum(_tone(480, 100.5))
        assert img.magnitude_db[102] == pytest.approx(-9.54, abs=0.1)
        assert img.magnitude_db[103] == pytest.approx(-13.98, abs=0.1)

    def test_naive_matches_fast(self, table1):
        d = synthesize_diag(table1, [FIG3_TARGET], np.array([1.0]))
        a = diag_spectrum(d, method="naive")
        b = diag_spectrum(d, method="fast")
        assert np.max(np.abs(a.magnitude_db - b.magnitude_db)) < 1e-6

    def test_single_tone_model_peaks_at_reflected_bin(self, table1):
        from jcas.config import doppler_bin, range_bin
        d = DiagonalVector(single_tone_diag(table1, [FIG3_TARGET], [1.0]))
        peaks = detect_peaks_1d(diag_spectrum(d), threshold_db=-30.0)
        # one tone at l_doppler - l_range = -81.39, i.e. bin 398.6 after wrap
        expected = round(480 - (range_bin(table1, 40.0) - doppler_bin(table1, 5.0)))
        assert [p.bin for p in peaks] == [expected] == [399]

    def test_dual_tone_zero_velocity_single_full_peak(self, table1):
        from jcas.config import range_bin
        tgt = Target(40.0, 0.0, 1.0)
        d = synthesize_diag(table1, [tgt], np.array([1.0]))
        peaks = detect_peaks_1d(diag_spectrum(d), threshold_db=-30.0)
        assert len(peaks) == 1
        assert peaks[0].bin == round(range_bin(table1, 40.0))

    def test_amplitude_scaling_scales_spectrum(self, table1):
        from jcas.transforms import dft
        d = synthesize_diag(table1, [FIG3_TARGET], np.array([1.0]))
        mag1 = np.abs(dft(d.values))
        mag2 = np.abs(dft(0.125 * d.values))
        assert np.allclose(mag2, 0.125 * mag1)

    def test_single_target_peak_magnitudes_nearly_equal(self, table1):
        img = _image_of(table1, [FIG3_TARGET], [1.0])
        peaks = detect_peaks_1d(img, threshold_db=-30.0)
        assert abs(peaks[0].magnitude_db - peaks[1].magnitude_db) < 0.5

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=2.0, max_value=80.0),
           st.floats(min_value=1.0, max_value=40.0))
    def test_window_choice_does_not_move_peaks(self, table1, r, v):
        # windowing reshapes sidelobes, not peak positions
        tgt = Target(r, v, 1.0)
        lo, hi = tone_pair_bins(table1, r, v)
        if abs(hi - lo) < 8:
            return
        rect = _image_of(table1, [tgt], [1.0], WindowKind.RECTANGULAR)
        ham = _image_of(table1, [tgt], [1.0], WindowKind.HAMMING)
        top_r = sorted(p.bin for p in detect_peaks_1d(rect, -20.0)[:2])
        top_h = sorted(p.bin for p in detect_peaks_1d(ham, -20.0)[:2])
        assert all(abs(a - b) <= 1 for a, b in zip(top_r, top_h))


class TestDetect:
    def test_threshold_validation(self):
        img = diag_spectrum(_tone(480, 100))
        with pytest.raises(ValueError):
            detect_peaks_1d(img, threshold_db=0.5)

    def test_thinning_keeps_stronger(self):
        db = np.full(64, -60.0)
        db[10] = 0.0
        db[11] = -1.0
        db[30] = -2.0
        peaks = detect_peaks_1d(RadarImage(db), threshold_db=-30.0)
        assert [p.bin for p in peaks] == [10, 30]

    def test_thinning_ties_keep_the_lower_bin_across_wrap(self):
        # bins 63 and 1 are 2 apart on a 64-bin circle; of the tied pair the
        # lower bin, 1, is kept
        db = np.full(64, -60.0)
        db[[63, 1]] = -5.0
        db[10] = -1.0
        peaks = detect_peaks_1d(RadarImage(db), threshold_db=-30.0)
        assert [p.bin for p in peaks] == [10, 1]

    @staticmethod
    def _assert_matches_thin_pairwise(db, threshold):
        maxima = local_maxima_1d(db, threshold)
        assert circular_maxima(db, threshold, 1).tolist() == maxima
        got = detect_peaks_1d(RadarImage(db), threshold)
        want = thin_pairwise([Peak(bin=i, magnitude_db=float(db[i])) for i in maxima],
                             len(db), DEFAULT_MIN_SEPARATION)
        assert got == want
        assert all(type(p.bin) is int for p in got)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 480])
    def test_matches_loop_oracle_with_ties(self, n):
        # Quarter-dB levels make equal neighbours common; an equal neighbour
        # stops a bin being a maximum. A lone bin (n = 1) has no neighbour.
        # The unthinned maxima are circular_maxima's at a guard of 1 bin.
        rng = np.random.default_rng(n)
        for _ in range(25):
            db = rng.integers(-160, 1, size=n) * 0.25
            for threshold in (-10.0, -25.0, -40.0):
                self._assert_matches_thin_pairwise(db, threshold)

    @pytest.mark.parametrize("draw", [1, 2, 3, 4, 5])
    def test_thinning_matches_pairwise_oracle(self, draw):
        # A comb of maxima on every other bin, within 2 dB of each other in
        # quarter-dB steps: a kept peak's reach covers its neighbours, ties
        # two bins apart and across the wrap are common, and the separation
        # covers most of a short circle. Five seeded draws of 40 images per
        # circle; random images rarely put two tied maxima within reach.
        rng = np.random.default_rng(100 + draw)
        for n in (1, 2, 5, 9, 16, 480):
            for _ in range(40):
                db = np.full(n, -60.0)
                db[::2] = rng.integers(-8, 1, size=(n + 1) // 2) * 0.25
                self._assert_matches_thin_pairwise(db, -30.0)

    def test_default_floors_are_the_documented_ones(self):
        # the goldens catch a raised floor (a detection disappears) but not
        # a lowered one on these noiseless scenes
        assert DEFAULT_THRESHOLD_DB == {WindowKind.RECTANGULAR: -30.0,
                                        WindowKind.HAMMING: -36.0}

    def test_sorted_by_magnitude(self, table1):
        img = _image_of(table1, [Target(20.0, 3.0, 1.0), Target(70.0, 30.0, 1.0)],
                        [1.0, 0.1])
        peaks = detect_peaks_1d(img, threshold_db=-40.0)
        mags = [p.magnitude_db for p in peaks]
        assert mags == sorted(mags, reverse=True)

    def test_masked_weak_target_rect_vs_hamming(self, table1):
        # strong close target vs 32 dB weaker distant one: rectangular
        # sidelobes swallow the weak pair, the Hamming image keeps it
        from jcas.channel import LinkBudget, target_amplitudes
        targets = [Target(6.0, 20.0, 3.16), Target(39.0, 5.0, 3.16)]
        amps = target_amplitudes(table1, LinkBudget(), targets, seed=1)
        rect = _image_of(table1, targets, amps, WindowKind.RECTANGULAR)
        rect_peaks = detect_peaks_1d(rect, threshold_db=-30.0)
        rect_pairs, _ = pair_peaks(rect_peaks, PAIR_TOLERANCE_DB[WindowKind.RECTANGULAR])
        assert len(rect_pairs) == 1
        assert (rect_pairs[0].l1, rect_pairs[0].l2) == (88, 121)
        ham = _image_of(table1, targets, amps, WindowKind.HAMMING)
        ham_peaks = detect_peaks_1d(ham, threshold_db=-36.0)
        assert sorted(p.bin for p in ham_peaks) == [79, 88, 121, 131]
        ham_pairs, _ = pair_peaks(ham_peaks, PAIR_TOLERANCE_DB[WindowKind.HAMMING])
        assert len(ham_pairs) == 2


class TestPsl:
    def test_rect_half_bin_tone(self):
        img = diag_spectrum(_tone(480, 100.5))
        level = psl(img, mainlobe_halfwidth=MAINLOBE_HALFWIDTH[WindowKind.RECTANGULAR])
        assert -14.0 <= level <= -13.0

    def test_hamming_half_bin_tone(self):
        d = DiagonalVector(_tone(480, 100.5).values
                           * window_coefficients(WindowKind.HAMMING, 480))
        level = psl(diag_spectrum(d), mainlobe_halfwidth=MAINLOBE_HALFWIDTH[WindowKind.HAMMING])
        assert level <= -40.0

    def test_on_bin_tone_floor(self):
        img = diag_spectrum(_tone(480, 100))
        assert psl(img, mainlobe_halfwidth=2) <= -100.0

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.02, max_value=0.98))
    def test_hamming_bound_any_offset(self, offset):
        d = DiagonalVector(_tone(480, 100 + offset).values
                           * window_coefficients(WindowKind.HAMMING, 480))
        assert psl(diag_spectrum(d), mainlobe_halfwidth=4) <= -40.0

    def test_flat_image_rejected(self):
        with pytest.raises(ValueError):
            psl(RadarImage(np.zeros(64)))

    def test_wide_mainlobe_rejected(self):
        img = diag_spectrum(_tone(16, 8.3))
        with pytest.raises(ValueError):
            psl(img, mainlobe_halfwidth=9)


class TestPeakResolution:
    def _two_tone_image(self, sep, window, offset=0.3):
        base = 200.0
        k = np.arange(480)
        v = (np.exp(2j * np.pi * (base + offset) * k / 480)
             + np.exp(2j * np.pi * (base + offset + sep) * k / 480))
        return diag_spectrum(apply_window(DiagonalVector(v), window))

    @pytest.mark.parametrize("sep", [3.0, 3.5, 4.0])
    @pytest.mark.parametrize("offset", [0.0, 0.3, 0.5])
    def test_rect_resolves_three_bins_and_up(self, sep, offset):
        img = self._two_tone_image(sep, WindowKind.RECTANGULAR, offset)
        peaks = detect_peaks_1d(img, threshold_db=-20.0)
        assert len(peaks) == 2

    def test_hamming_merges_a_rect_resolvable_case(self):
        # worst-case straddle two bins apart: narrow rectangular mainlobes
        # keep two maxima, the wider Hamming mainlobe fuses them (local
        # maxima before thinning, which would merge the rectangular pair)
        rect = self._two_tone_image(2.0, WindowKind.RECTANGULAR, offset=0.5)
        ham = self._two_tone_image(2.0, WindowKind.HAMMING, offset=0.5)
        n_rect = len(circular_maxima(rect.magnitude_db, -20.0, 1))
        n_ham = len(circular_maxima(ham.magnitude_db, -20.0, 1))
        assert n_rect == 2
        assert n_ham == 1


class TestPairing:
    def test_equal_pair(self):
        pairs, orphans = pair_peaks([Peak(10, -1.0), Peak(50, -1.0)], _TOLERANCE)
        assert len(pairs) == 1 and not orphans
        assert (pairs[0].l1, pairs[0].l2) == (10, 50)
        assert pairs[0].magnitude_db == pytest.approx(-1.0)

    def test_three_peaks_leave_strong_orphan(self):
        pairs, orphans = pair_peaks(
            [Peak(5, 0.0), Peak(40, -0.2), Peak(90, -20.0)], amp_tolerance_db=1.0)
        assert len(pairs) == 1
        assert (pairs[0].l1, pairs[0].l2) == (5, 40)
        assert [o.bin for o in orphans] == [90]

    def test_two_pairs_by_amplitude(self):
        peaks = [Peak(20, -0.1), Peak(90, 0.0), Peak(140, -15.0), Peak(60, -15.3)]
        pairs, orphans = pair_peaks(peaks, _TOLERANCE)
        assert not orphans
        assert {(p.l1, p.l2) for p in pairs} == {(20, 90), (60, 140)}

    def test_out_of_tolerance_left_unpaired(self):
        pairs, orphans = pair_peaks([Peak(10, 0.0), Peak(60, -10.0)], _TOLERANCE)
        assert not pairs and len(orphans) == 2

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            pair_peaks([], amp_tolerance_db=0.0)

    @staticmethod
    def _brute_force(peaks, amp_tolerance_db):
        # Reference: scan every (i, j) for the first smallest difference.
        unpaired = sorted(peaks, key=lambda p: -p.magnitude_db)
        pairs = []
        while len(unpaired) >= 2:
            best = None
            for i in range(len(unpaired)):
                for j in range(i + 1, len(unpaired)):
                    diff = abs(unpaired[i].magnitude_db - unpaired[j].magnitude_db)
                    if best is None or diff < best[0]:
                        best = (diff, i, j)
            diff, i, j = best
            if diff > amp_tolerance_db:
                break
            a, b = unpaired[i], unpaired[j]
            lo, hi = sorted((a.bin, b.bin))
            pairs.append(PeakPair(lo, hi, 0.5 * (a.magnitude_db + b.magnitude_db)))
            for k in (j, i):
                unpaired.pop(k)
        return pairs, unpaired

    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(11)
        for trial in range(1500):
            n = int(rng.integers(0, 24))
            # Quarter-dB magnitudes force ties and equal differences.
            mags = (np.round(rng.uniform(-40.0, 0.0, n) * 4) / 4 if trial % 2
                    else rng.uniform(-40.0, 0.0, n))
            peaks = [Peak(int(b), float(m))
                     for b, m in zip(rng.permutation(480)[:n], mags)]
            tol = float(rng.choice([0.5, 3.0]))
            assert pair_peaks(peaks, tol) == self._brute_force(peaks, tol), trial


class TestCandidates:
    def test_fig3_pair_solutions(self, table1):
        r_a, v_a, r_b, v_b = candidates(table1, PeakPair(81, 134, 0.0))
        assert r_a == pytest.approx(39.9926, abs=1e-4)
        assert v_a == pytest.approx(5.07015, abs=1e-5)
        assert r_b == pytest.approx(9.85863, abs=1e-5)
        assert v_b == pytest.approx(20.5676, abs=1e-4)

    def test_degenerate_coincident_pair(self, table1):
        r_a, v_a, r_b, v_b = candidates(table1, PeakPair(54, 54, 0.0))
        assert v_a == 0.0
        assert r_b == 0.0
        assert r_a > 0 and v_b > 0

    def test_unequal_comb_spacings_read_within_one_cell(self, unequal_cfg):
        # L_t = 4, L_f = 7: the Doppler bin maps back over the n_symbols = 1920
        # symbols the time comb spans, not over n_subcarriers.
        caps = capabilities(unequal_cfg)
        d = synthesize_diag(unequal_cfg, [FIG3_TARGET], np.array([1.0]))
        pairs, _ = pair_peaks(detect_peaks_1d(diag_spectrum(d), threshold_db=-30.0),
                              PAIR_TOLERANCE_DB[WindowKind.RECTANGULAR])
        r_a, v_a, _, _ = candidates(unequal_cfg, pairs[0])
        assert abs(r_a - 40.0) <= caps.range_resolution
        assert abs(v_a - 5.0) <= caps.velocity_resolution

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=2.0, max_value=80.0),
           st.floats(min_value=0.5, max_value=40.0))
    def test_candidates_invert_forward_bin_map(self, table1, r, v):
        lo, hi = tone_pair_bins(table1, r, v)
        l1, l2 = round(lo), round(hi)
        if l2 - l1 < 2:
            return
        r_a, v_a, r_b, v_b = candidates(table1, PeakPair(l1, l2, 0.0))
        for r_x, v_x in ((r_a, v_a), (r_b, v_b)):
            lo2, hi2 = tone_pair_bins(table1, r_x, v_x)
            assert abs(lo2 - l1) <= 1.0 and abs(hi2 - l2) <= 1.0
        # one of the two readings is the true target, within a bin quantum
        err_a = abs(r_a - r)
        err_b = abs(r_b - r)
        assert min(err_a, err_b) <= 0.3721
