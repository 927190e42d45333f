"""End-to-end acceptance checks for the whole simulator.

One test per acceptance criterion, each printing its own PASS/FAIL line
(visible under ``pytest -s`` or in the failure report). All runs are
noiseless and use the default 28 GHz / 480-signal configuration; scene runs
draw per-target reflection phases from a fixed seed so every number below is
reproducible bit-for-bit.
"""

from contextlib import contextmanager
from itertools import islice

import numpy as np
import pytest

from jcas.bench import count_ops
from jcas.channel import (DiagonalVector, LinkBudget, rx_power, synthesize_diag,
                          synthesize_grid, target_amplitudes)
from jcas.cli import run_scene
from jcas.config import OfdmConfig, Target, capabilities, overhead, tone_pair_bins
from jcas.diag_estimator import (DEFAULT_THRESHOLD_DB, MAINLOBE_HALFWIDTH, Peak,
                                 RadarImage, WindowKind, apply_window,
                                 candidates, detect_peaks_1d, diag_spectrum,
                                 pair_peaks, psl, window_coefficients)
from jcas.grid_estimator import (bins_to_estimate, range_doppler_map,
                                 to_normalized_db)
from jcas.scenario import builtin_scene, targets_at
from jcas.transforms import dft, idft
from oracles import brute_2d, brute_dft, power_ratio_db

CFG = OfdmConfig.table1()
BUDGET = LinkBudget()
SCENE_SEED = 1  # reflection-phase seed for every scene-driven criterion
OVERSAMPLE = 8  # criterion 7's image samples per native bin

RANGE_QUANTUM = 0.37202380952380953   # m per bin
VELOCITY_QUANTUM = 0.1913265306122449  # m/s per bin


@contextmanager
def _criterion(num, name):
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} ({name}): FAIL")
        raise
    print(f"criterion {num:2d} ({name}): PASS")


def _scene_records(scene_name, windows):
    return run_scene(builtin_scene(scene_name), CFG, windows, False, None, SCENE_SEED)


def _scene_frame(scene_name, frame_index, window):
    frame = next(islice(_scene_records(scene_name, (window,)), frame_index, None)).diag
    return frame.images[window], frame.peaks, frame.pairs, frame.orphans


def _pair_near(pairs, l1, l2, tol=1):
    hits = [p for p in pairs if abs(p.l1 - l1) <= tol and abs(p.l2 - l2) <= tol]
    assert hits, f"no pair near ({l1}, {l2}) in {[(p.l1, p.l2) for p in pairs]}"
    return hits[0]


def test_criterion_1_dual_peak_profile_and_candidates():
    with _criterion(1, "dual-peak profile, both candidate readings"):
        d = synthesize_diag(CFG, [Target(40.0, 5.0, 3.16)], np.array([1.0]))
        img = diag_spectrum(d, method="naive")  # golden path
        peaks = detect_peaks_1d(img, threshold_db=-30.0)
        bins = sorted(p.bin for p in peaks)
        assert len(bins) == 2
        assert abs(bins[0] - 81) <= 2 and abs(bins[1] - 134) <= 2
        pairs, _ = pair_peaks(peaks)
        r_a, v_a, r_b, v_b = candidates(CFG, pairs[0])
        assert abs(r_a - 40.0) <= 0.4
        assert abs(v_a - 5.0) <= 0.3
        assert abs(r_b - 10.0) <= 0.4
        assert abs(v_b - 20.0) <= 0.8


def test_criterion_2_capability_numbers():
    with _criterion(2, "resolution and unambiguous limits"):
        caps = capabilities(CFG)
        # exact closed-form values; the one-decimal rounded figures
        # (0.4 / 0.2 / 179 / 92) are quoted alongside where the rounding
        # stays inside 5 percent
        assert caps.range_resolution == pytest.approx(0.372, rel=0.05)
        assert caps.range_resolution == pytest.approx(0.372024, rel=1e-4)
        assert caps.velocity_resolution == pytest.approx(0.191, rel=0.05)
        assert caps.velocity_resolution == pytest.approx(0.2, rel=0.05)
        assert caps.max_unambiguous_range == pytest.approx(178.6, rel=0.05)
        assert caps.max_unambiguous_range == pytest.approx(179.0, rel=0.05)
        assert caps.max_unambiguous_velocity == pytest.approx(91.8, rel=0.05)
        assert caps.max_unambiguous_velocity == pytest.approx(92.0, rel=0.05)


def test_criterion_3_overhead():
    with _criterion(3, "sensing overhead grid vs diagonal"):
        og = overhead(CFG, diagonal=False)
        od = overhead(CFG, diagonal=True)
        assert og == pytest.approx(0.0204, abs=5e-5)
        assert od == pytest.approx(4.25e-5, abs=5e-8)
        assert og / od == 480.0


def test_criterion_4_peak_to_sidelobe_levels():
    with _criterion(4, "window sidelobe levels"):
        k = np.arange(480)
        tone = np.exp(2j * np.pi * 100.5 * k / 480)  # worst-case half-bin tone
        rect = psl(diag_spectrum(DiagonalVector(tone)),
                   MAINLOBE_HALFWIDTH[WindowKind.RECTANGULAR])
        assert -14.0 <= rect <= -12.5
        tapered = DiagonalVector(tone * window_coefficients(WindowKind.HAMMING, 480))
        ham = psl(diag_spectrum(tapered), MAINLOBE_HALFWIDTH[WindowKind.HAMMING])
        assert ham <= -40.0


def test_criterion_5_received_power_gaps():
    with _criterion(5, "radar-equation power gaps"):
        cases = [
            (Target(6.0, 0, 3.16), Target(39.0, 0, 3.16), 32.5, 0.1),
            (Target(18.0, 0, 3.16), Target(42.0, 0, 3.16), 14.7, 0.1),
            (Target(40.2, 0, 100.0), Target(10.6, 0, 3.16), -8.2, 0.2),
            (Target(40.0, 0, 1.0), Target(10.6, 0, 3.16), -28.1, 0.2),
        ]
        for t1, t2, expected, tol in cases:
            gap = power_ratio_db(t1.rcs_m2, t1.range_m, t2.rcs_m2, t2.range_m)
            measured = 10 * np.log10(rx_power(BUDGET, CFG, t1)
                                     / rx_power(BUDGET, CFG, t2))
            assert measured == pytest.approx(gap, abs=1e-9)
            assert measured == pytest.approx(expected, abs=tol)


def test_criterion_6_two_car_masking_behavior():
    with _criterion(6, "masking: rect hides the far car, Hamming recovers it"):
        # t0, rectangular: the far car sits below the near car's sidelobe
        # skirt; only the near car's pair survives pairing
        _, _, pairs, _ = _scene_frame("fig4", 0, WindowKind.RECTANGULAR)
        assert len(pairs) == 1
        _pair_near(pairs, 88, 121)
        # t0, Hamming: both pairs, far car about 32 dB down
        _, peaks, pairs, _ = _scene_frame("fig4", 0, WindowKind.HAMMING)
        assert len(peaks) == 4 and len(pairs) == 2
        near_pair = _pair_near(pairs, 88, 121)
        far_pair = _pair_near(pairs, 79, 131)
        gap = near_pair.magnitude_db - far_pair.magnitude_db
        assert gap == pytest.approx(32.0, abs=1.0)
        # t2, rectangular: similar returns, both pairs visible
        _, _, pairs, _ = _scene_frame("fig4", 2, WindowKind.RECTANGULAR)
        assert len(pairs) == 2
        near_pair = _pair_near(pairs, 56, 153)
        far_pair = _pair_near(pairs, 87, 139)
        gap = near_pair.magnitude_db - far_pair.magnitude_db
        assert gap == pytest.approx(14.7, abs=1.0)


def _circular_offset(bins, tone, n):
    """Distance in native bins from each of `bins` to `tone` on a length-n DFT."""
    return np.abs((bins - tone + n / 2) % n - n / 2)


def test_criterion_7_window_tradeoff_strong_weak_scene():
    with _criterion(7, "window tradeoff: peak resolution vs weak-target visibility"):
        # Rectangular: the two strong scatterers (car, truck) should appear
        # as four distinct peaks and the weak one (motorcycle) should vanish
        # among sidelobes. Hamming: the weak pair becomes detectable at the
        # cost of merging at least one strong-scatterer peak pair.
        #
        # Both halves are properties of the window's continuous spectrum, so
        # the image is the length-480 DFT zero-padded to OVERSAMPLE x 480
        # samples. On integer bins alone they cannot be seen (the
        # picket-fence effect, Harris, Proc. IEEE 1978):
        # - the upper tones land at 133.03 (car, 0 dB) and 134.19 (truck,
        #   -8 dB). Bin 134 is no local maximum next to bin 133, and even if
        #   it were, detect_peaks_1d's greedy thinning (3 samples) would
        #   drop it. On the fine image 3 samples span 3/8 of a bin;
        # - the car's tones fall almost on-bin, so its sidelobes land on
        #   the zeros of the integer-bin DFT. The motorcycle's lower tone
        #   is a local maximum above the -30 dB floor at every sampling
        #   (-28.3 dB on integer bins, -27.8 dB on the fine image), so
        #   "vanish" is checked as sidelobe masking: outside every target's
        #   mainlobe the skirt rises above both weak tones (about 8-12 dB at
        #   this seed). Under Hamming the same skirt sits below them.
        # Resolving tones 1.16 bins apart depends on their relative
        # reflection phase. On seeds 1-8 both sidelobe checks held every
        # time; the rectangular split failed at seed 2 and the Hamming merge
        # at seeds 4, 6 and 8. The seed stays SCENE_SEED, shared by every
        # scene criterion. The fine image needs the frame's complex samples,
        # which the runner does not yield, so they are synthesized here and
        # checked against the runner's own images below.
        targets = targets_at(builtin_scene("fig5"), 0.0)
        amps = target_amplitudes(CFG, BUDGET, targets, SCENE_SEED, 0)
        d = synthesize_diag(CFG, targets, amps)
        windows = (WindowKind.RECTANGULAR, WindowKind.HAMMING)
        images = next(_scene_records("fig5", windows)).diag.images
        n = len(d.values)
        bins = np.arange(OVERSAMPLE * n) / OVERSAMPLE  # native-bin units
        tones = [b for tgt in targets
                 for b in tone_pair_bins(CFG, tgt.range_m, tgt.radial_velocity_mps)]
        moto = targets[1]
        weak_tones = tone_pair_bins(CFG, moto.range_m, moto.radial_velocity_mps)
        failures = []
        for window in windows:
            windowed = apply_window(d, window)
            db, ref = to_normalized_db(
                np.abs(np.fft.fft(windowed.values, OVERSAMPLE * n)))
            # every OVERSAMPLE-th sample is the runner's own image; compared
            # in absolute dB because a peak between bins (Hamming here) moves
            # the fine image's 0 dB reference
            native = images[window]
            guard = np.max(np.abs(db[::OVERSAMPLE] + ref
                                  - native.magnitude_db - native.reference_level))
            assert guard <= 1e-9, f"{window.value}: fine image off by {guard} dB"
            peaks = [Peak(bin=p.bin / OVERSAMPLE, magnitude_db=p.magnitude_db)
                     for p in detect_peaks_1d(
                         RadarImage(db, ref), threshold_db=DEFAULT_THRESHOLD_DB[window])]
            strong_bins = sorted(p.bin for p in peaks
                                 if min(abs(p.bin - b) for b in (76, 82, 133, 134)) <= 1)
            offsets = np.array([_circular_offset(bins, b, n) for b in tones])
            skirt = db[np.all(offsets > MAINLOBE_HALFWIDTH[window], axis=0)].max()
            weak_db = [db[_circular_offset(bins, b, n) <= 1].max()
                       for b in weak_tones]
            levels = (f"skirt {skirt:.1f} dB, weak tones "
                      f"{weak_db[0]:.1f} / {weak_db[1]:.1f} dB")
            if window is WindowKind.RECTANGULAR:
                if len(strong_bins) != 4:
                    failures.append(f"rect: {len(strong_bins)} strong-scatterer "
                                    f"peaks {strong_bins}, wanted 4 distinct")
                if not skirt > max(weak_db):
                    failures.append(f"rect: {levels}, wanted the weak target "
                                    "masked")
            else:
                pairs, _ = pair_peaks(peaks)
                weak_pairs = [p for p in pairs
                              if abs(p.l1 - 92) <= 1 and abs(p.l2 - 123) <= 1]
                if not weak_pairs:
                    failures.append("hamming: weak-target pair (92, 123) "
                                    "not reported")
                if not len(strong_bins) < 4:
                    failures.append(f"hamming: strong-scatterer peaks "
                                    f"{strong_bins} not merged")
                if not skirt < min(weak_db):
                    failures.append(f"hamming: {levels}, wanted the weak "
                                    "target clear of the skirt")
        assert not failures, "; ".join(failures)


def test_criterion_8_multi_frame_ambiguity_resolution():
    with _criterion(8, "two-frame tracking resolves the range-velocity swap"):
        frames = {}
        # the frames at 0.0 and 0.2 s; the runner tracks them as it yields them
        records = islice(_scene_records("fig4", (WindowKind.HAMMING,)), 2)
        for fidx, (t, frame, tracks, _, _) in enumerate(records):
            pairs = frame.pairs
            frames[t] = pairs
            if fidx == 0:
                # the track that opened on the far car's pair
                far_track = [tr for pair, tr in zip(pairs, tracks.owner)
                             if abs(pair.l1 - 79) <= 1][0]
        # the far car's track locks onto the true (40 m, 5 m/s) branch
        assert far_track.chosen == "a"
        r_m, v_mps = far_track.best_solution()
        assert r_m == pytest.approx(40.0, abs=0.5)
        assert v_mps == pytest.approx(5.0, abs=0.3)
        _, _, phantom_r, _ = far_track.readings
        assert abs(phantom_r - 10.0) <= 0.5  # the rejected reading
        # at the second frame the two cars' pairs overlap within 4 bins
        (p1, p2) = sorted(frames[0.2], key=lambda p: p.l1)[:2]
        assert abs(p1.l1 - p2.l1) <= 4 and abs(p1.l2 - p2.l2) <= 4


def test_criterion_9_round_trip_both_estimators():
    with _criterion(9, "round trip over 200 random targets"):
        rng = np.random.default_rng(20250810)
        checked = 0
        while checked < 200:
            l_r = rng.uniform(4.0, 380.0)
            l_d = rng.uniform(4.0, 380.0)
            # keep the dual-peak pair inside the unambiguous, resolvable zone
            if l_r + l_d > 472.0 or abs(l_r - l_d) < 4.0:
                continue
            r = l_r / 2.688
            v = l_d / 5.2266666666666675
            target = Target(r, v, 1.0)
            # grid: top map cell
            c = synthesize_grid(CFG, [target], np.array([1.0]))
            rd = range_doppler_map(c)
            p, q = np.unravel_index(np.argmax(rd.magnitude_db), rd.magnitude_db.shape)
            r_g, v_g = bins_to_estimate(CFG, int(p), int(q))
            assert abs(r_g - r) <= RANGE_QUANTUM
            assert abs(v_g - v) <= VELOCITY_QUANTUM
            # diagonal: pair the two peaks, take the candidate branch that
            # matches; the worst-case straddle loss is 3.92 dB, hence the
            # pairing tolerance of 4 dB here
            d = synthesize_diag(CFG, [target], np.array([1.0]))
            peaks = detect_peaks_1d(diag_spectrum(d), threshold_db=-30.0)
            pairs, _ = pair_peaks(peaks, amp_tolerance_db=4.0)
            assert len(pairs) == 1, f"target ({r:.2f}, {v:.2f}): {len(pairs)} pairs"
            r_a, v_a, r_b, v_b = candidates(CFG, pairs[0])
            r_d, v_d = min(((r_a, v_a), (r_b, v_b)), key=lambda s: abs(s[0] - r_g))
            assert abs(r_d - r) <= RANGE_QUANTUM
            assert abs(v_d - v) <= VELOCITY_QUANTUM
            # cross-estimator agreement
            assert abs(r_d - r_g) <= RANGE_QUANTUM
            assert abs(v_d - v_g) <= VELOCITY_QUANTUM
            checked += 1


def test_criterion_10_complexity_ratio_and_transform_agreement():
    with _criterion(10, "counted-multiply ratio 2n; naive vs fast"):
        for n in (64, 128, 256, 480):
            g = count_ops("grid2d", n)
            d = count_ops("diag", n)
            assert g == 2 * n ** 3
            assert d == n ** 2
            assert g / d == 2 * n
        rng = np.random.default_rng(0)
        x = rng.standard_normal(480) + 1j * rng.standard_normal(480)
        rel = (np.max(np.abs(dft(x, method="naive") - dft(x)))
               / np.max(np.abs(dft(x))))
        assert rel < 1e-6


def test_criterion_11_oracle_equivalence_and_parseval():
    with _criterion(11, "brute-force oracle equivalence and Parseval"):
        rng = np.random.default_rng(3)
        for n in (8, 32, 64):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ours = dft(x, method="naive")
            brute = brute_dft(x)
            fast = dft(x)
            scale = np.max(np.abs(brute))
            assert np.max(np.abs(ours - brute)) / scale < 1e-9
            assert np.max(np.abs(fast - brute)) / scale < 1e-9
            # forward transform multiplies total energy by n
            assert np.sum(np.abs(ours) ** 2) == pytest.approx(
                n * np.sum(np.abs(x) ** 2), rel=1e-9)
        c = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        ours2 = idft(dft(c, axis=1, method="naive"), axis=0, method="naive")
        brute2 = brute_2d(c)
        assert np.max(np.abs(ours2 - brute2)) / np.max(np.abs(brute2)) < 1e-9
        # rows gain N_t, columns lose N_f: energy ratio N_t/N_f = 1 here
        assert np.sum(np.abs(ours2) ** 2) == pytest.approx(
            np.sum(np.abs(c) ** 2), rel=1e-9)
