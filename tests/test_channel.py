import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jcas.channel import (_NOISE_CHUNK, DiagonalVector, LinkBudget, NoiseSpec,
                          _add_noise_in_place, rx_power, synthesize_diag, synthesize_grid,
                          target_amplitudes)
from jcas.config import (OfdmConfig, Target, bin_range, bin_velocity, doppler_bin,
                         range_bin, tone_pair_bins)
from oracles import (awgn_expression, exp_synthesize_diag, expected_doppler_bin,
                     expected_range_bin, loop_synthesize_grid, power_ratio_db,
                     single_tone_diag)

BUDGET = LinkBudget()


def _gap_db(table1, t1, t2):
    p1 = rx_power(BUDGET, table1, t1)
    p2 = rx_power(BUDGET, table1, t2)
    return 10 * np.log10(p1 / p2)


class TestRxPower:
    def test_near_vs_far_equal_rcs(self, table1):
        near = Target(6.0, 20.0, 3.16)
        far = Target(39.0, 5.0, 3.16)
        gap = _gap_db(table1, near, far)
        assert gap == pytest.approx(power_ratio_db(3.16, 6.0, 3.16, 39.0), rel=1e-12)
        assert gap == pytest.approx(32.5, abs=0.1)

    def test_midlife_gap(self, table1):
        gap = _gap_db(table1, Target(18.0, 20.0, 3.16), Target(42.0, 5.0, 3.16))
        assert gap == pytest.approx(14.7, abs=0.1)

    def test_truck_vs_car(self, table1):
        truck = Target(40.2, 5.0, 100.0)
        car = Target(10.6, 20.0, 3.16)
        gap = _gap_db(table1, truck, car)
        assert gap == pytest.approx(power_ratio_db(100.0, 40.2, 3.16, 10.6), rel=1e-12)
        assert gap == pytest.approx(-8.2, abs=0.2)

    def test_motorcycle_vs_car(self, table1):
        gap = _gap_db(table1, Target(40.0, 3.0, 1.0), Target(10.6, 20.0, 3.16))
        assert gap == pytest.approx(-28.1, abs=0.2)

    def test_zero_range_rejected(self, table1):
        with pytest.raises(ValueError):
            rx_power(BUDGET, table1, Target(0.0, 0.0, 1.0))

    @pytest.mark.parametrize("target", [Target(1e-100, 0.0, 1.0),  # R^4 underflows
                                        Target(40.0, 0.0, 1e-300)])  # power underflows
    def test_degenerate_power_rejected(self, table1, target):
        with pytest.raises(ValueError, match="not positive and finite"):
            rx_power(BUDGET, table1, target)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1.0, max_value=150.0),
           st.floats(min_value=1.0, max_value=150.0),
           st.floats(min_value=0.1, max_value=100.0),
           st.floats(min_value=0.1, max_value=100.0))
    def test_ratio_matches_closed_form(self, table1, r1, r2, s1, s2):
        gap = _gap_db(table1, Target(r1, 0.0, s1), Target(r2, 0.0, s2))
        assert gap == pytest.approx(power_ratio_db(s1, r1, s2, r2), abs=1e-9)


@pytest.mark.parametrize("terms", [{"tx_power": float("nan")}, {"tx_power": "1"},
                                   {"rx_gain": True}, {"tx_gain": 0.0}],
                         ids=["nan", "str", "bool", "zero"])
def test_link_budget_refuses_non_positive_or_non_numbers(terms):
    with pytest.raises(ValueError):
        LinkBudget(**terms)


class TestBinMaps:
    def test_range_bin_oracle(self, table1, unequal_cfg):
        for cfg in (table1, unequal_cfg):
            for r in (6.0, 10.6, 39.0, 40.0, 178.0):
                assert range_bin(cfg, r) == pytest.approx(
                    expected_range_bin(cfg, r), rel=1e-12)
                assert bin_range(cfg, range_bin(cfg, r)) == pytest.approx(r, rel=1e-12)
        assert range_bin(table1, 40.0) == pytest.approx(107.52)

    def test_doppler_bin_oracle(self, table1, unequal_cfg):
        for cfg in (table1, unequal_cfg):
            for v in (3.0, 5.0, 20.0, 91.0):
                assert doppler_bin(cfg, v) == pytest.approx(
                    expected_doppler_bin(cfg, v), rel=1e-12)
                assert bin_velocity(cfg, doppler_bin(cfg, v)) == pytest.approx(
                    v, rel=1e-12)
        assert doppler_bin(table1, 5.0) == pytest.approx(26.1333, abs=1e-4)
        # L_t = 4 instead of 7: the same speed moves 4/7 as many bins.
        assert doppler_bin(unequal_cfg, 5.0) == pytest.approx(14.9333, abs=1e-4)

    def test_tone_pair_bins_fig3_target(self, table1):
        lo, hi = tone_pair_bins(table1, 40.0, 5.0)
        assert lo == pytest.approx(81.3867, abs=1e-4)
        assert hi == pytest.approx(133.6533, abs=1e-4)


class TestSynthesizeGrid:
    def test_zero_doppler_structure(self, table1):
        c = synthesize_grid(table1, [Target(40.0, 0.0, 1.0)], np.array([1.0]))
        # no symbol dependence: every column equals the range ramp
        first = c.values[:, :1]
        assert np.allclose(c.values, first)
        assert not np.allclose(c.values[0, 0], c.values[1, 0])

    def test_superposition(self, table1):
        t1, t2 = Target(20.0, 4.0, 1.0), Target(55.0, 11.0, 1.0)
        both = synthesize_grid(table1, [t1, t2], np.array([1.0, 0.5j]))
        a = synthesize_grid(table1, [t1], np.array([1.0]))
        b = synthesize_grid(table1, [t2], np.array([0.5j]))
        assert np.allclose(both.values, a.values + b.values)

    @pytest.mark.parametrize("n_sensing_freq", [480, 240])
    def test_product_matches_per_target_loop(self, table1, n_sensing_freq):
        cfg = dataclasses.replace(table1, n_sensing_freq=n_sensing_freq)
        rng = np.random.default_rng(16)
        targets = [Target(r, v, 1.0) for r, v in zip(rng.uniform(1.0, 170.0, 16),
                                                      rng.uniform(-60.0, 60.0, 16))]
        amps = rng.uniform(0.1, 1.0, 16) * np.exp(2j * np.pi * rng.uniform(size=16))
        expected = loop_synthesize_grid(cfg, targets, amps)
        assert expected.shape == (n_sensing_freq, 480)
        got = synthesize_grid(cfg, targets, amps)
        assert np.allclose(got.values, expected, rtol=1e-12, atol=1e-12)
        noise = NoiseSpec(snr_db=20.0, rng_seed=3)
        noisy = synthesize_grid(cfg, targets, amps, noise=noise)
        assert np.allclose(noisy.values,
                           awgn_expression(expected, noise, float(np.abs(amps).max())),
                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n_sensing_freq", [480, 240])
    def test_noise_added_in_place_is_the_out_of_place_sum(self, table1, n_sensing_freq):
        # The noise goes into the product's own buffer, real then imaginary
        # parts; that must give the bits of values + scale * (a + 1j * b).
        # The product is only close to loop_synthesize_grid, not bit-equal,
        # so the reference adds the noise to the noiseless product.
        cfg = dataclasses.replace(table1, n_sensing_freq=n_sensing_freq)
        rng = np.random.default_rng(19)
        targets = [Target(r, v, 1.0) for r, v in zip(rng.uniform(1.0, 170.0, 16),
                                                      rng.uniform(-60.0, 60.0, 16))]
        amps = rng.uniform(0.1, 1.0, 16) * np.exp(2j * np.pi * rng.uniform(size=16))
        clean = synthesize_grid(cfg, targets, amps).values
        for snr_db, seed in ((20.0, 3), (-5.0, 11)):
            noise = NoiseSpec(snr_db=snr_db, rng_seed=seed)
            noisy = synthesize_grid(cfg, targets, amps, noise=noise).values
            want = awgn_expression(clean, noise, float(np.abs(amps).max()))
            assert noisy.dtype == want.dtype
            assert np.array_equal(noisy, want)

    def test_empty_targets_rejected(self, table1):
        with pytest.raises(ValueError):
            synthesize_grid(table1, [], np.array([]))

    def test_zero_range_rejected(self, table1):
        with pytest.raises(ValueError):
            synthesize_grid(table1, [Target(0.0, 1.0, 1.0)], np.array([1.0]))

    def test_amp_length_mismatch_rejected(self, table1):
        with pytest.raises(ValueError):
            synthesize_grid(table1, [Target(5.0, 1.0, 1.0)], np.array([1.0, 2.0]))


@pytest.mark.parametrize("size", [_NOISE_CHUNK - 1, _NOISE_CHUNK, _NOISE_CHUNK + 1,
                                  2 * _NOISE_CHUNK + 1])
@pytest.mark.parametrize("two_d", [False, True])
def test_chunked_noise_is_the_out_of_place_sum(size, two_d):
    # The draws pass through a chunk-sized buffer, real parts first; around
    # the chunk edges they must still give the bits of the one-call sum.
    rows = max(d for d in range(1, math.isqrt(size) + 1) if size % d == 0) if two_d else 1
    shape = (rows, size // rows) if two_d else (size,)
    rng = np.random.default_rng(size)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    noise = NoiseSpec(snr_db=-3.0, rng_seed=size)
    want = awgn_expression(values, noise, 0.7)
    _add_noise_in_place(values, noise, 0.7)
    assert values.shape == want.shape and values.tobytes() == want.tobytes()


class TestSynthesizeDiag:
    def test_dual_tone_is_two_complex_exponentials(self, table1):
        tgt = Target(40.0, 5.0, 1.0)
        d = synthesize_diag(table1, [tgt], np.array([1.0]))
        lo, hi = tone_pair_bins(table1, tgt.range_m, tgt.radial_velocity_mps)
        k = np.arange(table1.n_diag)
        expected = 0.5 * (np.exp(2j * np.pi * hi * k / 480)
                          + np.exp(2j * np.pi * lo * k / 480))
        assert np.allclose(d.values, expected)

    def test_dual_tone_zero_doppler_collapses_to_single_peak(self, table1):
        tgt = Target(40.0, 0.0, 1.0)
        dual = synthesize_diag(table1, [tgt], np.array([1.0]))
        single = single_tone_diag(table1, [tgt], [1.0])
        # identical up to the global sign of the phase ramp
        assert np.allclose(dual.values, np.conj(single))

    def test_superposition_and_amp_linearity(self, table1):
        t1, t2 = Target(12.0, 3.0, 1.0), Target(61.0, 9.0, 1.0)
        both = synthesize_diag(table1, [t1, t2], np.array([1.0, 0.25]))
        a = synthesize_diag(table1, [t1], np.array([1.0]))
        b = synthesize_diag(table1, [t2], np.array([1.0]))
        assert np.allclose(both.values, a.values + 0.25 * b.values)

    def test_noise_is_the_out_of_place_sum(self, table1):
        targets = [Target(12.0, 3.0, 1.0), Target(61.0, -9.0, 1.0)]
        amps = np.array([0.25, 1.0j])
        noise = NoiseSpec(snr_db=20.0, rng_seed=5)
        clean = synthesize_diag(table1, targets, amps).values
        noisy = synthesize_diag(table1, targets, amps, noise=noise).values
        assert np.array_equal(noisy, awgn_expression(clean, noise, 1.0))

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([480, 6, 7, 35]),
           near=st.tuples(st.floats(0.5, 10.0), st.floats(-60.0, -20.0)),
           kinematics=st.lists(st.tuples(st.floats(0.5, 180.0), st.floats(-90.0, 90.0)),
                               max_size=31),
           phases=st.lists(st.floats(0.0, 2 * math.pi), min_size=32, max_size=32),
           snr_db=st.sampled_from([None, 20.0]), seed=st.integers(0, 2**32 - 1))
    def test_diag_phases_match_the_complex_exp(self, n, near, kinematics, phases, snr_db, seed):
        # cos/sin of the real phase must give np.exp's bits, noiseless and
        # noisy, on the table-1 comb and on 6^2, 7^2 and 35^2 combs (7
        # subcarriers and symbols per step, as table 1). The first vehicle
        # is near and approaching, so its high tone l_r + l_d is negative.
        cfg = OfdmConfig(28e9, 120e3, 7 * n, 7 * n, n, n)
        targets = [Target(r, v, 1.0) for r, v in [near, *kinematics]]
        assert tone_pair_bins(cfg, *near)[1] < 0
        mags = np.linspace(1.0, 0.1, len(targets))
        amps = mags * np.exp(1j * np.array(phases[:len(targets)]))
        noise = NoiseSpec(snr_db, rng_seed=seed) if snr_db is not None else None
        want = exp_synthesize_diag(cfg, targets, amps)
        if noise is not None:
            want = awgn_expression(want, noise, float(np.abs(amps).max()))
        got = synthesize_diag(cfg, targets, amps, noise=noise).values
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(), (2, 3, 4)])
    def test_diagonal_values_are_a_frame_or_a_block(self, shape):
        assert DiagonalVector(np.ones((2, 3))).values.shape == (2, 3)
        with pytest.raises(ValueError, match="must be 1-D, or 2-D"):
            DiagonalVector(np.ones(shape))
        with pytest.raises(ValueError, match="must be finite"):
            DiagonalVector(np.array([[1.0, 2.0], [np.nan, 0.0]]))

    def test_diagonal_needs_square_combs(self, small_cfg):
        import dataclasses
        bad = dataclasses.replace(small_cfg, n_sensing_time=24)
        with pytest.raises(ValueError, match="diagonal"):
            synthesize_diag(bad, [Target(5.0, 1.0, 1.0)], np.array([1.0]))


class TestNoise:
    TARGETS = [Target(12.0, 3.0, 1.0), Target(61.0, -9.0, 1.0)]
    AMPS = np.array([0.25, 1.0j])

    def test_absent_spec_is_identity(self, table1):
        # noise=None adds nothing: the grid is the per-target loop's to rounding,
        # where 20 dB of noise would move each cell by about 0.07.
        got = synthesize_grid(table1, self.TARGETS, self.AMPS, noise=None).values
        assert np.allclose(got, loop_synthesize_grid(table1, self.TARGETS, self.AMPS),
                           rtol=0, atol=1e-12)
        # None is the one spelling of "no noise": a spec must carry an SNR.
        with pytest.raises(TypeError):
            NoiseSpec()

    def test_deterministic_under_seed(self, table1):
        for synthesize in (synthesize_diag, synthesize_grid):
            def noisy(seed):
                spec = NoiseSpec(snr_db=10.0, rng_seed=seed)
                return synthesize(table1, self.TARGETS, self.AMPS, noise=spec).values

            assert np.array_equal(noisy(42), noisy(42))
            assert not np.allclose(noisy(42), noisy(43))

    def test_variance_calibration(self, table1):
        # 230,400 grid cells of noise against the strongest amplitude, 1.
        clean = synthesize_grid(table1, self.TARGETS, self.AMPS).values
        spec = NoiseSpec(snr_db=20.0, rng_seed=1)
        noisy = synthesize_grid(table1, self.TARGETS, self.AMPS, noise=spec).values
        var = np.mean(np.abs(noisy - clean) ** 2)
        assert var == pytest.approx(0.01, rel=0.02)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_rng_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="rng_seed must be a non-negative integer"):
            NoiseSpec(snr_db=20.0, rng_seed=seed)

    def test_numpy_integer_rng_seed_is_kept_as_int(self):
        seed = NoiseSpec(snr_db=20.0, rng_seed=np.int64(3)).rng_seed
        assert seed == 3 and type(seed) is int

    def test_infinite_snr_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(snr_db=float("inf"))

    # 3083 overflows 10 ** (snr_db / 10), -3090 makes the variance 1/subnormal
    # infinite and -3240 makes the divisor zero.
    @pytest.mark.parametrize("snr_db", [True, "20", 3083.0, 1e308, -3090.0, -3240.0])
    def test_snr_without_positive_finite_variance_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db must be"):
            NoiseSpec(snr_db=snr_db)


class TestTargetAmplitudes:
    def test_strongest_target_has_unit_amplitude(self, table1):
        targets = [Target(6.0, 20.0, 3.16), Target(39.0, 5.0, 3.16)]
        amps = target_amplitudes(table1, BUDGET, targets, seed=0)
        assert np.abs(amps).max() == pytest.approx(1.0)
        # amplitude ratio follows sqrt of the power ratio
        assert np.abs(amps[1]) == pytest.approx((6 / 39) ** 2, rel=1e-12)

    def test_frames_get_fresh_phases(self, table1):
        targets = [Target(6.0, 20.0, 3.16)]
        a0 = target_amplitudes(table1, BUDGET, targets, seed=0, frame_index=0)
        a1 = target_amplitudes(table1, BUDGET, targets, seed=0, frame_index=1)
        assert not np.allclose(a0, a1)
        assert np.array_equal(
            a0, target_amplitudes(table1, BUDGET, targets, seed=0, frame_index=0))
