"""Forward echo model in the modulation-symbol domain.

Synthesizes the normalized Rx/Tx symbol observations a set of point targets
produces on the grid and diagonal sensing combs, with radar-equation
amplitude scaling and optional additive white Gaussian noise. Time-domain
OFDM modulation, multipath, and clutter are out of scope; each target
contributes one complex amplitude and two linear phase ramps.

Sign conventions: range delay rotates the phase clockwise with subcarrier
index, recession (positive radial velocity) rotates it counterclockwise with
symbol index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (OfdmConfig, Target, doppler_bin, finite_number, range_bin,
                     seed_number, tone_pair_bins)

# Samples per noise draw: a frame's noise passes through one buffer of this many floats.
_NOISE_CHUNK = 16384


@dataclass(frozen=True)
class NoiseSpec:
    """Additive complex white Gaussian noise level.

    snr_db is measured against the strongest target's per-sample amplitude.
    A noiseless run passes no NoiseSpec at all (noise=None). An snr_db whose
    noise variance at unit reference, 1 / 10 ** (snr_db / 10), is not
    positive and finite (beyond about +-3082 dB) is refused. rng_seed is
    any non-negative Python or numpy integer (config.seed_number), kept as int.
    """

    snr_db: float
    rng_seed: int = 0

    def __post_init__(self) -> None:
        # A float skips finite_number, so the check below words nan and inf
        # as "snr_db must be finite".
        snr_db = self.snr_db
        if not isinstance(snr_db, float):
            snr_db = finite_number("snr_db", snr_db)
        try:
            variance = 1.0 / 10.0 ** (snr_db / 10.0)
        except (OverflowError, ZeroDivisionError):
            variance = 0.0
        if not 0 < variance < math.inf:
            raise ValueError(f"snr_db must be finite and give a positive, finite "
                             f"noise variance, got {snr_db!r}")
        object.__setattr__(self, "rng_seed", seed_number("rng_seed", self.rng_seed))


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power [W] and linear antenna gains."""

    tx_power: float = 1.0
    tx_gain: float = 1.0
    rx_gain: float = 1.0

    def __post_init__(self) -> None:
        for name, v in self.__dict__.items():
            if finite_number(name, v) <= 0:
                raise ValueError(f"link budget term {name} must be positive, got {v!r}")


@dataclass(frozen=True)
class _Samples:
    """Both sample types' one check: values as a finite complex ndarray of one of
    _RANKS (_SHAPE words them); a complex128 array is kept, anything else converted."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex)
        if v.ndim not in self._RANKS:
            raise ValueError(f"{type(self).__name__} values must be {self._SHAPE}")
        if not np.isfinite(v).all():
            raise ValueError(f"{type(self).__name__} values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SymbolMatrix(_Samples):
    """Normalized Rx/Tx quotient on the grid comb, n_sensing_freq x n_sensing_time."""

    _RANKS, _SHAPE = (2,), "2-D"


@dataclass(frozen=True)
class DiagonalVector(_Samples):
    """Normalized Rx/Tx quotient along the diagonal comb, length n_diag (2-D: a frame per row)."""

    _RANKS, _SHAPE = (1, 2), "1-D, or 2-D for a block"


def rx_power(budget: LinkBudget, cfg: OfdmConfig, target: Target) -> float:
    """Received echo power [W].

    Evaluates P_Tx*G_Tx*G_Rx*sigma*lambda^2 / ((4*pi)^3 * R^4 * f_c^2).
    The f_c^2 factor is kept as-is; only power ratios at fixed carrier are
    consumed downstream, where it cancels against lambda^2. A power that
    under- or overflows (R^4 rounding to zero, say) raises ValueError.
    """
    lam = cfg.wavelength
    spread = (4.0 * np.pi) ** 3 * target.range_m ** 4 * cfg.carrier_freq ** 2
    power = (budget.tx_power * budget.tx_gain * budget.rx_gain
             * target.rcs_m2 * lam ** 2 / spread) if spread else 0.0
    if not 0 < power < math.inf:
        raise ValueError(f"echo power of the target at {target.range_m:g} m is "
                         f"{power:g} W, not positive and finite")
    return power


def target_amplitudes(cfg: OfdmConfig, budget: LinkBudget,
                      targets: list[Target], seed: int,
                      frame_index: int = 0) -> np.ndarray:
    """Per-target complex amplitudes for one measurement frame.

    Magnitudes follow sqrt(rx_power), normalized so the strongest target has
    unit amplitude (which is also the noise reference). Phases are uniform
    random per target, drawn deterministically from (seed, frame_index); the
    reflection phase carries no usable structure.
    """
    if not targets:
        raise ValueError("need at least one target")
    powers = np.array([rx_power(budget, cfg, t) for t in targets])
    mags = np.sqrt(powers / powers.max())
    rng = np.random.default_rng([seed, frame_index])
    phases = rng.uniform(0.0, 2.0 * np.pi, len(targets))
    return mags * np.exp(1j * phases)


def _check_synth_inputs(targets: list[Target], amps: np.ndarray) -> np.ndarray:
    if not targets:
        raise ValueError("need at least one target")
    amps = np.asarray(amps, dtype=complex)
    if amps.shape != (len(targets),):
        raise ValueError("amps must have one entry per target")
    return amps


def _add_noise_in_place(values: np.ndarray, noise: NoiseSpec,
                        reference_amplitude: float) -> None:
    """Add noise at noise.snr_db against reference_amplitude, drawn from
    noise.rng_seed, into values (complex128, C-contiguous, writable).

    The draws pass through one float buffer of at most _NOISE_CHUNK samples,
    so the noise adds no frame-sized array: the real parts take the first
    values.size draws, chunk by chunk in order, then the imaginary parts take
    the next values.size. Each chunk is scaled in place and added. One
    generator stream yields the same draws in chunks as in one call, and
    these are the same float operations as values + scale * (a + 1j * b),
    so the result is bit-identical to it.
    """
    variance = reference_amplitude ** 2 / 10.0 ** (noise.snr_db / 10.0)
    rng = np.random.default_rng(noise.rng_seed)
    scale = np.sqrt(variance / 2.0)
    flat = values.reshape(-1)
    w = np.empty(min(flat.size, _NOISE_CHUNK))
    for part in (flat.real, flat.imag):
        for start in range(0, part.size, _NOISE_CHUNK):
            target = part[start:start + _NOISE_CHUNK]
            draw = w[:target.size]
            rng.standard_normal(out=draw)
            target += np.multiply(draw, scale, out=draw)


def synthesize_grid(cfg: OfdmConfig, targets: list[Target], amps: np.ndarray,
                    noise: NoiseSpec | None = None) -> SymbolMatrix:
    """Normalized grid-comb observation of the given targets.

    Entry (i, j) sums amp * exp(-j*4*pi*L_f*df*R*i/c) *
    exp(+j*4*pi*L_t*T_u*f_c*v*j/c) over targets; the comb spacings enter the
    ramps so that spectral peaks land on the full-bandwidth bin positions.
    The sum is one product over targets, (amps * E_f) @ E_t.T, of the
    N_f x K range ramps E_f and the N_t x K Doppler ramps E_t. The noise is
    added into that fresh product in place, so the frame's one complex
    buffer holds the observation.
    """
    amps = _check_synth_inputs(targets, amps)
    p = np.array([range_bin(cfg, t.range_m) for t in targets])
    q = np.array([doppler_bin(cfg, t.radial_velocity_mps) for t in targets])
    i = np.arange(cfg.n_sensing_freq)[:, None]
    j = np.arange(cfg.n_sensing_time)[:, None]
    e_f = np.exp(-2j * np.pi * p * i / cfg.n_sensing_freq)
    e_t = np.exp(+2j * np.pi * q * j / cfg.n_sensing_time)
    values = (amps * e_f) @ e_t.T
    if noise is not None:
        _add_noise_in_place(values, noise, float(np.abs(amps).max()))
    return SymbolMatrix(values)


def synthesize_diag(cfg: OfdmConfig, targets: list[Target], amps: np.ndarray,
                    noise: NoiseSpec | None = None) -> DiagonalVector:
    """Normalized diagonal-comb observation of the given targets.

    Each target contributes the sum-and-difference tone pair at its
    tone_pair_bins, amp/2 each: the dual-peak radar image. A tone at bin b
    is exp(2j*pi*b*k/N); it is built as cos(theta) + i*sin(theta) with
    theta = 2*pi*b * k * (1/N) in float64, which is the same value bit for
    bit: the complex product's real parts are +-0, numpy divides a complex
    by the real N as a product with 1/N, and the complex exp of +-0 + i*theta
    is (cos(theta), sin(theta)). tests/test_channel.py's
    test_diag_phases_match_the_complex_exp checks this against that
    expression in tests/oracles.py.
    """
    cfg.validate_diagonal()
    amps = _check_synth_inputs(targets, amps)
    # One (high, low) bin pair per target, a cos/sin pass over all the phases.
    bins = np.array([tone_pair_bins(cfg, t.range_m, t.radial_velocity_mps)[::-1]
                     for t in targets])
    theta = (2.0 * np.pi * bins)[..., np.newaxis] * np.arange(cfg.n_diag)
    theta *= 1.0 / cfg.n_diag
    tones = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=tones.real)
    np.sin(theta, out=tones.imag)
    values = np.zeros(cfg.n_diag, dtype=complex)
    for (e_hi, e_lo), amp in zip(tones, amps):
        values += (amp / 2.0) * (e_hi + e_lo)
    if noise is not None:
        _add_noise_in_place(values, noise, float(np.abs(amps).max()))
    return DiagonalVector(values)
