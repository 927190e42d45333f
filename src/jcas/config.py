"""OFDM system configuration, physical constants, capabilities, readable regions, layouts.

All other modules take an :class:`OfdmConfig` as their single source of truth
for physics constants and block geometry, and convert between spectral bins
and range/velocity only through the bin maps defined here.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Iterator
from dataclasses import dataclass

SPEED_OF_LIGHT = 3.0e8  # m/s; round value, configurable per config instance


def finite_number(name: str, v) -> float:
    """v as a float; a bool, a non-number, nan, inf and an int beyond the
    float range are refused."""
    # A bool is an int to Python, yet "carrier_freq = true" is no 1 Hz.
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not -sys.float_info.max <= v <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number, got {v!r}")
    return float(v)


def seed_number(name: str, v) -> int:
    """v, a non-negative Python or numpy integer, as an int; a bool, a float, any other
    type and a negative value are refused."""
    if not isinstance(v, bool):
        try:
            if (i := operator.index(v)) >= 0:
                return i
        except TypeError:
            pass
    raise ValueError(f"{name} must be a non-negative integer, got {v!r}")


@dataclass(frozen=True)
class OfdmConfig:
    """OFDM block geometry and RF constants; every other figure is derived.

    Attributes
    ----------
    carrier_freq : float
        Carrier frequency [Hz].
    subcarrier_spacing : float
        Subcarrier spacing [Hz].
    n_subcarriers : int
        Subcarriers across the total signal bandwidth.
    n_symbols : int
        OFDM symbols in one block.
    n_sensing_freq : int
        Sensing subcarriers across the bandwidth (frequency comb size).
    n_sensing_time : int
        Sensing symbols across the block (time comb size).
    speed_of_light : float
        Propagation speed [m/s].
    """

    carrier_freq: float
    subcarrier_spacing: float
    n_subcarriers: int
    n_symbols: int
    n_sensing_freq: int
    n_sensing_time: int
    speed_of_light: float = SPEED_OF_LIGHT

    def __post_init__(self) -> None:
        for name, v in self.__dict__.items():
            if finite_number(name, v) <= 0:
                raise ValueError(f"{name} must be positive, got {v!r}")
        for name in ("n_subcarriers", "n_symbols", "n_sensing_freq", "n_sensing_time"):
            if not isinstance(getattr(self, name), int):
                raise ValueError(f"{name} must be a positive integer")
        for axis, total, comb in (("frequency", self.n_subcarriers, self.n_sensing_freq),
                                  ("time", self.n_symbols, self.n_sensing_time)):
            if total % comb:
                raise ValueError(f"{axis} comb spacing {total}/{comb} is not an integer")
            if comb < 2:
                raise ValueError(f"{axis} comb needs at least 2 sensing signals, got {comb}")

    @classmethod
    def table1(cls) -> "OfdmConfig":
        """28 GHz / 400 MHz configuration: a 30 ms block of 8.92 us symbols.

        The 8.92 us include the cyclic prefix; only the useful symbol duration
        1/subcarrier_spacing enters any phase or estimation arithmetic.
        """
        return cls(
            carrier_freq=28e9,
            subcarrier_spacing=120e3,
            n_subcarriers=3360,
            n_symbols=3360,
            n_sensing_freq=480,
            n_sensing_time=480,
        )

    @property
    def useful_symbol_duration(self) -> float:
        """Cyclic-prefix-free symbol duration [s] = 1/subcarrier spacing."""
        return 1.0 / self.subcarrier_spacing

    @property
    def freq_comb_spacing(self) -> int:
        """Subcarriers between adjacent sensing subcarriers."""
        return self.n_subcarriers // self.n_sensing_freq

    @property
    def time_comb_spacing(self) -> int:
        """Symbols between adjacent sensing symbols."""
        return self.n_symbols // self.n_sensing_time

    @property
    def n_diag(self) -> int:
        """Sensing signals on the block diagonal: one per comb step."""
        return self.n_sensing_freq

    @property
    def wavelength(self) -> float:
        return self.speed_of_light / self.carrier_freq

    def validate_diagonal(self) -> None:
        """Diagonal allocation needs equal comb sizes on both axes."""
        if self.n_sensing_freq != self.n_sensing_time:
            raise ValueError("diagonal scheme requires n_sensing_freq == n_sensing_time, "
                             f"got {self.n_sensing_freq}/{self.n_sensing_time}")


@dataclass(frozen=True)
class SensingCapabilities:
    """Resolution and unambiguous-range limits of one configuration."""

    range_resolution: float        # m
    velocity_resolution: float     # m/s
    max_unambiguous_range: float   # m
    max_unambiguous_velocity: float  # m/s


def range_bin(cfg: OfdmConfig, range_m: float) -> float:
    """Fractional spectral bin contributed by the round-trip delay."""
    return 2.0 * cfg.subcarrier_spacing * range_m * cfg.n_subcarriers / cfg.speed_of_light


def doppler_bin(cfg: OfdmConfig, velocity_mps: float) -> float:
    """Fractional spectral bin contributed by the Doppler shift."""
    return (2.0 * cfg.carrier_freq * velocity_mps * cfg.time_comb_spacing
            * cfg.useful_symbol_duration * cfg.n_sensing_time / cfg.speed_of_light)


def bin_range(cfg: OfdmConfig, l: float) -> float:
    """Range [m] of range bin l; the inverse of range_bin."""
    return cfg.speed_of_light * l / (2.0 * cfg.subcarrier_spacing * cfg.n_subcarriers)


def bin_velocity(cfg: OfdmConfig, l: float) -> float:
    """Radial velocity [m/s] of Doppler bin l; the inverse of doppler_bin.

    The Doppler axis spans the n_symbols = L_t * N_t symbols the time comb
    covers, not the subcarrier count.
    """
    return cfg.speed_of_light * l / (2.0 * cfg.carrier_freq * cfg.useful_symbol_duration
                                     * cfg.n_symbols)


def tone_pair_bins(cfg: OfdmConfig, range_m: float,
                   velocity_mps: float) -> tuple[float, float]:
    """Fractional (low, high) spectral bins of a target's dual-peak profile.

    The diagonal comb superposes the range and Doppler ramps, so one target
    maps to the tone pair at |l_range - l_doppler| and l_range + l_doppler.
    """
    l_r = range_bin(cfg, range_m)
    l_d = doppler_bin(cfg, velocity_mps)
    return abs(l_r - l_d), l_r + l_d


def sensing_positions(cfg: OfdmConfig, diagonal: bool) -> Iterator[tuple[int, int]]:
    """(subcarrier, symbol) positions of the sensing signals, made one at a time.

    The grid comb's are row-major over (frequency step, time step); the
    diagonal's are (k*L_f, k*L_t), ascending. Index pairs, not a dense mask:
    the diagonal holds only N cells of the N_c x N_sym block. A non-square
    comb's diagonal is refused at the call, not at the first position.
    """
    l_f, l_t = cfg.freq_comb_spacing, cfg.time_comb_spacing
    if diagonal:
        cfg.validate_diagonal()
        return ((k * l_f, k * l_t) for k in range(cfg.n_diag))
    return ((i * l_f, j * l_t) for i in range(cfg.n_sensing_freq)
            for j in range(cfg.n_sensing_time))


def overhead(cfg: OfdmConfig, diagonal: bool) -> float:
    """Fraction of the block's resource elements spent on sensing, from the comb sizes."""
    if diagonal:
        cfg.validate_diagonal()
    count = cfg.n_diag if diagonal else cfg.n_sensing_freq * cfg.n_sensing_time
    return count / (cfg.n_subcarriers * cfg.n_symbols)


def capabilities(cfg: OfdmConfig) -> SensingCapabilities:
    """Derive the four sensing-capability figures from the block geometry.

    A resolution is one bin; an unambiguous limit is the comb's N bins
    (N_f for range, N_t for velocity), beyond which bins wrap.
    """
    return SensingCapabilities(
        range_resolution=bin_range(cfg, 1),
        velocity_resolution=bin_velocity(cfg, 1),
        max_unambiguous_range=bin_range(cfg, cfg.n_sensing_freq),
        max_unambiguous_velocity=bin_velocity(cfg, cfg.n_sensing_time),
    )


def wrap_reason(cfg: OfdmConfig, range_m: float, velocity_mps: float,
                grid: bool, diagonal: bool) -> str | None:
    """Why the grid (if grid) or the diagonal (if diagonal) would read a target ahead
    at (range_m, velocity_mps) wrapped, or None. In bin space, the grid reads l_r < N_f
    and |l_d| < N_t, the diagonal l_r + |l_d| < n_diag: for l_r > 0 the larger magnitude
    of tone_pair_bins, bit for bit. Metres and m/s are computed only for the message."""
    l_r, l_d = range_bin(cfg, range_m), abs(doppler_bin(cfg, velocity_mps))
    if grid and l_d >= cfg.n_sensing_time:
        return (f"moves at {velocity_mps:g} m/s, at or beyond the "
                f"{capabilities(cfg).max_unambiguous_velocity:g} m/s unambiguous velocity")
    if grid and l_r >= cfg.n_sensing_freq:
        return (f"is at {range_m:g} m, at or beyond the "
                f"{capabilities(cfg).max_unambiguous_range:g} m unambiguous range")
    if diagonal and l_r + l_d >= cfg.n_diag:
        return (f"puts a diagonal tone at bin {l_r + l_d:g}, "
                f"at or beyond n_diag = {cfg.n_diag}: it wraps")
    return None


@dataclass(frozen=True)
class Target:
    """One point reflector.

    Positive radial velocity means the target recedes (range increasing).
    """

    range_m: float
    radial_velocity_mps: float
    rcs_m2: float

    def __post_init__(self) -> None:
        if not 0 < self.range_m < math.inf:
            raise ValueError(f"target range must be > 0 and finite, got {self.range_m}")
        if not math.isfinite(self.radial_velocity_mps):
            raise ValueError(f"target velocity must be finite, got {self.radial_velocity_mps}")
        if not 0 < self.rcs_m2 < math.inf:
            raise ValueError(f"target RCS must be > 0 and finite, got {self.rcs_m2}")
