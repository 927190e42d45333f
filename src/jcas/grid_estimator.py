"""Range-Doppler estimation on the grid comb via the 2-D transform.

Pipeline: normalized symbol matrix -> row-wise DFT over symbols (Doppler)
-> column-wise IDFT over subcarriers (range) -> dB magnitude map -> 2-D
local-maxima detection -> bin-to-physical conversion. Peaks are read at
integer bins; no interpolation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import transforms
from .channel import SymbolMatrix
from .config import OfdmConfig, bin_range, bin_velocity

# Cells below peak * 1e-15 are clamped so the dB map stays finite.
_MAG_FLOOR_REL = 1e-15


@dataclass(frozen=True)
class RadarImage:
    """dB-normalized transform magnitude, a 1-D spectrum or a 2-D range-Doppler
    map, as to_normalized_db returns it: the strongest bin is 0 dB, and
    reference_level is 20*log10 of the strongest linear magnitude.
    """

    magnitude_db: np.ndarray
    reference_level: float


@dataclass(frozen=True)
class GridDetection:
    range_bin: int
    doppler_bin: int
    magnitude_db: float
    range_m: float
    velocity_mps: float


def to_normalized_db(mag: np.ndarray) -> tuple[np.ndarray, float]:
    """dB of mag, overwritten in place, with the peak at 0 dB; returns (map, peak level in dB)."""
    peak = float(mag.max())
    if peak <= 0:
        raise ValueError("cannot normalize an all-zero magnitude array")
    np.maximum(mag, peak * _MAG_FLOOR_REL, out=mag)
    np.log10(np.divide(mag, peak, out=mag), out=mag)
    return np.multiply(mag, 20.0, out=mag), 20.0 * np.log10(peak)


def circular_maxima(db: np.ndarray, threshold_db: float, guard: int) -> np.ndarray:
    """Row-major flat indices, ascending, of the cells >= threshold_db that are
    strictly greater than every other cell within guard bins on each axis.

    Axes wrap (DFT bins are circular). A neighbour that wraps back onto the
    cell itself still counts, so no cell of an axis of <= 2*guard bins passes.
    """
    flat = np.flatnonzero(db >= threshold_db)
    for offset in itertools.product(range(-guard, guard + 1), repeat=db.ndim):
        if not any(offset):
            continue
        cells = np.unravel_index(flat, db.shape)
        neighbour = tuple((c + o) % n for c, o, n in zip(cells, offset, db.shape))
        flat = flat[db[cells] > db[neighbour]]
    return flat


def range_doppler_map(c: SymbolMatrix, method: str = "fast",
                      counter: transforms.MultiplyCounter | None = None) -> RadarImage:
    """2-D transform of the symbol matrix: DFT along rows, IDFT down columns.

    The Doppler DFT carries no scale; the range IDFT carries 1/N_f. With
    this convention total map energy equals (N_t/N_f) times input energy.
    The fast method overwrites c.values with the spectrum in place when it
    is a writable complex128 array, so a grid frame needs one complex
    buffer; any other values are copied first. The naive method never
    writes c.values.
    """
    if method == "fast":
        values = np.require(c.values, complex, "W")
        transforms.dft(values, axis=1, counter=counter, out=values)
        spectrum = transforms.idft(values, axis=0, counter=counter, out=values)
    else:
        spectrum = transforms.dft(c.values, axis=1, method=method, counter=counter)
        spectrum = transforms.idft(spectrum, axis=0, method=method, counter=counter)
    return RadarImage(*to_normalized_db(np.abs(spectrum)))


def detect_peaks_2d(rd_map: RadarImage, threshold_db: float,
                    cfg: OfdmConfig, guard: int = 2) -> list[GridDetection]:
    """Cells above threshold that strictly dominate their guard neighborhood.

    Neighborhoods wrap around (DFT bins are circular). Detections are sorted
    by magnitude, strongest first, with range/velocity read by
    bins_to_estimate.
    """
    if threshold_db >= 0:
        raise ValueError("threshold_db must be negative (relative to peak)")
    if guard < 1:
        raise ValueError("guard must be >= 1")
    db = rd_map.magnitude_db
    rows, cols = np.unravel_index(circular_maxima(db, threshold_db, guard), db.shape)
    found = [GridDetection(p, q, float(db[p, q]), *bins_to_estimate(cfg, p, q))
             for p, q in zip(rows.tolist(), cols.tolist())]
    return sorted(found, key=lambda d: -d.magnitude_db)


def bins_to_estimate(cfg: OfdmConfig, p: int, q: int) -> tuple[float, float]:
    """Convert integer (range bin, doppler bin) to (range m, velocity m/s)."""
    if not 0 <= p < cfg.n_sensing_freq:
        raise ValueError(f"range bin {p} out of [0, {cfg.n_sensing_freq})")
    if not 0 <= q < cfg.n_sensing_time:
        raise ValueError(f"doppler bin {q} out of [0, {cfg.n_sensing_time})")
    return bin_range(cfg, p), bin_velocity(cfg, q)
