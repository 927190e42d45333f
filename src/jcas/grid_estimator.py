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


def to_normalized_db(mag: np.ndarray, axis: int | None = None
                     ) -> tuple[np.ndarray, float | list[float]]:
    """dB of mag, overwritten in place, with the peak at 0 dB; returns (map, peak level in dB).
    Along an axis, each slice has its own peak, and the levels are a list."""
    peak = mag.max(axis=axis, keepdims=True)
    if (peak <= 0).any():
        raise ValueError("cannot normalize an all-zero magnitude array")
    np.maximum(mag, peak * _MAG_FLOOR_REL, out=mag)
    np.log10(np.divide(mag, peak, out=mag), out=mag)
    levels = [20.0 * np.log10(p) for p in peak.ravel().tolist()]
    return np.multiply(mag, 20.0, out=mag), levels[0] if axis is None else levels


def circular_maxima(db: np.ndarray, threshold_db: float, guard: int) -> np.ndarray:
    """Row-major flat indices, ascending, of the cells >= threshold_db that are
    strictly greater than every other cell within guard bins on each axis.

    Axes wrap (DFT bins are circular). An offset that wraps back onto the cell
    itself, as +-n does on an axis of n <= guard bins, is skipped, so a cell
    is compared with other cells only.
    """
    flat = np.flatnonzero(db >= threshold_db)
    for offset in itertools.product(range(-guard, guard + 1), repeat=db.ndim):
        if not any(o % n for o, n in zip(offset, db.shape)):
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
    The fast method consumes c.values when it is a writable C-contiguous
    complex128 array, so a grid frame needs one complex buffer: the spectrum
    overwrites it, and the dB map is packed into its first N_f*N_t floats.
    The returned map is then a view that keeps the whole buffer alive. Any
    other values are copied first. The naive method never writes c.values.
    """
    if method == "fast":
        values = np.require(c.values, complex, ("C", "W"))
        transforms.dft(values, axis=1, counter=counter, out=values)
        transforms.idft(values, axis=0, counter=counter, out=values)
        mag = _pack_magnitude(values)
    else:
        spectrum = transforms.dft(c.values, axis=1, method=method, counter=counter)
        mag = np.abs(transforms.idft(spectrum, axis=0, method=method, counter=counter))
    return RadarImage(*to_normalized_db(mag))


def _pack_magnitude(values: np.ndarray) -> np.ndarray:
    """|values| written over the first half of values' own C-contiguous buffer,
    returned as a contiguous float view of values' shape.

    Row r's magnitudes go to the floats where complex row r/2 was. Rows pass
    in blocks [1, 2), [2, 4), [4, 8), ...; a block [a, b) with b <= 2a writes
    below its own input, over rows that earlier blocks already read, so no
    block's input overlaps its output. Row 0 does overlap its own output, and
    numpy would copy it and take another loop whose last bits differ, so it
    goes through a one-row temporary.
    """
    mag = values.view(np.float64).reshape(-1)[:values.size].reshape(values.shape)
    mag[0] = np.abs(values[0])
    start = 1
    while start < len(values):
        stop = min(2 * start, len(values))
        np.abs(values[start:stop], out=mag[start:stop])
        start = stop
    return mag


def detect_peaks_2d(rd_map: RadarImage, threshold_db: float,
                    cfg: OfdmConfig) -> list[GridDetection]:
    """Cells above threshold that strictly dominate their guard neighborhood of 2 cells.

    Neighborhoods wrap around (DFT bins are circular). Detections are sorted
    by magnitude, strongest first, with range/velocity read by
    bins_to_estimate.
    """
    if threshold_db >= 0:
        raise ValueError("threshold_db must be negative (relative to peak)")
    db = rd_map.magnitude_db
    rows, cols = np.unravel_index(circular_maxima(db, threshold_db, 2), db.shape)
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
