"""Range-velocity estimation on the diagonal comb via one 1-D transform.

Pipeline: windowing -> length-N DFT -> dB radar image -> 1-D peak detection
-> amplitude-based peak pairing -> candidate (range, velocity) readings per
pair. Each target produces two peaks; the mean and difference of a pair's
bin indices carry range and velocity, but which carries which is ambiguous
within a single frame (see tracking for the multi-frame resolution).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import transforms
from .channel import DiagonalVector
from .config import OfdmConfig, bin_range, bin_velocity
from .grid_estimator import RadarImage, circular_maxima, to_normalized_db


class WindowKind(Enum):
    RECTANGULAR = "rect"
    HAMMING = "hamming"


# Detection floors, one per window: process_frame thresholds the image of a
# mode's detection window (its last) at that window's floor.
# The rectangular floor must stay above the -13 dB first sidelobe with margin
# for multi-target skirt pileup; the Hamming floor sits between weak-target
# levels (~-33 dB in the highway scenes) and the ~-41 dB sidelobe floor.
DEFAULT_THRESHOLD_DB = {
    WindowKind.RECTANGULAR: -30.0,
    WindowKind.HAMMING: -36.0,
}
# Pairing tolerances, one per window, each above that window's straddle loss: a lone
# target's tone half-way between bins reads 3.92 dB (rect) or 1.75 dB (Hamming)
# below its on-bin twin.
PAIR_TOLERANCE_DB = {WindowKind.RECTANGULAR: 4.0, WindowKind.HAMMING: 3.0}
DEFAULT_MIN_SEPARATION = 3
# Windows each `simulate --window` mode processes a frame with. Every window's
# image is made and written; detection runs on the last one's, so adaptive
# detects on the Hamming image and adds the rect image for comparison.
WINDOW_MODES = {
    "rect": (WindowKind.RECTANGULAR,),
    "hamming": (WindowKind.HAMMING,),
    "adaptive": (WindowKind.RECTANGULAR, WindowKind.HAMMING),
}


class Peak(NamedTuple):
    """A detected spectral peak.

    bin is in native DFT-bin units. detect_peaks_1d gives int bins; a peak
    read off a zero-padded image may sit between them.
    """

    bin: float
    magnitude_db: float


class PeakPair(NamedTuple):
    """Two peaks attributed to one target, lower bin first (pair_peaks sorts
    them).

    l1 == l2 is the degenerate coincident-tone case (zero-velocity target).
    Bins are those of the member peaks: ints on the CLI path, fractional
    when the peaks are.
    """

    l1: float
    l2: float
    magnitude_db: float  # mean of the members

    @property
    def mean_bin(self) -> float:
        return 0.5 * (self.l1 + self.l2)

    @property
    def delta_bin(self) -> float:
        return self.l2 - self.l1


@dataclass(frozen=True)
class DiagFrame:
    """One frame through process_frame: an image per window, the peaks
    detected on the last window's image (strongest first), and their pairing."""

    images: dict[WindowKind, RadarImage]
    peaks: list[Peak]
    pairs: list[PeakPair]
    orphans: list[Peak]


@lru_cache(maxsize=32)
def window_coefficients(kind: WindowKind, n: int) -> np.ndarray:
    """The n Hamming taper coefficients, built once per n and read-only. Only
    Hamming has a taper: apply_window leaves a rectangular frame as it is."""
    if kind is not WindowKind.HAMMING:
        raise ValueError(f"window kind {kind!r} has no taper")
    if n < 2:
        raise ValueError("window length must be >= 2")
    w = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))
    w.flags.writeable = False
    return w


def apply_window(d: DiagonalVector, kind: WindowKind) -> DiagonalVector:
    """Element-wise taper of each frame; rectangular is the identity."""
    if kind is WindowKind.RECTANGULAR:
        return d
    return DiagonalVector(d.values * window_coefficients(kind, d.values.shape[-1]))


def diag_spectrum(d: DiagonalVector, method: str = "fast",
                  counter: transforms.MultiplyCounter | None = None
                  ) -> RadarImage | list[RadarImage]:
    """Length-N DFT magnitude of each frame, dB-normalized to its own peak (a block's: a list)."""
    spectrum = transforms.dft(d.values, method=method, counter=counter)
    db = to_normalized_db(np.abs(spectrum).reshape(-1, spectrum.shape[-1]), -1)
    images = list(map(RadarImage, db))
    return images if spectrum.ndim > 1 else images[0]


def detect_peaks_1d(img: RadarImage, threshold_db: float) -> list[Peak]:
    """circular_maxima's bins at a guard of 1 bin (it refuses the floor), thinned.

    Bins are circular. A weaker local maximum closer than
    DEFAULT_MIN_SEPARATION bins to an already kept peak is dropped; of equal
    magnitudes the lower bin comes first. Result is sorted by magnitude
    descending.
    """
    db = img.magnitude_db
    found = circular_maxima(db, threshold_db, 1)
    n = len(db)
    # A bytearray set by a plain loop: a numpy fancy-index per kept peak
    # costs more than the few bins it marks.
    occupied = bytearray(n)
    reach = range(1 - DEFAULT_MIN_SEPARATION, DEFAULT_MIN_SEPARATION)
    kept: list[Peak] = []
    # circular_maxima's bins ascend, so the stable sort breaks ties by bin.
    for p in sorted(map(Peak, found.tolist(), db[found].tolist()),
                    key=lambda p: -p.magnitude_db):
        if not occupied[p.bin]:
            kept.append(p)
            for d in reach:
                occupied[(p.bin + d) % n] = 1
    return kept


def process_frame(d: DiagonalVector, windows: tuple[WindowKind, ...]) -> list[DiagFrame]:
    """Window and transform a block of frames once per window, then detect and pair
    each frame: the DiagFrames in row order (a 1-D frame is a block of one). Every
    window's image is kept; peaks are detected on the last window's image only, at
    its DEFAULT_THRESHOLD_DB floor, and paired by pair_peaks at its PAIR_TOLERANCE_DB.
    """
    block = d if d.values.ndim > 1 else DiagonalVector(d.values[np.newaxis])
    spectra = {kind: diag_spectrum(apply_window(block, kind)) for kind in windows}
    detect = windows[-1]
    frames = []
    for images in (dict(zip(spectra, row)) for row in zip(*spectra.values())):
        peaks = detect_peaks_1d(images[detect], DEFAULT_THRESHOLD_DB[detect])
        frames.append(DiagFrame(images, peaks, *pair_peaks(peaks, PAIR_TOLERANCE_DB[detect])))
    return frames


def pair_peaks(peaks: list[Peak], amp_tolerance_db: float
               ) -> tuple[list[PeakPair], list[Peak]]:
    """Group peaks into equal-amplitude pairs.

    The two peaks one target produces have (near) equal amplitude, so
    matching repeatedly joins the two unpaired peaks with the smallest
    magnitude difference, as long as that difference stays within tolerance.
    Returns (pairs, orphans); an odd or unmatchable peak is reported as an
    orphan, never an error; a tolerance not above 0, NaN included, is refused.

    Peaks are kept sorted strongest first, so the closest-magnitude pair is
    always two neighbours in that order (float subtraction is monotone); a
    tie goes to the strongest such pair.
    """
    if not amp_tolerance_db > 0:
        raise ValueError("amp_tolerance_db must be positive")
    unpaired = sorted(peaks, key=lambda p: -p.magnitude_db)
    # diffs[i] = unpaired[i] - unpaired[i + 1]; a join closes the gaps around the pair.
    diffs = [a.magnitude_db - b.magnitude_db for a, b in zip(unpaired, unpaired[1:])]
    pairs: list[PeakPair] = []
    while diffs:
        i = diffs.index(gap := min(diffs))  # the first smallest gap
        if gap > amp_tolerance_db:
            break
        a, b = unpaired[i], unpaired[i + 1]
        lo, hi = sorted((a.bin, b.bin))
        pairs.append(PeakPair(l1=lo, l2=hi,
                              magnitude_db=0.5 * (a.magnitude_db + b.magnitude_db)))
        del unpaired[i:i + 2]
        diffs[max(i - 1, 0):i + 2] = (
            [unpaired[i - 1].magnitude_db - unpaired[i].magnitude_db]
            if 0 < i < len(unpaired) else [])
    return pairs, unpaired


def candidates(cfg: OfdmConfig, pair: PeakPair) -> tuple[float, float, float, float]:
    """The two (range, velocity) readings a dual-peak pair admits, as
    (r_a, v_a, r_b, v_b).

    With mean bin m and difference d: reading a takes m as the range bin and
    d/2 as the Doppler bin; reading b swaps the roles. Exactly one matches
    the true target. The degenerate coincident pair (d = 0) yields
    a = (R, 0) and b = (0, v).
    """
    m, d = pair.mean_bin, pair.delta_bin
    return (bin_range(cfg, m), bin_velocity(cfg, d / 2),
            bin_range(cfg, d / 2), bin_velocity(cfg, m))
