"""Independent reference implementations used only to check the library.

Everything here is written as literal summation or literal loops,
deliberately sharing no code with the package's transform kernels or its
vectorized local-maximum rule.
"""

from __future__ import annotations

import cmath

import numpy as np


def brute_dft(x) -> np.ndarray:
    """Literal double-sum forward DFT, no scale."""
    x = list(x)
    n = len(x)
    out = np.zeros(n, dtype=complex)
    for l in range(n):
        acc = 0j
        for k in range(n):
            acc += x[k] * cmath.exp(-2j * cmath.pi * k * l / n)
        out[l] = acc
    return out


def brute_idft(x) -> np.ndarray:
    """Literal double-sum inverse DFT with 1/n scale."""
    x = list(x)
    n = len(x)
    out = np.zeros(n, dtype=complex)
    for p in range(n):
        acc = 0j
        for m in range(n):
            acc += x[m] * cmath.exp(2j * cmath.pi * m * p / n)
        out[p] = acc / n
    return out


def brute_2d(c) -> np.ndarray:
    """Row-wise brute DFT followed by column-wise brute IDFT."""
    c = np.asarray(c, dtype=complex)
    rows = np.stack([brute_dft(row) for row in c])
    cols = np.stack([brute_idft(col) for col in rows.T]).T
    return cols


def power_ratio_db(rcs1: float, r1: float, rcs2: float, r2: float) -> float:
    """Radar-equation power ratio target1/target2 in dB at fixed carrier.

    Only the sigma/R^4 dependence survives a ratio, so this is an
    independent check of the full received-power expression.
    """
    return 10.0 * np.log10(rcs1 / rcs2) + 40.0 * np.log10(r2 / r1)


def expected_range_bin(cfg, range_m: float) -> float:
    """Fractional range bin from first principles: 2*B*R/c of a full comb."""
    return 2.0 * cfg.n_subcarriers * cfg.subcarrier_spacing * range_m / cfg.speed_of_light


def expected_doppler_bin(cfg, velocity_mps: float) -> float:
    """Fractional Doppler bin: Doppler shift times the block's observed span."""
    doppler_hz = 2.0 * velocity_mps * cfg.carrier_freq / cfg.speed_of_light
    observed_span = (cfg.n_sensing_time * cfg.time_comb_spacing
                     * cfg.useful_symbol_duration)
    return doppler_hz * observed_span


def circular_distance(a: int, b: int, n: int) -> int:
    d = abs(a - b) % n
    return min(d, n - d)


def local_maxima_1d(db, threshold_db: float) -> list[int]:
    """Bins >= threshold strictly above both wrapped neighbours."""
    n = len(db)
    return [i for i in range(n)
            if db[i] >= threshold_db
            and db[i] > db[(i - 1) % n] and db[i] > db[(i + 1) % n]]


def thin_pairwise(peaks: list, n: int, min_separation: int) -> list:
    """Strongest-first thinning, each candidate checked against every kept peak."""
    kept: list = []
    for p in sorted(peaks, key=lambda p: -p.magnitude_db):
        if all(circular_distance(p.bin, q.bin, n) >= min_separation for q in kept):
            kept.append(p)
    return kept


def local_maxima_2d(db, threshold_db: float, guard: int) -> list[tuple[int, int]]:
    """(p, q) cells >= threshold strictly above every wrapped guard neighbour."""
    n_f, n_t = db.shape
    found = []
    candidates = np.argwhere(db >= threshold_db)
    for p, q in candidates:
        val = db[p, q]
        is_max = True
        for dp in range(-guard, guard + 1):
            for dq in range(-guard, guard + 1):
                if dp == 0 and dq == 0:
                    continue
                if db[(p + dp) % n_f, (q + dq) % n_t] >= val:
                    is_max = False
                    break
            if not is_max:
                break
        if is_max:
            found.append((int(p), int(q)))
    return found
