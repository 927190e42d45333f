"""Independent reference implementations used only to check the library.

Everything here is written as literal summation or literal loops,
deliberately sharing no code with the package's transform kernels, its
vectorized local-maximum rule or its track table.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from jcas.config import OfdmConfig, doppler_bin, range_bin, tone_pair_bins
from jcas.diag_estimator import PeakPair, RadarImage, WindowKind, candidates
from jcas.grid_estimator import to_normalized_db
from jcas.tracking import DECISION_MARGIN_BINS, NEW_TRACK_GATE_BINS


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


def loop_synthesize_grid(cfg: OfdmConfig, targets, amps) -> np.ndarray:
    """Noiseless grid-comb observation, one N_f x N_t outer product per target."""
    i = np.arange(cfg.n_sensing_freq)[:, None]
    j = np.arange(cfg.n_sensing_time)[None, :]
    values = np.zeros((cfg.n_sensing_freq, cfg.n_sensing_time), dtype=complex)
    for target, amp in zip(targets, amps):
        p = range_bin(cfg, target.range_m)
        q = doppler_bin(cfg, target.radial_velocity_mps)
        values += (amp
                   * np.exp(-2j * np.pi * p * i / cfg.n_sensing_freq)
                   * np.exp(+2j * np.pi * q * j / cfg.n_sensing_time))
    return values


def awgn_expression(values, noise, reference_amplitude: float) -> np.ndarray:
    """The noisy observation as one out-of-place expression of the two draws,
    values + scale * (a + 1j * b), with a and b drawn in that order."""
    variance = reference_amplitude ** 2 / 10.0 ** (noise.snr_db / 10.0)
    rng = np.random.default_rng(noise.rng_seed)
    scale = np.sqrt(variance / 2.0)
    a = rng.standard_normal(np.shape(values))
    b = rng.standard_normal(np.shape(values))
    return values + scale * (a + 1j * b)


def out_of_place_map(x) -> np.ndarray:
    """dB range-Doppler map of x through numpy's FFT into fresh arrays."""
    return to_normalized_db(np.abs(np.fft.ifft(np.fft.fft(x, axis=1), axis=0)))[0]


def frame_image(values, window: str) -> tuple[np.ndarray, float]:
    """One diagonal frame's dB radar image and reference level, written out per frame:
    the literal window ("rect" or "hamming"), numpy's FFT of the frame alone, its
    magnitude clamped at peak * 1e-15, and 20*log10 of the ratio to the peak."""
    values = np.asarray(values, dtype=complex)
    if window == "hamming":
        n = len(values)
        values = values * (0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1)))
    mag = np.abs(np.fft.fft(values))
    peak = float(mag.max())
    return 20.0 * np.log10(np.maximum(mag, peak * 1e-15) / peak), 20.0 * np.log10(peak)


def exp_synthesize_diag(cfg: OfdmConfig, targets, amps) -> np.ndarray:
    """Noiseless diagonal-comb observation, each tone its own complex exp: the
    sum-and-difference pair at tone_pair_bins, amp/2 each, added in target order."""
    k = np.arange(cfg.n_diag)
    values = np.zeros(cfg.n_diag, dtype=complex)
    for target, amp in zip(targets, amps):
        lo, hi = tone_pair_bins(cfg, target.range_m, target.radial_velocity_mps)
        values += (amp / 2.0) * (np.exp(2j * np.pi * hi * k / cfg.n_diag)
                                 + np.exp(2j * np.pi * lo * k / cfg.n_diag))
    return values


def single_tone_diag(cfg: OfdmConfig, targets, amps) -> np.ndarray:
    """Diagonal-comb values as the literal product of each target's range and
    Doppler phase ramps: one tone per target at l_d - l_r, amp each."""
    k = np.arange(cfg.n_diag)
    values = np.zeros(cfg.n_diag, dtype=complex)
    for target, amp in zip(targets, amps):
        l_r = range_bin(cfg, target.range_m)
        l_d = doppler_bin(cfg, target.radial_velocity_mps)
        values += amp * np.exp(2j * np.pi * (l_d - l_r) * k / cfg.n_diag)
    return values


def template_rdmap_csv(path: Path, rd: RadarImage) -> None:
    """Write a range-Doppler map as p,q,magnitude_db, one row per cell.

    Rows go out one map row (fixed p, every q) at a time, so no more than
    one row of cells is ever held as text. Each fills one "{p},{q},%.6g"
    template built per call: str.replace puts in p, % only the dB column.
    """
    n_t = rd.magnitude_db.shape[1]
    template = "".join(f"{{p}},{q},%.6g\n" for q in range(n_t))
    with open(path, "w") as f:
        f.write("p,q,magnitude_db\n")
        for p, row in enumerate(rd.magnitude_db):
            f.write(template.replace("{p}", str(p)) % tuple(row.tolist()))


def template_image_csv(path: Path, img: RadarImage) -> None:
    """Write a radar image's half spectrum, bins 0..N/2, as bin,magnitude_db.

    One "%d,%.6g" template per bin, filled by a single % of the whole image.
    """
    n = len(img.magnitude_db) // 2 + 1
    args: list = [0] * (2 * n)
    args[0::2] = range(n)
    args[1::2] = img.magnitude_db[:n].tolist()
    path.write_text("bin,magnitude_db\n" + ("%d,%.6g\n" * n) % tuple(args))


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
    """Bins >= threshold strictly above both wrapped neighbours that are other bins."""
    n = len(db)
    return [i for i in range(n)
            if db[i] >= threshold_db
            and all(db[i] > db[j] for j in {(i - 1) % n, (i + 1) % n} - {i})]


def thin_pairwise(peaks: list, n: int, min_separation: int) -> list:
    """Strongest-first thinning, each candidate checked against every kept peak."""
    kept: list = []
    for p in sorted(peaks, key=lambda p: -p.magnitude_db):
        if all(circular_distance(p.bin, q.bin, n) >= min_separation for q in kept):
            kept.append(p)
    return kept


# Rectangular mainlobe spans +-1 bin, Hamming +-2; halfwidths add one bin of
# straddle margin when measuring sidelobe levels.
MAINLOBE_HALFWIDTH = {
    WindowKind.RECTANGULAR: 2,
    WindowKind.HAMMING: 4,
}


def psl(img: RadarImage, mainlobe_halfwidth: int = 4) -> float:
    """Peak-to-sidelobe level of a radar image, in dB (negative).

    Mainlobes are the bins within mainlobe_halfwidth of every local maximum
    stronger than -6 dB, the unique global maximum among them (all near-equal
    target peaks count, weak sidelobe maxima do not). Returns the strongest
    magnitude outside those windows relative to the global peak.
    """
    db = img.magnitude_db
    n = len(db)
    if np.count_nonzero(db == db.max()) != 1:
        raise ValueError("image must have a unique global maximum")
    peaks = np.array(local_maxima_1d(db, -6.0))
    lobe = np.arange(-mainlobe_halfwidth, mainlobe_halfwidth + 1)
    mask = np.zeros(n, dtype=bool)
    mask[(peaks[:, None] + lobe) % n] = True
    outside = db[~mask]
    if outside.size == 0:
        raise ValueError("mainlobe windows cover the whole image")
    return float(outside.max())


def local_maxima_2d(db, threshold_db: float, guard: int) -> list[tuple[int, int]]:
    """(p, q) cells >= threshold strictly above every wrapped guard neighbour
    that is another cell."""
    n_f, n_t = db.shape
    found = []
    candidates = np.argwhere(db >= threshold_db)
    for p, q in candidates:
        val = db[p, q]
        is_max = True
        for dp in range(-guard, guard + 1):
            for dq in range(-guard, guard + 1):
                if dp % n_f == 0 and dq % n_t == 0:
                    continue
                if db[(p + dp) % n_f, (q + dq) % n_t] >= val:
                    is_max = False
                    break
            if not is_max:
                break
        if is_max:
            found.append((int(p), int(q)))
    return found


# The multi-frame tracker as a loop over a list of mutable tracks, each branch
# scored on its own; jcas.tracking.TrackTable must match it exactly.
_FRAMES_TO_DECIDE = 2


@dataclass
class Hypothesis:
    """One track with its two unresolved (range, velocity) branches."""

    track_id: int
    chosen: str = "undecided"  # "a" | "b" | "undecided"
    # (t, pair, candidates' (r_a, v_a, r_b, v_b) for the pair) per claim
    history: list[tuple[float, PeakPair, tuple]] = field(default_factory=list)
    score_a: float = 0.0
    score_b: float = 0.0

    def solution(self, branch: str) -> tuple[float, float]:
        r_a, v_a, r_b, v_b = self.history[-1][2]
        return (r_a, v_a) if branch == "a" else (r_b, v_b)

    def best_branch(self) -> str:
        if self.chosen != "undecided":
            return self.chosen
        return "a" if self.score_a <= self.score_b else "b"

    def best_solution(self) -> tuple[float, float]:
        return self.solution(self.best_branch())


def _predicted_pair(cfg: OfdmConfig, sol: tuple[float, float],
                    dt: float) -> tuple[float, float]:
    r, v = sol
    return tone_pair_bins(cfg, r + v * dt, v)


def _start_track(track_id: int, t: float, pair: PeakPair, cand: tuple) -> Hypothesis:
    track = Hypothesis(track_id=track_id, history=[(t, pair, cand)])
    # A non-positive range cannot be a physical target; kill that branch now.
    r_a, _, r_b, _ = cand
    if r_a <= 0.0:
        track.score_a = math.inf
    if r_b <= 0.0:
        track.score_b = math.inf
    return track


def resolve_ambiguity(cfg: OfdmConfig, tracks: list[Hypothesis],
                      frame: tuple[float, list[PeakPair]]) -> list[Hypothesis]:
    """Advance all tracks with one frame of observed peak pairs.

    Every finite branch of every track scores the nearest observed pair;
    the track's history follows its best branch when that branch's pair is
    within the association gate. Pairs claimed by no track open new tracks.
    Returns the updated track list (input list is mutated in place).
    """
    t, pairs = frame
    for track in tracks:
        if track.history and t <= track.history[-1][0]:
            raise ValueError("frame times must be strictly increasing")

    claimed: set[int] = set()
    cands = [candidates(cfg, pair) for pair in pairs]
    l1 = np.array([p.l1 for p in pairs], dtype=float)
    l2 = np.array([p.l2 for p in pairs], dtype=float)
    for track in tracks:
        if not pairs:
            break
        last_t = track.history[-1][0]
        dt = t - last_t
        assoc: dict[str, tuple[float, int]] = {}
        for branch, score in (("a", track.score_a), ("b", track.score_b)):
            if math.isinf(score):
                continue
            pred = _predicted_pair(cfg, track.solution(branch), dt)
            # L1 bin distance to every pair; argmin keeps the first nearest.
            dists = np.abs(pred[0] - l1) + np.abs(pred[1] - l2)
            idx = int(dists.argmin())
            dist = float(dists[idx])
            assoc[branch] = (dist, idx)
            if branch == "a":
                track.score_a += dist
            else:
                track.score_b += dist
        if not assoc:
            continue
        # The best branch is finite whenever any branch is, so it is in assoc.
        dist, idx = assoc[track.best_branch()]
        if dist <= NEW_TRACK_GATE_BINS:
            track.history.append((t, pairs[idx], cands[idx]))
            claimed.add(idx)
        if (len(track.history) >= _FRAMES_TO_DECIDE
                and abs(track.score_a - track.score_b) > DECISION_MARGIN_BINS):
            track.chosen = "a" if track.score_a < track.score_b else "b"

    next_id = max((tr.track_id for tr in tracks), default=-1) + 1
    for idx, pair in enumerate(pairs):
        if idx not in claimed:
            tracks.append(_start_track(next_id, t, pair, cands[idx]))
            next_id += 1
    return tracks


def pair_owners(t: float, pairs: list[PeakPair], tracks: list[Hypothesis]) -> list[int]:
    """Track id reported for each pair of frame t: of the tracks whose latest
    entry is that pair object, the last one in the list."""
    by_pair = {id(tr.history[-1][1]): tr for tr in tracks
               if tr.history[-1][0] == t}
    return [by_pair[id(pair)].track_id for pair in pairs]
