"""Multi-frame resolution of the dual-peak range/velocity ambiguity.

A single frame cannot tell which of a pair's two candidate solutions is
real, but the two candidates predict different peak motion. Each track keeps
both branches, predicts the next frame's pair bins from (R + v*dt, v) per
branch, and accrues the bin distance to the nearest observed pair as that
branch's score; after two or more frames the branch with the clearly smaller
score wins.

Track state is single-writer: one owner advances all tracks frame by frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import OfdmConfig, tone_pair_bins
from .diag_estimator import CandidatePair, PeakPair, Solution, candidates

# A branch whose prediction lands farther than this from every observed pair
# leaves the pair unclaimed (it may then seed a new track).
NEW_TRACK_GATE_BINS = 8.0
# Minimum score separation before committing to a branch.
DECISION_MARGIN_BINS = 2.0
_FRAMES_TO_DECIDE = 2


@dataclass
class Hypothesis:
    """One track with its two unresolved (range, velocity) branches."""

    track_id: int
    chosen: str = "undecided"  # "a" | "b" | "undecided"
    history: list[tuple[float, PeakPair, CandidatePair]] = field(default_factory=list)
    score_a: float = 0.0
    score_b: float = 0.0

    def solution(self, branch: str) -> Solution:
        cand = self.history[-1][2]
        return cand.sol_a if branch == "a" else cand.sol_b

    def best_branch(self) -> str:
        if self.chosen != "undecided":
            return self.chosen
        return "a" if self.score_a <= self.score_b else "b"

    def best_solution(self) -> Solution:
        return self.solution(self.best_branch())


def _predicted_pair(cfg: OfdmConfig, sol: Solution, dt: float) -> tuple[float, float]:
    return tone_pair_bins(cfg, sol.range_m + sol.velocity_mps * dt, sol.velocity_mps)


def _start_track(track_id: int, t: float, pair: PeakPair,
                 cand: CandidatePair) -> Hypothesis:
    track = Hypothesis(track_id=track_id, history=[(t, pair, cand)])
    # A non-positive range cannot be a physical target; kill that branch now.
    if cand.sol_a.range_m <= 0.0:
        track.score_a = math.inf
    if cand.sol_b.range_m <= 0.0:
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
