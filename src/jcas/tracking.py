"""Multi-frame resolution of the dual-peak range/velocity ambiguity.

A single frame cannot tell which of a pair's two candidate solutions is
real, but the two candidates predict different peak motion. Each track keeps
both branches, predicts the next frame's pair bins from (R + v*dt, v) per
branch, and accrues the bin distance to the nearest observed pair as that
branch's score; after two or more frames the branch with the clearly smaller
score wins.

All tracks live as rows of one :class:`TrackTable`, so a frame scores every
track's branches in one array pass. Track state is single-writer: one owner
advances the table frame by frame.
"""

from __future__ import annotations

import math

import numpy as np

from .config import OfdmConfig, tone_pair_bins
from .diag_estimator import CandidatePair, PeakPair, Solution, candidates

# A branch whose prediction lands farther than this from every observed pair
# leaves the pair unclaimed (it may then seed a new track).
NEW_TRACK_GATE_BINS = 8.0
# Minimum score separation before committing to a branch.
DECISION_MARGIN_BINS = 2.0
_FRAMES_TO_DECIDE = 2

# Columns of TrackTable's state matrix. The branch axis (a, b) holds each
# branch's range and velocity, read from the candidates of the track's latest
# pair, and its score (inf: a dead branch). A dead branch is opened at
# infinite range, so it lies at infinite distance from every pair and a track
# with both branches dead claims nothing. Then come the time of the track's
# last claim, the frames it holds and the chosen branch (-1 undecided, 0 a,
# 1 b).
_RANGE, _VELOCITY, _LAST_T, _FRAMES, _SCORE, _CHOSEN = (
    slice(0, 2), slice(2, 4), 4, 5, slice(6, 8), 8)
_N_COLUMNS = 9
# Branch names by chosen index; index -1 reads "undecided".
_BRANCH_NAMES = ("a", "b", "undecided")


class _State:
    """A TrackTable's state matrix, shared with its tracks.

    Tracks reach their row through this holder, not through the table, so
    no reference cycle keeps a finished table alive until a garbage
    collection. Growing the table replaces ``matrix``.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix


class Hypothesis:
    """One track of a TrackTable: its id, its history, and reads of its row."""

    __slots__ = ("_state", "track_id", "history")

    def __init__(self, state: _State, track_id: int,
                 history: list[tuple[float, PeakPair, CandidatePair]]) -> None:
        self._state = state
        self.track_id = track_id
        self.history = history

    @property
    def chosen(self) -> str:
        """"a", "b" or "undecided"."""
        return _BRANCH_NAMES[int(self._state.matrix[self.track_id, _CHOSEN])]

    @property
    def scores(self) -> tuple[float, float]:
        """Accrued (a, b) branch scores; inf marks a dead branch."""
        return tuple(self._state.matrix[self.track_id, _SCORE].tolist())

    def solution(self, branch: str) -> Solution:
        cand = self.history[-1][2]
        return cand.sol_a if branch == "a" else cand.sol_b

    def best_solution(self) -> Solution:
        """The chosen branch's solution; undecided, the lower score's (a on a tie)."""
        row = self._state.matrix[self.track_id].tolist()
        score_a, score_b = row[_SCORE]
        on_b = row[_CHOSEN] > 0 if row[_CHOSEN] >= 0 else score_a > score_b
        cand = self.history[-1][2]
        return cand.sol_b if on_b else cand.sol_a


class TrackTable:
    """Every track's state as rows of one matrix, in track-id order.

    Iterating yields each track's one :class:`Hypothesis`. ``owner`` holds,
    for every pair of the latest frame, the track that holds it: the last
    track (highest id) that claimed it, otherwise the track it opened.
    """

    def __init__(self) -> None:
        self._state = _State(np.empty((16, _N_COLUMNS)))
        self._tracks: list[Hypothesis] = []
        self._last_t = -math.inf
        self.owner: list[Hypothesis] = []

    def __len__(self) -> int:
        return len(self._tracks)

    def __iter__(self):
        return iter(self._tracks)

    def __getitem__(self, track_id: int) -> Hypothesis:
        return self._tracks[track_id]

    def _open(self, entries: list[tuple[float, PeakPair, CandidatePair]],
              claims: np.ndarray) -> list[Hypothesis]:
        """Append one track per history entry; claims holds its _RANGE,
        _VELOCITY and _LAST_T columns."""
        n, k = len(self._tracks), len(entries)
        state = self._state
        if n + k > len(state.matrix):
            grown = np.empty((max(2 * len(state.matrix), n + k), _N_COLUMNS))
            grown[:n] = state.matrix[:n]
            state.matrix = grown
        rows = state.matrix[n:n + k]
        rows[:, :_FRAMES] = claims
        # A non-positive range cannot be a physical target; kill that branch now.
        dead = claims[:, _RANGE] <= 0.0
        rows[:, _RANGE][dead] = math.inf
        rows[:, _SCORE] = np.where(dead, math.inf, 0.0)
        rows[:, _FRAMES] = 1.0
        rows[:, _CHOSEN] = -1.0
        opened = [Hypothesis(state, n + j, [entry]) for j, entry in enumerate(entries)]
        self._tracks += opened
        return opened


def resolve_ambiguity(cfg: OfdmConfig, tracks: TrackTable,
                      frame: tuple[float, list[PeakPair]]) -> TrackTable:
    """Advance all tracks with one frame of observed peak pairs.

    Every finite branch of every track scores the nearest observed pair;
    the track's history follows its best branch when that branch's pair is
    within the association gate. Pairs claimed by no track open new tracks.
    Returns the table, updated in place, with ``owner`` set for this frame.
    """
    t, pairs = frame
    if t <= tracks._last_t:
        raise ValueError("frame times must be strictly increasing")
    owner: list = [None] * len(pairs)
    tracks.owner = owner
    if not pairs:
        return tracks
    tracks._last_t = t
    entries = [(t, pair, candidates(cfg, pair)) for pair in pairs]
    # Per pair: l1, l2, then the _RANGE, _VELOCITY and _LAST_T columns of a
    # track that claims it.
    obs = np.array([(pair.l1, pair.l2, cand.sol_a.range_m, cand.sol_b.range_m,
                     cand.sol_a.velocity_mps, cand.sol_b.velocity_mps, t)
                    for _, pair, cand in entries])
    n = len(tracks)
    if n:
        rows = tracks._state.matrix[:n]
        scores, chosen = rows[:, _SCORE], rows[:, _CHOSEN]
        velocity = rows[:, _VELOCITY]
        lo, hi = tone_pair_bins(
            cfg, rows[:, _RANGE] + velocity * (t - rows[:, _LAST_T, None]), velocity)
        # L1 bin distance of every (track, branch) to every pair; argmin
        # keeps the first nearest. A dead branch stays dead: inf + d is inf.
        dists = np.abs(lo[..., None] - obs[:, 0]) + np.abs(hi[..., None] - obs[:, 1])
        nearest, dist = dists.argmin(axis=2), dists.min(axis=2)
        scores += dist
        # The best branch: the chosen one, else the lower score's (a on a tie).
        on_b = np.where(chosen < 0, scores[:, 0] > scores[:, 1], chosen)
        hits = np.flatnonzero(np.where(on_b, dist[:, 1], dist[:, 0])
                              <= NEW_TRACK_GATE_BINS)
        claimed = np.where(on_b, nearest[:, 1], nearest[:, 0])[hits]
        for row, idx in zip(hits.tolist(), claimed.tolist()):
            track = tracks._tracks[row]
            track.history.append(entries[idx])
            owner[idx] = track
        rows[hits, :_FRAMES] = obs[claimed, 2:]
        rows[hits, _FRAMES] += 1.0
        # Only tracks holding enough frames may decide. A track with both
        # branches dead never claims, so inf - inf is never taken.
        gap = np.zeros(n)
        np.subtract(scores[:, 0], scores[:, 1], out=gap,
                    where=rows[:, _FRAMES] >= _FRAMES_TO_DECIDE)
        np.copyto(chosen, scores[:, 0] >= scores[:, 1],
                  where=np.abs(gap, out=gap) > DECISION_MARGIN_BINS)

    new = [idx for idx, track in enumerate(owner) if track is None]
    if new:
        opened = tracks._open([entries[idx] for idx in new], obs[new, 2:])
        for idx, track in zip(new, opened):
            owner[idx] = track
    return tracks
