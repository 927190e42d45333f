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
from .diag_estimator import PeakPair, candidates

# A branch whose prediction lands farther than this from every observed pair
# leaves the pair unclaimed (it may then seed a new track).
NEW_TRACK_GATE_BINS = 8.0
# Minimum score separation before committing to a branch.
DECISION_MARGIN_BINS = 2.0
_FRAMES_TO_DECIDE = 2

# Columns of TrackTable's state matrix. The readings come first: candidates'
# tuple for the track's latest claimed pair, one (range, velocity) group per
# branch (a, b). Then one score per branch (inf: a dead branch), the time of
# the track's last claim, the frames it holds and the chosen branch (-1
# undecided, else the branch index).
_BRANCHES = 2
_READINGS = slice(0, 2 * _BRANCHES)
_RANGE, _VELOCITY = (slice(k, 2 * _BRANCHES, 2) for k in range(2))
_SCORE = slice(2 * _BRANCHES, 3 * _BRANCHES)
_LAST_T, _FRAMES, _CHOSEN, _N_COLUMNS = range(3 * _BRANCHES, 3 * _BRANCHES + 4)
# Branch names by index; index -1 reads "undecided".
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
    """One track of a TrackTable: its id and reads of its row."""

    __slots__ = ("_state", "track_id")

    def __init__(self, state: _State, track_id: int) -> None:
        self._state = state
        self.track_id = track_id

    @property
    def n_frames(self) -> int:
        """Frames the track holds: the one that opened it and each claim since."""
        return int(self._state.matrix.item(self.track_id, _FRAMES))

    @property
    def chosen(self) -> str:
        """"a", "b" or "undecided"."""
        return _BRANCH_NAMES[int(self._state.matrix.item(self.track_id, _CHOSEN))]

    @property
    def scores(self) -> tuple[float, float]:
        """Accrued (a, b) branch scores; inf marks a dead branch."""
        return tuple(self._state.matrix[self.track_id, _SCORE].tolist())

    @property
    def readings(self) -> tuple[float, float, float, float]:
        """Both branches' readings of the track's latest pair, dead or alive,
        as candidates gives them: (r_a, v_a, r_b, v_b)."""
        return tuple(self._state.matrix[self.track_id, _READINGS].tolist())

    def best_solution(self) -> tuple[float, float]:
        """The chosen branch's (range, velocity); undecided, the lower
        score's (a on a tie)."""
        row = self._state.matrix[self.track_id].tolist()
        scores = row[_SCORE]
        best = int(row[_CHOSEN]) if row[_CHOSEN] >= 0 else scores.index(min(scores))
        return row[_RANGE][best], row[_VELOCITY][best]


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

    def _open(self, readings: np.ndarray, t: float) -> list[Hypothesis]:
        """Append one track per row of readings (its _READINGS), opened at t."""
        n, k = len(self._tracks), len(readings)
        state = self._state
        if n + k > len(state.matrix):
            grown = np.empty((max(2 * len(state.matrix), n + k), _N_COLUMNS))
            grown[:n] = state.matrix[:n]
            state.matrix = grown
        rows = state.matrix[n:n + k]
        rows[:, _READINGS] = readings
        # A non-positive range cannot be a physical target; kill that branch now.
        rows[:, _SCORE] = np.where(readings[:, _RANGE] <= 0.0, math.inf, 0.0)
        rows[:, _LAST_T:] = t, 1.0, -1.0  # _LAST_T, _FRAMES, _CHOSEN
        opened = [Hypothesis(state, n + j) for j in range(k)]
        self._tracks += opened
        return opened


def resolve_ambiguity(cfg: OfdmConfig, tracks: TrackTable,
                      frame: tuple[float, list[PeakPair]]) -> TrackTable:
    """Advance all tracks with one frame of observed peak pairs.

    Every branch of every track scores the nearest observed pair; a track
    claims its best live branch's pair when that pair is within the
    association gate, and its row then holds that pair's candidates. Pairs
    claimed by no track open new tracks. Returns the table, updated in
    place, with ``owner`` set for this frame.
    """
    t, pairs = frame
    if t <= tracks._last_t:
        raise ValueError("frame times must be strictly increasing")
    tracks._last_t = t
    owner: list = [None] * len(pairs)
    tracks.owner = owner
    if not pairs:
        return tracks
    # Per pair: l1, l2, then the _READINGS of a track that claims it.
    obs = np.array([(pair.l1, pair.l2, *candidates(cfg, pair)) for pair in pairs])
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
        # The lower score's branch (argmin keeps a on a tie); the best branch
        # is the chosen one, else that one. It claims only while alive, so a
        # track whose branches are all dead claims nothing.
        lowest = scores.argmin(axis=1)
        best = np.arange(n), np.where(chosen < 0, lowest, chosen).astype(int)
        hits = np.flatnonzero((dist[best] <= NEW_TRACK_GATE_BINS) & (scores[best] < math.inf))
        claimed = nearest[best][hits]
        for row, idx in zip(hits.tolist(), claimed.tolist()):
            owner[idx] = tracks._tracks[row]
        rows[hits, _READINGS] = obs[claimed, 2:]
        rows[hits, _LAST_T] = t
        rows[hits, _FRAMES] += 1.0
        # Only tracks holding enough frames may decide. A track with all
        # branches dead never claims, so inf - inf is never taken.
        gap = np.zeros(n)
        np.subtract(scores[:, 0], scores[:, 1], out=gap,
                    where=rows[:, _FRAMES] >= _FRAMES_TO_DECIDE)
        np.copyto(chosen, lowest, where=np.abs(gap, out=gap) > DECISION_MARGIN_BINS)

    new = [idx for idx, track in enumerate(owner) if track is None]
    if new:
        for idx, track in zip(new, tracks._open(obs[new, 2:], t)):
            owner[idx] = track
    return tracks
