"""Multi-frame resolution of the dual-peak range/velocity ambiguity.

A single frame cannot tell which of a pair's two candidate solutions is
real, but the two candidates predict different peak motion. Each track keeps
both branches, predicts the next frame's pair bins from (R + v*dt, v) per
branch, and accrues the bin distance to the nearest observed pair as that
branch's score; after two or more frames the branch with the clearly smaller
score wins.

All tracks live as rows of one :class:`TrackTable`, so a frame scores every
track's branches in one array pass; a frame of few tracks and pairs takes
the same step row by row on Python floats, to the same bytes. Track state is
single-writer: one owner advances the table frame by frame.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import OfdmConfig, tone_pair_bins
from .diag_estimator import PeakPair, candidates

# A branch whose prediction lands farther than this from every observed pair
# leaves the pair unclaimed (it may then seed a new track).
NEW_TRACK_GATE_BINS = 8.0
# Minimum score separation before committing to a branch.
DECISION_MARGIN_BINS = 2.0
_FRAMES_TO_DECIDE = 2
# Largest tracks x pairs of a frame that _scalar_step takes; a larger frame
# takes _array_step. The scalar step costs about 5 us per track and 1-2 us per
# pair, the array step about 45-55 us on a few cells (table-1 comb, one frame,
# 2-core Xeon, numpy 2.4): 9 against 43 us on 1 x 1, a tie on 8 tracks x 1 pair,
# and 68 against 50 us on 4 x 4, so 8 is the largest product no shape loses at.
_SCALAR_STEP_CELLS = 8

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


class Track(NamedTuple):
    """One track's row as it stood when read, and the reading it reports."""

    track_id: int
    n_frames: int  # the frame that opened the track and each claim since
    # Both branches' readings of the track's latest pair, dead or alive, as
    # candidates gives them.
    r_a: float
    v_a: float
    r_b: float
    v_b: float
    score_a: float  # accrued branch scores; inf marks a dead branch
    score_b: float
    chosen: str  # "a", "b" or "undecided"
    # The chosen branch's reading; undecided, the lower score's (a on a tie).
    r_m: float
    v_mps: float


class TrackTable:
    """Every track's state as the rows of one matrix, exactly one per track, in id order.

    Iterating, or indexing by track id, gives :class:`Track` copies of the
    rows as they stand. ``owner`` holds, for every pair of the latest frame,
    the id of the track that holds it: the last track (highest id) that
    claimed it, otherwise the track it opened.
    """

    def __init__(self) -> None:
        self._matrix = np.empty((0, _N_COLUMNS))
        self._last_t = -math.inf
        self.owner: list[int] = []

    def __len__(self) -> int:
        return len(self._matrix)

    def __iter__(self):
        return iter(self.rows(range(len(self))))

    def __getitem__(self, track_id: int) -> Track:
        # range counts a negative id from the end and refuses one past it
        return self.rows([range(len(self))[track_id]])[0]

    def rows(self, ids) -> list[Track]:
        """Copies of the rows of the given track ids, each in [0, len), as they stand."""
        tracks = []
        for track_id, row in zip(ids, self._matrix[ids].tolist()):
            scores, chosen = row[_SCORE], int(row[_CHOSEN])
            best = chosen if chosen >= 0 else scores.index(min(scores))
            tracks.append(Track(track_id, int(row[_FRAMES]), *row[_READINGS], *scores,
                                _BRANCH_NAMES[chosen], row[_RANGE][best], row[_VELOCITY][best]))
        return tracks

    def _open(self, readings: list[tuple], t: float) -> range:
        """Append one track per readings tuple (its _READINGS), opened at t;
        returns their ids."""
        n, k = len(self._matrix), len(readings)
        rows = np.empty((k, _N_COLUMNS))
        rows[:, _READINGS] = readings
        # A non-positive range cannot be a physical target; kill that branch now.
        rows[:, _SCORE] = np.where(rows[:, _RANGE] <= 0.0, math.inf, 0.0)
        rows[:, _LAST_T:] = t, 1.0, -1.0  # _LAST_T, _FRAMES, _CHOSEN
        self._matrix = np.concatenate((self._matrix, rows))
        return range(n, n + k)


def resolve_ambiguity(cfg: OfdmConfig, tracks: TrackTable,
                      frame: tuple[float, list[PeakPair]]) -> TrackTable:
    """Advance all tracks with one frame of observed peak pairs.

    Every branch of every track scores the nearest observed pair; a track
    claims its best live branch's pair when that pair is within the
    association gate, and its row then holds that pair's candidates. Pairs
    claimed by no track open new tracks. Returns the table, updated in
    place, with ``owner`` set for this frame. A frame time that is not finite
    and above the last one's is refused.

    A frame of at most _SCALAR_STEP_CELLS tracks x pairs takes the step on
    Python floats, a larger one on arrays; both write the same bytes.
    """
    t, pairs = frame
    if not tracks._last_t < t < math.inf:
        raise ValueError("frame times must be finite and strictly increasing")
    tracks._last_t = t
    owner: list = [None] * len(pairs)
    tracks.owner = owner
    if not pairs:
        return tracks
    # Per pair: l1, l2, then the _READINGS of a track that claims it.
    obs = [(pair.l1, pair.l2, *candidates(cfg, pair)) for pair in pairs]
    if len(tracks) * len(pairs) <= _SCALAR_STEP_CELLS:
        _scalar_step(cfg, tracks, t, obs)
    else:
        _array_step(cfg, tracks, t, np.array(obs))
    new = [idx for idx, track_id in enumerate(owner) if track_id is None]
    if new:
        for idx, track_id in zip(new, tracks._open([obs[idx][2:] for idx in new], t)):
            owner[idx] = track_id
    return tracks


def _array_step(cfg: OfdmConfig, tracks: TrackTable, t: float, obs: np.ndarray) -> None:
    """Score, claim and decide for every track at once; obs holds a row per pair."""
    n, owner, rows = len(tracks), tracks.owner, tracks._matrix
    scores, chosen = rows[:, _SCORE], rows[:, _CHOSEN]
    velocity = rows[:, _VELOCITY]
    lo, hi = tone_pair_bins(
        cfg, rows[:, _RANGE] + velocity * (t - rows[:, _LAST_T, None]), velocity)
    # L1 bin distance of every (track, branch) to every pair; argmin
    # keeps the first nearest. A dead branch stays dead: inf + d is inf.
    # The table grows every frame, so each (track, branch, pair) array is
    # a fresh mapping to fault in; two of them take every step in place.
    dists = np.subtract(lo[..., None], obs[:, 0])
    hi_dists = np.subtract(hi[..., None], obs[:, 1])
    dists = np.add(np.abs(dists, out=dists), np.abs(hi_dists, out=hi_dists), out=dists)
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
        owner[idx] = row
    rows[hits, _READINGS] = obs[claimed, 2:]
    rows[hits, _LAST_T] = t
    rows[hits, _FRAMES] += 1.0
    # Only tracks holding enough frames may decide. A track with all
    # branches dead never claims, so inf - inf is never taken.
    gap = np.zeros(n)
    np.subtract(scores[:, 0], scores[:, 1], out=gap,
                where=rows[:, _FRAMES] >= _FRAMES_TO_DECIDE)
    np.copyto(chosen, lowest, where=np.abs(gap, out=gap) > DECISION_MARGIN_BINS)


def _scalar_step(cfg: OfdmConfig, tracks: TrackTable, t: float, obs: list[tuple]) -> None:
    """_array_step track by track on Python floats: the same IEEE operations in
    the same order, so the same rows and owner, bit for bit. A small table
    pays numpy's fixed cost per call more than it saves on its few cells."""
    matrix, owner = tracks._matrix, tracks.owner
    for i, row in enumerate(matrix.tolist()):
        scores, nearest = row[_SCORE], []
        for branch, (r, v) in enumerate(zip(row[_RANGE], row[_VELOCITY])):
            lo, hi = tone_pair_bins(cfg, r + v * (t - row[_LAST_T]), v)
            dists = [abs(lo - l1) + abs(hi - l2) for l1, l2, *_ in obs]
            dist = min(dists)  # finite, so the first minimum, as argmin
            nearest.append((dist, dists.index(dist)))
            scores[branch] += dist
        lowest = int(scores[1] < scores[0])  # a on a tie
        chosen = int(row[_CHOSEN])
        best = chosen if chosen >= 0 else lowest
        dist, idx = nearest[best]
        if dist <= NEW_TRACK_GATE_BINS and scores[best] < math.inf:
            owner[idx] = i  # rows go in id order: the last claimer keeps the pair
            row[_READINGS] = obs[idx][2:]
            row[_LAST_T] = t
            row[_FRAMES] += 1.0
        # inf - inf is nan, and nan > margin is false: a dead track never decides.
        if (row[_FRAMES] >= _FRAMES_TO_DECIDE
                and abs(scores[0] - scores[1]) > DECISION_MARGIN_BINS):
            row[_CHOSEN] = lowest
        row[_SCORE] = scores
        matrix[i] = row
