import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from jcas import tracking
from jcas.config import OfdmConfig, tone_pair_bins
from jcas.diag_estimator import PeakPair, candidates
from jcas.tracking import (_FRAMES_TO_DECIDE, _SCALAR_STEP_CELLS, DECISION_MARGIN_BINS,
                           NEW_TRACK_GATE_BINS, TrackTable, resolve_ambiguity)

# Every bin map of this configuration is the identity (one bin per metre and
# per m/s) and every factor is a power of two, so predictions on integer bins
# at quarter-second steps are exact: distances land exactly on the gate and
# score differences exactly on the decision margin.
DYADIC = OfdmConfig(carrier_freq=0.25, subcarrier_spacing=0.5, n_subcarriers=8,
                    n_symbols=8, n_sensing_freq=8, n_sensing_time=8,
                    speed_of_light=8.0)


def _pair_for(cfg, r, v, mag=0.0):
    lo, hi = tone_pair_bins(cfg, r, v)
    return PeakPair(round(lo), round(hi), mag)


def _readings(track):
    """A track's (r_a, v_a, r_b, v_b), in the order candidates returns them."""
    return track.r_a, track.v_a, track.r_b, track.v_b


def test_single_frame_stays_undecided(table1):
    tracks = resolve_ambiguity(table1, TrackTable(), (0.0, [_pair_for(table1, 39.0, 5.0)]))
    assert len(tracks) == 1
    assert tracks[0].chosen == "undecided"
    assert tracks[0].n_frames == 1


def test_two_frames_resolve_receding_car(table1):
    # truth (40 m, 5 m/s); the phantom reading is near (10 m, 20 m/s)
    tracks = TrackTable()
    for t in (0.0, 0.2):
        pair = _pair_for(table1, 40.0 + 5.0 * t, 5.0)
        tracks = resolve_ambiguity(table1, tracks, (t, [pair]))
    assert len(tracks) == 1
    track = tracks[0]
    assert track.chosen == "a"
    assert track.r_m == pytest.approx(41.0, abs=0.4)
    assert track.v_mps == pytest.approx(5.0, abs=0.3)


def test_two_frames_resolve_fast_near_car(table1):
    # truth (6 m, 20 m/s): the doppler bin exceeds the range bin, so the
    # true reading is the swapped branch
    tracks = TrackTable()
    for t in (0.0, 0.2):
        pair = _pair_for(table1, 6.0 + 20.0 * t, 20.0)
        tracks = resolve_ambiguity(table1, tracks, (t, [pair]))
    assert tracks[0].chosen == "b"
    assert tracks[0].r_m == pytest.approx(10.0, abs=0.4)
    assert tracks[0].v_mps == pytest.approx(20.0, abs=0.3)


def test_two_tracks_resolve_in_parallel(table1):
    tracks = TrackTable()
    for fidx, t in enumerate((0.0, 0.2)):
        pairs = [_pair_for(table1, 6.0 + 20.0 * t, 20.0, mag=0.0),
                 _pair_for(table1, 39.0 + 5.0 * t, 5.0, mag=-32.5)]
        tracks = resolve_ambiguity(table1, tracks, (t, pairs))
    assert len(tracks) == 2
    by_choice = {tr.chosen: tr for tr in tracks}
    assert set(by_choice) == {"a", "b"}
    assert by_choice["a"].r_m == pytest.approx(40.0, abs=0.5)
    assert by_choice["b"].v_mps == pytest.approx(20.0, abs=0.3)


def test_stationary_target_discards_zero_range_branch(table1):
    pair = _pair_for(table1, 30.0, 0.0)
    assert pair.l1 == pair.l2
    tracks = resolve_ambiguity(table1, TrackTable(), (0.0, [pair]))
    assert math.isinf(tracks[0].score_b)
    assert tracks[0].chosen == "undecided"
    # dead by its score alone: the row keeps the branch's own reading
    assert (tracks[0].r_b, tracks[0].v_b) == candidates(table1, pair)[2:]
    assert tracks[0].r_b == 0.0
    tracks = resolve_ambiguity(table1, tracks, (0.2, [pair]))
    assert tracks[0].chosen == "a"
    assert tracks[0].v_mps == 0.0


def test_track_with_every_branch_dead_claims_nothing(table1):
    # Pair (0, 0) reads range 0 on both branches. Both are dead, so the same
    # pair a frame later lies at distance 0 yet opens a second track.
    pair = PeakPair(0, 0, 0.0)
    tracks = TrackTable()
    for t in (0.0, 0.2):
        tracks = resolve_ambiguity(table1, tracks, (t, [pair]))
    assert len(tracks) == 2
    assert tracks.owner == [1]
    assert tracks[0].n_frames == 1
    assert (tracks[0].score_a, tracks[0].score_b) == (math.inf, math.inf)
    assert tracks[0].chosen == "undecided"


def test_unassociated_pair_opens_new_track(table1):
    tracks = resolve_ambiguity(table1, TrackTable(), (0.0, [_pair_for(table1, 40.0, 5.0)]))
    far = _pair_for(table1, 150.0, 2.0)
    tracks = resolve_ambiguity(table1, tracks, (0.2, [far]))
    assert len(tracks) == 2
    assert {tr.track_id for tr in tracks} == {0, 1}


def test_non_increasing_time_rejected(table1):
    tracks = resolve_ambiguity(table1, TrackTable(), (0.5, [_pair_for(table1, 40.0, 5.0)]))
    with pytest.raises(ValueError, match="strictly increasing"):
        resolve_ambiguity(table1, tracks, (0.5, [_pair_for(table1, 40.0, 5.0)]))


def test_time_of_an_empty_frame_counts(table1):
    tracks = resolve_ambiguity(table1, TrackTable(), (0.4, [_pair_for(table1, 40.0, 5.0)]))
    tracks = resolve_ambiguity(table1, tracks, (0.5, []))
    with pytest.raises(ValueError, match="strictly increasing"):
        resolve_ambiguity(table1, tracks, (0.45, [_pair_for(table1, 40.0, 5.0)]))


def test_empty_frame_keeps_tracks(table1):
    tracks = resolve_ambiguity(table1, TrackTable(), (0.0, [_pair_for(table1, 40.0, 5.0)]))
    tracks = resolve_ambiguity(table1, tracks, (0.2, []))
    assert len(tracks) == 1
    assert tracks[0].n_frames == 1


def test_branch_scores_nearest_pair_and_ties_go_to_first(table1):
    # Two identical pairs: the first claims the track, the second opens one.
    tracks = resolve_ambiguity(table1, TrackTable(), (0.0, [_pair_for(table1, 40.0, 5.0)]))
    twin = [_pair_for(table1, 41.0, 5.0), _pair_for(table1, 41.0, 5.0)]
    r_a, v_a = tracks[0].r_a, tracks[0].v_a
    pred_a = tone_pair_bins(table1, r_a + v_a * 0.2, v_a)
    expected = abs(pred_a[0] - twin[0].l1) + abs(pred_a[1] - twin[0].l2)
    tracks = resolve_ambiguity(table1, tracks, (0.2, twin))
    assert tracks[0].score_a == expected
    assert tracks.owner == [0, 1]
    assert (tracks[0].n_frames, tracks[1].n_frames) == (2, 1)


def test_last_claiming_track_owns_a_shared_pair(table1):
    first = _pair_for(table1, 40.0, 5.0)
    twin = PeakPair(first.l1, first.l2, first.magnitude_db)
    tracks = resolve_ambiguity(table1, TrackTable(), (0.0, [first, twin]))
    assert tracks.owner == [0, 1]
    pair = _pair_for(table1, 41.0, 5.0)
    tracks = resolve_ambiguity(table1, tracks, (0.2, [pair]))
    assert len(tracks) == 2
    for track in tracks:
        assert track.n_frames == 2
        assert _readings(track) == candidates(table1, pair)
    assert tracks.owner == [1]


def test_unclaimed_pair_opens_a_track_that_owns_it(table1):
    near = _pair_for(table1, 41.0, 5.0)
    far = _pair_for(table1, 150.0, 2.0)
    tracks = resolve_ambiguity(table1, TrackTable(), (0.0, [_pair_for(table1, 40.0, 5.0)]))
    tracks = resolve_ambiguity(table1, tracks, (0.2, [far, near]))
    assert tracks.owner == [1, 0]
    assert tracks[1].n_frames == 1
    assert _readings(tracks[1]) == candidates(table1, far)
    tracks = resolve_ambiguity(table1, tracks, (0.4, []))
    assert tracks.owner == []


def test_iterating_the_table_yields_equal_rows_in_track_id_order(table1):
    tracks = TrackTable()
    for t in (0.0, 0.2):
        pairs = [_pair_for(table1, 40.0 + 5.0 * t, 5.0), _pair_for(table1, 150.0, 2.0)]
        tracks = resolve_ambiguity(table1, tracks, (t, pairs))
    first, second = list(tracks), list(tracks)
    assert len(first) == 2
    assert first == second == [tracks[0], tracks[1]] == tracks.rows([0, 1])
    assert [tr.track_id for tr in first] == [0, 1]


def test_rows_are_copies_of_the_row_when_read(table1):
    tracks = resolve_ambiguity(table1, TrackTable(), (0.0, [_pair_for(table1, 40.0, 5.0)]))
    before = tracks.rows(tracks.owner)
    tracks = resolve_ambiguity(table1, tracks, (0.2, [_pair_for(table1, 41.0, 5.0)]))
    assert [(tr.n_frames, tr.chosen) for tr in before] == [(1, "undecided")]
    assert [(tr.n_frames, tr.chosen) for tr in tracks.rows(tracks.owner)] == [(2, "a")]
    assert tracks[-1] == tracks[0]
    with pytest.raises(IndexError):
        tracks[1]


def _random_frames(cfg, rng, n_frames):
    """Pairs of a few moving targets, noise, duplicates and coincident pairs,
    at uneven time steps, with some frames empty."""
    targets = [(float(rng.integers(5, 60)), float(rng.integers(-6, 7)))
               for _ in range(3)]
    t = 0.0
    for _ in range(n_frames):
        t += float(rng.choice([0.25, 0.5, 0.75, 1.0, 2.0]))
        pairs = []
        if rng.random() >= 0.15:
            for r0, v in targets:
                if rng.random() < 0.8:
                    lo, hi = sorted(map(round, tone_pair_bins(cfg, r0 + v * t, v)))
                    pairs.append(PeakPair(lo, hi, 0.0))
            for _ in range(int(rng.integers(0, 3))):
                l1 = int(rng.integers(0, 40))
                pairs.append(PeakPair(l1, l1 + int(rng.integers(0, 20)), -10.0))
            if rng.random() < 0.3:
                l = int(rng.integers(0, 40))
                pairs.append(PeakPair(l, l, -5.0))
            if pairs and rng.random() < 0.3:
                dup = pairs[int(rng.integers(len(pairs)))]
                pairs.append(PeakPair(dup.l1, dup.l2, dup.magnitude_db))
            rng.shuffle(pairs)
        yield t, pairs


def _nearest_at_gate(cfg, tracks, t, pairs):
    """Reference branches whose nearest pair lies exactly at the gate."""
    count = 0
    for tr in tracks:
        for branch, score in (("a", tr.score_a), ("b", tr.score_b)):
            if pairs and not math.isinf(score):
                lo, hi = oracles._predicted_pair(cfg, tr.solution(branch),
                                                 t - tr.history[-1][0])
                count += min(abs(lo - p.l1) + abs(hi - p.l2)
                             for p in pairs) == NEW_TRACK_GATE_BINS
    return count


@pytest.mark.parametrize("cfg", [DYADIC, OfdmConfig.table1()], ids=["dyadic", "table1"])
def test_table_matches_the_per_track_loop(cfg):
    at_gate = at_margin = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        table, reference = TrackTable(), []
        for t, pairs in _random_frames(cfg, rng, 25):
            at_gate += _nearest_at_gate(cfg, reference, t, pairs)
            table = resolve_ambiguity(cfg, table, (t, pairs))
            reference = oracles.resolve_ambiguity(cfg, reference, (t, pairs))
            assert len(table) == len(reference)
            for got, want in zip(table, reference):
                assert got.track_id == want.track_id
                assert (got.score_a, got.score_b) == (want.score_a, want.score_b)
                assert got.chosen == want.chosen
                assert got.n_frames == len(want.history)
                assert _readings(got) == (*want.solution("a"), *want.solution("b"))
                assert (got.r_m, got.v_mps) == want.best_solution()
                at_margin += (len(want.history) >= 2 and
                              abs(want.score_a - want.score_b) == DECISION_MARGIN_BINS)
            assert table.owner == oracles.pair_owners(t, pairs, reference)
    if cfg is DYADIC:
        assert at_gate and at_margin


def _step_with(cells, cfg, tracks, frame):
    """resolve_ambiguity with _SCALAR_STEP_CELLS set to cells for the call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracking, "_SCALAR_STEP_CELLS", cells)
        return resolve_ambiguity(cfg, tracks, frame)


def _steps_in_lockstep(cfg, frames):
    """Run frames through the scalar step, the array step and the default
    choice between them; all three must leave the same bytes after every
    frame. Returns what the frames covered."""
    seen = set()
    tables = {"scalar": TrackTable(), "array": TrackTable(), "default": TrackTable()}
    cells = {"scalar": math.inf, "array": -1, "default": _SCALAR_STEP_CELLS}
    for t, pairs in frames:
        if pairs and len(tables["default"]):
            seen.add("scalar" if len(tables["default"]) * len(pairs) <= _SCALAR_STEP_CELLS
                     else "array")
        for name, table in tables.items():
            tables[name] = _step_with(cells[name], cfg, table, (t, pairs))
        scalar, array, default = tables.values()
        n = len(scalar)
        assert len(array) == len(default) == n
        assert (scalar._matrix[:n].tobytes() == array._matrix[:n].tobytes()
                == default._matrix[:n].tobytes())
        assert scalar.owner == array.owner == default.owner
        assert scalar.rows(range(n)) == array.rows(range(n)) == default.rows(range(n))
        for tr in scalar:
            if math.inf in (tr.score_a, tr.score_b):
                seen.add("dead")
            if tr.n_frames >= _FRAMES_TO_DECIDE:
                seen.add("held" if tr.chosen == "undecided" else "decided")
                if tr.score_a == tr.score_b < math.inf:
                    seen.add("tie")
    return seen


_BINS = st.tuples(st.integers(0, 24), st.integers(0, 24)).map(sorted)
_FRAME_PAIRS = st.lists(_BINS.map(lambda b: PeakPair(b[0], b[1], 0.0)), max_size=6)


@settings(max_examples=150, deadline=None)
@given(cfg=st.sampled_from([DYADIC, OfdmConfig.table1()]),
       steps=st.lists(st.tuples(st.sampled_from([0.25, 0.5, 1.0]), _FRAME_PAIRS),
                      min_size=1, max_size=12))
def test_scalar_and_array_steps_write_the_same_table(cfg, steps):
    times = itertools.accumulate(dt for dt, _ in steps)
    _steps_in_lockstep(cfg, zip(times, (pairs for _, pairs in steps)))


@pytest.mark.parametrize("cfg", [DYADIC, OfdmConfig.table1()], ids=["dyadic", "table1"])
def test_both_steps_meet_dead_branches_ties_decisions_and_both_table_sizes(cfg):
    # _random_frames holds coincident pairs (a dead branch b), duplicates
    # (nearest-pair ties), branches of equal score and tracks that live long
    # enough to decide; its tables start below _SCALAR_STEP_CELLS and grow
    # past it.
    seen = set()
    for seed in range(12):
        seen |= _steps_in_lockstep(cfg, _random_frames(cfg, np.random.default_rng(seed), 25))
    assert seen == {"scalar", "array", "dead", "tie", "decided", "held"}


def test_finished_table_is_freed_without_garbage_collection(table1):
    # The table holds its matrix and plain track ids, and the rows it hands
    # out are copies that refer to nothing, so no reference cycle keeps a
    # run's table alive: it goes as soon as the last reference to it does.
    gc.disable()
    try:
        tracks = TrackTable()
        for t in (0.0, 0.2):
            tracks = resolve_ambiguity(table1, tracks, (t, [_pair_for(table1, 40.0, 5.0)]))
        assert len(tracks) == 1
        freed = weakref.ref(tracks)
        del tracks
        assert freed() is None
    finally:
        gc.enable()
