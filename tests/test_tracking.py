import math

import pytest

from jcas.config import tone_pair_bins
from jcas.diag_estimator import PeakPair
from jcas.tracking import Hypothesis, resolve_ambiguity


def _pair_for(cfg, r, v, mag=0.0):
    lo, hi = tone_pair_bins(cfg, r, v)
    return PeakPair(round(lo), round(hi), mag)


def test_single_frame_stays_undecided(table1):
    tracks = resolve_ambiguity(table1, [], (0.0, [_pair_for(table1, 39.0, 5.0)]))
    assert len(tracks) == 1
    assert tracks[0].chosen == "undecided"
    assert len(tracks[0].history) == 1


def test_two_frames_resolve_receding_car(table1):
    # truth (40 m, 5 m/s); the phantom reading is near (10 m, 20 m/s)
    tracks: list[Hypothesis] = []
    for t in (0.0, 0.2):
        pair = _pair_for(table1, 40.0 + 5.0 * t, 5.0)
        tracks = resolve_ambiguity(table1, tracks, (t, [pair]))
    assert len(tracks) == 1
    track = tracks[0]
    assert track.chosen == "a"
    sol = track.best_solution()
    assert sol.range_m == pytest.approx(41.0, abs=0.4)
    assert sol.velocity_mps == pytest.approx(5.0, abs=0.3)


def test_two_frames_resolve_fast_near_car(table1):
    # truth (6 m, 20 m/s): the doppler bin exceeds the range bin, so the
    # true reading is the swapped branch
    tracks: list[Hypothesis] = []
    for t in (0.0, 0.2):
        pair = _pair_for(table1, 6.0 + 20.0 * t, 20.0)
        tracks = resolve_ambiguity(table1, tracks, (t, [pair]))
    assert tracks[0].chosen == "b"
    sol = tracks[0].best_solution()
    assert sol.range_m == pytest.approx(10.0, abs=0.4)
    assert sol.velocity_mps == pytest.approx(20.0, abs=0.3)


def test_two_tracks_resolve_in_parallel(table1):
    tracks: list[Hypothesis] = []
    for fidx, t in enumerate((0.0, 0.2)):
        pairs = [_pair_for(table1, 6.0 + 20.0 * t, 20.0, mag=0.0),
                 _pair_for(table1, 39.0 + 5.0 * t, 5.0, mag=-32.5)]
        tracks = resolve_ambiguity(table1, tracks, (t, pairs))
    assert len(tracks) == 2
    by_choice = {tr.chosen: tr for tr in tracks}
    assert set(by_choice) == {"a", "b"}
    assert by_choice["a"].best_solution().range_m == pytest.approx(40.0, abs=0.5)
    assert by_choice["b"].best_solution().velocity_mps == pytest.approx(20.0, abs=0.3)


def test_stationary_target_discards_zero_range_branch(table1):
    pair = _pair_for(table1, 30.0, 0.0)
    assert pair.l1 == pair.l2
    tracks = resolve_ambiguity(table1, [], (0.0, [pair]))
    assert math.isinf(tracks[0].score_b)
    assert tracks[0].chosen == "undecided"
    tracks = resolve_ambiguity(table1, tracks, (0.2, [pair]))
    assert tracks[0].chosen == "a"
    assert tracks[0].best_solution().velocity_mps == 0.0


def test_unassociated_pair_opens_new_track(table1):
    tracks = resolve_ambiguity(table1, [], (0.0, [_pair_for(table1, 40.0, 5.0)]))
    far = _pair_for(table1, 150.0, 2.0)
    tracks = resolve_ambiguity(table1, tracks, (0.2, [far]))
    assert len(tracks) == 2
    assert {tr.track_id for tr in tracks} == {0, 1}


def test_non_increasing_time_rejected(table1):
    tracks = resolve_ambiguity(table1, [], (0.5, [_pair_for(table1, 40.0, 5.0)]))
    with pytest.raises(ValueError, match="strictly increasing"):
        resolve_ambiguity(table1, tracks, (0.5, [_pair_for(table1, 40.0, 5.0)]))


def test_empty_frame_keeps_tracks(table1):
    tracks = resolve_ambiguity(table1, [], (0.0, [_pair_for(table1, 40.0, 5.0)]))
    tracks = resolve_ambiguity(table1, tracks, (0.2, []))
    assert len(tracks) == 1
    assert len(tracks[0].history) == 1


def test_branch_scores_nearest_pair_and_ties_go_to_first(table1):
    # Two identical pairs: the first claims the track, the second opens one.
    tracks = resolve_ambiguity(table1, [], (0.0, [_pair_for(table1, 40.0, 5.0)]))
    twin = [_pair_for(table1, 41.0, 5.0), _pair_for(table1, 41.0, 5.0)]
    sol_a = tracks[0].solution("a")
    pred_a = tone_pair_bins(table1, sol_a.range_m + sol_a.velocity_mps * 0.2,
                            sol_a.velocity_mps)
    expected = abs(pred_a[0] - twin[0].l1) + abs(pred_a[1] - twin[0].l2)
    tracks = resolve_ambiguity(table1, tracks, (0.2, twin))
    assert tracks[0].score_a == expected
    assert tracks[0].history[-1][1] is twin[0]
    assert tracks[1].history[0][1] is twin[1]
