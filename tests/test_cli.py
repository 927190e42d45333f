import dataclasses
import hashlib
import re
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import jcas.cli
import jcas.diag_estimator
from jcas.channel import LinkBudget, NoiseSpec, synthesize_diag, target_amplitudes
from jcas.cli import build_parser, main, run_scene, write_image_csvs, write_rdmap_csv
from jcas.config import OfdmConfig
from jcas.diag_estimator import (WINDOW_MODES, PeakPair, RadarImage, WindowKind, candidates,
                                 process_frame)
from jcas.scenario import Scene, VehicleSpec, builtin_scene, targets_at
from oracles import frame_image, template_image_csv, template_rdmap_csv

DET_HEADER = ("time_s,l1,l2,l_mean,l_delta,r_eq15_m,v_eq15_mps,"
              "r_eq16_m,v_eq16_mps,pair_mag_db,track_id,resolved,r_m,v_mps")


def _read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# -300 dB is the clamp floor of to_normalized_db (peak * 1e-15).
FORMAT_EDGE_VALUES = (0.0, -0.0, -300.0, 1e-5, 99999.95, 123456.5, 1e16)


def test_write_rdmap_csv_matches_per_cell_rendering(tmp_path):
    rng = np.random.default_rng(5)
    db = rng.uniform(-320.0, 0.0, size=(6, 9))
    db.flat[:len(FORMAT_EDGE_VALUES)] = FORMAT_EDGE_VALUES
    write_rdmap_csv(tmp_path / "rd.csv", RadarImage(db))
    rows = ["%d,%d,%.6g" % (p, q, db[p, q]) for p in range(6) for q in range(9)]
    expected = "\n".join(["p,q,magnitude_db", *rows]) + "\n"
    assert (tmp_path / "rd.csv").read_text() == expected


@pytest.mark.parametrize("shape", [(12, 11), (3, 14)])
def test_write_rdmap_csv_multi_digit_indices(tmp_path, shape):
    # Two-digit p and q, which the 6 x 9 map above never reaches.
    n_f, n_t = shape
    db = np.random.default_rng(n_f * n_t).uniform(-320.0, 0.0, size=shape)
    db.flat[:len(FORMAT_EDGE_VALUES)] = FORMAT_EDGE_VALUES
    db[-1, -len(FORMAT_EDGE_VALUES):] = FORMAT_EDGE_VALUES
    write_rdmap_csv(tmp_path / "rd.csv", RadarImage(db))
    rows = ["%d,%d,%.6g" % (p, q, db[p, q]) for p in range(n_f) for q in range(n_t)]
    expected = "\n".join(["p,q,magnitude_db", *rows]) + "\n"
    assert (tmp_path / "rd.csv").read_text() == expected


def _assert_rdmap_matches_oracle(tmp_path, db):
    rd = RadarImage(db)
    write_rdmap_csv(tmp_path / "rd.csv", rd)
    template_rdmap_csv(tmp_path / "oracle.csv", rd)
    assert (tmp_path / "rd.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def _crafted_cells() -> np.ndarray:
    """Cells where a six-digit text is easy to get wrong, and their negatives."""
    k = np.r_[100000, 100009, 123456, 499999, 500000, 999998, 999999,
              np.random.default_rng(18).integers(100000, 1000000, 24)]
    ties = np.concatenate([(k + 0.5) * 10.0 ** -j for j in range(-2, 11)])
    edges = np.array([9.999995, 99.99995, 999.9995, 999999.5, 0.9999995,
                      1.0, 10.0, 100.0, 1000.0, 300.0, 12.5, 100.0625])
    small_big = np.array([0.5, 0.123456789, 1e-4, 9.99999e-5, 3e-7, 5e-324,
                          1000.5, 1234.5, 99999.95, 123456.5, 1e16, 1.7e308])
    cells = np.concatenate([ties, edges, small_big])
    cells = np.concatenate([cells, np.nextafter(cells, 0), np.nextafter(cells, np.inf)])
    return np.concatenate([cells, -cells, [0.0, -0.0, -300.0, np.nan, np.inf, -np.inf]])


@pytest.mark.parametrize("shape", [(1, 1), (2, 1003), (1003, 2), (37, 41), (300, 41),
                                   (9, 1003)])
def test_write_rdmap_csv_crafted_cells_match_oracle(tmp_path, shape):
    # Near-ties (k + 0.5) * 10**-j and their one-ulp neighbours, decade edges,
    # |x| < 1, |x| >= 1000 and the non-finite cells; 2 x 1003 and 1003 x 2
    # put an index >= 1000 into q and into p; 1 x 1 maps take every 16th cell;
    # 300 x 41 and 9 x 1003 span several blocks of rows.
    cells = _crafted_cells()
    for start in range(0, len(cells), max(shape[0] * shape[1], len(cells) // 16)):
        db = np.resize(np.roll(cells, -start), shape)
        _assert_rdmap_matches_oracle(tmp_path, db)
        _assert_rdmap_matches_oracle(tmp_path, np.asfortranarray(db))


@pytest.mark.parametrize("shape", [(300, 41), (9, 1003), (1, 5000)])
def test_write_rdmap_csv_percent_cells_at_block_edges_match_oracle(tmp_path, shape):
    # Cells the digit tables cannot render are written as their own lines
    # between runs of records: put them on the first and last cell of every
    # block, on two adjacent cells, and then on every cell.
    n_f, n_t = shape
    step = max(1, jcas.cli._RDMAP_BLOCK_CELLS // n_t)
    db = np.random.default_rng(n_f).uniform(-320.0, 0.0, size=shape)
    odd = [0.0, -0.0, np.nan, -np.inf, -0.5, -1234.5, 1e-5, -99.99995]
    firsts = np.arange(0, n_f, step) * n_t
    lasts = np.minimum(firsts + step * n_t, n_f * n_t) - 1
    spots = np.r_[firsts, lasts, 5, 6]
    db.flat[spots] = np.resize(odd, len(spots))
    _assert_rdmap_matches_oracle(tmp_path, db)
    _assert_rdmap_matches_oracle(tmp_path, np.resize(odd, shape))


def test_write_rdmap_csv_every_digit_table_entry_matches_oracle(tmp_path):
    # z = 1000 * hi + lo at each decade e, so each head entry is read: every
    # hi, both signs, with and without fraction digits past hi; lo covers no,
    # some and all trailing zeros, and hi = 123 at e = 1 with every lo reads
    # every tail entry.
    hi, e, lo = np.meshgrid(np.arange(100, 1000), np.arange(3), [0, 1, 10, 100, 120, 999],
                            indexing="ij")
    z = np.r_[(1000 * hi + lo).ravel(), 123000 + np.arange(1000)]
    x = z / 10.0 ** (5 - np.r_[e.ravel(), np.ones(1000, int)])
    _assert_rdmap_matches_oracle(tmp_path, np.r_[x, -x].reshape(172, 200))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=30),
                  elements=st.one_of(st.floats(-320.0, 0.0), st.floats(-1e3, 1e3),
                                     st.floats())))
def test_write_rdmap_csv_matches_oracle_on_any_map(tmp_path, db):
    _assert_rdmap_matches_oracle(tmp_path, db)


def test_write_rdmap_csv_degenerate_cells_raise_no_warning(tmp_path):
    db = np.array([[0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1.7e308, -300.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_rdmap_csv(tmp_path / "rd.csv", RadarImage(db))
    assert (tmp_path / "rd.csv").read_text().splitlines() == [
        "p,q,magnitude_db", "0,0,0", "0,1,-0", "0,2,nan", "0,3,inf", "0,4,-inf",
        "0,5,4.94066e-324", "0,6,-1.7e+308", "0,7,-300"]


def test_write_image_csv_matches_per_cell_rendering(tmp_path):
    db = np.random.default_rng(6).uniform(-320.0, 0.0, size=16)
    write_image_csvs([(tmp_path / "img.csv", RadarImage(db))])
    rows = ["%d,%.6g" % (b, db[b]) for b in range(9)]
    expected = "\n".join(["bin,magnitude_db", *rows]) + "\n"
    assert (tmp_path / "img.csv").read_text() == expected


def _assert_images_match_oracle(tmp_path, dbs):
    images = [(tmp_path / f"img_{k}.csv", RadarImage(db)) for k, db in enumerate(dbs)]
    write_image_csvs(images)
    for k, (path, img) in enumerate(images):
        template_image_csv(tmp_path / "oracle.csv", img)
        assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes(), k


# Cells _g6_text renders as their own "%.6g" lines: signed zeros, the
# non-finite cells, |x| >= 1000, |x| < 1 and digits within 1e-6 of a half.
ODD_CELLS = [0.0, -0.0, np.nan, np.inf, -np.inf, 1000.0, -1234.5, 1e16, -1e-5, 0.5,
             123.4565, -12.34565, 1.234565, np.nextafter(-12.34565, 0)]


@pytest.mark.parametrize("n", [2002, 480, 16, 15, 2])
def test_write_image_csvs_odd_cells_at_image_edges_match_oracle(tmp_path, n):
    # Odd cells on the first and the last written bin of each image, so that
    # the last bin of one image and the first of the next are adjacent in the
    # one batch, and then on every bin of an image between two plain ones.
    half = n // 2 + 1
    rng = np.random.default_rng(n)
    dbs = rng.uniform(-320.0, 0.0, size=(len(ODD_CELLS), n))
    dbs[:, 0] = ODD_CELLS
    dbs[:, half - 1] = ODD_CELLS[::-1]
    dbs[:, half:] = np.nan  # past the half spectrum: never written
    _assert_images_match_oracle(tmp_path, dbs)
    middle = np.resize(np.array(ODD_CELLS), n)
    _assert_images_match_oracle(tmp_path, [dbs[0], middle, dbs[1]])


def test_labels_are_one_read_only_array_per_n():
    # Both writers take their bin, p and q labels from the one cached set.
    labels = jcas.cli._labels(1003)
    assert jcas.cli._labels(1003) is labels and jcas.cli._labels(2) is not labels
    assert labels.dtype == np.dtype("S5") and labels.shape == (1003,)
    assert [labels[0], labels[999], labels[1002]] == [b"0,", b"999,", b"1002,"]
    assert not labels.flags.writeable
    with pytest.raises(ValueError):
        labels[0] = b"9,"


def test_write_image_csvs_crafted_cells_match_oracle(tmp_path):
    # Near-ties, their one-ulp neighbours and the decade edges of the rdmap
    # tests, spread over 480-bin images.
    cells = _crafted_cells()
    dbs = np.resize(cells, (-(-len(cells) // 241), 241))
    _assert_images_match_oracle(tmp_path, np.concatenate([dbs, dbs[:, ::-1]], axis=1))


def test_write_image_csvs_batch_past_the_flush_size_matches_oracle(tmp_path):
    # More cells in one call than simulate ever buffers before writing.
    k = jcas.cli._IMAGE_FLUSH_CELLS // 241 + 3
    dbs = np.random.default_rng(12).uniform(-320.0, 0.0, size=(k, 480))
    dbs[::7, 0] = -0.0
    dbs[3::7, 240] = 1e-5
    dbs[5, :241] = np.resize(np.array(ODD_CELLS), 241)
    assert dbs[:, :241].size > jcas.cli._IMAGE_FLUSH_CELLS
    _assert_images_match_oracle(tmp_path, dbs)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 40)),
                  elements=st.one_of(st.floats(-320.0, 0.0), st.floats(-1e3, 1e3),
                                     st.floats())))
def test_write_image_csvs_matches_oracle_on_any_images(tmp_path, dbs):
    _assert_images_match_oracle(tmp_path, dbs)


def test_simulate_writes_images_in_bursts_of_the_flush_size(tmp_path, monkeypatch):
    # fig4 adaptive makes two 241-bin images per frame: a flush size of 500
    # cells writes the first two frames' four images after frame 2 and the
    # last two after the loop; the default size writes all six after the
    # loop. Both give the golden files.
    bursts = []
    real = jcas.cli.write_image_csvs

    def counted(images):
        bursts.append(len(images))
        real(images)

    monkeypatch.setattr(jcas.cli, "write_image_csvs", counted)
    golden = Path(__file__).parent / "golden" / "fig4_adaptive"
    for size, expected in ((500, [4, 2]), (jcas.cli._IMAGE_FLUSH_CELLS, [6])):
        monkeypatch.setattr(jcas.cli, "_IMAGE_FLUSH_CELLS", size)
        bursts.clear()
        out = tmp_path / f"run{size}"
        assert main(["simulate", "--scene", "fig4", "--window", "adaptive", "--seed", "1",
                     "--out", str(out)]) == 0
        assert bursts == expected
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in golden.iterdir())
        for path in golden.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def test_simulate_fig4_hamming(tmp_path):
    out = tmp_path / "run"
    rc = main(["simulate", "--scene", "fig4", "--window", "hamming",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    for t in ("0", "0.2", "0.6"):
        header, rows = _read_csv(out / f"image_{t}.csv")
        assert header == "bin,magnitude_db"
        assert len(rows) == 241  # half spectrum, inclusive
    header, rows = _read_csv(out / "detections.csv")
    assert header == DET_HEADER
    # two vehicles tracked across three frames
    assert len(rows) == 6
    assert {r[11] for r in rows[:2]} == {"undecided"}
    header, tracks = _read_csv(out / "tracks.csv")
    assert header == "track_id,n_frames,score_a,score_b,resolved,r_m,v_mps"
    resolved = {r[0]: r[4] for r in tracks}
    assert resolved == {"0": "b", "1": "a"}


def test_simulate_fig4_rect_t0_only_vehicle_a(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--scene", "fig4", "--window", "rect",
                 "--seed", "1", "--out", str(out)]) == 0
    _, rows = _read_csv(out / "detections.csv")
    t0_rows = [r for r in rows if r[0] == "0"]
    assert len(t0_rows) == 1
    assert (t0_rows[0][1], t0_rows[0][2]) == ("88", "121")


def test_simulate_deterministic_outputs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        main(["simulate", "--scene", "fig4", "--window", "adaptive",
              "--seed", "7", "--out", str(out)])
    for name in sorted(p.name for p in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_parser_built_once_leaks_no_option_between_calls(tmp_path):
    # The parser is cached; each call must still see only its own options.
    noisy = ["--window", "hamming", "--seed", "3", "--snr-db", "20"]
    argvs = {"noisy": noisy, "default": []}
    for name, extra in argvs.items():
        assert main(["simulate", "--scene", "fig5", *extra,
                     "--out", str(tmp_path / "warm" / name)]) == 0
    assert build_parser() is build_parser()
    for name, extra in reversed(argvs.items()):
        build_parser.cache_clear()
        assert main(["simulate", "--scene", "fig5", *extra,
                     "--out", str(tmp_path / "fresh" / name)]) == 0
    for name in argvs:
        warm, fresh = tmp_path / "warm" / name, tmp_path / "fresh" / name
        files = sorted(p.name for p in fresh.iterdir())
        assert sorted(p.name for p in warm.iterdir()) == files
        for f in files:
            assert (warm / f).read_bytes() == (fresh / f).read_bytes(), (name, f)
    warm = tmp_path / "warm"
    assert ((warm / "noisy" / "detections.csv").read_bytes()
            != (warm / "default" / "detections.csv").read_bytes())


def test_simulate_adaptive_writes_both_images(tmp_path):
    out = tmp_path / "run"
    main(["simulate", "--scene", "fig4", "--window", "adaptive",
          "--seed", "1", "--out", str(out)])
    assert (out / "image_0_rect.csv").exists()
    assert (out / "image_0_hamming.csv").exists()


def test_simulate_computes_candidates_once_per_detection(tmp_path, monkeypatch):
    # Wrap candidates in every jcas module that binds it, so the count holds
    # whichever module calls it.
    calls = []
    original = jcas.diag_estimator.candidates

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "jcas" or name.startswith("jcas.")) \
                and getattr(module, "candidates", None) is original:
            monkeypatch.setattr(module, "candidates", counted)
    out = tmp_path / "run"
    assert main(["simulate", "--scene", "fig4", "--window", "adaptive",
                 "--seed", "1", "--out", str(out)]) == 0
    _, rows = _read_csv(out / "detections.csv")
    assert len(calls) == len(rows) == 6


def test_simulate_grid_estimator(tmp_path, table1):
    out = tmp_path / "run"
    scene = tmp_path / "one_car.cfg"
    scene.write_text("""
[scene]
measurement_times_s = [0.0]
[[vehicle]]
name = "car"
initial_range_m = 40.0
relative_speed_mps = 5.0
rcs_m2 = 3.16
""")
    assert main(["simulate", "--scene", str(scene), "--estimator", "both",
                 "--out", str(out)]) == 0
    header, rows = _read_csv(out / "rdmap_0.csv")
    assert header == "p,q,magnitude_db"
    assert len(rows) == 480 * 480
    header, dets = _read_csv(out / "grid_detections.csv")
    assert header == "time_s,p,q,magnitude_db,range_m,velocity_mps"
    assert len(dets) == 1
    assert (dets[0][1], dets[0][2]) == ("108", "26")
    assert float(dets[0][4]) == pytest.approx(40.1786, abs=1e-3)
    assert (out / "detections.csv").exists()


def test_simulate_unequal_comb_spacings_one_resolved_track(tmp_path):
    # n_symbols = 1920 gives L_t = 4 against L_f = 7; the diagonal reading
    # must use the same Doppler axis as the grid (one cell: 0.334821 m/s).
    out = tmp_path / "run"
    scene = tmp_path / "unequal.cfg"
    scene.write_text("""
[scene]
measurement_times_s = [0.0, 0.2, 0.4]
[[vehicle]]
name = "car"
initial_range_m = 40.0
relative_speed_mps = 5.0
rcs_m2 = 3.16
[ofdm]
n_symbols = 1920
""")
    assert main(["simulate", "--scene", str(scene), "--estimator", "both",
                 "--out", str(out)]) == 0
    header, tracks = _read_csv(out / "tracks.csv")
    assert header == "track_id,n_frames,score_a,score_b,resolved,r_m,v_mps"
    assert len(tracks) == 1
    assert tracks[0][1] == "3" and tracks[0][4] == "a"
    assert abs(float(tracks[0][6]) - 5.0) <= 0.334821


SPACING_60K_SCENE = """
[scene]
measurement_times_s = [0.0, 0.2, 0.4]
[[vehicle]]
name = "car"
initial_range_m = 20.0
relative_speed_mps = 5.0
rcs_m2 = 10.0
[ofdm]
subcarrier_spacing = 60000.0
"""


def test_scene_subcarrier_spacing_sets_geometry(tmp_path, capsys):
    # Half the spacing doubles the range cell (0.744048 m) and the symbol
    # duration, so the grid still reads the 20 m / 5 m/s car within one cell.
    scene = tmp_path / "spacing60k.cfg"
    scene.write_text(SPACING_60K_SCENE)
    assert main(["capabilities", "--scene", str(scene)]) == 0
    assert "0.744048" in capsys.readouterr().out
    out = tmp_path / "run"
    assert main(["simulate", "--scene", str(scene), "--estimator", "both",
                 "--out", str(out)]) == 0
    header, dets = _read_csv(out / "grid_detections.csv")
    assert header == "time_s,p,q,magnitude_db,range_m,velocity_mps"
    assert dets[0][0] == "0" and dets[0][4:] == ["20.0893", "4.97449"]


def test_simulate_rect_pairs_a_lone_car_across_its_straddle_loss(tmp_path):
    # At t = 0.2 the car's tones sit at bins 24.04 and 80.49, one on a bin and
    # one half-way between two, and rect's straddle loss puts their peaks
    # 3.77 dB apart, beyond 3 dB. Rect's 4 dB pairing tolerance still pairs
    # them, so the frame is detected and the track reads the true 21 m, 5 m/s
    # branch within a cell, not the other branch's 38.7 m, 2.58 m/s.
    scene = tmp_path / "spacing60k.cfg"
    scene.write_text(SPACING_60K_SCENE.replace("[0.0, 0.2, 0.4]", "[0.0, 0.2]"))
    out = tmp_path / "run"
    assert main(["simulate", "--scene", str(scene), "--window", "rect",
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out / "detections.csv")
    assert [(r[0], r[1], r[2]) for r in rows] == [("0", "25", "79"), ("0.2", "24", "80")]
    _, tracks = _read_csv(out / "tracks.csv")
    assert len(tracks) == 1 and tracks[0][5:] == ["20.8333", "4.97449"]


@pytest.mark.parametrize("key, value", [
    ("useful_symbol_duration", "8.92e-6"),   # 1/subcarrier_spacing
    ("n_diag", "480"),                       # the comb size
    ("block_duration", "30e-3"),             # read by no arithmetic
    ("symbol_duration_physical", "8.92e-6"),
], ids=["useful_symbol_duration", "n_diag", "block_duration", "symbol_duration_physical"])
def test_simulate_refuses_non_field_ofdm_key_before_output(tmp_path, capsys, key, value):
    out = tmp_path / "run"
    scene = tmp_path / "key.cfg"
    scene.write_text(SPACING_60K_SCENE.replace(
        "subcarrier_spacing = 60000.0", f"{key} = {value}"))
    assert main(["simulate", "--scene", str(scene), "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_simulate_half_comb_derives_diagonal_length(tmp_path):
    # Halving both combs halves the diagonal with them; no n_diag to keep
    # in step by hand.
    out = tmp_path / "run"
    scene = tmp_path / "half.cfg"
    scene.write_text(ONE_CAR_SCENE + "[ofdm]\nn_sensing_freq = 240\nn_sensing_time = 240\n")
    assert main(["simulate", "--scene", str(scene), "--estimator", "both",
                 "--out", str(out)]) == 0
    _, tracks = _read_csv(out / "tracks.csv")
    assert len(tracks) == 1
    assert tracks[0][4:] == ["a", "40.9226", "4.97449"]
    assert len((out / "image_0.csv").read_text().splitlines()) == 1 + 121


def test_simulate_stationary_vehicle_prints_dead_branch_reading(tmp_path, monkeypatch,
                                                                table1):
    # A stationary vehicle's two tones fall in one peak, which pair_peaks
    # leaves an orphan; pair it with itself, as the coincident pair it
    # stands for. Its swapped branch reads range 0, so that branch is dead
    # from the frame that opens the track, and the branch's own reading,
    # not inf, still goes out under r_eq16_m.
    real = jcas.cli.process_frame

    def self_paired(block, windows):
        frames = real(block, windows)
        for frame in frames:
            assert not frame.pairs and len(frame.orphans) == 1
        return [dataclasses.replace(
            frame, orphans=[],
            pairs=[PeakPair(p.bin, p.bin, p.magnitude_db) for p in frame.orphans])
            for frame in frames]

    monkeypatch.setattr(jcas.cli, "process_frame", self_paired)
    out = tmp_path / "run"
    scene = tmp_path / "parked.cfg"
    scene.write_text(ONE_CAR_SCENE.replace("relative_speed_mps = 5.0",
                                           "relative_speed_mps = 0.0"))
    assert main(["simulate", "--scene", str(scene), "--out", str(out)]) == 0
    _, rows = _read_csv(out / "detections.csv")
    assert [row[11] for row in rows] == ["undecided", "a"]
    for row in rows:
        readings = candidates(table1, PeakPair(int(row[1]), int(row[2]), 0.0))
        assert row[1] == row[2] and row[7] == "0"
        assert row[5:9] == ["%.6g" % x for x in readings]
        assert row[12:] == row[5:7]
    _, [track] = _read_csv(out / "tracks.csv")
    assert track[:2] == ["0", "2"] and track[3:] == ["inf", "a", *rows[-1][5:7]]


@pytest.mark.parametrize("estimator", ["diag", "both"])
def test_simulate_refuses_non_square_comb_before_output(tmp_path, capsys, estimator):
    out = tmp_path / "deep" / "run"
    scene = tmp_path / "oblong.cfg"
    scene.write_text(ONE_CAR_SCENE + "[ofdm]\nn_sensing_freq = 240\n")
    assert main(["simulate", "--scene", str(scene), "--estimator", estimator,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: diagonal scheme requires")
    assert not (tmp_path / "deep").exists()


def test_simulate_refuses_removed_model_option(tmp_path):
    # The diagonal comb has one echo model, the dual-tone pair, so simulate
    # takes no --model option, not even naming that model.
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scene", "fig4", "--model", "dual-tone", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("estimator", ["diag", "grid2d"])
@pytest.mark.parametrize("old, new", [
    ("initial_range_m = 40.0", "initial_range_m = 1e-100"),  # R^4 underflows
    ("rcs_m2 = 3.16", "rcs_m2 = 1e-300"),  # every echo power is 0
], ids=["range-underflow", "zero-power"])
def test_simulate_refuses_degenerate_echo_power_before_output(tmp_path, capsys,
                                                               estimator, old, new):
    out = tmp_path / "run"
    scene = tmp_path / "faint.cfg"
    scene.write_text(ONE_CAR_SCENE.replace(old, new))
    assert main(["simulate", "--scene", str(scene), "--estimator", estimator,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: echo power of the target")
    assert not out.exists()


def test_simulate_noise_flag_changes_image(tmp_path):
    quiet, noisy = tmp_path / "q", tmp_path / "n"
    main(["simulate", "--scene", "fig4", "--out", str(quiet)])
    main(["simulate", "--scene", "fig4", "--snr-db", "10", "--out", str(noisy)])
    assert ((quiet / "image_0.csv").read_bytes()
            != (noisy / "image_0.csv").read_bytes())


def test_simulate_refuses_repeated_times_before_output(tmp_path, capsys):
    out = tmp_path / "run"
    scene = tmp_path / "repeat.cfg"
    scene.write_text("""
[scene]
measurement_times_s = [0.0, 0.0]
[[vehicle]]
name = "car"
initial_range_m = 40.0
relative_speed_mps = 5.0
rcs_m2 = 3.16
""")
    assert main(["simulate", "--scene", str(scene), "--out", str(out)]) == 1
    assert "strictly increasing" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_names_a_negative_zero_time_as_zero(tmp_path):
    # -0.0 is a valid first time; its files and rows print it as 0, not -0.
    out = tmp_path / "run"
    scene = tmp_path / "signed.cfg"
    scene.write_text(ONE_CAR_SCENE.replace("[0.0, 0.2]", "[-0.0, 0.2]"))
    assert main(["simulate", "--scene", str(scene), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("image_*")) == ["image_0.2.csv", "image_0.csv"]
    _, rows = _read_csv(out / "detections.csv")
    assert {row[0] for row in rows} == {"0", "0.2"}


FAR_SCENE = """
[scene]
measurement_times_s = [0.0, 0.2]
[[vehicle]]
name = "near"
initial_range_m = 40.0
relative_speed_mps = 5.0
rcs_m2 = 3.16
[[vehicle]]
name = "far"
initial_range_m = 290.0
relative_speed_mps = 50.0
rcs_m2 = 3.16
"""


def test_simulate_refuses_target_beyond_unambiguous_range(tmp_path, capsys):
    # 178.6 m is the table-1 unambiguous range; a 300 m vehicle would show
    # up near 121 m.
    out = tmp_path / "run"
    scene = tmp_path / "far.cfg"
    scene.write_text(FAR_SCENE)
    assert main(["simulate", "--scene", str(scene), "--estimator", "grid2d",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "vehicle far at t=0 s is at 290 m" in err
    assert "unambiguous range" in err
    assert not out.exists()


@pytest.mark.parametrize("estimator, reason", [
    ("diag", "puts a diagonal tone at bin 1040.85, at or beyond n_diag = 480: it wraps"),
    ("both", "is at 290 m, at or beyond the 178.571 m unambiguous range"),
])
def test_simulate_names_the_limit_of_each_estimator_it_runs(tmp_path, capsys, estimator,
                                                             reason):
    # A diag-only run names the diagonal tone, l_range + l_doppler =
    # 779.52 + 261.333 bins; a run with the grid names the grid's range first.
    out = tmp_path / "run"
    scene = tmp_path / "far.cfg"
    scene.write_text(FAR_SCENE)
    assert main(["simulate", "--scene", str(scene), "--estimator", estimator,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: vehicle far at t=0 s {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("estimator", ["diag", "grid2d", "both"])
def test_simulate_ignores_a_vehicle_never_ahead(tmp_path, estimator):
    # At -120 m/s the vehicle would wrap on either estimator, but it is 110 m
    # and 134 m behind the ego car at the two times: never a target, so the
    # run reads as the one without it, file for file and byte for byte.
    times = "measurement_times_s = [0.0, 0.2]"
    base = ONE_CAR_SCENE.replace(times, "measurement_times_s = [1.0, 1.2]")
    behind = base + """[[vehicle]]
name = "gone"
initial_range_m = 10.0
relative_speed_mps = -120.0
rcs_m2 = 100.0
"""
    outputs = []
    for name, text in (("base", base), ("behind", behind)):
        scene = tmp_path / f"{name}.cfg"
        scene.write_text(text)
        out = tmp_path / name
        assert main(["simulate", "--scene", str(scene), "--estimator", estimator,
                     "--window", "adaptive", "--snr-db", "20", "--out", str(out)]) == 0
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == {"diag": 6, "grid2d": 3, "both": 9}[estimator]


def test_simulate_refuses_target_leaving_unambiguous_range(tmp_path, capsys):
    out = tmp_path / "run"
    scene = tmp_path / "leaving.cfg"
    scene.write_text("""
[scene]
measurement_times_s = [0.0, 2.0]
[[vehicle]]
name = "truck"
initial_range_m = 150.0
relative_speed_mps = 75.0
rcs_m2 = 100.0
""")
    assert main(["simulate", "--scene", str(scene), "--estimator", "grid2d",
                 "--out", str(out)]) == 1
    assert "vehicle truck at t=2 s is at 300 m" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("speed", [120.0, -120.0])
def test_simulate_refuses_speed_beyond_unambiguous_velocity(tmp_path, capsys, speed):
    # 91.8367 m/s is the table-1 unambiguous velocity; a 120 m/s vehicle's
    # Doppler bin wraps (the grid reads it at 28.1 m/s).
    out = tmp_path / "run"
    scene = tmp_path / "fast.cfg"
    scene.write_text(f"""
[scene]
measurement_times_s = [0.0, 0.2]
[[vehicle]]
name = "car"
initial_range_m = 40.0
relative_speed_mps = 5.0
rcs_m2 = 3.16
[[vehicle]]
name = "racer"
initial_range_m = 60.0
relative_speed_mps = {speed}
rcs_m2 = 3.16
""")
    assert main(["simulate", "--scene", str(scene), "--estimator", "grid2d",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"vehicle racer at t=0 s moves at {speed:g} m/s" in err
    assert "91.8367 m/s unambiguous velocity" in err
    assert not out.exists()


TRUCK_SCENE = """
[scene]
measurement_times_s = [0.0, 0.2, 0.4]
[[vehicle]]
name = "truck"
initial_range_m = 160.0
relative_speed_mps = 20.0
rcs_m2 = 100.0
"""


@pytest.mark.parametrize("estimator", ["diag", "both"])
@pytest.mark.parametrize("speed", ["20.0", "-20.0"])
def test_simulate_refuses_diagonal_tone_past_n_diag(tmp_path, capsys, estimator, speed):
    # 160 m is inside the grid's 178.571 m, but l_range + |l_doppler| =
    # 430.08 + 104.533 bins is past the 480-bin diagonal: the tone wrapped,
    # and the truck read as one resolved track at 78.683 m, 25.9247 m/s.
    scene = tmp_path / "truck.cfg"
    scene.write_text(TRUCK_SCENE.replace("20.0", speed))
    out = tmp_path / "run"
    assert main(["simulate", "--scene", str(scene), "--window", "hamming",
                 "--estimator", estimator, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: vehicle truck at t=0 s puts a diagonal tone at bin 534.613, "
        "at or beyond n_diag = 480: it wraps\n")
    assert not out.exists()


def test_simulate_grid_reads_truck_past_the_diagonal(tmp_path):
    scene = tmp_path / "truck.cfg"
    scene.write_text(TRUCK_SCENE)
    out = tmp_path / "run"
    assert main(["simulate", "--scene", str(scene), "--estimator", "grid2d",
                 "--out", str(out)]) == 0
    _, dets = _read_csv(out / "grid_detections.csv")
    assert [row[4:] for row in dets[:1]] == [["159.97", "20.0893"]]


@pytest.mark.parametrize("range_m, code", [(139.6, 0), (139.7, 1)])
def test_simulate_diagonal_limit_is_the_last_bin(tmp_path, range_m, code):
    # 20 m/s adds 104.533 bins: 139.6 m puts the high tone at 479.78,
    # 139.7 m at 480.05.
    scene = tmp_path / "edge.cfg"
    scene.write_text(TRUCK_SCENE.replace("160.0", str(range_m))
                     .replace("[0.0, 0.2, 0.4]", "[0.0]"))
    out = tmp_path / "run"
    assert main(["simulate", "--scene", str(scene), "--out", str(out)]) == code
    assert out.exists() == (code == 0)


def test_simulate_refuses_negative_seed_before_output(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--scene", "fig4", "--seed=-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
    assert not out.exists()


def _one_car(*times, range_m=40.0, speed=5.0):
    return Scene((VehicleSpec("car", range_m, speed, 3.16),), times)


@pytest.mark.parametrize("scene, cfg, message", [
    (_one_car(0.0, 30.0), OfdmConfig.table1(), "vehicle car at t=30 s is at 190 m"),
    (_one_car(0.0), dataclasses.replace(OfdmConfig.table1(), n_sensing_freq=240),
     "diagonal scheme requires"),
], ids=["beyond-range", "non-square"])
def test_run_scene_refuses_at_the_call(monkeypatch, scene, cfg, message):
    # The refusal comes before any frame's echoes: calling None would raise TypeError.
    monkeypatch.setattr(jcas.cli, "target_amplitudes", None)
    with pytest.raises(ValueError, match=message):
        run_scene(scene, cfg, (WindowKind.RECTANGULAR,), True, None, 0)


@pytest.mark.parametrize("snr_db", [None, 20.0])
@pytest.mark.parametrize("seed", [1.5, True, -1])
def test_run_scene_refuses_a_seed_that_is_no_non_negative_integer_at_the_call(
        monkeypatch, table1, seed, snr_db):
    # One rule with and without noise, before any echo: calling None would raise TypeError.
    monkeypatch.setattr(jcas.cli, "target_amplitudes", None)
    with pytest.raises(ValueError, match=re.escape(
            f"seed must be a non-negative integer, got {seed!r}")):
        run_scene(_one_car(0.0), table1, (WindowKind.RECTANGULAR,), False, snr_db, seed)


@pytest.mark.parametrize("snr_db", [None, 20.0])
def test_run_scene_takes_a_numpy_integer_seed_as_that_integer(table1, snr_db):
    windows = (WindowKind.HAMMING,)
    runs = [list(run_scene(_one_car(0.0, 0.2), table1, windows, False, snr_db, seed))
            for seed in (np.int64(3), 3)]
    for numpy_seeded, int_seeded in zip(*runs):
        assert np.array_equal(numpy_seeded.diag.images[WindowKind.HAMMING].magnitude_db,
                              int_seeded.diag.images[WindowKind.HAMMING].magnitude_db)
        assert numpy_seeded.diag.pairs == int_seeded.diag.pairs


def test_run_scene_frames_carry_their_own_owners(table1):
    # The shared TrackTable's owner is the last frame's once the records are
    # collected; each record's owner stays its own frame's, and so do the
    # owning tracks' rows.
    def readings(owner):
        return [(tr.track_id, tr.chosen, tr.r_m, tr.v_mps) for tr in owner]

    scene, windows = builtin_scene("fig4"), WINDOW_MODES["rect"]
    live = [readings(frame.tracks.rows(frame.tracks.owner))
            for frame in run_scene(scene, table1, windows, False, None, 1)]
    frames = list(run_scene(scene, table1, windows, False, None, 1))
    assert [len(frame.diag.pairs) for frame in frames] == [1, 1, 2]
    assert [len(frame.owner) for frame in frames] == [1, 1, 2]
    assert [[track.track_id for track in frame.owner] for frame in frames] == [[0], [0], [0, 1]]
    assert all(frame.tracks is frames[-1].tracks for frame in frames)
    assert [readings(frame.owner) for frame in frames] == live
    # track 0 decides "b" later; at frame 0 it was undecided at its a reading
    (track_id, chosen, r_m, _), = readings(frames[0].owner)
    assert (track_id, chosen) == (0, "undecided")
    assert r_m == pytest.approx(38.8765, abs=1e-4)
    assert frames[-1].tracks[0].chosen == "b"


def test_run_scene_makes_each_frame_when_asked(monkeypatch, table1):
    # Diagonal frames are made a block at a time: the first block when the
    # first frame is asked for, the next only when its first frame is.
    made = []
    real = jcas.cli.synthesize_diag

    def counted(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(jcas.cli, "synthesize_diag", counted)
    per_block = jcas.cli._DIAG_BLOCK_CELLS // table1.n_diag
    times = [0.01 * i for i in range(per_block + 2)]
    frames = run_scene(_one_car(*times), table1, (WindowKind.RECTANGULAR,), False, None, 0)
    assert made == []
    assert next(frames).t == 0.0 and len(made) == per_block
    assert [next(frames).t for _ in range(per_block - 1)] == times[1:per_block]
    assert len(made) == per_block
    assert next(frames).t == times[per_block] and len(made) == per_block + 2
    assert [frame.t for frame in frames] == times[per_block + 1:]
    assert len(made) == per_block + 2
    ranges = [targets[0].range_m for _, targets, _ in made]
    assert ranges == sorted(set(ranges))  # each frame once, in time order


@settings(max_examples=25, deadline=None)
@given(n_frames=st.integers(1, 70),
       vehicles=st.lists(st.tuples(st.floats(30.0, 100.0), st.floats(-10.0, 10.0),
                                   st.sampled_from([1.0, 3.16, 10.0, 100.0])),
                         min_size=1, max_size=32),
       window=st.sampled_from(list(WINDOW_MODES)), snr_db=st.sampled_from([None, 20.0]),
       seed=st.integers(0, 2 ** 31))
@example(n_frames=70, vehicles=[(40.0, 5.0, 3.16)], window="adaptive", snr_db=20.0, seed=1)
def test_run_scene_block_rows_equal_the_per_frame_image(n_frames, vehicles, window,
                                                         snr_db, seed):
    # Each frame's image, made in a block of frames, equals that frame's own
    # window -> FFT -> dB bit for bit; 70 frames of 480 bins take three blocks.
    cfg = OfdmConfig.table1()
    scene = Scene(tuple(VehicleSpec(f"v{i}", *v) for i, v in enumerate(vehicles)),
                  tuple(0.02 * k for k in range(n_frames)))
    frames = list(run_scene(scene, cfg, WINDOW_MODES[window], False, snr_db, seed))
    assert len(frames) == n_frames
    noise = NoiseSpec(snr_db, rng_seed=seed) if snr_db is not None else None
    for fidx, frame in enumerate(frames):
        targets = targets_at(scene, frame.t)
        amps = target_amplitudes(cfg, LinkBudget(), targets, seed, fidx)
        d = synthesize_diag(cfg, targets, amps, noise=noise)
        for kind, img in frame.diag.images.items():
            assert img.magnitude_db.tobytes() == frame_image(d.values, kind.value).tobytes()


def test_run_scene_skips_empty_frames_and_seeds_by_time_index(monkeypatch, table1):
    # A vehicle that has passed the ego car never returns, so a real scene
    # empties only at its end; here the middle frame is emptied by hand.
    windows = (WindowKind.HAMMING,)
    scene = _one_car(0.0, 0.2, 0.4, 3.0, speed=-20.0)  # passed by t = 2 s
    real = jcas.cli.targets_at
    monkeypatch.setattr(jcas.cli, "targets_at",
                        lambda scene, t: [] if t == 0.2 else real(scene, t))
    frames = list(run_scene(scene, table1, windows, False, None, 7))
    assert [frame.t for frame in frames] == [0.0, 0.4]
    targets = real(scene, 0.4)
    amps = target_amplitudes(table1, LinkBudget(), targets, 7, 2)
    expected = process_frame(synthesize_diag(table1, targets, amps), windows)[0]
    got = frames[1].diag.images[WindowKind.HAMMING].magnitude_db
    assert np.array_equal(got, expected.images[WindowKind.HAMMING].magnitude_db)
    assert frames[1].diag.pairs == expected.pairs


def test_run_scene_reads_no_tone_of_a_vehicle_behind(table1):
    # At t = 5 s the car is 240 m behind the ego car, where its tones would
    # sit past bin 480; it is no target then, so nothing wraps.
    frames = run_scene(_one_car(0.0, 5.0, range_m=10.0, speed=-50.0), table1,
                       (WindowKind.RECTANGULAR,), False, None, 0)
    assert [frame.t for frame in frames] == [0.0]


def test_readme_library_example_runs(capsys):
    # The README's one python block documents run_scene; it must run as written.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["0.0", "0.2", "0.6"]


def test_package_all_lists_names_not_modules():
    # Importing a name from a submodule binds the submodule in the package too.
    namespace: dict = {}
    exec("from jcas import *", namespace)
    assert set(jcas.__all__) <= namespace.keys()
    assert "run_scene" not in jcas.__all__  # jcas.cli is not imported by the package
    for name in jcas.__all__:
        assert not isinstance(getattr(jcas, name), types.ModuleType), name


def test_run_scene_grid_only_yields_no_diagonal_frame(table1):
    frames = list(run_scene(_one_car(0.0, 0.2), table1, (), True, None, 0))
    assert len(frames) == 2
    for frame in frames:
        assert frame.diag is None and frame.tracks is None and frame.owner is None
        assert frame.rdmap.magnitude_db.shape == (480, 480)
    # the 40 m, 5 m/s car's cell, as simulate --estimator grid2d reads it
    det = frames[0].grid_detections[0]
    assert (det.range_bin, det.doppler_bin) == (108, 26)


ONE_CAR_SCENE = """
[scene]
measurement_times_s = [0.0, 0.2]
[[vehicle]]
name = "car"
initial_range_m = 40.0
relative_speed_mps = 5.0
rcs_m2 = 3.16
"""


@pytest.mark.parametrize("command", ["simulate", "capabilities"])
@pytest.mark.parametrize("old, new", [
    ("initial_range_m = 40.0", "initial_range_m = nan"),
    ("relative_speed_mps = 5.0", "relative_speed_mps = nan"),
    ("rcs_m2 = 3.16", "rcs_m2 = nan"),
    ("rcs_m2 = 3.16", "rcs_m2 = inf"),
    ("[0.0, 0.2]", "[0.0, nan]"),
    ("[0.0, 0.2]", "[-1.0, 0.2]"),
    ("rcs_m2 = 3.16", "rcs_m2 = 3.16\n[ofdm]\ncarrier_freq = nan"),
    ("rcs_m2 = 3.16", "rcs_m2 = 3.16\n[ofdm]\nsubcarrier_spacing = inf"),
], ids=["range-nan", "speed-nan", "rcs-nan", "rcs-inf", "time-nan", "time-negative",
        "carrier-nan", "spacing-inf"])
def test_non_finite_scene_numbers_refused_before_output(tmp_path, capsys, command,
                                                        old, new):
    # NaN passes every "<= 0" check, so each of these used to run: a vehicle
    # or a frame vanished, or the run failed after creating --out.
    scene = tmp_path / "bad.cfg"
    scene.write_text(ONE_CAR_SCENE.replace(old, new))
    out = tmp_path / "run"
    argv = ["--scene", str(scene)] + (["--out", str(out)] if command == "simulate" else [])
    assert main([command, *argv]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "capabilities"])
@pytest.mark.parametrize("old, new", [
    ("measurement_times_s = [0.0, 0.2]", "measurement_times_s = [0.0, [0.1]]"),
    ("initial_range_m = 40.0", "initial_range_m = [10, 2]"),
    ("measurement_times_s = [0.0, 0.2]", "measurement_times_s = []"),
    ("initial_range_m = 40.0", "initial_range_m = 2020-01-01"),
    ("relative_speed_mps = 5.0", "relative_speed_mps = true"),
], ids=["time-list", "range-list", "no-times", "range-date", "speed-bool"])
def test_malformed_scene_numbers_refused_before_output(tmp_path, capsys, command,
                                                       old, new):
    # float() of a list raises TypeError, which main does not catch, and an
    # empty time list would run and write CSVs that hold only headers.
    scene = tmp_path / "bad.cfg"
    scene.write_text(ONE_CAR_SCENE.replace(old, new))
    out = tmp_path / "run"
    argv = ["--scene", str(scene)] + (["--out", str(out)] if command == "simulate" else [])
    assert main([command, *argv]) == 1
    key = new.split(" =")[0]
    assert capsys.readouterr().err.startswith(f"error: {key} must")
    assert not out.exists()


@pytest.mark.parametrize("key", ["name", "lane"])
@pytest.mark.parametrize("value", ["[1, 2]", "true", "2020-01-01"], ids=["list", "bool", "date"])
def test_non_string_vehicle_text_refused_before_output(tmp_path, capsys, key, value):
    # str() used to load these as the names '[1, 2]', 'True' and '2020-01-01'.
    fields = {"name": '"car"', "lane": '"left"', key: value}
    scene = tmp_path / "bad.cfg"
    scene.write_text(ONE_CAR_SCENE.replace('name = "car"\n', "")
                     + "".join(f"{k} = {v}\n" for k, v in fields.items()))
    out = tmp_path / "run"
    assert main(["simulate", "--scene", str(scene), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: vehicle {key} must be a string")
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    (ONE_CAR_SCENE.replace("[scene]", "[scene"), "(at line 2, column"),
    (ONE_CAR_SCENE.replace("[[vehicle]]", "[vehicle]]"), "(at line 4, column"),
    (ONE_CAR_SCENE.replace("initial_range_m = 40.0", "initial_range_m ="),
     "(at line 6, column"),
    (ONE_CAR_SCENE.replace("[[vehicle]]", "[vehicle]"), "[[vehicle]] blocks"),
    ("vehicle = [1]" + ONE_CAR_SCENE.split("[[vehicle]]")[0], "[[vehicle]] blocks"),
    (ONE_CAR_SCENE.replace("[scene]", "[[scene]]"), "scene must be one table"),
    (ONE_CAR_SCENE + "[[ofdm]]\nn_sensing_freq = 240\n", "ofdm must be one table"),
], ids=["open-header", "extra-bracket", "empty-value", "single-bracket-vehicle",
        "vehicle-list", "scene-array", "ofdm-array"])
def test_malformed_scene_structure_refused_before_output(tmp_path, capsys, text, message):
    # A syntax error names its line; a valid TOML table or array in the wrong
    # shape names its section.
    scene = tmp_path / "bad.cfg"
    scene.write_text(text)
    out = tmp_path / "run"
    assert main(["simulate", "--scene", str(scene), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_times_that_print_alike(tmp_path, capsys):
    # Both times print as 0.1, so the second frame's image and rdmap files
    # would overwrite the first's, and detections.csv would show 0.1 twice.
    scene = tmp_path / "close.cfg"
    scene.write_text(ONE_CAR_SCENE.replace("[0.0, 0.2]", "[0.1000001, 0.1000002]"))
    out = tmp_path / "run"
    assert main(["simulate", "--scene", str(scene), "--estimator", "both",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "0.1000001 and 0.1000002 both print as 0.1" in err
    assert not out.exists()


def test_simulate_refuses_non_finite_snr_before_output(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--scene", "fig4", "--snr-db", "nan", "--out", str(out)]) == 1
    assert "snr_db must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_checks_the_seed_before_the_snr(tmp_path, capsys):
    # run_scene builds the run's one NoiseSpec after its own seed check.
    out = tmp_path / "run"
    assert main(["simulate", "--scene", "fig4", "--snr-db", "nan", "--seed=-1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("snr_db", ["3083", "1e308", "-3090", "-3240"])
def test_simulate_refuses_snr_without_finite_noise_before_output(tmp_path, capsys, snr_db):
    # These used to end in an OverflowError or ZeroDivisionError traceback or
    # in non-finite samples, each after --out existed.
    out = tmp_path / "run"
    assert main(["simulate", "--scene", "fig5", f"--snr-db={snr_db}", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: snr_db must be")
    assert not out.exists()


@pytest.mark.parametrize("snr_db", ["3082", "-3082"])
def test_simulate_runs_at_extreme_finite_snr(tmp_path, snr_db):
    out = tmp_path / "run"
    assert main(["simulate", "--scene", "fig5", f"--snr-db={snr_db}", "--out", str(out)]) == 0
    assert (out / "detections.csv").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--window", "hamming"], ["simulate", "--window", "adaptive"],
    ["simulate", "--window", "rect"], ["simulate", "--estimator", "grid2d"],
    ["capabilities"],
], ids=["hamming", "adaptive", "rect", "grid2d", "capabilities"])
def test_one_signal_comb_refused_before_output(tmp_path, capsys, argv):
    # A Hamming window of one point used to fail after --out existed.
    scene = tmp_path / "one.cfg"
    scene.write_text(ONE_CAR_SCENE.replace("40.0", "0.1").replace("5.0", "0.0")
                     + "[ofdm]\nn_sensing_freq = 1\nn_sensing_time = 1\n")
    out = tmp_path / "run"
    outs = ["--out", str(out)] if argv[0] == "simulate" else []
    assert main([*argv, "--scene", str(scene), *outs]) == 1
    assert "at least 2 sensing signals" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_two_signal_grid_reports_its_vehicle(tmp_path):
    # On a 2-signal comb the guard's wrapped offsets reach each cell itself;
    # the detector skips them, so the parked car's cell is reported.
    scene = tmp_path / "two.cfg"
    scene.write_text(ONE_CAR_SCENE.replace("40.0", "0.1").replace("5.0", "0.0")
                     + "[ofdm]\nn_sensing_freq = 2\nn_sensing_time = 2\n")
    out = tmp_path / "run"
    assert main(["simulate", "--scene", str(scene), "--estimator", "grid2d",
                 "--out", str(out)]) == 0
    assert (out / "grid_detections.csv").read_text().splitlines() == [
        "time_s,p,q,magnitude_db,range_m,velocity_mps", "0,0,0,0,0,0", "0.2,0,0,0,0,0"]


SHORT_DIAGONAL_SCENE = """
[scene]
measurement_times_s = [0.0]
[[vehicle]]
name = "car"
initial_range_m = 0.9300595
relative_speed_mps = 0.2869898
rcs_m2 = 3.16
[ofdm]
"""


@pytest.mark.parametrize("estimator", ["diag", "both"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_diagonal_too_short_to_pair_refused_before_output(tmp_path, capsys, n, estimator):
    # Thinning keeps peaks at least 3 bins apart on a circle of n bins; for n <= 5
    # no two bins are, so no pair and no reading. At n = 5 the car's tones sit at
    # bins 1 and 4, and such a run used to write a header-only detections.csv.
    scene = tmp_path / "short.cfg"
    scene.write_text(SHORT_DIAGONAL_SCENE + f"n_sensing_freq = {n}\nn_sensing_time = {n}\n")
    out = tmp_path / "run"
    assert main(["simulate", "--scene", str(scene), "--estimator", estimator,
                 "--out", str(out)]) == 1
    assert f"n_diag = {n} < 6" in capsys.readouterr().err
    assert not out.exists()


def test_shortest_pairing_diagonal_reports_its_vehicle(tmp_path):
    # At n = 6 the tones at bins 1 and 4 are 3 bins apart, so they pair.
    scene = tmp_path / "six.cfg"
    scene.write_text(SHORT_DIAGONAL_SCENE + "n_sensing_freq = 6\nn_sensing_time = 6\n")
    out = tmp_path / "run"
    assert main(["simulate", "--scene", str(scene), "--out", str(out)]) == 0
    row = (out / "detections.csv").read_text().splitlines()[1].split(",")
    # pair_mag_db is the weaker tone against the stronger: 0 dB up to FFT rounding
    assert abs(float(row[9])) < 1e-9
    row[9] = "0"
    assert ",".join(row) == ("0,1,4,2.5,3,0.93006,0.28699,0.558036,0.478316,0,0,"
                             "undecided,0.93006,0.28699")


def test_directory_named_like_builtin_scene_runs_builtin(tmp_path, monkeypatch, capsys):
    # Once --out fig4 existed, --scene fig4 read the directory as a scene
    # file and failed with "[Errno 21] Is a directory".
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--scene", "fig4", "--out", "fig4"]) == 0
    first = (tmp_path / "fig4" / "detections.csv").read_bytes()
    assert main(["simulate", "--scene", "fig4", "--out", "fig4"]) == 0
    assert (tmp_path / "fig4" / "detections.csv").read_bytes() == first
    capsys.readouterr()
    assert main(["capabilities", "--scene", "fig4"]) == 0
    assert "178.571" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "capabilities"])
def test_directory_scene_is_refused_before_output(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "notascene").mkdir()
    outs = ["--out", "run"] if command == "simulate" else []
    assert main([command, "--scene", "notascene", *outs]) == 1
    assert "scene 'notascene' is neither a file nor a builtin name" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_simulate_unknown_scene(tmp_path, capsys):
    rc = main(["simulate", "--scene", "fig9", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "scene" in capsys.readouterr().err


def test_capabilities_table(capsys):
    assert main(["capabilities"]) == 0
    text = capsys.readouterr().out
    assert "0.372024" in text
    assert "0.191327" in text
    assert "178.571" in text
    assert "91.8367" in text
    assert "0.0204082" in text
    assert "4.2517e-05" in text


def test_capabilities_builtin_scene(capsys):
    # A builtin scene carries the table-1 block, as simulate reads it.
    assert main(["capabilities", "--scene", "fig4"]) == 0
    out = capsys.readouterr().out
    assert main(["capabilities"]) == 0
    assert capsys.readouterr().out == out
    for figure in ("0.372024", "0.191327", "178.571", "91.8367", "0.0204082",
                   "4.2517e-05"):
        assert figure in out


def test_capabilities_non_square_comb_prints_grid_figures(tmp_path, capsys):
    # simulate --estimator grid2d runs this scene, so its grid figures print;
    # a non-square comb has no diagonal allocation.
    scene = tmp_path / "oblong.cfg"
    scene.write_text(ONE_CAR_SCENE + "[ofdm]\nn_sensing_freq = 240\n")
    alloc = tmp_path / "alloc"
    assert main(["capabilities", "--scene", str(scene), "--alloc-csv", str(alloc)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in lines] == [
        "0.372024", "0.191327", "89.2857", "91.8367", "0.0102041", "n/a"]
    assert lines[-1].startswith("diagonal sensing overhead")
    assert sorted(p.name for p in alloc.iterdir()) == ["allocation_grid.csv"]
    grid = (alloc / "allocation_grid.csv").read_text().splitlines()
    assert len(grid) == 1 + 240 * 480


def test_capabilities_dense_config(tmp_path, capsys):
    scene = tmp_path / "dense.cfg"
    scene.write_text("""
[scene]
measurement_times_s = [0.0]
[[vehicle]]
name = "car"
initial_range_m = 10.0
relative_speed_mps = 1.0
rcs_m2 = 1.0
[ofdm]
n_sensing_freq = 3360
n_sensing_time = 3360
""")
    assert main(["capabilities", "--scene", str(scene)]) == 0
    out = capsys.readouterr().out
    assert "grid sensing overhead" in out
    assert "  1\n" in out


def test_capabilities_lists_positions_only_for_alloc_csv(monkeypatch, capsys):
    # The overheads come from the comb sizes; only --alloc-csv lists positions.
    monkeypatch.setattr(jcas.cli, "sensing_positions", None)
    assert main(["capabilities"]) == 0
    assert capsys.readouterr().out == TABLE1_CAPABILITIES


def test_capabilities_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scene]\nmeasurement_times_s = [0.0]\n[[vehicle]]\nname = \"x\"\n")
    assert main(["capabilities", "--scene", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_capabilities_alloc_csv(tmp_path, capsys):
    assert main(["capabilities", "--alloc-csv", str(tmp_path)]) == 0
    grid = (tmp_path / "allocation_grid.csv").read_text().splitlines()
    diag = (tmp_path / "allocation_diagonal.csv").read_text().splitlines()
    assert grid[0] == "m,n" and diag[0] == "m,n"
    assert len(grid) == 1 + 480 * 480
    assert len(diag) == 1 + 480
    assert diag[3] == "14,14"


TABLE1_CAPABILITIES = """\
range resolution [m]            0.372024
velocity resolution [m/s]       0.191327
max unambiguous range [m]       178.571
max unambiguous velocity [m/s]  91.8367
grid sensing overhead           0.0204082
diagonal sensing overhead       4.2517e-05
"""


def test_capabilities_output_pinned(tmp_path, capsys):
    # The whole stdout and the --alloc-csv files, byte for byte.
    assert main(["capabilities", "--alloc-csv", str(tmp_path / "t1")]) == 0
    assert capsys.readouterr().out == TABLE1_CAPABILITIES
    assert main(["capabilities", "--scene", "fig4"]) == 0
    assert capsys.readouterr().out == TABLE1_CAPABILITIES
    scene = tmp_path / "oblong.cfg"
    scene.write_text(ONE_CAR_SCENE + "[ofdm]\nn_sensing_freq = 240\n")
    assert main(["capabilities", "--scene", str(scene),
                 "--alloc-csv", str(tmp_path / "oblong")]) == 0
    assert capsys.readouterr().out == TABLE1_CAPABILITIES.replace(
        "178.571", "89.2857").replace("0.0204082", "0.0102041").replace(
        "4.2517e-05", "n/a")
    digests = {str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.glob("*/*.csv")}
    assert digests == {
        "t1/allocation_grid.csv":
            "e2e45c544b4dc459418fc43321135ec98001ce9d7346a78523a87587513f3e45",
        "t1/allocation_diagonal.csv":
            "aa3d896f01c4e2d88832af3ffc720b50a1c2a18c9e9f2bee71aaf4aefff0dd19",
        "oblong/allocation_grid.csv":
            "507d8f03e3f6186383628c5048c96283248fd8b9ab87ff424db521263e700558",
    }


def test_bench_counted_only(capsys):
    assert main(["bench", "--n", "480"]) == 0
    out = capsys.readouterr().out
    assert "n=480: counted ratio 960" in out


def test_bench_default_sizes(capsys):
    assert main(["bench"]) == 0
    out = capsys.readouterr().out
    for n, ratio in ((64, 128), (128, 256), (256, 512)):
        assert f"n={n}: counted ratio {ratio}" in out


def test_bench_csv_output(tmp_path):
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", "--n", "32", "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "algorithm,n,counted_multiplies"
    assert "grid2d,32,65536" in lines


def test_bench_csv_creates_missing_directory(tmp_path):
    csv_path = tmp_path / "out" / "bench.csv"
    assert main(["bench", "--n", "16", "--csv", str(csv_path)]) == 0
    assert csv_path.read_text().startswith("algorithm,n,counted_multiplies\n")


def test_bench_refuses_a_size_before_any_output(tmp_path, capsys):
    # Every size is counted before the table prints or the CSV's directory exists.
    csv_path = tmp_path / "out" / "bench.csv"
    assert main(["bench", "--n", "16", "--n", "1", "--csv", str(csv_path)]) == 1
    assert capsys.readouterr() == ("", "error: n must be >= 2\n")
    assert not csv_path.parent.exists()


def test_bench_refuses_a_csv_path_before_any_output(tmp_path, capsys):
    # The CSV is written before the table prints, so a path under a regular
    # file prints nothing.
    (tmp_path / "file").write_text("")
    assert main(["bench", "--n", "8", "--csv", str(tmp_path / "file" / "x.csv")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: [Errno 17]")


def test_capabilities_refuses_an_alloc_directory_before_any_output(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert main(["capabilities", "--alloc-csv", str(tmp_path / "file")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: [Errno 17]")


BENCH_DEFAULT_OUT = """\
algorithm        n    multiplies
grid2d          64        524288
diag            64          4096
grid2d         128       4194304
diag           128         16384
grid2d         256      33554432
diag           256         65536
n=64: counted ratio 128
n=128: counted ratio 256
n=256: counted ratio 512
"""

BENCH_16_16_OUT = """\
algorithm        n    multiplies
grid2d          16          8192
diag            16           256
grid2d          16          8192
diag            16           256
n=16: counted ratio 32
n=16: counted ratio 32
"""

BENCH_16_480_CSV = """\
algorithm,n,counted_multiplies
grid2d,16,8192
diag,16,256
grid2d,480,221184000
diag,480,230400
"""


@pytest.mark.parametrize("sizes,expected", [([], BENCH_DEFAULT_OUT),
                                            (["16", "16"], BENCH_16_16_OUT)],
                         ids=["default", "repeated-size"])
def test_bench_full_stdout(sizes, expected, capsys):
    # A repeated size prints its rows and its ratio line once per --n.
    argv = ["bench"] + [a for n in sizes for a in ("--n", n)]
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_bench_full_csv(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", "--n", "16", "--n", "480", "--csv", str(csv_path)]) == 0
    assert csv_path.read_text() == BENCH_16_480_CSV
    assert capsys.readouterr().out.endswith("n=16: counted ratio 32\n"
                                            "n=480: counted ratio 960\n")


@pytest.mark.parametrize("option", [["--repeats", "3"], ["--counted-only"]],
                         ids=["repeats", "counted-only"])
def test_bench_rejects_timing_options(option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n", "16", *option])
    assert exc.value.code == 2
    assert option[0] in capsys.readouterr().err
