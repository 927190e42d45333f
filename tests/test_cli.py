import numpy as np
import pytest

from jcas.cli import fmt, main

DET_HEADER = ("time_s,l1,l2,l_mean,l_delta,r_eq15_m,v_eq15_mps,"
              "r_eq16_m,v_eq16_mps,pair_mag_db,track_id,resolved,r_m,v_mps")


def _read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_fmt_six_significant_digits():
    assert fmt(0.37202380952) == "0.372024"
    assert fmt(178.57142857) == "178.571"
    assert fmt(4.2517006802e-05) == "4.2517e-05"
    assert fmt(3) == "3"
    assert fmt(np.float64(0.2)) == "0.2"


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


def test_simulate_adaptive_writes_both_images(tmp_path):
    out = tmp_path / "run"
    main(["simulate", "--scene", "fig4", "--window", "adaptive",
          "--seed", "1", "--out", str(out)])
    assert (out / "image_0_rect.csv").exists()
    assert (out / "image_0_hamming.csv").exists()


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


def test_simulate_single_tone_model(tmp_path):
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
    assert main(["simulate", "--scene", str(scene), "--model", "single-tone",
                 "--out", str(out)]) == 0
    # one tone, no pairing possible: empty detections but a valid image
    _, rows = _read_csv(out / "detections.csv")
    assert rows == []


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
n_diag = 3360
""")
    assert main(["capabilities", "--scene", str(scene)]) == 0
    out = capsys.readouterr().out
    assert "grid sensing overhead" in out
    assert "  1\n" in out


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


def test_bench_counted_only(capsys):
    assert main(["bench", "--n", "480", "--counted-only", "--repeats", "3"]) == 0
    out = capsys.readouterr().out
    assert "n=480: counted ratio 960" in out


def test_bench_default_sizes(capsys):
    assert main(["bench", "--counted-only"]) == 0
    out = capsys.readouterr().out
    for n, ratio in ((64, 128), (128, 256), (256, 512)):
        assert f"n={n}: counted ratio {ratio}" in out


def test_bench_csv_output(tmp_path):
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", "--n", "32", "--repeats", "3",
                 "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "algorithm,n,counted_multiplies,wall_time_ns"
    assert any(line.startswith("grid2d,32,65536,") for line in lines)


def test_bench_csv_creates_missing_directory(tmp_path):
    csv_path = tmp_path / "out" / "bench.csv"
    assert main(["bench", "--n", "16", "--counted-only", "--repeats", "3",
                 "--csv", str(csv_path)]) == 0
    assert csv_path.read_text().startswith("algorithm,n,counted_multiplies,")


def test_bench_rejects_single_repeat(capsys):
    assert main(["bench", "--n", "16", "--repeats", "1"]) == 1
    assert "repeats" in capsys.readouterr().err
