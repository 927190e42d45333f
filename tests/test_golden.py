"""Byte-for-byte regression guard on `jcas simulate` outputs.

Each directory under tests/golden/ holds the files one seeded run wrote.
Every file is compared byte for byte, except the grid runs' rdmap_<t>.csv
files: they hold 230,400 rows each, so only their SHA-256 digests are kept,
in rdmap.sha256 (``sha256sum`` format).
"""

import hashlib
from pathlib import Path

import pytest

from jcas.cli import main

GOLDEN = Path(__file__).parent / "golden"
DIAG_CASES = [(scene, window) for scene in ("fig4", "fig5")
              for window in ("rect", "hamming", "adaptive")]


def _simulate(tmp_path, *args):
    out = tmp_path / "run"
    assert main(["simulate", *args, "--seed", "1", "--out", str(out)]) == 0
    return out


def _assert_matches_golden(out: Path, golden: Path) -> None:
    digest_file = golden / "rdmap.sha256"
    digests = ({name: digest for digest, name in
                map(str.split, digest_file.read_text().splitlines())}
               if digest_file.exists() else {})
    names = sorted(p.name for p in golden.iterdir() if p != digest_file)
    assert sorted(p.name for p in out.iterdir()) == sorted([*names, *digests])
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("scene,window", DIAG_CASES)
def test_diag_outputs_match_golden(tmp_path, scene, window):
    out = _simulate(tmp_path, "--scene", scene, "--window", window)
    _assert_matches_golden(out, GOLDEN / f"{scene}_{window}")


def test_grid_outputs_match_golden(tmp_path):
    out = _simulate(tmp_path, "--scene", "fig4", "--estimator", "grid2d")
    _assert_matches_golden(out, GOLDEN / "fig4_grid2d")


def test_noisy_both_estimators_match_golden(tmp_path):
    # 20 dB noise puts a dozen noise pairs and a non-zero floor into every
    # output, which the noiseless cases never exercise.
    out = _simulate(tmp_path, "--scene", "fig5", "--estimator", "both",
                    "--window", "adaptive", "--snr-db", "20")
    _assert_matches_golden(out, GOLDEN / "fig5_both_snr20")


HIGHWAY6_SCENE = """
[scene]
measurement_times_s = [0.0, 0.03, 0.06, 0.09]
""" + "".join(f"""
[[vehicle]]
name = "{name}"
initial_range_m = {r}
relative_speed_mps = {v}
rcs_m2 = {rcs}
""" for name, r, v, rcs in [("car", 12.5, 8.0, 3.16), ("truck", 41.0, -6.5, 100.0),
                            ("moto", 27.0, 15.0, 1.0), ("van", 63.0, 3.0, 10.0),
                            ("car2", 88.0, -12.0, 3.16), ("bike", 7.5, 2.5, 1.0)])


def test_noisy_multi_frame_tracking_matches_golden(tmp_path):
    # Six vehicles over four 20 dB frames: pair ownership, branch scores and
    # resolved tracks (9 "a", 3 "b") carried across noisy frames.
    scene = tmp_path / "highway6.toml"
    scene.write_text(HIGHWAY6_SCENE)
    out = tmp_path / "run"
    assert main(["simulate", "--scene", str(scene), "--window", "adaptive",
                 "--snr-db", "20", "--seed", "3", "--out", str(out)]) == 0
    _assert_matches_golden(out, GOLDEN / "highway6_adaptive_snr20")


def test_noisy_dense_grid_matches_golden(tmp_path):
    # The same six vehicles through the grid comb at 20 dB: four noisy maps
    # of 230,400 cells each, five vehicles above the -30 dB threshold (car2
    # at 88 m stays under it), so the rdmap text covers a dense noise floor.
    scene = tmp_path / "highway6.toml"
    scene.write_text(HIGHWAY6_SCENE)
    out = tmp_path / "run"
    assert main(["simulate", "--scene", str(scene), "--estimator", "grid2d",
                 "--snr-db", "20", "--seed", "3", "--out", str(out)]) == 0
    _assert_matches_golden(out, GOLDEN / "highway6_grid2d_snr20")
