"""Byte-for-byte regression guard on `jcas simulate` outputs.

Each directory under tests/golden/ holds the files one seeded run wrote.
A diagonal run is compared file by file. The grid run's rdmap_<t>.csv files
hold 230,400 rows each, so only their SHA-256 digests are kept, in
rdmap.sha256 (``sha256sum`` format), beside the full grid_detections.csv.
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


@pytest.mark.parametrize("scene,window", DIAG_CASES)
def test_diag_outputs_match_golden(tmp_path, scene, window):
    golden = GOLDEN / f"{scene}_{window}"
    out = _simulate(tmp_path, "--scene", scene, "--window", window)
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


def test_grid_outputs_match_golden(tmp_path):
    golden = GOLDEN / "fig4_grid2d"
    out = _simulate(tmp_path, "--scene", "fig4", "--estimator", "grid2d")
    digests = {name: digest for digest, name in
               map(str.split, (golden / "rdmap.sha256").read_text().splitlines())}
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["grid_detections.csv", *digests])
    assert ((out / "grid_detections.csv").read_bytes()
            == (golden / "grid_detections.csv").read_bytes())
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
