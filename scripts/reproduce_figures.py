#!/usr/bin/env python3
"""Regenerate every headline artifact as CSV under out/.

Covers the single-target dual-peak radar image, the two-car masking scene
at all three measurement times (rectangular, Hamming, and adaptive windows),
and the strong/weak three-vehicle scene under both windows.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from jcas.channel import synthesize_diag
from jcas.cli import main as jcas_main, write_image_csvs
from jcas.config import OfdmConfig, Target
from jcas.diag_estimator import WindowKind, process_frame

OUT = Path(__file__).resolve().parents[1] / "out"


def single_target_profile() -> None:
    cfg = OfdmConfig.table1()
    d = synthesize_diag(cfg, [Target(40.0, 5.0, 3.16)], np.array([1.0]))
    out = OUT / "single_target"
    out.mkdir(parents=True, exist_ok=True)
    write_image_csvs([(out / f"profile_{kind.value}.csv", img)
                      for kind, img in process_frame(d, tuple(WindowKind))[0].images.items()])
    print(f"wrote {out}/profile_*.csv")


def highway_scenes() -> None:
    for scene in ("fig4", "fig5"):
        for window in ("rect", "hamming", "adaptive"):
            out = OUT / f"{scene}_{window}"
            jcas_main(["simulate", "--scene", scene, "--window", window,
                       "--seed", "1", "--out", str(out)])
            print(f"wrote {out}/")


if __name__ == "__main__":
    single_target_profile()
    highway_scenes()
