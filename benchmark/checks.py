"""Per-operation output checks and the truth oracle for ``jcas simulate``.

The expected file set, CSV headers and row counts follow the CLI contract
in the README for the default 480-signal geometry (the generated scenes
carry no ``[ofdm]`` section). The oracle compares the reported readings of
each frame with the scene kinematics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from scenes import SceneSpec, Workload

DET_HEADER = ("time_s,l1,l2,l_mean,l_delta,r_eq15_m,v_eq15_mps,r_eq16_m,v_eq16_mps,"
              "pair_mag_db,track_id,resolved,r_m,v_mps")
TRACK_HEADER = "track_id,n_frames,score_a,score_b,resolved,r_m,v_mps"
IMAGE_HEADER = "bin,magnitude_db"
RDMAP_HEADER = "p,q,magnitude_db"
GRID_DET_HEADER = "time_s,p,q,magnitude_db,range_m,velocity_mps"
IMAGE_ROWS = 480 // 2 + 1
RDMAP_ROWS = 480 * 480

# A truth is hit when a reported reading of its frame lies within one
# resolution cell of the default geometry: 0.372024 m in range and
# 0.191327 m/s in velocity (``jcas capabilities``). Fixed here, not read
# from the program under test.
RANGE_TOL_M = 0.372024
VELOCITY_TOL_MPS = 0.191327


def time_key(t: float) -> str:
    """Rendering of a measurement time in file names and CSV rows."""
    return format(float(t), ".6g")


@dataclass
class OpCheck:
    """Outcome of checking one ``simulate`` output directory."""

    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    rows_written: int = 0
    bytes_written: int = 0
    # time key -> reported (range m, velocity m/s) readings of that frame
    readings: dict[str, list[tuple[float, float]]] = field(default_factory=dict)


def expected_files(scene: SceneSpec, workload: Workload) -> set[str]:
    keys = [time_key(t) for t in scene.times_s]
    if workload.estimator == "grid2d":
        return {f"rdmap_{k}.csv" for k in keys} | {"grid_detections.csv"}
    suffixes = ("_rect", "_hamming") if workload.window == "adaptive" else ("",)
    return ({f"image_{k}{s}.csv" for k in keys for s in suffixes}
            | {"detections.csv", "tracks.csv"})


def _rows(text: str, header: str, n_fields: int, name: str, check: OpCheck) -> list[list[str]]:
    lines = text.split("\n")
    if lines[0] != header:
        check.errors.append(f"{name}: header {lines[0]!r}")
        return []
    if lines[-1] != "":
        check.errors.append(f"{name}: no trailing newline")
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(r) != n_fields for r in rows):
        check.errors.append(f"{name}: a row does not have {n_fields} fields")
        return []
    return rows


def _readings(rows: list[list[str]], r_col: int, v_col: int, keys: set[str],
              name: str, check: OpCheck) -> None:
    for row in rows:
        if row[0] not in keys:
            check.errors.append(f"{name}: unknown time {row[0]!r}")
            return
        check.readings.setdefault(row[0], []).append((float(row[r_col]), float(row[v_col])))


def check_output(out_dir: Path, scene: SceneSpec, workload: Workload) -> OpCheck:
    """Check file set, headers, row counts and fields of one run's output."""
    check = OpCheck()
    expected = expected_files(scene, workload)
    found = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    if found != expected:
        check.errors.append(f"files: missing {sorted(expected - found)[:3]}, "
                            f"unexpected {sorted(found - expected)[:3]}")
        return check
    keys = {time_key(t) for t in scene.times_s}
    for name in sorted(found):
        data = (out_dir / name).read_bytes()
        check.digests[name] = hashlib.sha256(data).hexdigest()
        check.bytes_written += len(data)
        n_rows = data.count(b"\n") - 1
        check.rows_written += n_rows
        if name.startswith(("image_", "rdmap_")):
            header, n_expected = ((IMAGE_HEADER, IMAGE_ROWS) if name.startswith("image_")
                                  else (RDMAP_HEADER, RDMAP_ROWS))
            if not data.startswith(header.encode() + b"\n") or not data.endswith(b"\n"):
                check.errors.append(f"{name}: bad header or ending")
            if n_rows != n_expected:
                check.errors.append(f"{name}: {n_rows} rows, expected {n_expected}")
        elif name == "detections.csv":
            rows = _rows(data.decode(), DET_HEADER, 14, name, check)
            _readings(rows, 12, 13, keys, name, check)
            det_tracks = {int(r[10]) for r in rows}
            if any(r[11] not in ("a", "b", "undecided") for r in rows):
                check.errors.append(f"{name}: bad resolved value")
        elif name == "tracks.csv":
            rows = _rows(data.decode(), TRACK_HEADER, 7, name, check)
            track_ids = [int(r[0]) for r in rows]
            if len(set(track_ids)) != len(track_ids):
                check.errors.append(f"{name}: duplicate track ids")
        elif name == "grid_detections.csv":
            rows = _rows(data.decode(), GRID_DET_HEADER, 6, name, check)
            _readings(rows, 4, 5, keys, name, check)
    if workload.estimator == "diag" and not check.errors:
        unknown = {i for i in det_tracks if i >= 0} - set(track_ids)
        if unknown:
            check.errors.append(f"detections.csv: track ids {sorted(unknown)[:3]} "
                                "missing from tracks.csv")
    return check


def hits(scene: SceneSpec, readings: dict[str, list[tuple[float, float]]]
         ) -> tuple[int, int, int]:
    """(truths, range hits, range-and-velocity hits) of one scene's output."""
    truths = range_hits = rv_hits = 0
    for t in scene.times_s:
        frame = readings.get(time_key(t), [])
        for v in scene.vehicles:
            r_true = v.range_at(t)
            if r_true <= 0:
                continue
            truths += 1
            near = [vel for r, vel in frame if abs(r - r_true) <= RANGE_TOL_M]
            range_hits += bool(near)
            rv_hits += any(abs(vel - v.speed_mps) <= VELOCITY_TOL_MPS for vel in near)
    return truths, range_hits, rv_hits
