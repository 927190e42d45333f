"""Command-line front end: run_scene (scenario -> channel -> estimators) -> CSV reports.

Subcommands::

    jcas simulate     --scene <name|file> [--window rect|hamming|adaptive]
                      [--estimator diag|grid2d|both] [--snr-db F] [--seed N]
                      [--out DIR]
    jcas capabilities [--scene <name|file>] [--alloc-csv DIR]
    jcas bench        [--n SIZE ...] [--csv FILE]

Numbers are written as "%.6g" renders them (templates, or numpy-built records and "%.6g"
lines in write_rdmap_csv); identical configuration and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Iterator
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bench as bench_mod
from .channel import (LinkBudget, NoiseSpec, synthesize_diag, synthesize_grid,
                      target_amplitudes)
from .config import OfdmConfig, capabilities, overhead, sensing_positions, tone_pair_bins
from .diag_estimator import (WINDOW_MODES, DiagFrame, PeakPair, RadarImage, WindowKind,
                             process_frame)
from .grid_estimator import GridDetection, detect_peaks_2d, range_doppler_map
from .scenario import (Scene, builtin_scene, check_unambiguous_range, load_scene,
                       targets_at)
from .tracking import TrackTable, resolve_ambiguity

GRID_THRESHOLD_DB = -30.0


def fmt(x) -> str:
    """Fixed 6-significant-digit rendering of one number.

    The CSV writers render the same text in bulk: "%d" / "%.6g" templates,
    and in write_rdmap_csv "%.6g" text built in numpy.
    """
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".6g")


def _load_scene_arg(arg: str) -> tuple[Scene, OfdmConfig]:
    if (path := Path(arg)).exists() and not path.is_dir():
        sf = load_scene(arg)
        return sf.scene, sf.ofdm or OfdmConfig.table1()
    try:
        return builtin_scene(arg), OfdmConfig.table1()
    except ValueError:
        raise ValueError(f"scene {arg!r} is neither a file nor a builtin name")


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    path.write_text("\n".join([header, *rows]) + "\n")


def write_image_csv(path: Path, img: RadarImage) -> None:
    """Write a radar image's half spectrum, bins 0..N/2, as bin,magnitude_db."""
    n = len(img.magnitude_db) // 2 + 1
    args: list = [0] * (2 * n)
    args[0::2] = range(n)
    args[1::2] = img.magnitude_db[:n].tolist()
    path.write_text("bin,magnitude_db\n" + ("%d,%.6g\n" * n) % tuple(args))


_RDMAP_SCALE = np.array([1e5, 1e4, 1e3])  # 10**(5-e), e = floor(log10|x|)
_RDMAP_BLOCK_CELLS = 4096


@functools.cache
def _rdmap_digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Text of six significant digits z = 1000*hi + lo, NUL where "%.6g" has none.

    head[hi + 1000*e + 3000*(lo != 0) + 6000*(x < 0)] holds the sign, hi's digits
    and a '.' after digit e, packed to the left of 8 bytes, of which at most 5 are
    text; tail[lo] holds lo's digits and a newline in 4. Trailing zeros of the
    fraction, and a '.' with nothing after it, are NUL.
    """
    pad = (np.arange(1000)[:, None] // [100, 10, 1] % 10 + 48).astype(np.uint8)
    zeros = np.cumprod(pad[:, ::-1] == 48, axis=1).sum(axis=1)[:, None]
    j = np.arange(3)
    head = np.zeros((2, 2, 3, 1000, 8), np.uint8)
    for more in (0, 1):
        for e in range(3):
            head[0, more, e][:, j + (j > e)] = pad * ((j <= e) | more | (j < 3 - zeros))
            head[0, more, e, :, e + 1] = ord(".") * (more | (zeros[:, 0] < 2 - e))
    head[1, ..., 0] = ord("-")
    head[1, ..., 1:] = head[0, ..., :7]
    tail = np.full((1000, 4), ord("\n"), np.uint8)
    tail[:, :3] = pad * (j < 3 - zeros)
    return head.reshape(12000, 8).view(np.uint64)[:, 0], tail.view(np.uint32)[:, 0]


def write_rdmap_csv(path: Path, rd: RadarImage) -> None:
    """Write a range-Doppler map as p,q,magnitude_db, one row per cell.

    The text equals "%.6g" of every cell, byte for byte. A few map rows at a time, each
    cell fills a fixed-width record: "p,", "q,", an 8-byte head and a 4-byte tail over
    the head's unused last 3 bytes (17 bytes on a 480 x 480 map). A cell with
    1 <= |x| < 1000 after rounding takes both from _rdmap_digit_tables by its digits
    z = rint(s), s = |x| * 10**(5-e): s carries one rounding error, under 1.2e-10, so z
    is what "%.6g" rounds to unless s lies within 1e-6 of a half. Any other cell, found
    by a byte scan (count-sized numpy arrays pin heap chunks), is its own "%.6g" line
    between runs of records. replace() drops the NULs at one memchr each, which is fast
    only on records this small: they hold under one NUL each on a typical map.
    """
    db = rd.magnitude_db
    n_f, n_t = db.shape
    pw, qw = len(str(n_f - 1)) + 1, len(str(n_t - 1)) + 1
    o = pw + qw
    cell = np.dtype({"names": ["p", "q", "head", "tail"],
                     "formats": [f"S{pw}", f"S{qw}", "u8", "u4"],
                     "offsets": [0, pw, o, o + 5], "itemsize": o + 9})
    head, tail = _rdmap_digit_tables()
    step = max(1, _RDMAP_BLOCK_CELLS // n_t)
    rows = np.array([f"{p}," for p in range(n_f)], cell["p"])[:, None]
    cells = np.zeros((step, n_t), cell)
    cells["q"] = np.array([f"{q}," for q in range(n_t)], cell["q"])
    buf, rec = cells.view(np.uint8).reshape(-1), cell.itemsize
    with open(path, "wb") as f:
        f.write(b"p,q,magnitude_db\n")
        for p in range(0, n_f, step):
            x = db[p:p + step]
            block = cells[:len(x)]
            block["p"] = rows[p:p + len(x)]
            a = np.abs(x)
            ok = a >= 1
            e = (a >= 10).astype(np.intp) + (a >= 100)
            np.fmin(a, 1e3, out=a)  # NaN, |x| >= 1000 -> z >= 1e6, so no overflow
            a *= _RDMAP_SCALE[e]
            z = np.rint(a)
            a -= z
            ok &= (z < 1e6) & (np.abs(a, out=a) < 0.5 - 1e-6)
            z = z.astype(np.intp)
            hi = z // 1000
            lo = z - 1000 * hi
            hi += 1000 * e + 3000 * np.minimum(lo, 1) + 6000 * (x < 0)
            block["head"] = head.take(hi, mode="clip")  # a cell not ok may index past the end
            block["tail"] = tail[lo]
            flags, pieces, i, j = ok.tobytes(), [], 0, -1
            while (j := flags.find(0, j + 1)) >= 0:
                line = b"%d,%d,%.6g\n" % (p + j // n_t, j % n_t, x.item(j))
                pieces += buf[i * rec:j * rec], line
                i = j + 1
            pieces.append(buf[i * rec:x.size * rec])
            f.write(b"".join(pieces).replace(b"\0", b""))


# One detections.csv row: "%.6g" renders a float as fmt does, "%s" as str does.
_DETECTION_ROW = "%.6g,%s,%s,%.6g,%s,%.6g,%.6g,%.6g,%.6g,%.6g,%s,%s,%.6g,%.6g"


def _detection_rows(t: float, pairs: list[PeakPair], tracks: TrackTable) -> list[str]:
    """One detections.csv row per pair of frame t, read from its owner's row."""
    rows = []
    for pair, track in zip(pairs, tracks.owner):
        rows.append(_DETECTION_ROW % (
            t, pair.l1, pair.l2, pair.mean_bin, pair.delta_bin, *track.readings,
            pair.magnitude_db, track.track_id, track.chosen, *track.best_solution()))
    return rows


class SceneFrame(NamedTuple):
    """One non-empty frame of run_scene; an estimator the run skips leaves its fields None."""

    t: float
    diag: DiagFrame | None
    tracks: TrackTable | None  # updated in place: read owner before the next frame
    rdmap: RadarImage | None
    grid_detections: list[GridDetection] | None


def run_scene(scene: Scene, cfg: OfdmConfig, windows: tuple[WindowKind, ...], grid: bool,
              noise: NoiseSpec | None, seed: int) -> Iterator[SceneFrame]:
    """The one frame loop: each measurement time through the diagonal and the tracker
    (if windows) and the grid (if grid), yielded a frame at a time. Every refusal comes
    at the call: a negative seed, check_unambiguous_range, with windows a non-square comb
    or a tone at or past bin n_diag, and a degenerate echo power. Frames with no vehicle
    ahead are skipped; a time's index in the time list seeds that frame's phases.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    check_unambiguous_range(scene, cfg)
    if windows:
        cfg.validate_diagonal()
        for t in scene.measurement_times_s:
            for v in scene.vehicles:
                l = max(map(abs, tone_pair_bins(cfg, v.range_at(t), v.relative_speed_mps)))
                if v.range_at(t) > 0 and l >= cfg.n_diag:
                    raise ValueError(f"vehicle {v.name} at t={t:g} s puts a diagonal tone at "
                                     f"bin {l:g}, at or beyond n_diag = {cfg.n_diag}: it wraps")
    frames = [(t, targets, target_amplitudes(cfg, LinkBudget(), targets, seed, fidx))
              for fidx, t in enumerate(scene.measurement_times_s)
              if (targets := targets_at(scene, t))]

    def run() -> Iterator[SceneFrame]:
        tracks = TrackTable() if windows else None
        for t, targets, amps in frames:
            diag = rd = dets = None
            if windows:
                diag = process_frame(synthesize_diag(cfg, targets, amps, noise=noise), windows)
                tracks = resolve_ambiguity(cfg, tracks, (t, diag.pairs))
            if grid:
                rd = range_doppler_map(synthesize_grid(cfg, targets, amps, noise=noise))
                dets = detect_peaks_2d(rd, GRID_THRESHOLD_DB, cfg=cfg)
            yield SceneFrame(t, diag, tracks, rd, dets)
    return run()


def cmd_simulate(args: argparse.Namespace) -> int:
    scene, cfg = _load_scene_arg(args.scene)
    times = scene.measurement_times_s
    for a, b in zip(times, times[1:]):  # fmt is monotonic, so a clash is adjacent
        if fmt(a) == fmt(b):
            raise ValueError(f"measurement times {a!r} and {b!r} both print as "
                             f"{fmt(a)}, so one frame's files would overwrite the other's")
    windows = WINDOW_MODES[args.window] if args.estimator != "grid2d" else ()
    run_grid = args.estimator != "diag"
    noise = NoiseSpec(snr_db=args.snr_db, rng_seed=args.seed) if args.snr_db is not None else None
    frames = run_scene(scene, cfg, windows, run_grid, noise, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracks = TrackTable()  # what tracks.csv lists when no frame has a vehicle
    det_rows: list[str] = []
    grid_rows: list[str] = []
    for t, diag, tracks, rd, dets in frames:
        if windows:
            for kind, img in diag.images.items():
                suffix = f"_{kind.value}" if len(windows) > 1 else ""
                write_image_csv(out_dir / f"image_{fmt(t)}{suffix}.csv", img)
            det_rows += _detection_rows(t, diag.pairs, tracks)
        if run_grid:
            write_rdmap_csv(out_dir / f"rdmap_{fmt(t)}.csv", rd)
            grid_rows += ["%.6g,%d,%d,%.6g,%.6g,%.6g" % (
                t, det.range_bin, det.doppler_bin, det.magnitude_db, det.range_m,
                det.velocity_mps) for det in dets]
    if windows:
        _write_csv(out_dir / "detections.csv",
                   "time_s,l1,l2,l_mean,l_delta,r_eq15_m,v_eq15_mps,"
                   "r_eq16_m,v_eq16_mps,pair_mag_db,track_id,resolved,r_m,v_mps",
                   det_rows)
        track_rows = ["%s,%s,%.6g,%.6g,%s,%.6g,%.6g" % (
            tr.track_id, tr.n_frames, *tr.scores, tr.chosen, *tr.best_solution())
            for tr in tracks]
        _write_csv(out_dir / "tracks.csv",
                   "track_id,n_frames,score_a,score_b,resolved,r_m,v_mps", track_rows)
    if run_grid:
        _write_csv(out_dir / "grid_detections.csv",
                   "time_s,p,q,magnitude_db,range_m,velocity_mps", grid_rows)
    return 0


def cmd_capabilities(args: argparse.Namespace) -> int:
    cfg = OfdmConfig.table1() if args.scene is None else _load_scene_arg(args.scene)[1]
    caps = capabilities(cfg)
    # A non-square comb has no diagonal; its grid figures still print.
    square = cfg.n_sensing_freq == cfg.n_sensing_time
    lines = [
        ("range resolution [m]", fmt(caps.range_resolution)),
        ("velocity resolution [m/s]", fmt(caps.velocity_resolution)),
        ("max unambiguous range [m]", fmt(caps.max_unambiguous_range)),
        ("max unambiguous velocity [m/s]", fmt(caps.max_unambiguous_velocity)),
        ("grid sensing overhead", fmt(overhead(cfg, diagonal=False))),
        ("diagonal sensing overhead", fmt(overhead(cfg, diagonal=True)) if square else "n/a"),
    ]
    width = max(len(name) for name, _ in lines)
    for name, value in lines:
        print(f"{name:<{width}}  {value}")
    if args.alloc_csv is not None:
        out = Path(args.alloc_csv)
        out.mkdir(parents=True, exist_ok=True)
        for diagonal in (False, True) if square else (False,):
            positions = sensing_positions(cfg, diagonal)
            with open(out / f"allocation_{'diagonal' if diagonal else 'grid'}.csv", "w") as f:
                f.write("m,n\n")  # then 4096 rows at a time: never all N_f*N_t as text
                for s in range(0, len(positions), 4096):
                    f.write("".join(f"{m},{n}\n" for m, n in positions[s:s + 4096]))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    sizes = args.n or [64, 128, 256]
    counts = bench_mod.run_bench(sizes)
    rows = [(name, n, count) for n, grid, diag in counts
            for name, count in (("grid2d", grid), ("diag", diag))]
    print(f"{'algorithm':<12}{'n':>6}{'multiplies':>14}")
    for name, n, count in rows:
        print(f"{name:<12}{n:>6}{count:>14}")
    for n, grid, diag in counts:
        print(f"n={n}: counted ratio {fmt(grid / diag)}")
    if args.csv is not None:
        Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
        _write_csv(Path(args.csv), "algorithm,n,counted_multiplies",
                   [f"{name},{n},{count}" for name, n, count in rows])
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The jcas parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="jcas",
                                     description="OFDM JCAS radar simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scene through the estimators")
    sim.add_argument("--scene", required=True,
                     help="builtin scene name (fig4, fig5) or scene file path")
    sim.add_argument("--window", choices=list(WINDOW_MODES),
                     default="rect")
    sim.add_argument("--estimator", choices=["diag", "grid2d", "both"],
                     default="diag")
    sim.add_argument("--snr-db", type=float, default=None,
                     help="additive noise SNR; omit for noiseless")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default="out", help="output directory")
    sim.set_defaults(func=cmd_simulate)

    cap = sub.add_parser("capabilities",
                         help="print resolution/ambiguity figures and overhead")
    cap.add_argument("--scene", default=None,
                     help="builtin scene name or scene file; a file's [ofdm] "
                          "section overrides the defaults")
    cap.add_argument("--alloc-csv", default=None,
                     help="directory for allocation m,n CSV exports")
    cap.set_defaults(func=cmd_capabilities)

    ben = sub.add_parser("bench", help="counted complex multiplies of the two transforms")
    ben.add_argument("--n", type=int, action="append",
                     help="transform size; repeatable (default 64 128 256)")
    ben.add_argument("--csv", default=None, help="also write report CSV here")
    ben.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
