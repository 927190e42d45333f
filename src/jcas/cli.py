"""Command-line front end: run_scene (scenario -> channel -> estimators) -> CSV reports.

Subcommands::

    jcas simulate     --scene <name|file> [--window rect|hamming|adaptive]
                      [--estimator diag|grid2d|both] [--snr-db F] [--seed N]
                      [--out DIR]
    jcas capabilities [--scene <name|file>] [--alloc-csv DIR]
    jcas bench        [--n SIZE ...] [--csv FILE]

Every real number is written as "%.6g" renders it, every integer as plain decimal:
"%" templates for file names, printed figures and the small CSVs, and for the radar
images and range-Doppler maps one numpy kernel, _g6_text, whose text equals "%.6g" byte
for byte. run_scene runs diagonal frames a block at a time. simulate writes each
rdmap_<t>.csv as its frame comes, and the image_<t>.csv files after the frame loop, all
in one _g6_text call unless they pass _IMAGE_FLUSH_CELLS cells. Identical configuration
and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from collections.abc import Iterator
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channel import (DiagonalVector, LinkBudget, NoiseSpec, SymbolMatrix, synthesize_diag,
                      synthesize_grid, target_amplitudes)
from .config import OfdmConfig, capabilities, overhead, seed_number, sensing_positions
from .diag_estimator import (WINDOW_MODES, DiagFrame, PeakPair, RadarImage, WindowKind,
                             diag_spectrum, process_frame)
from .grid_estimator import GridDetection, detect_peaks_2d, range_doppler_map
from .scenario import Scene, builtin_scene, check_readable, load_scene, targets_at
from .tracking import Track, TrackTable, resolve_ambiguity
from .transforms import MultiplyCounter

GRID_THRESHOLD_DB = -30.0


def _load_scene_arg(arg: str) -> tuple[Scene, OfdmConfig]:
    if (path := Path(arg)).exists() and not path.is_dir():
        sf = load_scene(arg)
        return sf.scene, sf.ofdm
    try:
        return builtin_scene(arg), OfdmConfig.table1()
    except ValueError:
        raise ValueError(f"scene {arg!r} is neither a file nor a builtin name")


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    path.write_text("\n".join([header, *rows]) + "\n")


_DIGIT_SCALE = np.array([1e5, 1e4, 1e3])  # 10**(5-e), e = floor(log10|x|)
_RDMAP_BLOCK_CELLS = 4096
_DIAG_BLOCK_CELLS = 16384  # run_scene's most cells per block of diagonal frames
# cmd_simulate writes its buffered images once they hold this many cells.
_IMAGE_FLUSH_CELLS = 65536


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
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


@functools.cache
def _record_dtype(widths: tuple[int, ...]) -> np.dtype:
    """A record of NUL-padded label fields of the given widths, then an 8-byte head and
    a 4-byte tail over the head's unused last 3 bytes."""
    *offsets, o = itertools.accumulate(widths, initial=0)
    return np.dtype({"names": [f"label{i}" for i in range(len(widths))] + ["head", "tail"],
                     "formats": [f"S{w}" for w in widths] + ["u8", "u4"],
                     "offsets": [*offsets, o, o + 5], "itemsize": o + 9})


def _g6_text(x: np.ndarray, *labels: np.ndarray) -> bytes:
    """Lines of x's cells in C order, each its labels' text, x as "%.6g" and a newline.

    Each of labels is a byte-string array that broadcasts to x's shape, its last axis 1
    or x's, and gives the line's next prefix field. Each cell fills a fixed-width
    _record_dtype record: the labels, NUL-padded, then a head and a tail. A cell with
    1 <= |x| < 1000 after rounding takes both from _digit_tables by its digits
    z = rint(s), s = |x| * 10**(5-e): s carries one rounding error, under 1.2e-10, so z
    is what "%.6g" rounds to unless s lies within 1e-6 of a half. Any other cell, found
    by a byte scan (count-sized numpy arrays pin heap chunks), is its record's prefix
    and its own "%.6g" line between runs of records. replace() drops the NULs at one
    memchr each, which is fast only on records this small: they hold under one NUL each
    on a typical map.
    """
    cells = np.empty(x.shape, _record_dtype(tuple(label.itemsize for label in labels)))
    # np.repeat, as numpy copies a text from a zero stride (one along a row) slowly
    for name, label in zip(cells.dtype.names, labels):
        cells[name] = np.repeat(label, x.shape[-1] // label.shape[-1], axis=-1)
    head, tail = _digit_tables()
    a = np.abs(x)
    ok = a >= 1
    e = (a >= 10).astype(np.intp) + (a >= 100)
    np.fmin(a, 1e3, out=a)  # NaN, |x| >= 1000 -> z >= 1e6, so no overflow
    a *= _DIGIT_SCALE[e]
    z = np.rint(a)
    a -= z
    ok &= (z < 1e6) & (np.abs(a, out=a) < 0.5 - 1e-6)
    z = z.astype(np.intp)
    hi = z // 1000
    lo = z - 1000 * hi
    hi += 1000 * e + 3000 * np.minimum(lo, 1) + 6000 * (x < 0)
    cells["head"] = head.take(hi, mode="clip")  # a cell not ok may index past the end
    cells["tail"] = tail[lo]
    buf, rec = cells.reshape(-1).view(np.uint8), cells.itemsize
    o = cells.dtype.fields["head"][1]  # the prefix's length
    flags, pieces, i, j = ok.tobytes(), [], 0, -1
    while (j := flags.find(0, j + 1)) >= 0:
        pieces += buf[i * rec:j * rec + o], b"%.6g\n" % x.item(j)
        i = j + 1
    pieces.append(buf[i * rec:x.size * rec])
    return b"".join(pieces).replace(b"\0", b"")


@functools.cache
def _labels(n: int) -> np.ndarray:
    """Read-only labels b"0," ... b"{n-1},", built once per n."""
    labels = np.array([f"{i}," for i in range(n)], "S")
    labels.flags.writeable = False
    return labels


def write_image_csvs(images: list[tuple[Path, RadarImage]]) -> None:
    """Write each radar image's half spectrum, bins 0..N/2, as bin,magnitude_db to its path.

    The text equals "%d,%.6g" of every bin, byte for byte. All the images' lines are
    made by one _g6_text call, and split per file at every (N/2 + 1)-th newline.
    """
    if not images:
        return
    db = np.stack([img.magnitude_db[:len(img.magnitude_db) // 2 + 1] for _, img in images])
    n = db.shape[1]
    text = _g6_text(db, _labels(n))
    ends = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n"))[n - 1::n] + 1
    view, start = memoryview(text), 0
    for (path, _), end in zip(images, ends.tolist()):
        with open(path, "wb") as f:
            f.write(b"bin,magnitude_db\n")
            f.write(view[start:end])
        start = end


def write_rdmap_csv(path: Path, rd: RadarImage) -> None:
    """Write a range-Doppler map as p,q,magnitude_db, one row per cell.

    The text equals "%d,%d,%.6g" of every cell, byte for byte: _g6_text makes it a few
    map rows at a time, with the p and q labels of _labels.
    """
    db = rd.magnitude_db
    n_f, n_t = db.shape
    step = max(1, _RDMAP_BLOCK_CELLS // n_t)
    rows, cols = _labels(n_f)[:, np.newaxis], _labels(n_t)
    with open(path, "wb") as f:
        f.write(b"p,q,magnitude_db\n")
        for p in range(0, n_f, step):
            f.write(_g6_text(db[p:p + step], rows[p:p + step], cols))


# One detections.csv row: "%.6g" for each float, "%s" for what str renders.
_DETECTION_ROW = "%.6g,%s,%s,%.6g,%s,%.6g,%.6g,%.6g,%.6g,%.6g,%s,%s,%.6g,%.6g"


def _detection_rows(t: float, pairs: list[PeakPair], owner: list[Track]) -> list[str]:
    """One detections.csv row per pair of frame t, read from its owner's row."""
    return [_DETECTION_ROW % (
        t, pair.l1, pair.l2, pair.mean_bin, pair.delta_bin, tr.r_a, tr.v_a, tr.r_b, tr.v_b,
        pair.magnitude_db, tr.track_id, tr.chosen, tr.r_m, tr.v_mps)
        for pair, tr in zip(pairs, owner)]


class SceneFrame(NamedTuple):
    """One non-empty frame of run_scene; an estimator the run skips leaves its fields None."""

    t: float
    diag: DiagFrame | None
    tracks: TrackTable | None  # updated in place: its rows hold the latest frame's state
    owner: list[Track] | None  # each pair's owning track, its row as this frame left it
    rdmap: RadarImage | None
    grid_detections: list[GridDetection] | None


def run_scene(scene: Scene, cfg: OfdmConfig, windows: tuple[WindowKind, ...], grid: bool,
              snr_db: float | None, seed: int) -> Iterator[SceneFrame]:
    """The one frame loop: each measurement time through the diagonal and the tracker
    (if windows) and the grid (if grid), yielded a frame at a time. The diagonal frames
    go to process_frame in blocks of up to _DIAG_BLOCK_CELLS cells, each block made when
    its first frame is asked for. snr_db adds noise seeded by seed (None: noiseless).
    Every refusal comes at the call: a seed config.seed_number refuses, an snr_db
    NoiseSpec refuses, what check_readable refuses for the estimators the run uses, and
    a degenerate echo power. Frames with no vehicle ahead are skipped; a time's index in
    the time list seeds that frame's phases.
    """
    seed = seed_number("seed", seed)
    noise = NoiseSpec(snr_db, rng_seed=seed) if snr_db is not None else None
    check_readable(scene, cfg, grid, bool(windows))
    frames = [(t, targets, target_amplitudes(cfg, LinkBudget(), targets, seed, fidx))
              for fidx, t in enumerate(scene.measurement_times_s)
              if (targets := targets_at(scene, t))]

    def run() -> Iterator[SceneFrame]:
        tracks = TrackTable() if windows else None
        step = max(1, _DIAG_BLOCK_CELLS // cfg.n_diag)
        blocks = (DiagonalVector(np.stack([synthesize_diag(cfg, targets, amps, noise=noise).values
                                           for _, targets, amps in frames[s:s + step]]))
                  for s in range(0, len(frames), step))
        diags = (diag for block in blocks for diag in process_frame(block, windows))
        for (t, targets, amps), diag in zip(frames, diags if windows else itertools.repeat(None)):
            owner = rd = dets = None
            if windows:
                tracks = resolve_ambiguity(cfg, tracks, (t, diag.pairs))
                owner = tracks.rows(tracks.owner)
            if grid:
                rd = range_doppler_map(synthesize_grid(cfg, targets, amps, noise=noise))
                dets = detect_peaks_2d(rd, GRID_THRESHOLD_DB, cfg=cfg)
            yield SceneFrame(t, diag, tracks, owner, rd, dets)
    return run()


def cmd_simulate(args: argparse.Namespace) -> int:
    scene, cfg = _load_scene_arg(args.scene)
    times = scene.measurement_times_s
    for a, b in zip(times, times[1:]):  # "%.6g" is monotonic, so a clash is adjacent
        if (text := "%.6g" % a) == "%.6g" % b:
            raise ValueError(f"measurement times {a!r} and {b!r} both print as "
                             f"{text}, so one frame's files would overwrite the other's")
    windows = WINDOW_MODES[args.window] if args.estimator != "grid2d" else ()
    run_grid = args.estimator != "diag"
    frames = run_scene(scene, cfg, windows, run_grid, args.snr_db, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracks = TrackTable()  # what tracks.csv lists when no frame has a vehicle
    det_rows: list[str] = []
    grid_rows: list[str] = []
    images: list[tuple[Path, RadarImage]] = []  # written in bursts of _IMAGE_FLUSH_CELLS
    cells = 0
    for t, diag, tracks, owner, rd, dets in frames:
        if windows:
            for kind, img in diag.images.items():
                suffix = f"_{kind.value}" if len(windows) > 1 else ""
                images.append((out_dir / ("image_%.6g%s.csv" % (t, suffix)), img))
                cells += len(img.magnitude_db) // 2 + 1
            if cells >= _IMAGE_FLUSH_CELLS:
                write_image_csvs(images)
                images, cells = [], 0
            det_rows += _detection_rows(t, diag.pairs, owner)
        if run_grid:
            write_rdmap_csv(out_dir / ("rdmap_%.6g.csv" % t), rd)
            grid_rows += ["%.6g,%d,%d,%.6g,%.6g,%.6g" % (
                t, det.range_bin, det.doppler_bin, det.magnitude_db, det.range_m,
                det.velocity_mps) for det in dets]
    write_image_csvs(images)
    if windows:
        _write_csv(out_dir / "detections.csv",
                   "time_s,l1,l2,l_mean,l_delta,r_eq15_m,v_eq15_mps,"
                   "r_eq16_m,v_eq16_mps,pair_mag_db,track_id,resolved,r_m,v_mps",
                   det_rows)
        track_rows = ["%s,%s,%.6g,%.6g,%s,%.6g,%.6g" % (
            tr.track_id, tr.n_frames, tr.score_a, tr.score_b, tr.chosen, tr.r_m, tr.v_mps)
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
        ("range resolution [m]", "%.6g" % caps.range_resolution),
        ("velocity resolution [m/s]", "%.6g" % caps.velocity_resolution),
        ("max unambiguous range [m]", "%.6g" % caps.max_unambiguous_range),
        ("max unambiguous velocity [m/s]", "%.6g" % caps.max_unambiguous_velocity),
        ("grid sensing overhead", "%.6g" % overhead(cfg, diagonal=False)),
        ("diagonal sensing overhead", "%.6g" % overhead(cfg, diagonal=True) if square else "n/a"),
    ]
    if args.alloc_csv is not None:  # before any output: a refused directory prints nothing
        out = Path(args.alloc_csv)
        out.mkdir(parents=True, exist_ok=True)
        for diagonal in (False, True) if square else (False,):
            positions = sensing_positions(cfg, diagonal)
            with open(out / f"allocation_{'diagonal' if diagonal else 'grid'}.csv", "w") as f:
                f.write("m,n\n")  # then 4096 rows at a time: never all N_f*N_t positions
                while rows := "".join(f"{m},{n}\n" for m, n in itertools.islice(positions, 4096)):
                    f.write(rows)
    width = max(len(name) for name, _ in lines)
    for name, value in lines:
        print(f"{name:<{width}}  {value}")
    return 0


def count_ops(n: int) -> tuple[int, int]:
    """Complex multiplies (grid, diag) of each estimator's own naive transform of an
    n-point block: the grid's n row DFTs and n column IDFTs, 2*n**3, and the diagonal's
    one DFT, n**2. The counter is incremented in the naive method, so the counts are
    exact and portable, and their ratio is 2n for every n.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    grid, diag = MultiplyCounter(), MultiplyCounter()
    range_doppler_map(SymbolMatrix(np.ones((n, n))), method="naive", counter=grid)
    diag_spectrum(DiagonalVector(np.ones(n)), method="naive", counter=diag)
    return grid.count, diag.count


def cmd_bench(args: argparse.Namespace) -> int:
    counts = [(n, *count_ops(n)) for n in args.n or [64, 128, 256]]
    rows = [(name, n, count) for n, grid, diag in counts
            for name, count in (("grid2d", grid), ("diag", diag))]
    if args.csv is not None:  # before any output: a refused path prints nothing
        Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
        _write_csv(Path(args.csv), "algorithm,n,counted_multiplies",
                   [f"{name},{n},{count}" for name, n, count in rows])
    print(f"{'algorithm':<12}{'n':>6}{'multiplies':>14}")
    for name, n, count in rows:
        print(f"{name:<12}{n:>6}{count:>14}")
    for n, grid, diag in counts:
        print("n=%d: counted ratio %.6g" % (n, grid / diag))
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
