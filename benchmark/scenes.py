"""Seeded highway scenes and the three benchmark workloads.

The program under test only ever sees the scene files written here. Every
vehicle keeps a range inside ``[R_MIN_M, R_MAX_M]`` and a speed magnitude
inside ``[V_MIN_MPS, V_MAX_MPS]`` for the whole scene. That keeps each
target within ``jcas.capabilities()`` (178.6 m, 91.8 m/s for the default
geometry) and keeps the dual-tone sum bin below the DFT length.
Measurement times are ``k * FRAME_INTERVAL_S``, strictly increasing.

Draws are balanced rather than independent: speed and range are stratified
(within a scene, and across scenes for each vehicle slot); at every range
band half of the vehicles approach (negative speed) and the RCS values of
``RCS_CHOICES_M2`` occur equally often. Balancing keeps per-scene cost and
the hit rates alike from one seed to the next without fixing any vehicle's
kinematics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

FRAME_INTERVAL_S = 0.03
R_MIN_M, R_MAX_M = 5.0, 100.0
V_MIN_MPS, V_MAX_MPS = 2.0, 25.0
RCS_CHOICES_M2 = (1.0, 3.16, 10.0, 100.0)  # motorcycle, car, van, truck


@dataclass(frozen=True)
class Workload:
    """Scene shape and ``jcas simulate`` options of one workload."""

    n_scenes: int
    n_vehicles: int
    n_frames: int
    estimator: str   # diag | grid2d
    window: str      # rect | hamming | adaptive; the grid estimator ignores it
    snr_db: float

    def simulate_args(self) -> list[str]:
        return ["--estimator", self.estimator, "--window", self.window,
                "--snr-db", repr(self.snr_db)]


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "diag-track": Workload(60, 16, 30, "diag", "adaptive", 20.0),
    "grid-map": Workload(64, 16, 1, "grid2d", "rect", 20.0),
    "scene-sweep": Workload(2400, 1, 5, "diag", "hamming", 40.0),
}


@dataclass(frozen=True)
class Vehicle:
    name: str
    initial_range_m: float
    speed_mps: float
    rcs_m2: float

    def range_at(self, t: float) -> float:
        return self.initial_range_m + self.speed_mps * t


@dataclass(frozen=True)
class SceneSpec:
    name: str
    vehicles: tuple[Vehicle, ...]
    times_s: tuple[float, ...]
    sim_seed: int  # passed to ``jcas simulate --seed``

    def text(self) -> str:
        times = ", ".join(repr(t) for t in self.times_s)
        lines = ["[scene]", f"frame_interval_s = {FRAME_INTERVAL_S!r}",
                 f"measurement_times_s = [{times}]"]
        for v in self.vehicles:
            lines += ["", "[[vehicle]]", f'name = "{v.name}"',
                      f"initial_range_m = {v.initial_range_m!r}",
                      f"relative_speed_mps = {v.speed_mps!r}",
                      f"rcs_m2 = {v.rcs_m2!r}"]
        return "\n".join(lines) + "\n"


def _balanced(rng: random.Random, values: tuple, n_scenes: int,
              n_per_scene: int) -> list[list]:
    """Per scene, one value for each of ``n_per_scene`` range strata.

    Each block of ``len(values)`` neighbouring strata holds every value once,
    in random order, so near and far vehicles get the same mix. The strata
    left over take values from a shuffled pool shared by all scenes, so the
    whole draw is balanced too.
    """
    rounds, rest = divmod(n_per_scene, len(values))
    pool = [values[k % len(values)] for k in range(n_scenes * rest)]
    rng.shuffle(pool)
    return [[v for _ in range(rounds) for v in rng.sample(values, len(values))]
            + pool[i * rest:(i + 1) * rest] for i in range(n_scenes)]


def _stratum(outer: int, inner: int, n_outer: int, n_inner: int, u: float) -> float:
    """Point of [0, 1) in sub-stratum ``inner`` of stratum ``outer``."""
    return (outer + (inner + u) / n_inner) / n_outer


def make_scenes(seed: int, prefix: str, n_scenes: int, n_vehicles: int,
                n_frames: int) -> list[SceneSpec]:
    """``n_scenes`` scenes of ``n_vehicles`` vehicles over ``n_frames`` frames."""
    rng = random.Random(f"{prefix}:{seed}")
    times = tuple(round(k * FRAME_INTERVAL_S, 6) for k in range(n_frames))
    duration = times[-1]
    # Sub-stratum of each vehicle slot across scenes.
    speed_sub = [rng.sample(range(n_scenes), n_scenes) for _ in range(n_vehicles)]
    range_sub = [rng.sample(range(n_scenes), n_scenes) for _ in range(n_vehicles)]
    signs = _balanced(rng, (-1.0, 1.0), n_scenes, n_vehicles)
    rcs = _balanced(rng, RCS_CHOICES_M2, n_scenes, n_vehicles)
    scenes = []
    for i in range(n_scenes):
        speed_strata = rng.sample(range(n_vehicles), n_vehicles)
        range_strata = rng.sample(range(n_vehicles), n_vehicles)
        vehicles = []
        for j in range(n_vehicles):
            mag = V_MIN_MPS + (V_MAX_MPS - V_MIN_MPS) * _stratum(
                speed_strata[j], speed_sub[j][i], n_vehicles, n_scenes, rng.random())
            speed = signs[i][range_strata[j]] * mag
            lo = R_MIN_M + max(0.0, -speed * duration)
            hi = R_MAX_M - max(0.0, speed * duration)
            if lo >= hi:
                raise ValueError(f"a {duration} s scene cannot keep {speed} m/s in range")
            r0 = lo + (hi - lo) * _stratum(range_strata[j], range_sub[j][i],
                                           n_vehicles, n_scenes, rng.random())
            vehicles.append(Vehicle(f"v{j}", round(r0, 3), round(speed, 3),
                                    rcs[i][range_strata[j]]))
        scenes.append(SceneSpec(f"{prefix}{i:03d}", tuple(vehicles), times,
                                rng.randrange(2 ** 31)))
    return scenes


def workload_scenes(workload: str, seed: int) -> list[SceneSpec]:
    w = WORKLOADS[workload]
    return make_scenes(seed, workload, w.n_scenes, w.n_vehicles, w.n_frames)


def scene_paths(scenes: list[SceneSpec], directory: Path) -> list[Path]:
    return [directory / f"{s.name}.scene" for s in scenes]


def write_scenes(scenes: list[SceneSpec], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for s, path in zip(scenes, scene_paths(scenes, directory)):
        path.write_text(s.text())
