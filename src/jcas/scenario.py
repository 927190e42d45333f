"""Highway scene definitions: straight-line kinematics per vehicle.

A scene holds vehicles with an initial range ahead of the ego car, a
constant relative speed (positive = pulling away), and an RCS. Lateral lane
offset is metadata only; ranges evolve as initial_range + speed * t.

Scene files are TOML 1.0, read by the standard library's tomllib::

    [scene]
    measurement_times_s = [0.0, 0.2, 0.6]   # one time may be a bare number

    [[vehicle]]
    name = "A"
    initial_range_m = 6.0
    relative_speed_mps = 20.0
    rcs_m2 = 3.16          # or rcs_dbsm = 5.0
    lane = "left"

An optional [ofdm] section may override block-geometry fields (keys matching
OfdmConfig constructor arguments). A [scene] frame_interval_s must be positive
and finite, but nothing reads it: frame times are the measurement times.

VehicleSpec, Scene and OfdmConfig check their own fields, and load_scene
calls each with its TOML table as keywords: Python and files share one check.
Whether a run's estimators can read every vehicle ahead depends on the run,
so check_readable makes that check for the estimators it is given.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass
from pathlib import Path

from .config import OfdmConfig, Target, finite_number, wrap_reason
from .diag_estimator import DEFAULT_MIN_SEPARATION


@dataclass(frozen=True)
class VehicleSpec:
    name: str
    initial_range_m: float
    relative_speed_mps: float
    rcs_m2: float
    lane: str | None = None

    def __post_init__(self) -> None:
        for key, v in (("name", self.name), ("lane", self.lane)):
            if not isinstance(v, str) and (key == "name" or v is not None):
                raise ValueError(f"vehicle {key} must be a string, got {v!r}")
        for key in ("initial_range_m", "relative_speed_mps", "rcs_m2"):
            v = finite_number(key, getattr(self, key))
            if v <= 0 and key != "relative_speed_mps":
                raise ValueError(f"vehicle {self.name}: {key} must be > 0, got {v:g}")
            object.__setattr__(self, key, v)

    def range_at(self, t: float) -> float:
        return self.initial_range_m + self.relative_speed_mps * t


@dataclass(frozen=True)
class Scene:
    vehicles: tuple[VehicleSpec, ...]
    measurement_times_s: tuple[float, ...] = (0.0,)

    def __post_init__(self) -> None:
        times = self.measurement_times_s
        # + 0.0 stores -0.0 as 0.0, whose files print as 0, and leaves every other float
        times = tuple(finite_number("measurement_times_s", t) + 0.0
                      for t in (times if isinstance(times, (list, tuple)) else (times,)))
        if not times or min(times) < 0:
            raise ValueError("measurement_times_s must be one or more finite times >= 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("measurement_times_s must be strictly increasing")
        object.__setattr__(self, "measurement_times_s", times)


def targets_at(scene: Scene, t: float) -> list[Target]:
    """Vehicle positions at time t as channel targets.

    Vehicles whose range has dropped to zero or below (passed the ego car)
    are excluded. A negative or NaN time is refused.
    """
    if not t >= 0:
        raise ValueError("time must be >= 0")
    out = []
    for v in scene.vehicles:
        r = v.range_at(t)
        if r > 0:
            out.append(Target(range_m=r, radial_velocity_mps=v.relative_speed_mps,
                              rcs_m2=v.rcs_m2))
    return out


def check_readable(scene: Scene, cfg: OfdmConfig, grid: bool, diagonal: bool) -> None:
    """Refuse a scene with a vehicle that the grid (if grid) or the diagonal (if
    diagonal) would read wrapped, at the wrong range or speed and with no sign of
    the aliasing. A vehicle is checked at each measurement time it is ahead of
    the ego car (config.wrap_reason); behind it, it is no target. The diagonal
    also needs a square comb of at least 2 * DEFAULT_MIN_SEPARATION bins: on fewer,
    no two bins are far enough apart for thinning to keep both tones of a pair.
    """
    if diagonal:
        cfg.validate_diagonal()
        if cfg.n_diag < 2 * DEFAULT_MIN_SEPARATION:
            raise ValueError(f"n_diag = {cfg.n_diag} < {2 * DEFAULT_MIN_SEPARATION}: the diagonal "
                             f"holds no two peaks {DEFAULT_MIN_SEPARATION} bins apart to pair")
    for t in scene.measurement_times_s:
        for v in scene.vehicles:
            r = v.range_at(t)
            if r > 0 and (reason := wrap_reason(cfg, r, v.relative_speed_mps, grid, diagonal)):
                raise ValueError(f"vehicle {v.name} at t={t:g} s {reason}")


_BUILTIN = {
    "fig4": Scene(
        vehicles=(
            VehicleSpec("A", 6.0, 20.0, 3.16, lane="left"),
            VehicleSpec("B", 39.0, 5.0, 3.16, lane="right"),
        ),
        measurement_times_s=(0.0, 0.2, 0.6),
    ),
    "fig5": Scene(
        vehicles=(
            VehicleSpec("C", 10.6, 20.0, 3.16, lane="left"),
            VehicleSpec("D", 40.0, 3.0, 1.0, lane="center"),
            VehicleSpec("E", 40.2, 5.0, 100.0, lane="right"),
        ),
        measurement_times_s=(0.0,),
    ),
}


def builtin_scene(name: str) -> Scene:
    """Named two-car masking scene ("fig4") or car/motorcycle/truck scene ("fig5")."""
    try:
        return _BUILTIN[name]
    except KeyError:
        raise ValueError(f"unknown builtin scene {name!r}; "
                         f"choose from {sorted(_BUILTIN)}") from None


@dataclass(frozen=True)
class SceneFile:
    scene: Scene
    ofdm: OfdmConfig  # table 1, with the file's [ofdm] keys in place of its own


def _table(doc: dict, name: str) -> dict:
    """Section [name] of the file; {} if the file has none."""
    table = doc.get(name, {})
    if not isinstance(table, dict):
        raise ValueError(f"{name} must be one table, written [{name}]")
    return table


def _built(section: str, cls, table: dict, **fixed):
    """cls(**fixed, **table); a missing or unknown key's TypeError is a ValueError."""
    try:
        return cls(**fixed, **table)
    except TypeError as exc:
        raise ValueError(f"bad {section}: {exc}") from None


def _vehicle_from(entry: dict) -> VehicleSpec:
    entry = dict(entry)
    if "rcs_dbsm" in entry:
        if "rcs_m2" in entry:
            raise ValueError("give rcs_m2 or rcs_dbsm, not both")
        dbsm = finite_number("rcs_dbsm", entry.pop("rcs_dbsm"))
        try:
            entry["rcs_m2"] = 10.0 ** (dbsm / 10.0)
        except OverflowError:
            raise ValueError(f"rcs_dbsm = {dbsm:g} overflows the float range") from None
    return _built("[[vehicle]] block", VehicleSpec, entry)


def load_scene(path: str | Path) -> SceneFile:
    """Parse a TOML scene file; raises ValueError on any malformed content.

    A TOML syntax error (TOMLDecodeError, naming its line and column) and a
    file that is not UTF-8 (UnicodeDecodeError) are ValueErrors too.
    """
    with open(path, "rb") as f:
        doc = tomllib.load(f)
    unknown = sorted(doc.keys() - {"scene", "vehicle", "ofdm"})
    if unknown:
        raise ValueError(f"unknown section [{unknown[0]}]")
    blocks = doc.get("vehicle", [])
    if not isinstance(blocks, list) or not all(isinstance(b, dict) for b in blocks):
        raise ValueError("vehicles must be [[vehicle]] blocks")
    if not blocks:
        raise ValueError("scene file defines no [[vehicle]] blocks")
    vehicles = tuple(_vehicle_from(b) for b in blocks)
    ofdm = _built("[ofdm] section", OfdmConfig, OfdmConfig.table1().__dict__ | _table(doc, "ofdm"))
    scene_kw = dict(_table(doc, "scene"))
    if finite_number("frame_interval_s", scene_kw.pop("frame_interval_s", 1.0)) <= 0:
        raise ValueError("frame_interval_s must be positive and finite")
    scene = _built("[scene] section", Scene, scene_kw, vehicles=vehicles)
    return SceneFile(scene=scene, ofdm=ofdm)
