"""Highway scene definitions: straight-line kinematics per vehicle.

A scene holds vehicles with an initial range ahead of the ego car, a
constant relative speed (positive = pulling away), and an RCS. Lateral lane
offset is metadata only; ranges evolve as initial_range + speed * t.

Scene files are plain sectioned key-value text::

    [scene]
    measurement_times_s = [0.0, 0.2, 0.6]

    [[vehicle]]
    name = "A"
    initial_range_m = 6.0
    relative_speed_mps = 20.0
    rcs_m2 = 3.16          # or rcs_dbsm = 5.0
    lane = "left"

An optional [ofdm] section may override block-geometry fields (keys matching
OfdmConfig constructor arguments). A [scene] frame_interval_s must be positive
and finite, but nothing reads it: frame times are the measurement times.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

from .config import OfdmConfig, Target, capabilities


@dataclass(frozen=True)
class VehicleSpec:
    name: str
    initial_range_m: float
    relative_speed_mps: float
    rcs_m2: float
    lane: str | None = None

    def __post_init__(self) -> None:
        if not 0 < self.initial_range_m < math.inf:
            raise ValueError(f"vehicle {self.name}: initial range must be > 0 and finite")
        if not math.isfinite(self.relative_speed_mps):
            raise ValueError(f"vehicle {self.name}: relative speed must be finite")
        if not 0 < self.rcs_m2 < math.inf:
            raise ValueError(f"vehicle {self.name}: RCS must be > 0 and finite")

    def range_at(self, t: float) -> float:
        return self.initial_range_m + self.relative_speed_mps * t


@dataclass(frozen=True)
class Scene:
    vehicles: tuple[VehicleSpec, ...]
    measurement_times_s: tuple[float, ...] = (0.0,)

    def __post_init__(self) -> None:
        times = self.measurement_times_s
        if not times or not all(0 <= t < math.inf for t in times):
            raise ValueError("measurement_times_s must be one or more finite times >= 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("measurement_times_s must be strictly increasing")


def targets_at(scene: Scene, t: float) -> list[Target]:
    """Vehicle positions at time t as channel targets.

    Vehicles whose range has dropped to zero or below (passed the ego car)
    are excluded.
    """
    if t < 0:
        raise ValueError("time must be >= 0")
    out = []
    for v in scene.vehicles:
        r = v.range_at(t)
        if r > 0:
            out.append(Target(range_m=r, radial_velocity_mps=v.relative_speed_mps,
                              rcs_m2=v.rcs_m2))
    return out


def check_unambiguous_range(scene: Scene, cfg: OfdmConfig) -> None:
    """Refuse a scene with a vehicle outside the unambiguous range or velocity.

    Such a vehicle's range or Doppler bin wraps around, so it would be
    reported modulo capabilities(cfg).max_unambiguous_range (or _velocity)
    without a sign of the aliasing. A speed is checked by its magnitude,
    a range at every measurement time.
    """
    caps = capabilities(cfg)
    for v in scene.vehicles:
        if abs(v.relative_speed_mps) >= caps.max_unambiguous_velocity:
            raise ValueError(
                f"vehicle {v.name} moves at {v.relative_speed_mps:g} m/s, at or "
                f"beyond the {caps.max_unambiguous_velocity:g} m/s unambiguous velocity")
    for t in scene.measurement_times_s:
        for v in scene.vehicles:
            r = v.range_at(t)
            if r >= caps.max_unambiguous_range:
                raise ValueError(
                    f"vehicle {v.name} at t={t:g} s is at {r:g} m, "
                    f"at or beyond the {caps.max_unambiguous_range:g} m unambiguous range")


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
    ofdm: OfdmConfig | None = None


def _parse_value(text: str):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        return tuple(_parse_value(v) for v in inner.split(",")) if inner else ()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    try:
        f = float(text)
    except ValueError:
        return text
    return int(f) if f.is_integer() and "." not in text and "e" not in text.lower() else f


def _number(key: str, value) -> float:
    """A scene number as a float; a list where a number belongs is refused."""
    if isinstance(value, tuple):
        raise ValueError(f"{key} must be a number, got a list")
    return float(value)


# A line's text before its comment: a "#" inside double quotes is text.
_BEFORE_COMMENT = re.compile(r'[^"#]*(?:"[^"]*"[^"#]*)*')


def _parse_sections(text: str) -> list[tuple[str, dict]]:
    """The file's sections in order; only [[vehicle]] may repeat, no key may."""
    sections: list[tuple[str, dict]] = []
    current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        code = _BEFORE_COMMENT.match(raw)
        if raw.startswith('"', code.end()):
            raise ValueError(f"line {lineno}: unterminated quoted value")
        line = code.group().strip()
        if not line:
            continue
        if line.startswith("["):
            name = line.strip("[]").strip()
            if not name:
                raise ValueError(f"line {lineno}: empty section header")
            if name != "vehicle" and any(name == seen for seen, _ in sections):
                raise ValueError(f"line {lineno}: section [{name}] repeated")
            current = {}
            sections.append((name, current))
        elif "=" in line:
            if current is None:
                raise ValueError(f"line {lineno}: key outside any section")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in current:
                raise ValueError(f"line {lineno}: key {key!r} repeated in [{name}]")
            current[key] = _parse_value(value)
        else:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
    return sections


def _vehicle_from(entry: dict) -> VehicleSpec:
    entry = dict(entry)
    if "rcs_dbsm" in entry:
        if "rcs_m2" in entry:
            raise ValueError("give rcs_m2 or rcs_dbsm, not both")
        entry["rcs_m2"] = 10.0 ** (_number("rcs_dbsm", entry.pop("rcs_dbsm")) / 10.0)
    try:
        spec = VehicleSpec(
            name=str(entry.pop("name")),
            initial_range_m=_number("initial_range_m", entry.pop("initial_range_m")),
            relative_speed_mps=_number("relative_speed_mps", entry.pop("relative_speed_mps")),
            rcs_m2=_number("rcs_m2", entry.pop("rcs_m2")),
            lane=str(entry.pop("lane")) if "lane" in entry else None,
        )
    except KeyError as exc:
        raise ValueError(f"vehicle block missing key {exc}") from None
    if entry:
        raise ValueError(f"unknown vehicle keys: {sorted(entry)}")
    return spec


def load_scene(path: str | Path) -> SceneFile:
    """Parse a scene file; raises ValueError on any malformed content."""
    text = Path(path).read_text()
    scene_kw: dict = {}
    vehicles: list[VehicleSpec] = []
    ofdm: OfdmConfig | None = None
    for name, entry in _parse_sections(text):
        if name == "scene":
            scene_kw = entry
        elif name == "vehicle":
            vehicles.append(_vehicle_from(entry))
        elif name == "ofdm":
            try:
                ofdm = OfdmConfig(**(OfdmConfig.table1().__dict__ | entry))
            except TypeError as exc:
                raise ValueError(f"bad [ofdm] section: {exc}") from None
        else:
            raise ValueError(f"unknown section [{name}]")
    if not vehicles:
        raise ValueError("scene file defines no [[vehicle]] blocks")
    interval = scene_kw.pop("frame_interval_s", None)
    if interval is not None and not 0 < _number("frame_interval_s", interval) < math.inf:
        raise ValueError("frame_interval_s must be positive and finite")
    times = scene_kw.pop("measurement_times_s", (0.0,))
    if not isinstance(times, tuple):
        times = (times,)
    scene = Scene(
        vehicles=tuple(vehicles),
        measurement_times_s=tuple(_number("measurement_times_s", t) for t in times),
    )
    if scene_kw:
        raise ValueError(f"unknown scene keys: {sorted(scene_kw)}")
    return SceneFile(scene=scene, ofdm=ofdm)
