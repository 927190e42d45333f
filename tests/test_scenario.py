import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jcas.scenario import (Scene, VehicleSpec, builtin_scene, load_scene,
                           targets_at)


def test_fig4_builtin():
    scene = builtin_scene("fig4")
    assert len(scene.vehicles) == 2
    assert scene.measurement_times_s == (0.0, 0.2, 0.6)
    a, b = scene.vehicles
    assert (a.initial_range_m, a.relative_speed_mps, a.rcs_m2) == (6.0, 20.0, 3.16)
    assert (b.initial_range_m, b.relative_speed_mps, b.rcs_m2) == (39.0, 5.0, 3.16)


def test_fig5_builtin():
    scene = builtin_scene("fig5")
    assert len(scene.vehicles) == 3
    rc = {v.name: v.rcs_m2 for v in scene.vehicles}
    assert rc == {"C": 3.16, "D": 1.0, "E": 100.0}
    assert scene.measurement_times_s == (0.0,)


def test_unknown_builtin():
    with pytest.raises(ValueError, match="unknown builtin scene"):
        builtin_scene("fig6")


def test_targets_at_fig4_checkpoints():
    scene = builtin_scene("fig4")
    t0 = targets_at(scene, 0.0)
    assert [t.range_m for t in t0] == [6.0, 39.0]
    t1 = targets_at(scene, 0.2)
    assert [t.range_m for t in t1] == pytest.approx([10.0, 40.0])
    t2 = targets_at(scene, 0.6)
    assert [t.range_m for t in t2] == pytest.approx([18.0, 42.0])
    assert all(t.radial_velocity_mps in (20.0, 5.0) for t in t2)


def test_targets_preserve_order_for_equal_speeds():
    scene = Scene(vehicles=(VehicleSpec("x", 5.0, 7.0, 1.0),
                            VehicleSpec("y", 12.0, 7.0, 1.0)),
                  measurement_times_s=(0.0,))
    for t in (0.0, 1.0, 3.5):
        rs = [tt.range_m for tt in targets_at(scene, t)]
        assert rs == sorted(rs)


def test_passed_vehicle_dropped():
    scene = Scene(vehicles=(VehicleSpec("x", 5.0, -10.0, 1.0),),
                  measurement_times_s=(0.0,))
    assert targets_at(scene, 0.0)
    assert targets_at(scene, 1.0) == []


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        targets_at(builtin_scene("fig4"), -0.1)


_CAR = VehicleSpec("A", 10.0, 5.0, 3.16)


@pytest.mark.parametrize("build", [
    lambda: VehicleSpec("A", True, 5.0, 3.16),           # a bool is no 1 m range
    lambda: VehicleSpec(5, 10.0, 5.0, 3.16),
    lambda: VehicleSpec("A", 10.0, 5.0, 3.16, lane=7),
    lambda: VehicleSpec("A", "10", 5.0, 3.16),
    lambda: Scene((_CAR,), (True,)),
    lambda: Scene((_CAR,), ("a",)),
], ids=["range-bool", "name-int", "lane-int", "range-str", "time-bool", "time-str"])
def test_scene_built_in_python_refuses_what_a_file_refuses(build):
    # The file path used to check these on the types' behalf, so Python
    # callers got them accepted or as a TypeError.
    with pytest.raises(ValueError):
        build()


SCENE_TEXT = """
# two-car scene
[scene]
frame_interval_s = 0.030
measurement_times_s = [0.0, 0.2]

[[vehicle]]
name = "lead"
initial_range_m = 25.0
relative_speed_mps = 4.0
rcs_dbsm = 5.0
lane = "center"

[[vehicle]]
name = "far"
initial_range_m = 60.0
relative_speed_mps = 12.0
rcs_m2 = 2.5
"""


def test_load_scene_file(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text(SCENE_TEXT)
    sf = load_scene(path)
    assert sf.ofdm is None
    scene = sf.scene
    assert scene.measurement_times_s == (0.0, 0.2)
    lead, far = scene.vehicles
    assert lead.rcs_m2 == pytest.approx(10 ** 0.5)
    assert lead.lane == "center"
    assert far.rcs_m2 == 2.5
    assert far.lane is None


def test_file_numbers_load_as_floats(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text(SCENE_TEXT.replace("initial_range_m = 25.0", "initial_range_m = 25")
                    .replace("[0.0, 0.2]", "0.5"))
    scene = load_scene(path).scene
    assert type(scene.vehicles[0].initial_range_m) is float
    assert scene.vehicles[0].initial_range_m == 25.0
    assert scene.measurement_times_s == (0.5,)
    assert type(scene.measurement_times_s[0]) is float


@pytest.mark.parametrize("old, new, message", [
    ('name = "lead"\n', "",
     "bad [[vehicle]] block: VehicleSpec.__init__() missing 1 required positional "
     "argument: 'name'"),
    ('lane = "center"', 'lane = "center"\ncolour = "red"', "bad [[vehicle]] block: "),
    ("frame_interval_s = 0.030", "frame_interval_s = 0.030\nvehicles = 1",
     "bad [scene] section: "),
    ("frame_interval_s = 0.030", "frame_interval_s = 0.030\nlength_s = 1.0",
     "bad [scene] section: "),
], ids=["missing-name", "unknown-vehicle-key", "scene-vehicles", "unknown-scene-key"])
def test_missing_or_unknown_key_named_like_ofdm(tmp_path, old, new, message):
    path = tmp_path / "scene.cfg"
    path.write_text(SCENE_TEXT.replace(old, new, 1))
    with pytest.raises(ValueError) as info:
        load_scene(path)
    assert str(info.value).startswith(message)


def test_load_scene_with_ofdm_override(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text(SCENE_TEXT + """
[ofdm]
n_sensing_freq = 3360
n_sensing_time = 3360
""")
    sf = load_scene(path)
    assert sf.ofdm is not None
    assert sf.ofdm.n_sensing_freq == 3360
    assert sf.ofdm.freq_comb_spacing == 1


@pytest.mark.parametrize("mutation", [
    ("name = \"lead\"", ""),                        # missing key
    ("rcs_dbsm = 5.0", "rcs_dbsm = 5.0\nrcs_m2 = 1.0"),  # both rcs keys
    ("[[vehicle]]", "[[car]]"),                     # unknown section
    ("initial_range_m = 25.0", "initial_range_m"),  # no assignment
    ("[0.0, 0.2]", "[0.0, [0.1]]"),                 # list where a number belongs
    ("initial_range_m = 25.0", "initial_range_m = [10, 2]"),
    ("frame_interval_s = 0.030", "frame_interval_s = [0.03]"),
    ("[0.0, 0.2]", "[]"),                           # no measurement time
    # spellings TOML 1.0 refuses
    ('lane = "center"', "lane = center"),           # unquoted string
    ("initial_range_m = 25.0", 'initial_range_m = "25.0"'),  # quoted number
    ("initial_range_m = 25.0", "initial_range_m = .5"),
    ("initial_range_m = 25.0", "initial_range_m = 25."),
    ("rcs_m2 = 2.5", "rcs_m2 = NaN"),
    ("rcs_dbsm = 5.0", "rcs_dbsm = 4000.0"),        # 10 ** 400 overflows a float
])
def test_malformed_scene_files(tmp_path, mutation):
    old, new = mutation
    path = tmp_path / "scene.cfg"
    path.write_text(SCENE_TEXT.replace(old, new, 1))
    with pytest.raises(ValueError):
        load_scene(path)


@pytest.mark.parametrize("value", ["0.0", "-0.03", "nan", "inf", "[0.03]"])
def test_frame_interval_checked_but_unused(tmp_path, value):
    # Scene files may still carry the key; no arithmetic reads it.
    path = tmp_path / "scene.cfg"
    path.write_text(SCENE_TEXT.replace("frame_interval_s = 0.030", "frame_interval_s = 0.5"))
    kept = load_scene(path)
    path.write_text(SCENE_TEXT.replace("frame_interval_s = 0.030\n", ""))
    assert load_scene(path) == kept
    path.write_text(SCENE_TEXT.replace("0.030", value))
    with pytest.raises(ValueError, match="frame_interval_s must"):
        load_scene(path)


def test_scene_without_vehicles_rejected(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text("[scene]\nframe_interval_s = 0.03\n")
    with pytest.raises(ValueError, match="no"):
        load_scene(path)


@pytest.mark.parametrize("extra,match", [
    ("[ofdm]\nsubcarrier_spacing = 60000.0\n[ofdm]\n", r"ofdm.*\(at line"),
    ("[scene]\n", r"scene.*\(at line"),
    ("[[vehicle]]\nname = \"x\"\nname = \"y\"\n", r"\(at line 21,"),
], ids=["ofdm-section", "scene-section", "vehicle-key"])
def test_repeated_section_or_key_rejected(tmp_path, extra, match):
    path = tmp_path / "scene.cfg"
    path.write_text(SCENE_TEXT + extra)
    with pytest.raises(ValueError, match=match):
        load_scene(path)


def test_hash_inside_quotes_is_text(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text(SCENE_TEXT.replace('"lead"', '"A#1"')
                    .replace('lane = "center"', 'lane = "left" # note'))
    lead, _ = load_scene(path).scene.vehicles
    assert (lead.name, lead.lane) == ("A#1", "left")
    path.write_text(SCENE_TEXT.replace('"lead"', '"A'))
    with pytest.raises(ValueError, match=r"\(at line 8,"):
        load_scene(path)


@pytest.mark.parametrize("value", [
    "true", '"25.0"', "1979-05-27", "07:32:00", "1979-05-27T07:32:00Z", "{ m = 25.0 }",
    "1" + "0" * 400,
])
def test_number_refuses_what_is_not_an_int_or_float(tmp_path, value):
    # float(True) is 1.0, and float() of a date raises TypeError, which main
    # does not catch.
    path = tmp_path / "scene.cfg"
    path.write_text(SCENE_TEXT.replace("initial_range_m = 25.0", f"initial_range_m = {value}"))
    with pytest.raises(ValueError, match="initial_range_m must"):
        load_scene(path)


def test_rcs_dbsm_refused_only_past_the_float_range(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text(SCENE_TEXT.replace("rcs_dbsm = 5.0", "rcs_dbsm = 3000.0"))
    assert load_scene(path).scene.vehicles[0].rcs_m2 == 10.0 ** 300.0
    path.write_text(SCENE_TEXT.replace("rcs_dbsm = 5.0", "rcs_dbsm = 3090.0"))
    with pytest.raises(ValueError, match="rcs_dbsm = 3090 overflows"):
        load_scene(path)


_KEYS = st.sampled_from(["a", "name", "rcs_m2"])
_TOML_VALUES = st.recursive(
    st.one_of(
        st.sampled_from(["true", "false", "nan", "inf", "-inf", "-0.0"]),
        st.integers().map(str),
        st.floats().map(repr),
        st.text(max_size=8).map(json.dumps),
        st.dates().map(lambda d: d.isoformat()),
        st.times().map(lambda t: t.isoformat()),
        st.datetimes().map(lambda d: d.isoformat()),
    ),
    lambda inner: (st.lists(inner, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]")
                   | st.dictionaries(_KEYS, inner, max_size=3).map(
                       lambda d: "{" + ", ".join(f"{k} = {v}" for k, v in d.items()) + "}")),
    max_leaves=6,
)
_ASSIGNED = [line for line in SCENE_TEXT.splitlines() if " = " in line]


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(line=st.sampled_from(_ASSIGNED), value=_TOML_VALUES)
def test_any_toml_value_loads_or_raises_value_error(tmp_path, line, value):
    # The CLI catches ValueError only; anything else would be a traceback.
    path = tmp_path / "scene.cfg"
    key = line.split(" = ")[0]
    path.write_text(SCENE_TEXT.replace(line, f"{key} = {value}", 1))
    try:
        load_scene(path)
    except ValueError:
        pass


def test_readme_scene_example_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = re.search(r"## Scene files\n\n```toml\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "scene.toml"
    path.write_text(example)
    sf = load_scene(path)
    (lead,) = sf.scene.vehicles
    assert (lead.name, lead.rcs_m2, lead.lane) == ("lead", 3.16, "center")
    assert sf.scene.measurement_times_s == (0.0, 0.2, 0.6)
    assert sf.ofdm.subcarrier_spacing == 60000.0
    assert sf.ofdm.n_sensing_freq == 480
