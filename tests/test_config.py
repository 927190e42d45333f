import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from jcas.config import OfdmConfig, Target, capabilities


def test_table1_derived_quantities(table1):
    assert table1.bandwidth == pytest.approx(403.2e6)
    assert table1.freq_comb_spacing == 7
    assert table1.time_comb_spacing == 7
    assert table1.useful_symbol_duration == pytest.approx(1 / 120e3)


def test_capabilities_table1(table1):
    caps = capabilities(table1)
    # exact values from the closed-form expressions
    assert caps.range_resolution == pytest.approx(3e8 / (2 * 403.2e6), rel=1e-12)
    assert caps.range_resolution == pytest.approx(0.372024, abs=5e-7)
    assert caps.max_unambiguous_range == pytest.approx(178.571, abs=5e-4)
    assert caps.velocity_resolution == pytest.approx(0.191327, abs=5e-7)
    assert caps.max_unambiguous_velocity == pytest.approx(91.8367, abs=5e-5)


def test_capability_identities(table1):
    caps = capabilities(table1)
    # unambiguous velocity is the resolution scaled by the comb size
    assert caps.max_unambiguous_velocity == pytest.approx(
        table1.n_sensing_time * caps.velocity_resolution, rel=1e-12)
    # unambiguous range equals the comb size times the comb's range quantum
    comb_quantum = caps.max_unambiguous_range / table1.n_sensing_freq
    assert comb_quantum == pytest.approx(
        3e8 / (2 * table1.freq_comb_spacing * 120e3 * table1.n_sensing_freq),
        rel=1e-12)


def test_doubling_freq_comb_doubles_unambiguous_range():
    base = OfdmConfig(
        carrier_freq=28e9, subcarrier_spacing=120e3,
        n_subcarriers=3360, n_symbols=3360,
        n_sensing_freq=240, n_sensing_time=480)
    doubled = dataclasses.replace(base, n_sensing_freq=480)
    c0, c1 = capabilities(base), capabilities(doubled)
    assert c1.max_unambiguous_range == pytest.approx(2 * c0.max_unambiguous_range)
    assert c1.range_resolution == c0.range_resolution


def test_capabilities_pure(table1):
    a = capabilities(table1)
    b = capabilities(OfdmConfig.table1())
    assert a == b


def test_non_integral_comb_spacing_rejected():
    with pytest.raises(ValueError, match="comb spacing"):
        OfdmConfig(carrier_freq=28e9, subcarrier_spacing=120e3,
                   n_subcarriers=3360, n_symbols=3360,
                   n_sensing_freq=481, n_sensing_time=480)


@pytest.mark.parametrize("comb", [{"n_sensing_freq": 1}, {"n_sensing_time": 1}],
                         ids=["frequency", "time"])
def test_one_signal_comb_rejected(table1, comb):
    # A 1-point Hamming window does not exist, so such a run used to fail
    # after --out existed.
    with pytest.raises(ValueError, match="at least 2 sensing signals"):
        dataclasses.replace(table1, **comb)


def test_useful_symbol_duration_follows_spacing(table1):
    cfg = dataclasses.replace(table1, subcarrier_spacing=60e3)
    assert cfg.useful_symbol_duration == 1.0 / 60e3
    assert table1.useful_symbol_duration == 1.0 / 120e3


def test_fields_are_the_independent_values(table1):
    # n_diag is the comb size and no duration enters any arithmetic, so
    # none of them is a field.
    assert [f.name for f in dataclasses.fields(OfdmConfig)] == [
        "carrier_freq", "subcarrier_spacing", "n_subcarriers", "n_symbols",
        "n_sensing_freq", "n_sensing_time", "speed_of_light"]
    assert isinstance(OfdmConfig.n_diag, property)
    assert table1.n_diag == 480
    assert dataclasses.replace(table1, n_sensing_freq=240, n_sensing_time=240).n_diag == 240


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(OfdmConfig)])
def test_bool_field_refused(table1, field):
    # bool is an int subclass: "carrier_freq = true" would read as 1 Hz.
    with pytest.raises(ValueError, match=f"{field} must be a finite number, got True"):
        dataclasses.replace(table1, **{field: True})


def test_diagonal_validation():
    cfg = OfdmConfig(carrier_freq=28e9, subcarrier_spacing=120e3,
                     n_subcarriers=3360, n_symbols=3360,
                     n_sensing_freq=480, n_sensing_time=240)
    with pytest.raises(ValueError, match="diagonal"):
        cfg.validate_diagonal()


@given(st.floats(min_value=-100, max_value=-1e-6))
def test_negative_target_range_rejected(r):
    with pytest.raises(ValueError):
        Target(range_m=r, radial_velocity_mps=0.0, rcs_m2=1.0)


def test_zero_rcs_rejected():
    with pytest.raises(ValueError):
        Target(range_m=10.0, radial_velocity_mps=0.0, rcs_m2=0.0)


@pytest.mark.parametrize("range_m,velocity", [(math.nan, 0.0), (10.0, math.inf)])
def test_non_finite_target_rejected(range_m, velocity):
    with pytest.raises(ValueError):
        Target(range_m, velocity, 1.0)
