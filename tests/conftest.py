import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from jcas.config import OfdmConfig


@pytest.fixture(scope="session")
def table1() -> OfdmConfig:
    return OfdmConfig.table1()


@pytest.fixture()
def small_cfg() -> OfdmConfig:
    # Same comb spacings as the full system, 10x smaller combs; keeps the
    # brute-force oracles affordable.
    return OfdmConfig(
        carrier_freq=28e9,
        subcarrier_spacing=120e3,
        n_subcarriers=336,
        n_symbols=336,
        n_sensing_freq=48,
        n_sensing_time=48,
    )


@pytest.fixture(scope="session")
def unequal_cfg() -> OfdmConfig:
    # Time comb spacing L_t = 4 against L_f = 7: the Doppler axis spans
    # n_symbols = 1920 symbols, not n_subcarriers = 3360.
    return dataclasses.replace(OfdmConfig.table1(), n_symbols=1920)
