"""OFDM joint-communication-and-sensing radar simulator.

Grid-comb 2D-DFT and diagonal-comb 1D-DFT range-velocity estimation, a
modulation-symbol-domain channel model, highway scenes and multi-frame
ambiguity resolution. The paper's counted-multiply table is jcas.cli.count_ops.
"""

from types import ModuleType as _ModuleType

from .channel import (DiagonalVector, LinkBudget, NoiseSpec, SymbolMatrix, rx_power,
                      synthesize_diag, synthesize_grid, target_amplitudes)
from .config import (OfdmConfig, SensingCapabilities, Target, bin_range, bin_velocity,
                     capabilities, doppler_bin, overhead, range_bin, sensing_positions,
                     tone_pair_bins, wrap_reason)
from .diag_estimator import (Peak, PeakPair, RadarImage, WindowKind, apply_window,
                             candidates, detect_peaks_1d, diag_spectrum, pair_peaks)
from .grid_estimator import GridDetection, bins_to_estimate, detect_peaks_2d, range_doppler_map
from .scenario import Scene, SceneFile, VehicleSpec, builtin_scene, load_scene, targets_at
from .tracking import Track, TrackTable, resolve_ambiguity

# Importing a name from a submodule also binds the submodule: list the names only.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
