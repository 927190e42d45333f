"""OFDM joint-communication-and-sensing radar simulator.

Grid-comb 2D-DFT and diagonal-comb 1D-DFT range-velocity estimation, a
modulation-symbol-domain channel model, highway scenes, multi-frame
ambiguity resolution, and a transform complexity benchmark.
"""

from .bench import count_ops, run_bench
from .channel import (DiagonalVector, LinkBudget, NoiseSpec, SymbolMatrix, add_awgn,
                      rx_power, synthesize_diag, synthesize_grid, target_amplitudes)
from .config import (OfdmConfig, SensingCapabilities, Target, bin_range, bin_velocity,
                     capabilities, doppler_bin, overhead, range_bin, sensing_positions,
                     tone_pair_bins)
from .diag_estimator import (Peak, PeakPair, RadarImage, WindowKind, apply_window,
                             candidates, detect_peaks_1d, diag_spectrum, pair_peaks, psl)
from .grid_estimator import GridDetection, bins_to_estimate, detect_peaks_2d, range_doppler_map
from .scenario import Scene, SceneFile, VehicleSpec, builtin_scene, load_scene, targets_at
from .tracking import Hypothesis, TrackTable, resolve_ambiguity

__all__ = [name for name in dir() if not name.startswith("_")]
