"""Sensing-resource allocations over the subcarrier x symbol block.

Two layouts: a grid comb (one sensing signal every L_f subcarriers and every
L_t symbols) and a diagonal (one sensing signal per diagonal step
(k*L_f, k*L_t)). Positions are listed as index pairs, not a dense mask; the
diagonal occupies only N cells of an N_c x N_sym block, so a mask would be
almost entirely empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .config import OfdmConfig


class AllocationKind(Enum):
    GRID = "grid"
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class Allocation:
    """One scheme's sensing signals over cfg's block."""

    kind: AllocationKind
    cfg: OfdmConfig

    @cached_property
    def entries(self) -> tuple[tuple[int, int], ...]:
        """Ordered (subcarrier, symbol) positions, built on first read: the
        grid's row-major over (frequency step, time step), the diagonal's ascending."""
        l_f = self.cfg.freq_comb_spacing
        l_t = self.cfg.time_comb_spacing
        if self.kind is AllocationKind.GRID:
            return tuple((i * l_f, j * l_t)
                         for i in range(self.cfg.n_sensing_freq)
                         for j in range(self.cfg.n_sensing_time))
        return tuple((k * l_f, k * l_t) for k in range(self.cfg.n_diag))


def build_allocation(cfg: OfdmConfig, kind: AllocationKind) -> Allocation:
    """Lay out sensing signals for the given scheme; a diagonal needs equal comb sizes."""
    if kind is AllocationKind.DIAGONAL:
        cfg.validate_diagonal()
    elif kind is not AllocationKind.GRID:
        raise ValueError(f"unknown allocation kind: {kind!r}")
    return Allocation(kind=kind, cfg=cfg)


def overhead(alloc: Allocation) -> float:
    """Fraction of the block's resource elements spent on sensing, from the comb sizes."""
    cfg = alloc.cfg
    count = (cfg.n_sensing_freq * cfg.n_sensing_time if alloc.kind is AllocationKind.GRID
             else cfg.n_diag)
    return count / (cfg.n_subcarriers * cfg.n_symbols)
