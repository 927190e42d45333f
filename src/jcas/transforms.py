"""Discrete Fourier transforms: naive O(n^2) kernels and FFT-backed fast path.

The naive kernels evaluate the transform sum through an explicit twiddle
matrix and, when given a counter, record one complex multiplication per
matrix-product entry. They are the baseline for the complexity comparison;
the fast path delegates to numpy's FFT. Both share one sign/scale convention:
forward DFT carries no scale, inverse carries 1/n.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class MultiplyCounter:
    """Deterministic complex-multiplication tally for the naive kernels."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, n: int) -> None:
        self.count += n


@lru_cache(maxsize=32)
def _twiddle(n: int, sign: int) -> np.ndarray:
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(sign * 2j * np.pi * j * k / n)


def _apply_matrix(w: np.ndarray, x: np.ndarray, axis: int,
                  counter: MultiplyCounter | None) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    n = w.shape[0]
    if x.shape[axis] != n:
        raise ValueError(f"axis {axis} has length {x.shape[axis]}, expected {n}")
    if counter is not None:
        # n^2 multiplies per transformed vector, one vector per remaining cell
        counter.add(n * x.size)
    moved = np.moveaxis(x, axis, 0)
    out = np.tensordot(w, moved, axes=(1, 0))
    return np.moveaxis(out, 0, axis)


def naive_dft(x: np.ndarray, axis: int = -1,
              counter: MultiplyCounter | None = None) -> np.ndarray:
    n = np.asarray(x).shape[axis]
    return _apply_matrix(_twiddle(n, -1), x, axis, counter)


def naive_idft(x: np.ndarray, axis: int = -1,
               counter: MultiplyCounter | None = None) -> np.ndarray:
    n = np.asarray(x).shape[axis]
    return _apply_matrix(_twiddle(n, +1), x, axis, counter) / n


def fast_dft(x: np.ndarray, axis: int = -1) -> np.ndarray:
    return np.fft.fft(np.asarray(x, dtype=complex), axis=axis)


def fast_idft(x: np.ndarray, axis: int = -1) -> np.ndarray:
    return np.fft.ifft(np.asarray(x, dtype=complex), axis=axis)


def _transform(naive, fast, x: np.ndarray, axis: int, method: str,
               counter: MultiplyCounter | None) -> np.ndarray:
    if method == "naive":
        return naive(x, axis=axis, counter=counter)
    if method != "fast":
        raise ValueError(f"unknown transform method: {method!r}")
    if counter is not None:
        raise ValueError("only method='naive' counts multiplies; "
                         "a counter on the FFT path would read zero")
    return fast(x, axis=axis)


def dft(x: np.ndarray, axis: int = -1, method: str = "fast",
        counter: MultiplyCounter | None = None) -> np.ndarray:
    """Forward DFT along one axis. method: 'naive' or 'fast'; only 'naive' counts."""
    return _transform(naive_dft, fast_dft, x, axis, method, counter)


def idft(x: np.ndarray, axis: int = -1, method: str = "fast",
         counter: MultiplyCounter | None = None) -> np.ndarray:
    """Inverse DFT (1/n scale) along one axis; methods as for dft."""
    return _transform(naive_idft, fast_idft, x, axis, method, counter)
