"""Discrete Fourier transforms: a counted naive O(n^2) method and numpy's FFT.

The naive method evaluates the transform sum through an explicit twiddle
matrix and, when given a counter, records one complex multiplication per
matrix-product entry. It is the baseline for the complexity comparison; the
fast method delegates to numpy's FFT, and like numpy's FFT it can write its
result into a given complex array, the input itself included. Both share one
sign/scale convention: forward DFT carries no scale, inverse carries 1/n.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class MultiplyCounter:
    """Deterministic complex-multiplication tally for the naive method."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


@lru_cache(maxsize=32)
def _twiddle(n: int, sign: int) -> np.ndarray:
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(sign * 2j * np.pi * j * k / n)


def _transform(x: np.ndarray, axis: int, method: str,
               counter: MultiplyCounter | None, sign: int,
               out: np.ndarray | None) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if method == "fast":
        if counter is not None:
            raise ValueError("only method='naive' counts multiplies; "
                             "a counter on the FFT path would read zero")
        return (np.fft.fft if sign < 0 else np.fft.ifft)(x, axis=axis, out=out)
    if method != "naive":
        raise ValueError(f"unknown transform method: {method!r}")
    if out is not None:
        raise ValueError("only method='fast' writes into out")
    n = x.shape[axis]
    if counter is not None:
        # n^2 multiplies per transformed vector, one vector per remaining cell
        counter.count += n * x.size
    out = np.tensordot(_twiddle(n, sign), np.moveaxis(x, axis, 0), axes=(1, 0))
    out = np.moveaxis(out, 0, axis)
    return out if sign < 0 else out / n


def dft(x: np.ndarray, axis: int = -1, method: str = "fast",
        counter: MultiplyCounter | None = None,
        out: np.ndarray | None = None) -> np.ndarray:
    """Forward DFT along one axis. method: 'naive' or 'fast'; only 'naive'
    counts, and only 'fast' takes out, a complex array of x's shape (x itself
    may be given) that receives and is returned as the result."""
    return _transform(x, axis, method, counter, -1, out)


def idft(x: np.ndarray, axis: int = -1, method: str = "fast",
         counter: MultiplyCounter | None = None,
         out: np.ndarray | None = None) -> np.ndarray:
    """Inverse DFT (1/n scale) along one axis; method, counter and out as for dft."""
    return _transform(x, axis, method, counter, +1, out)
