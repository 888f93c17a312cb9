"""Image fidelity: mean squared error and peak signal-to-noise ratio.

MSE divides by the total sample count (width x height x channels for RGB),
so two images whose every component differs by exactly 1 score an MSE of
exactly 1.  PSNR is 10 * log10(255^2 / MSE), infinite for identical inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch


def mse(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape {a.shape} vs {b.shape}")
    # one working array, int32 for 8-bit samples: the int64 sum is an exact
    # integer below 2^53, so dividing it gives the same float as the mean of
    # int64 squares (nan for empty input, like that mean)
    sq = a.astype(np.int32 if a.dtype.itemsize == b.dtype.itemsize == 1 else np.int64)
    sq -= b
    np.square(sq, out=sq)
    return float(sq.sum(dtype=np.int64) / sq.size)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """PSNR in dB; math.inf when the images are identical."""
    err = mse(a, b)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / err)


def format_psnr(value: float) -> str:
    """The CLI rendering: two decimals with a dB suffix, or bare "inf"."""
    if math.isinf(value):
        return "inf"
    return f"{value:.2f} dB"
