"""Image fidelity: mean squared error and peak signal-to-noise ratio.

Both inputs hold uint8 samples (``errors.check_samples``).  MSE divides by
the total sample count (width x height x channels for RGB), so two images
whose every component differs by exactly 1 score an MSE of exactly 1.  PSNR
is 10 * log10(255^2 / MSE), infinite for identical inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, check_samples
from .histshift import BLOCK


def squared_error(a: np.ndarray, b: np.ndarray) -> np.int64:
    """The exact sum of squared differences of two same-shaped uint8 arrays."""
    a, b = check_samples(a, "a PSNR input"), check_samples(b, "a PSNR input")
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape {a.shape} vs {b.shape}")
    # BLOCK samples at a time in int16: a square up to 255^2 wraps but reads back as uint16
    a, b = a.reshape(-1), b.reshape(-1)
    total = np.int64(0)
    for start in range(0, a.size, BLOCK):
        sq = a[start : start + BLOCK].astype(np.int16)
        sq -= b[start : start + BLOCK]
        np.square(sq, out=sq)
        total += sq.view(np.uint16).sum(dtype=np.int64)
    return total


def mse(a: np.ndarray, b: np.ndarray) -> float:
    # the int64 sum is an exact integer below 2^53, so dividing it gives the
    # same float as the mean of int64 squares (nan for empty input, like that mean)
    return float(squared_error(a, b) / np.size(a))


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """PSNR in dB; math.inf when the images are identical."""
    return psnr_of_mse(mse(a, b))


def psnr_of_mse(err: float) -> float:
    """10 * log10(255^2 / err); math.inf for an error of 0."""
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / err)


def format_psnr(value: float) -> str:
    """The CLI rendering: two decimals with a dB suffix, or bare "inf"."""
    if math.isinf(value):
        return "inf"
    return f"{value:.2f} dB"
