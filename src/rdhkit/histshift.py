"""Histogram-shift reversible embedding on gray planes.

Histogram shifting is the reversible host primitive: samples strictly
between the peak bin (most frequent value) and an empty zero bin move one
step toward the zero bin, freeing the bin next to the peak; each sample
equal to the peak then encodes one payload bit in place.  Every touched
sample moves by exactly 1, and the inverse walk restores the plane
bit-exactly.  Plain LSB substitution is NOT reversible on its own and is
used only where the original bits are preserved elsewhere.

The kernels keep each sample at one byte: the shift and its inverse add or
subtract a boolean mask, and the payload moves through boolean masks of the
peak and mark samples, never through arrays of positions.  Only counting
widens (``np.bincount`` makes each sample an 8-byte index), so
``count_values`` counts BLOCK samples at a time, a fixed 512 KB temporary.
Embedding counts nothing itself: its capacity check counts the peak mask.

All functions accept numpy uint8 arrays of any shape (flat and strided
views of image planes included) and return new arrays of the same shape.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    CapacityExceeded,
    NoZeroBin,
    PayloadOverrun,
    ZeroBinNotEmpty,
)

# samples per pass wherever a whole-plane pass would widen every sample
# (np.bincount here, the squares in metrics.mse): the temporary stays fixed
BLOCK = 1 << 16


def count_values(flat: np.ndarray) -> np.ndarray:
    """The 256-bin histogram of a flat uint8 array, counted BLOCK samples at a time."""
    hist = np.zeros(256, dtype=np.intp)
    for start in range(0, flat.size, BLOCK):
        hist += np.bincount(flat[start : start + BLOCK], minlength=256)
    return hist


def plan_hs(plane: np.ndarray) -> tuple[int, int, int]:
    """Choose (peak, zero, capacity) for a plane.

    Peak is the most frequent value (ties go to the smallest value); zero is
    the nearest empty bin above the peak, falling back to the nearest empty
    bin below.  Capacity equals the peak count.
    """
    flat = np.asarray(plane, dtype=np.uint8).reshape(-1)
    if flat.size == 0:
        raise ValueError("cannot plan an embedding on an empty plane")
    hist = count_values(flat)
    peak = int(hist.argmax())  # argmax returns the smallest index on ties
    capacity = int(hist[peak])
    empty = np.flatnonzero(hist == 0)
    if empty.size == 0:
        raise NoZeroBin("all 256 gray values occur in the plane")
    above = empty[empty > peak]
    if above.size:
        zero = int(above[0])
    else:
        zero = int(empty[empty < peak][-1])
    return peak, zero, capacity


def hs_embed(plane: np.ndarray, bits, peak: int, zero: int) -> np.ndarray:
    """Shift the open interval between peak and zero, then encode bits at the peak."""
    _check_bins(peak, zero)
    bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
    if bits.size and bits.max() > 1:
        raise ValueError("payload bits must be 0 or 1")
    plane = np.asarray(plane, dtype=np.uint8)
    # the shift moves no sample onto or off the peak, so this stays its mask
    at_peak = plane == peak
    if (plane == zero).any():
        raise ZeroBinNotEmpty(f"bin {zero} is not empty")
    count = np.count_nonzero(at_peak)
    if bits.size > count:
        raise CapacityExceeded(needed=bits.size, available=count, detail="peak bin")
    between = _in_run(plane, min(peak, zero) + 1, abs(peak - zero) - 1)
    out = plane + between if peak < zero else plane - between
    marked = np.full(count, peak, dtype=np.uint8)
    marked[: bits.size] = peak + bits if peak < zero else peak - bits
    out[at_peak] = marked
    return out


def hs_extract(
    plane: np.ndarray, peak: int, zero: int, nbits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of hs_embed: (restored plane, the nbits payload bits)."""
    _check_bins(peak, zero)
    plane = np.asarray(plane, dtype=np.uint8)
    # the carried bits sit at the peak and mark bins, two adjacent values;
    # the scan stops at the block that holds the nbits-th of them
    mark = peak + 1 if peak < zero else peak - 1
    flat = plane.reshape(-1)
    bits, got, start = np.empty(nbits, dtype=np.uint8), 0, 0
    while got < nbits and start < flat.size:
        block = flat[start : start + BLOCK]
        carried = block[_in_run(block, min(peak, mark), 2)][: nbits - got]
        bits[got : got + carried.size] = carried == mark
        got, start = got + carried.size, start + BLOCK
    if got < nbits:
        raise PayloadOverrun(f"need {nbits} payload slots, plane holds {got}")
    moved = _in_run(plane, min(peak, zero) + (peak < zero), abs(peak - zero))
    return (plane - moved if peak < zero else plane + moved), bits


def _in_run(plane: np.ndarray, first: int, width: int) -> np.ndarray:
    """Mask of the samples in first..first + width - 1, by one wrapping uint8 subtraction."""
    return plane - np.uint8(first) < width


def _check_bins(peak: int, zero: int) -> None:
    if not (0 <= peak <= 255 and 0 <= zero <= 255):
        raise ValueError(f"bins must be byte values, got peak={peak} zero={zero}")
    if peak == zero:
        raise ValueError("peak and zero bins must differ")
