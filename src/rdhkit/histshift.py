"""Histogram-shift reversible embedding on gray planes.

Histogram shifting is the reversible host primitive: samples strictly
between the peak bin (most frequent value) and an empty zero bin move one
step toward the zero bin, freeing the bin next to the peak; the samples
equal to the peak then carry the payload bits in order, a 1 moving its
sample into the freed bin.  Every touched sample moves by exactly 1, and
the inverse walk restores the plane bit-exactly.  LSB substitution alone
is not reversible and is used only where the original bits are kept.

The kernels keep each sample at one byte: a run mask is built in one uint8
buffer (the wrapping subtraction, then the comparison over it through a bool
view), and the shift and its inverse add or subtract the mask into that same
buffer, which becomes the result.  ``hs_extract`` can take that buffer from
the caller (``out=``), so a caller that keeps the restored plane inside a
larger array allocates no second plane.  The payload moves through boolean
masks of the peak and mark samples, never through arrays of positions.  Only
counting widens (``np.bincount`` makes each sample an 8-byte index), so
``count_values`` counts BLOCK samples at a time (the first block's count
is the running sum), a fixed 512 KB temporary.  Embedding counts nothing
itself: its capacity check counts the peak mask.  Extraction scans from a
first step sized by the bit count, at most _SCAN_STEP samples a step, and
stops at the step holding the last.

All functions accept numpy uint8 arrays of any shape (flat and strided
views of image planes included) and never write to them.  They return new
arrays of the same shape, except that ``hs_extract`` writes the restored
plane into ``out`` when one is given.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    CapacityExceeded,
    DimensionMismatch,
    NoZeroBin,
    PayloadOverrun,
    ZeroBinNotEmpty,
)

# samples per pass wherever a whole-plane pass would widen every sample
# (np.bincount here, the squares in metrics.mse): the temporary stays fixed
BLOCK = 1 << 16
# hs_extract's first scan step per carried bit (at most _SCAN_STEP samples),
# tuned on the benchmark's sigma=6 Gaussian planes (about 1 carried bit per 15
# samples); on a flatter histogram the first step misses some bits and the
# scan pays one more step
_SCAN_PER_BIT = 16
# hs_extract's largest scan step: each step holds a step-sized run mask and
# the carried samples it selects, and at BLOCK these temporaries set the peak
# memory of revealing a 16 KB secret, whose 78,344-bit frame spans many steps
_SCAN_STEP = 1 << 14


def count_values(flat: np.ndarray) -> np.ndarray:
    """The 256-bin histogram of a flat uint8 array, counted BLOCK samples at a time."""
    hist = np.bincount(flat[:BLOCK], minlength=256)
    for start in range(BLOCK, flat.size, BLOCK):
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
    # the shift is written over its own mask: a 0/1 byte per sample
    out = _in_run(plane, min(peak, zero) + 1, abs(peak - zero) - 1).view(np.uint8)
    (np.add if peak < zero else np.subtract)(plane, out, out=out)
    marked = np.full(count, peak, dtype=np.uint8)
    marked[: bits.size] = peak + bits if peak < zero else peak - bits
    out[at_peak] = marked
    return out


def hs_extract(
    plane: np.ndarray, peak: int, zero: int, nbits: int, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of hs_embed: (restored plane, the nbits payload bits).

    The restored plane is written into out when it is given: a writeable
    uint8 array of plane's shape that shares no memory with plane (the run
    mask is built in out before the unshift reads plane).  None allocates a
    new array.
    """
    _check_bins(peak, zero)
    plane = np.asarray(plane, dtype=np.uint8)
    if out is not None:
        _check_out(plane, out)
    # the carried bits sit at the peak and mark bins, two adjacent values; the
    # scan stops at the step that holds the nbits-th (each after the first is _SCAN_STEP)
    mark = peak + 1 if peak < zero else peak - 1
    flat = plane.reshape(-1)
    bits, got, start = np.empty(nbits, dtype=np.uint8), 0, 0
    step = min(_SCAN_STEP, _SCAN_PER_BIT * nbits)
    while got < nbits and start < flat.size:
        block = flat[start : start + step]
        carried = block[_in_run(block, min(peak, mark), 2)][: nbits - got]
        bits[got : got + carried.size] = carried == mark
        got, start, step = got + carried.size, start + step, _SCAN_STEP
    if got < nbits:
        raise PayloadOverrun(f"need {nbits} payload slots, plane holds {got}")
    # allocated after the scan, so the scan's temporaries never sit beside it
    out = np.empty_like(plane) if out is None else out
    _in_run(plane, min(peak, zero) + (peak < zero), abs(peak - zero), out)
    (np.subtract if peak < zero else np.add)(plane, out, out=out)
    return out, bits


def _in_run(plane: np.ndarray, first: int, width: int, out: np.ndarray | None = None) -> np.ndarray:
    """Mask of the samples in first..first + width - 1, by one wrapping uint8 subtraction
    into out (or a new buffer); the comparison is written over the difference, so the
    mask is a bool view of that one byte buffer."""
    diff = np.subtract(plane, np.uint8(first), out=out)
    return np.less(diff, width, out=diff.view(np.bool_))


def _check_out(plane: np.ndarray, out) -> None:
    if not isinstance(out, np.ndarray) or out.dtype != np.uint8 or not out.flags.writeable:
        kind = getattr(out, "dtype", type(out).__name__)
        raise DimensionMismatch(f"out must be a writeable uint8 array, got {kind}")
    if out.shape != plane.shape:
        raise DimensionMismatch(f"out has shape {out.shape}, the plane {plane.shape}")
    if np.shares_memory(out, plane):
        raise DimensionMismatch("out overlaps the plane it restores")


def _check_bins(peak: int, zero: int) -> None:
    if not (0 <= peak <= 255 and 0 <= zero <= 255):
        raise ValueError(f"bins must be byte values, got peak={peak} zero={zero}")
    if peak == zero:
        raise ValueError("peak and zero bins must differ")
