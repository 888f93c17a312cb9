"""Histogram-shift reversible embedding on gray planes.

Histogram shifting is the reversible host primitive: samples strictly
between the peak bin (most frequent value) and an empty zero bin move one
step toward the zero bin, freeing the bin next to the peak; the samples
equal to the peak then carry the payload bits in order, a 1 moving its
sample into the freed bin.  Every touched sample moves by exactly 1, and
the inverse walk restores the plane bit-exactly.  LSB substitution alone
is not reversible and is used only where the original bits are kept.

``hs_embed`` and ``hs_extract`` shift the plane they are given in place.
Each makes every check before its first write, so a refusal (a read-only
plane included) leaves the plane as it was.  They keep each sample at one
byte and hold one plane-sized mask at a time: a run mask is built in one
uint8 buffer (the wrapping subtraction, then the comparison over it through
a bool view) and added to or subtracted from the plane.  The payload moves
through boolean masks of the peak and mark samples, never through arrays
of positions.  Only counting widens (``np.bincount`` makes each sample an
8-byte index), so ``count_values`` counts BLOCK samples at a time (the
first block's count is the running sum), a fixed 512 KB temporary.
Extraction scans from a first step sized by the bit count, at most
_SCAN_STEP samples a step, and stops at the step holding the last.
Embedding clears its peak mask after the _MARK_STEP-sample step holding the
last carried bit, so the masked write selects only the steps that carry (a
third of a 512x512 image's for 1 KB); an exact end made video hides slower.

The shifts take uint8 planes of any shape (flat and strided views of image
planes included) and ``count_values`` a 1-D one; any other plane raises
DimensionMismatch before it is read.  ``plan_hs`` takes the histogram.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    CapacityExceeded,
    CoverTooSmall,
    DimensionMismatch,
    NoZeroBin,
    PayloadOverrun,
    ZeroBinNotEmpty,
    check_flat,
    check_samples,
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
# hs_embed's peak-mask cut falls on these steps: 8K marked QCIF planes faster than 16K or 4K
_MARK_STEP = 1 << 13


def count_values(flat: np.ndarray) -> np.ndarray:
    """The 256-bin histogram of a 1-D uint8 array, counted BLOCK samples at a time."""
    hist = np.bincount(check_flat(flat, "plane")[:BLOCK], minlength=256)
    for start in range(BLOCK, flat.size, BLOCK):
        hist += np.bincount(flat[start : start + BLOCK], minlength=256)
    return hist


def plan_hs(hist: np.ndarray) -> tuple[int, int]:
    """Choose (peak, zero) from a plane's 256-bin histogram, as count_values gives it.

    Peak is the most frequent value (ties go to the smallest value); zero is
    the nearest empty bin above the peak, falling back to the nearest empty
    bin below.  The peak's count is the capacity, which hs_embed checks.
    """
    if not hist.any():
        raise CoverTooSmall("cannot plan an embedding on an empty plane")
    peak = int(hist.argmax())  # argmax returns the smallest index on ties
    empty = np.flatnonzero(hist == 0)
    if empty.size == 0:
        raise NoZeroBin("all 256 gray values occur in the plane")
    above = empty[empty > peak]
    return peak, int(above[0] if above.size else empty[-1])  # else every empty bin is below


def hs_embed(plane: np.ndarray, bits, peak: int, zero: int) -> None:
    """Shift the open interval between peak and zero, then encode bits at the peak, in place:
    bits[k] at the k-th peak sample in row-major order, every check before the shift."""
    _check_bins(peak, zero)
    bits = np.asarray(bits).reshape(-1)  # integers or bools, checked before any cast
    if bits.size and (bits.dtype.kind not in "biu" or bits.min() < 0 or bits.max() > 1):
        raise ValueError("payload bits must be 0 or 1")
    _check_writeable(plane)
    if (plane == zero).any():
        raise ZeroBinNotEmpty(f"bin {zero} is not empty")
    count = np.count_nonzero(plane == peak)
    if bits.size > count:
        raise CapacityExceeded(needed=bits.size, available=count, detail="peak bin")
    run = _in_run(plane, min(peak, zero) + 1, abs(peak - zero) - 1)
    (np.add if peak < zero else np.subtract)(plane, run.view(np.uint8), out=plane)
    del run  # so the peak mask below is the one plane-sized mask alive
    # C-ordered, so its flat view is row-major on any layout: cut after the last carrying step
    flat, kept, end = np.equal(plane, peak, order="C").reshape(-1), 0, 0
    while kept < bits.size:
        kept, end = kept + np.count_nonzero(flat[end : end + _MARK_STEP]), end + _MARK_STEP
    flat[end:] = False
    marked = np.full(kept, peak, dtype=np.uint8)
    marked[: bits.size] = peak + bits if peak < zero else peak - bits
    plane[flat.reshape(plane.shape)] = marked  # the shift moved no sample onto or off the peak


def hs_extract(plane: np.ndarray, peak: int, zero: int, nbits: int) -> np.ndarray:
    """Inverse of hs_embed: restore the plane in place and return its nbits payload bits."""
    _check_bins(peak, zero)
    _check_writeable(plane)
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
    run = _in_run(plane, min(peak, zero) + (peak < zero), abs(peak - zero))
    (np.subtract if peak < zero else np.add)(plane, run.view(np.uint8), out=plane)
    return bits


def _in_run(plane: np.ndarray, first: int, width: int) -> np.ndarray:
    """Mask of the samples in first..first + width - 1: a wrapping uint8 subtraction into
    a new buffer, then the comparison written over it, so the mask is a bool view of it."""
    diff = np.subtract(plane, np.uint8(first))
    return np.less(diff, width, out=diff.view(np.bool_))


def _check_writeable(plane) -> None:
    if not check_samples(plane, "plane").flags.writeable:
        raise DimensionMismatch("plane must be writeable: the shift is made in place")


def _check_bins(peak: int, zero: int) -> None:
    if not (0 <= peak <= 255 and 0 <= zero <= 255):
        raise ValueError(f"bins must be byte values, got peak={peak} zero={zero}")
    if peak == zero:
        raise ValueError("peak and zero bins must differ")
