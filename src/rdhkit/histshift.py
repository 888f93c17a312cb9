"""Histogram-shift reversible embedding on gray planes, plus an LSB reader.

Histogram shifting is the reversible host primitive: samples strictly
between the peak bin (most frequent value) and an empty zero bin move one
step toward the zero bin, freeing the bin next to the peak; each sample
equal to the peak then encodes one payload bit in place.  Every touched
sample moves by exactly 1, and the inverse walk restores the plane
bit-exactly.  Plain LSB substitution is NOT reversible on its own and is
used only where the original bits are preserved elsewhere.

Embedding and extraction each make a few whole-plane passes and do their
per-bin work on 256-entry arrays: the shift (or its inverse) is one gather
through a table of all 256 byte values.  Embedding counts nothing itself:
its capacity check reads the peak positions it writes to.

All functions accept numpy uint8 arrays of any shape (flat and strided
views of image planes included) and return new arrays of the same shape.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    CapacityExceeded,
    NoZeroBin,
    OutOfRange,
    PayloadOverrun,
    ZeroBinNotEmpty,
)


def plan_hs(plane: np.ndarray) -> tuple[int, int, int]:
    """Choose (peak, zero, capacity) for a plane.

    Peak is the most frequent value (ties go to the smallest value); zero is
    the nearest empty bin above the peak, falling back to the nearest empty
    bin below.  Capacity equals the peak count.
    """
    flat = _flat(plane)
    if flat.size == 0:
        raise ValueError("cannot plan an embedding on an empty plane")
    hist = np.bincount(flat, minlength=256)
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
    # the shift moves no sample onto or off the peak, so these stay its positions
    slots = np.flatnonzero(plane == peak)
    if (plane == zero).any():
        raise ZeroBinNotEmpty(f"bin {zero} is not empty")
    if bits.size > slots.size:
        raise CapacityExceeded(needed=bits.size, available=slots.size, detail="peak bin")
    shift = np.arange(256, dtype=np.uint8)
    if peak < zero:
        shift[peak + 1 : zero] += 1
    else:
        shift[zero + 1 : peak] -= 1
    out = np.take(shift, plane)
    flat = out.reshape(-1)
    slots = slots[: bits.size]
    if peak < zero:
        flat[slots] += bits
    else:
        flat[slots] -= bits
    return out


def hs_extract(
    plane: np.ndarray, peak: int, zero: int, nbits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of hs_embed: (restored plane, the nbits payload bits)."""
    _check_bins(peak, zero)
    plane = np.asarray(plane, dtype=np.uint8)
    # unshift first, so its gather's index copy is not alive beside the candidates
    unshift = np.arange(256, dtype=np.uint8)
    if peak < zero:
        unshift[peak + 1 : zero + 1] -= 1
    else:
        unshift[zero:peak] += 1
    out = np.take(unshift, plane)
    # peak and mark are adjacent bins, so one wrapping uint8 subtraction finds both
    mark = peak + 1 if peak < zero else peak - 1
    flat = plane.reshape(-1)
    candidates = np.flatnonzero(flat - np.uint8(min(peak, mark)) < 2)
    if candidates.size < nbits:
        raise PayloadOverrun(f"need {nbits} payload slots, plane holds {candidates.size}")
    bits = (flat[candidates[:nbits]] == mark).astype(np.uint8)
    return out, bits


def lsb_read(plane: np.ndarray, start: int, n: int) -> np.ndarray:
    """The least significant bits of samples start..start+n as a 0/1 array."""
    flat = _flat(plane)
    if start < 0 or n < 0 or start + n > flat.size:
        raise OutOfRange(f"slice [{start}, {start + n}) exceeds plane of {flat.size}")
    return (flat[start : start + n] & 1).astype(np.uint8)


def _flat(plane: np.ndarray) -> np.ndarray:
    return np.asarray(plane, dtype=np.uint8).reshape(-1)


def _check_bins(peak: int, zero: int) -> None:
    if not (0 <= peak <= 255 and 0 <= zero <= 255):
        raise ValueError(f"bins must be byte values, got peak={peak} zero={zero}")
    if peak == zero:
        raise ValueError("peak and zero bins must differ")
