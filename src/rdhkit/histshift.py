"""Histogram-shift reversible embedding on gray planes, plus an LSB reader.

Histogram shifting is the reversible host primitive: samples strictly
between the peak bin (most frequent value) and an empty zero bin move one
step toward the zero bin, freeing the bin next to the peak; each sample
equal to the peak then encodes one payload bit in place.  Every touched
sample moves by exactly 1, and the inverse walk restores the plane
bit-exactly.  Plain LSB substitution is NOT reversible on its own and is
used only where the original bits are preserved elsewhere.

All functions accept numpy uint8 arrays of any shape (flat views of image
planes included) and return arrays of the same shape.
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
    out = np.array(plane, dtype=np.uint8, copy=True)
    flat = out.reshape(-1)
    if np.any(flat == zero):
        raise ZeroBinNotEmpty(f"bin {zero} is not empty")
    if peak < zero:
        flat[(flat > peak) & (flat < zero)] += 1
    else:
        flat[(flat < peak) & (flat > zero)] -= 1
    slots = np.flatnonzero(flat == peak)
    if bits.size > slots.size:
        raise CapacityExceeded(needed=bits.size, available=slots.size, detail="peak bin")
    if peak < zero:
        flat[slots[: bits.size]] += bits
    else:
        flat[slots[: bits.size]] -= bits
    return out


def hs_extract(
    plane: np.ndarray, peak: int, zero: int, nbits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of hs_embed: (restored plane, the nbits payload bits)."""
    _check_bins(peak, zero)
    out = np.array(plane, dtype=np.uint8, copy=True)
    flat = out.reshape(-1)
    mark = peak + 1 if peak < zero else peak - 1
    candidates = np.flatnonzero((flat == peak) | (flat == mark))
    if candidates.size < nbits:
        raise PayloadOverrun(f"need {nbits} payload slots, plane holds {candidates.size}")
    bits = (flat[candidates[:nbits]] == mark).astype(np.uint8)
    if peak < zero:
        flat[(flat >= peak + 1) & (flat <= zero)] -= 1
    else:
        flat[(flat <= peak - 1) & (flat >= zero)] += 1
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
