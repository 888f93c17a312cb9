"""Bit-exact binary PPM (P6) load/save for the cover images.

Images are (height, width, 3) uint8 arrays, loaded ones read-only views that
keep the file's bytes alive (callers copy to write).  The writer is canonical
(one space between width and height, newline separators); load inverts it.

The reader accepts one grammar:

- the magic ``P6``, then width, height and maxval as positive ASCII decimal
  tokens (``errors.read_decimal``, as the Y4M reader's ``W`` and ``H``), each
  after a run of separators (which may be empty right after ``P6``);
- a separator is one whitespace byte (space, tab, CR, LF, VT or FF) or a
  comment: ``#`` up to, not including, the next LF or the end of input;
- a token ends at the first whitespace byte, ``#`` or the end of input, so
  ``2#x`` is the token ``2`` followed by a comment;
- exactly one whitespace byte after the maxval, then exactly
  width*height*3 raster bytes (``errors.read_samples``, as a Y4M frame).

A marked cover carries its counter nonce inline as a comment of the exact
form ``# RDHCTR <16 hex digits>`` on the line after the magic, which keeps
the file a single self-contained artifact that any netpbm viewer still opens.
Only the first comment before the width can carry it, and only if LF or the
end of input follows the 16th digit (``\\r\\n`` there means no nonce).
"""

from __future__ import annotations

import re

import numpy as np

from .errors import (
    BadImageMagic,
    BadMaxval,
    DimensionMismatch,
    MalformedHeader,
    TruncatedFile,
    check_nonce,
    check_samples,
    read_decimal,
    read_samples,
)

# a comment must run to LF or the end of input, so every separator run has
# exactly one match and matching stays linear in the header's length
_SEPS = rb"(?:\s|#[^\n]*(?![^\n]))*"
_HEADER = re.compile(
    rb"P6\s*(?:# RDHCTR (?P<nonce>[0-9a-fA-F]{16})(?![^\n]))?"
    + _SEPS + rb"(?P<width>[^\s#]*)"
    + _SEPS + rb"(?P<height>[^\s#]*)"
    + _SEPS + rb"(?P<maxval>[^\s#]*)(?P<gap>\s?)"
)


def load_ppm(data: bytes) -> tuple[np.ndarray, int | None]:
    """Parse a binary PPM: (a read-only view of its raster, embedded counter nonce or None)."""
    if data[:2] != b"P6":
        raise BadImageMagic(f"expected P6, got {data[:2]!r}")
    m = _HEADER.match(data)  # every token may be empty, so this always matches
    fields = ("width", "height", "maxval")
    width, height, maxval = (read_decimal(m[f], f, MalformedHeader) for f in fields)
    if maxval != 255:
        raise BadMaxval(f"only maxval 255 is supported, got {maxval}")
    if not m["gap"]:
        raise MalformedHeader("missing whitespace before the raster")
    pos, n = m.end(), width * height * 3
    img = read_samples(data, pos, n, TruncatedFile, f"a {width}x{height} raster")
    if len(data) - pos > n:
        raise MalformedHeader(f"{len(data) - pos - n} trailing bytes after the raster")
    nonce = None if m["nonce"] is None else int(m["nonce"], 16)
    return img.reshape(height, width, 3), nonce


def save_ppm(img: np.ndarray, nonce: int | None = None) -> bytes:
    """Canonical binary PPM bytes; load_ppm inverts this exactly."""
    img = np.ascontiguousarray(check_samples(img, "image"))
    if img.ndim != 3 or img.shape[2] != 3 or not img.size:
        raise DimensionMismatch(f"expected a non-empty RGB (h, w, 3) raster, got shape {img.shape}")
    height, width = img.shape[:2]
    head = bytearray(b"P6\n")
    if nonce is not None:
        check_nonce(nonce)
        head += b"# RDHCTR %016x\n" % nonce
    head += b"%d %d\n255\n" % (width, height)
    return b"".join((head, img))  # the raster's one copy
