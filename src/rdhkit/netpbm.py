"""Bit-exact binary PPM (P6) load/save for the cover images.

Images are plain (height, width, 3) uint8 numpy arrays.  The writer is canonical — one space
between width and height, newline separators — so saving the same image
twice yields identical bytes and load inverts save exactly.

A marked cover carries its counter nonce inline as a comment of the exact
form ``# RDHCTR <16 hex digits>`` on the line after the magic, which keeps
the file a single self-contained artifact that any netpbm viewer still opens.
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
)

_NONCE_RE = re.compile(rb"\A# RDHCTR ([0-9a-fA-F]{16})\Z")
_WS = b" \t\r\n\x0b\x0c"


class _Scanner:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.comments: list[bytes] = []

    def skip_ws(self) -> None:
        data = self.data
        while self.pos < len(data):
            c = data[self.pos : self.pos + 1]
            if c in (b"#",):
                end = data.find(b"\n", self.pos)
                if end == -1:
                    end = len(data)
                self.comments.append(data[self.pos : end])
                self.pos = end
            elif c and c in _WS:
                self.pos += 1
            else:
                return

    def token(self) -> bytes:
        self.skip_ws()
        start = self.pos
        data = self.data
        while self.pos < len(data) and data[self.pos : self.pos + 1] not in _WS:
            if data[self.pos : self.pos + 1] == b"#":
                break
            self.pos += 1
        if self.pos == start:
            raise MalformedHeader("header ended while a number was expected")
        return data[start : self.pos]

    def int_token(self, what: str) -> int:
        tok = self.token()
        if not tok.isdigit():
            raise MalformedHeader(f"{what} is not a number: {tok!r}")
        return int(tok)


def load_ppm(data: bytes) -> tuple[np.ndarray, int | None]:
    """Parse a binary PPM; returns (image, embedded counter nonce or None)."""
    if data[:2] != b"P6":
        raise BadImageMagic(f"expected P6, got {data[:2]!r}")
    sc = _Scanner(data)
    sc.pos = 2
    sc.skip_ws()
    leading_comments = list(sc.comments)  # only these may carry the nonce
    width = sc.int_token("width")
    height = sc.int_token("height")
    maxval = sc.int_token("maxval")
    if width <= 0 or height <= 0:
        raise MalformedHeader(f"dimensions must be positive, got {width}x{height}")
    if maxval != 255:
        raise BadMaxval(f"only maxval 255 is supported, got {maxval}")
    # exactly one whitespace byte separates the header from the raster
    if sc.pos >= len(data) or data[sc.pos : sc.pos + 1] not in _WS:
        raise MalformedHeader("missing whitespace before the raster")
    sc.pos += 1
    n = width * height * 3
    raster = data[sc.pos : sc.pos + n]
    if len(raster) < n:
        raise TruncatedFile(f"raster needs {n} bytes, file holds {len(raster)}")
    if len(data) - sc.pos > n:
        raise MalformedHeader(f"{len(data) - sc.pos - n} trailing bytes after the raster")

    nonce = None
    if leading_comments:
        m = _NONCE_RE.match(leading_comments[0])
        if m:
            nonce = int(m.group(1), 16)
    img = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3).copy()
    return img, nonce


def save_ppm(img: np.ndarray, nonce: int | None = None) -> bytes:
    """Canonical binary PPM bytes; load_ppm inverts this exactly."""
    img = np.asarray(img, dtype=np.uint8)
    if img.ndim != 3 or img.shape[2] != 3:
        raise DimensionMismatch(f"expected an RGB (h, w, 3) raster, got shape {img.shape}")
    height, width = img.shape[:2]
    head = bytearray(b"P6\n")
    if nonce is not None:
        if not 0 <= nonce <= 0xFFFFFFFFFFFFFFFF:
            raise ValueError(f"nonce must fit 64 bits, got {nonce:#x}")
        head += b"# RDHCTR %016x\n" % nonce
    head += b"%d %d\n255\n" % (width, height)
    return bytes(head) + img.tobytes()
