"""Blowfish for the cover path: block primitives plus a counter-mode keystream.

Counter mode matters here: LSB substitution happens in the encrypted domain,
and under CTR a flipped ciphertext bit maps back to exactly one flipped
plaintext bit, which the room-reservation step can restore.  A block mode
would smear every flipped LSB over a whole 8-byte block on decryption and
destroy reversibility.

Keystream generation is vectorised with numpy: the Feistel rounds run on
whole arrays of counter blocks at once.  Two choices keep it fast:

- A fused S0+S1 table.  Each key schedule also builds
  ``t01[(a << 8) | b] = (S0[a] + S1[b]) mod 2^32`` (65,536 words, 256 KB),
  so the round function is ``(t01[x >> 16] ^ S2[(x >> 8) & 0xFF]) +
  S3[x & 0xFF]``: three lookups instead of four, and no mask on the high
  half.
- Chunked rounds.  Counters are processed 32K blocks at a time, so every
  temporary is chunk-sized and stays near the cache instead of spanning the
  raster; the halves are updated in place.  The S-box indices are byte and
  half-word views of the left half, which ``np.take`` gathers through with
  its default bounds check: no shift-and-mask passes.  Each chunk's counter
  base is reduced mod 2^64 in Python before it meets numpy.

The scalar path serves the key schedule and the single-block API.  The
schedule is 521 chained block encryptions, so it cannot be vectorised; its
block function inlines the round function and runs two rounds per loop
pass, which avoids a call and a tuple swap per round.
"""

from __future__ import annotations

import numpy as np

from ._pi_digits import PI_FRACTION_HEX
from .errors import BadKeyLength

_WORDS = [int(PI_FRACTION_HEX[i : i + 8], 16) for i in range(0, len(PI_FRACTION_HEX), 8)]
P_INIT: tuple[int, ...] = tuple(_WORDS[:18])
S_INIT: tuple[tuple[int, ...], ...] = tuple(
    tuple(_WORDS[18 + 256 * k : 18 + 256 * (k + 1)]) for k in range(4)
)

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
MIN_KEY_BYTES = 4
MAX_KEY_BYTES = 56
# counter blocks per vectorised pass: at 32K blocks a round's temporaries
# (128-256 KB each) and the 256 KB fused table stay near the cache
_CHUNK_BLOCKS = 1 << 15


class BlowfishState:
    """P-array and S-boxes after key mixing, plus the fused S0+S1 table."""

    __slots__ = ("p", "s", "_s_np", "_t01")

    def __init__(self, p: list[int], s: list[list[int]]):
        self.p = tuple(p)
        self.s = tuple(tuple(box) for box in s)
        self._s_np = [np.asarray(box, dtype=np.uint32) for box in s]
        # _t01[(a << 8) | b] = (S0[a] + S1[b]) mod 2^32, 65,536 entries
        self._t01 = (self._s_np[0][:, None] + self._s_np[1][None, :]).reshape(-1)


def bf_key_schedule(key: bytes) -> BlowfishState:
    """Mix the key into the pi-initialized P-array and S-boxes."""
    if not MIN_KEY_BYTES <= len(key) <= MAX_KEY_BYTES:
        raise BadKeyLength(
            f"Blowfish key must be {MIN_KEY_BYTES}..{MAX_KEY_BYTES} bytes, got {len(key)}"
        )
    p = list(P_INIT)
    s = [list(box) for box in S_INIT]
    klen = len(key)
    for i in range(18):
        word = 0
        for j in range(4):
            word = (word << 8) | key[(4 * i + j) % klen]
        p[i] ^= word

    xl = xr = 0
    for i in range(0, 18, 2):
        xl, xr = _encrypt_words(p, s, xl, xr)
        p[i], p[i + 1] = xl, xr
    for box in s:
        for j in range(0, 256, 2):
            xl, xr = _encrypt_words(p, s, xl, xr)
            box[j], box[j + 1] = xl, xr
    return BlowfishState(p, s)


def _encrypt_words(p, s, xl: int, xr: int) -> tuple[int, int]:
    # F inlined, two rounds per pass so the halves never swap; one mask per
    # round suffices because the low 32 bits of a sum or xor depend only on
    # the low 32 bits of its operands
    s0, s1, s2, s3 = s
    for i in range(0, 16, 2):
        xl ^= p[i]
        xr ^= (
            ((s0[xl >> 24] + s1[(xl >> 16) & 0xFF]) ^ s2[(xl >> 8) & 0xFF]) + s3[xl & 0xFF]
        ) & _MASK32
        xr ^= p[i + 1]
        xl ^= (
            ((s0[xr >> 24] + s1[(xr >> 16) & 0xFF]) ^ s2[(xr >> 8) & 0xFF]) + s3[xr & 0xFF]
        ) & _MASK32
    return xr ^ p[17], xl ^ p[16]


def bf_encrypt_block(state: BlowfishState, block: bytes) -> bytes:
    if len(block) != 8:
        raise ValueError(f"block must be 8 bytes, got {len(block)}")
    xl = int.from_bytes(block[:4], "big")
    xr = int.from_bytes(block[4:], "big")
    xl, xr = _encrypt_words(state.p, state.s, xl, xr)
    return xl.to_bytes(4, "big") + xr.to_bytes(4, "big")


def _keystream_u8(state: BlowfishState, nonce: int, nbytes: int) -> np.ndarray:
    """The first nbytes of the keystream as a fresh, writable uint8 array."""
    nblocks = (nbytes + 7) // 8
    words = np.empty((nblocks, 2), dtype=">u4")
    n = min(_CHUNK_BLOCKS, nblocks)
    steps = np.arange(n, dtype=np.uint64)
    counter = np.empty(n, dtype=np.uint64)
    # little-endian halves, so the S-box indices are plain views of xl:
    # half-word 1 is x >> 16, byte 1 is (x >> 8) & 0xFF, byte 0 is x & 0xFF
    xl_buf = np.empty(n, dtype="<u4")
    xr_buf = np.empty(n, dtype="<u4")
    p, t01, s2, s3 = state.p, state._t01, state._s_np[2], state._s_np[3]

    for start in range(0, nblocks, _CHUNK_BLOCKS):
        m = min(_CHUNK_BLOCKS, nblocks - start)
        ctr, xl, xr = counter[:m], xl_buf[:m], xr_buf[:m]
        # array additions wrap mod 2^64 silently; the base is reduced in Python
        np.add(steps[:m], np.uint64((nonce + start) & _MASK64), out=ctr)
        xr[...] = ctr
        np.right_shift(ctr, np.uint64(32), out=ctr)
        xl[...] = ctr
        for i in range(16):
            np.bitwise_xor(xl, p[i], out=xl)
            # F(x) = (T01[x >> 16] ^ S2[(x >> 8) & 0xFF]) + S3[x & 0xFF]
            x8 = xl.view(np.uint8)
            f = np.take(t01, xl.view("<u2")[1::2])
            f ^= np.take(s2, x8[1::4])
            f += np.take(s3, x8[0::4])
            np.bitwise_xor(xr, f, out=xr)
            xl, xr = xr, xl
        # the names still carry the last round's swap, so the halves are
        # whitened and written crosswise: output (xr ^ P17, xl ^ P16)
        np.bitwise_xor(xl, p[16], out=xl)
        np.bitwise_xor(xr, p[17], out=xr)
        words[start : start + m, 0] = xr
        words[start : start + m, 1] = xl
    return words.view(np.uint8).reshape(-1)[:nbytes]


def bf_ctr_transform(state: BlowfishState, nonce: int, data: bytes) -> bytes:
    """XOR with the keystream of big-endian counter blocks (nonce + i) mod 2^64,
    each Blowfish-encrypted; applying it twice is the identity."""
    if len(data) == 0:
        return b""
    ks = _keystream_u8(state, nonce, len(data))
    np.bitwise_xor(ks, np.frombuffer(data, dtype=np.uint8), out=ks)
    return ks.tobytes()
