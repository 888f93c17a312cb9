"""Blowfish for the cover path: block primitives plus a counter-mode keystream.

Counter mode matters here: LSB substitution happens in the encrypted domain,
and under CTR a flipped ciphertext bit maps back to exactly one flipped
plaintext bit, which the room-reservation step can restore.  A block mode
would smear every flipped LSB over a whole 8-byte block on decryption and
destroy reversibility.

Keystream generation is vectorised with numpy: the Feistel rounds run on
whole arrays of counter blocks at once.  Four choices keep it fast and small:

- A fused S0+S1 table.  Each key schedule also builds
  ``t01[(a << 8) | b] = (S0[a] + S1[b]) mod 2^32`` (65,536 words, 256 KB),
  so the round function is ``(t01[x >> 16] ^ S2[(x >> 8) & 0xFF]) +
  S3[x & 0xFF]``: three lookups instead of four, and no mask on the high
  half.
- Chunked, allocation-free rounds.  Counters are processed 32K blocks at a
  time in chunk-sized buffers allocated once per call, which stay near the
  cache; the halves are updated in place.  The S-box indices are byte and
  half-word views of each half (no shift-and-mask passes), made once per
  chunk, which ``np.take`` gathers through in ``"wrap"`` mode straight into
  preallocated outputs.  The wrap is exact, as a uint16 index always lies
  inside the 65,536-entry fused table and a uint8 index inside an S-box; the
  default bounds check would also stage each gather in a temporary.  The
  last round's halves are whitened straight into the big-endian output.
- 32-bit counter words, no 64-bit counter array.  A chunk is at most two
  runs: counters sharing one high word, whose low words count up from the
  run's first without wrapping.  The first run takes the chunk's base; a
  second starts at the first block whose low word wrapped, with low word 0
  and the high word plus one (mod 2^32).  That happens at most once in a
  chunk of far fewer than 2^32 blocks.
- Counter-determined rounds.  Within a run, round 0's input is the high
  word alone, so its F is one scalar; it sets the key K that round 1's input
  ``v ^ K`` carries, v being the low word.  Round 1's F is then a row term,
  ``T01 ^ S2`` of ``(v >> 8) ^ (K >> 8)``, plus a column term, ``S3`` of
  ``(v & 0xFF) ^ (K & 0xFF)``: a table of one word per 256-counter row the
  run touches and one of 256 words, added by broadcasting into the left
  half.  Rounds 0 and 1 thus make no per-block gather, and only rounds 2-15
  gather per block.

``bf_ctr_transform`` XORs the data into the keystream buffer it has just
filled and returns that buffer, a fresh, flat, writable uint8 array: the
pipeline writes the payload frame straight into it, with no copy.

The scalar path serves the key schedule and the single-block API.  The
schedule is 521 chained block encryptions, so it cannot be vectorised; its
block function unrolls all 16 rounds, with F inlined and each P-array XOR
folded into a round: no loop, no call and no swap per block.
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
# counter blocks per vectorised pass: at 32K blocks the four 128 KB word
# buffers a round works in and the 256 KB fused table stay near the cache
_CHUNK_BLOCKS = 1 << 15
_BYTES = np.arange(256, dtype=np.uint8)


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
    # all 16 rounds unrolled, so the halves never swap; each round's line also
    # applies the next P entry (the last one P16), and by precedence reads
    # half ^= p ^ (S0 + S1 ^ S2) + S3 & mask.  One mask per round suffices: the
    # low 32 bits of a sum or xor depend only on those of its operands.  p is
    # unpacked per call, as the P-array phase rewrites it between blocks.
    s0, s1, s2, s3 = s
    p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, p12, p13, p14, p15, p16, p17 = p
    xl ^= p0
    xr ^= p1 ^ (s0[xl >> 24] + s1[xl >> 16 & 0xFF] ^ s2[xl >> 8 & 0xFF]) + s3[xl & 0xFF] & _MASK32
    xl ^= p2 ^ (s0[xr >> 24] + s1[xr >> 16 & 0xFF] ^ s2[xr >> 8 & 0xFF]) + s3[xr & 0xFF] & _MASK32
    xr ^= p3 ^ (s0[xl >> 24] + s1[xl >> 16 & 0xFF] ^ s2[xl >> 8 & 0xFF]) + s3[xl & 0xFF] & _MASK32
    xl ^= p4 ^ (s0[xr >> 24] + s1[xr >> 16 & 0xFF] ^ s2[xr >> 8 & 0xFF]) + s3[xr & 0xFF] & _MASK32
    xr ^= p5 ^ (s0[xl >> 24] + s1[xl >> 16 & 0xFF] ^ s2[xl >> 8 & 0xFF]) + s3[xl & 0xFF] & _MASK32
    xl ^= p6 ^ (s0[xr >> 24] + s1[xr >> 16 & 0xFF] ^ s2[xr >> 8 & 0xFF]) + s3[xr & 0xFF] & _MASK32
    xr ^= p7 ^ (s0[xl >> 24] + s1[xl >> 16 & 0xFF] ^ s2[xl >> 8 & 0xFF]) + s3[xl & 0xFF] & _MASK32
    xl ^= p8 ^ (s0[xr >> 24] + s1[xr >> 16 & 0xFF] ^ s2[xr >> 8 & 0xFF]) + s3[xr & 0xFF] & _MASK32
    xr ^= p9 ^ (s0[xl >> 24] + s1[xl >> 16 & 0xFF] ^ s2[xl >> 8 & 0xFF]) + s3[xl & 0xFF] & _MASK32
    xl ^= p10 ^ (s0[xr >> 24] + s1[xr >> 16 & 0xFF] ^ s2[xr >> 8 & 0xFF]) + s3[xr & 0xFF] & _MASK32
    xr ^= p11 ^ (s0[xl >> 24] + s1[xl >> 16 & 0xFF] ^ s2[xl >> 8 & 0xFF]) + s3[xl & 0xFF] & _MASK32
    xl ^= p12 ^ (s0[xr >> 24] + s1[xr >> 16 & 0xFF] ^ s2[xr >> 8 & 0xFF]) + s3[xr & 0xFF] & _MASK32
    xr ^= p13 ^ (s0[xl >> 24] + s1[xl >> 16 & 0xFF] ^ s2[xl >> 8 & 0xFF]) + s3[xl & 0xFF] & _MASK32
    xl ^= p14 ^ (s0[xr >> 24] + s1[xr >> 16 & 0xFF] ^ s2[xr >> 8 & 0xFF]) + s3[xr & 0xFF] & _MASK32
    xr ^= p15 ^ (s0[xl >> 24] + s1[xl >> 16 & 0xFF] ^ s2[xl >> 8 & 0xFF]) + s3[xl & 0xFF] & _MASK32
    xl ^= p16 ^ (s0[xr >> 24] + s1[xr >> 16 & 0xFF] ^ s2[xr >> 8 & 0xFF]) + s3[xr & 0xFF] & _MASK32
    return xr ^ p17, xl


def bf_encrypt_block(state: BlowfishState, block: bytes) -> bytes:
    if len(block) != 8:
        raise ValueError(f"block must be 8 bytes, got {len(block)}")
    xl = int.from_bytes(block[:4], "big")
    xr = int.from_bytes(block[4:], "big")
    xl, xr = _encrypt_words(state.p, state.s, xl, xr)
    return xl.to_bytes(4, "big") + xr.to_bytes(4, "big")


def bf_ctr_transform(state: BlowfishState, nonce: int, data: bytes | np.ndarray) -> np.ndarray:
    """XOR data with the keystream of big-endian counter blocks (nonce + i) mod 2^64,
    each Blowfish-encrypted; applying it twice is the identity.

    data is bytes or a contiguous uint8 array and is left unchanged.  The
    result is the keystream buffer itself, XORed in place: a fresh, flat,
    writable uint8 array of len(data).
    """
    nbytes = len(data)
    nblocks = (nbytes + 7) // 8
    words = np.empty((nblocks, 2), dtype=">u4")
    n = min(_CHUNK_BLOCKS, nblocks)
    # little-endian halves, so the S-box indices are plain views of a half:
    # half-word 1 is x >> 16, byte 1 is (x >> 8) & 0xFF, byte 0 is x & 0xFF
    xl_buf = np.empty(n, dtype="<u4")
    xr_buf = np.empty(n, dtype="<u4")
    f_buf = np.empty(n, dtype=np.uint32)
    g_buf = np.empty(n, dtype=np.uint32)
    p, t01, s2, s3 = state.p, state._t01, state._s_np[2], state._s_np[3]

    for start in range(0, nblocks, _CHUNK_BLOCKS):
        m = min(_CHUNK_BLOCKS, nblocks - start)
        xl, xr, f, g = xl_buf[:m], xr_buf[:m], f_buf[:m], g_buf[:m]
        base = (nonce + start) & _MASK64
        high, low = base >> 32, base & _MASK32
        run = min(m, (1 << 32) - low)  # the blocks before the low word wraps
        _first_two_rounds(state, high, low, xl[:run], xr[:run])
        if run < m:
            _first_two_rounds(state, (high + 1) & _MASK32, 0, xl[run:], xr[run:])
        il, ir = _index_views(xl), _index_views(xr)
        for i in range(2, 16):
            if i > 2:  # round 2's P entry is already in xl
                np.bitwise_xor(xl, p[i], out=xl)
            # F(x) = (T01[x >> 16] ^ S2[(x >> 8) & 0xFF]) + S3[x & 0xFF]
            hw, b1, b0 = il
            np.take(t01, hw, out=f, mode="wrap")
            np.take(s2, b1, out=g, mode="wrap")
            f ^= g
            np.take(s3, b0, out=g, mode="wrap")
            f += g
            xr ^= f
            xl, xr, il, ir = xr, xl, ir, il
        # the names still carry the last round's swap, so the halves are
        # whitened crosswise into the output words: (xr ^ P17, xl ^ P16)
        np.bitwise_xor(xr, p[17], out=words[start : start + m, 0])
        np.bitwise_xor(xl, p[16], out=words[start : start + m, 1])
    out = words.view(np.uint8).reshape(-1)[:nbytes]
    np.bitwise_xor(out, np.frombuffer(data, dtype=np.uint8), out=out)
    return out


def _index_views(half: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The S-box indices of a little-endian half: x >> 16, (x >> 8) & 0xFF, x & 0xFF."""
    x8 = half.view(np.uint8)
    return half.view("<u2")[1::2], x8[1::4], x8[0::4]


def _first_two_rounds(
    state: BlowfishState, high: int, low: int, xl: np.ndarray, xr: np.ndarray
) -> None:
    """Rounds 0 and 1 for the run of counters (high, low + i), i < len(xl), whose
    low words do not wrap; writes the halves that enter round 2, with P2 in xl.

    Round 0's input is the high word alone, so its F is one scalar, and round
    1's input is v ^ key with v = low + i.  Its F depends on x >> 8 =
    (v >> 8) ^ (key >> 8) through T01 ^ S2 and on x & 0xFF = (v & 0xFF) ^
    (key & 0xFF) through S3, so it is a row term plus a column term over the
    run's 256-counter rows: one small table for each, broadcast into xl.
    """
    p, (s0, s1, s2, s3) = state.p, state.s
    x = high ^ p[0]
    key = ((s0[x >> 24] + s1[x >> 16 & 0xFF] ^ s2[x >> 8 & 0xFF]) + s3[x & 0xFF] & _MASK32) ^ p[1]
    np.bitwise_xor(np.arange(low, low + xl.size, dtype=np.uint32), key, out=xr)  # v ^ key
    # x >> 8 for each 256-counter row the run touches, x & 0xFF for each column
    rows = np.arange(low >> 8, ((low + xl.size - 1) >> 8) + 1, dtype=np.uint32)
    rows ^= key >> 8
    cols = _BYTES ^ (key & 0xFF)
    row_f = np.take(state._t01, rows >> 8)
    row_f ^= np.take(state._s_np[2], rows & 0xFF)
    _rows_plus_cols(row_f, np.take(state._s_np[3], cols), low & 0xFF, xl)
    np.bitwise_xor(xl, x ^ p[2], out=xl)  # round 1 XORs F into high ^ P0


def _rows_plus_cols(rows: np.ndarray, cols: np.ndarray, col: int, out: np.ndarray) -> None:
    """out[i] = rows[k] + cols[j] (mod 2^32) with (k, j) = divmod(col + i, 256):
    the row-major table of row-by-column sums, read from column col of row 0,
    written straight into out as a head row, whole rows and a tail row."""
    m = out.size
    head = min(m, 256 - col)
    np.add(rows[0], cols[col : col + head], out=out[:head])
    full, tail = divmod(m - head, 256)
    if full:
        np.add(rows[1 : 1 + full, None], cols, out=out[head : head + 256 * full].reshape(full, 256))
    if tail:
        np.add(rows[1 + full], cols[:tail], out=out[m - tail :])
