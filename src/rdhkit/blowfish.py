"""Blowfish for the cover path: block primitives plus a counter-mode keystream.

Counter mode matters here: LSB substitution happens in the encrypted domain,
and under CTR a flipped ciphertext bit maps back to exactly one flipped
plaintext bit, which the room-reservation step can restore.  A block mode
would smear every flipped LSB over a whole 8-byte block on decryption and
destroy reversibility.

Where ``_gcrypt`` loads libgcrypt, every key, a weak one included, is a
libgcrypt Blowfish-CTR handle, whose counter is the whole block, big-endian,
mod 2^64: this format's.  No option selects the path.

Elsewhere the key schedule runs in Python and the keystream in numpy, with
the same bytes; both are also the tests' reference.  The numpy kernel runs
all 16 Feistel rounds on whole arrays of counter blocks at once:

- A fused S0+S1 table.  Each Python schedule also builds
  ``t01[(a << 8) | b] = (S0[a] + S1[b]) mod 2^32`` (65,536 words, 256 KB),
  so the round function is ``(t01[x >> 16] ^ S2[(x >> 8) & 0xFF]) +
  S3[x & 0xFF]``: three lookups instead of four, and no mask on the high
  half.
- Chunked, allocation-free rounds.  Counters are processed 16K blocks at a
  time in four 64 KB word buffers allocated once per call, which stay near
  the cache; the halves are updated in place.  The S-box indices are byte and
  half-word views of each half (no shift-and-mask passes), made once per
  chunk, which the ``ndarray.take`` method (not the slower ``np.take``
  wrapper) gathers through in ``"wrap"`` mode straight into preallocated
  outputs.  The wrap is exact, as a uint16 index always lies inside the
  fused table and a uint8 index inside an S-box; the default bounds check
  would also stage each gather in a temporary.

Both paths read one input, checked before the path is chosen: bytes-like
data or a 1-D uint8 array, any other array raising DimensionMismatch.  Either
returns a fresh, flat, writable uint8 array (numpy's is the keystream buffer,
XORed in place), which the pipeline writes the payload frame straight into.

The key schedule is 521 chained block encryptions, so it cannot be
vectorised.  Its scalar block function, also the single-block API on a
Python schedule and the scalar reference the tests hold the numpy kernel to,
is the 16-round Feistel loop of the cipher's description, with F inlined.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from . import _gcrypt
from ._pi_digits import PI_FRACTION_HEX
from .errors import BadKeyLength, BadLength, check_flat

_WORDS = [int(PI_FRACTION_HEX[i : i + 8], 16) for i in range(0, len(PI_FRACTION_HEX), 8)]
P_INIT: tuple[int, ...] = tuple(_WORDS[:18])
S_INIT: tuple[tuple[int, ...], ...] = tuple(
    tuple(_WORDS[18 + 256 * k : 18 + 256 * (k + 1)]) for k in range(4)
)

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
MIN_KEY_BYTES = 4
MAX_KEY_BYTES = 56
# counter blocks per vectorised pass: at 16K blocks the four 64 KB word
# buffers a round works in and the 256 KB fused table stay near the cache, and
# a call's scratch (those buffers plus ndarray.take's 128 KB intp index copy)
# is 384 KB
_CHUNK_BLOCKS = 1 << 14


class BlowfishState:
    """A scheduled key: a libgcrypt cipher, (counter, data) -> output, holding no
    tables here; or, with cipher None, the P-array and S-boxes after key mixing,
    as ints and as uint32 arrays, plus fused S0+S1."""

    __slots__ = ("p", "s", "_p32", "_s_np", "_t01", "_cipher")

    def __init__(self, p: list[int] | None, s: list[list[int]] | None, cipher=None):
        self._cipher = cipher
        if cipher is None:
            self.p = tuple(p)
            self._p32 = np.asarray(p, dtype=np.uint32)
            self.s = tuple(tuple(box) for box in s)
            self._s_np = np.asarray(s, dtype=np.uint32)  # one (4, 256) array
            # _t01[(a << 8) | b] = (S0[a] + S1[b]) mod 2^32, 65,536 entries
            self._t01 = (self._s_np[0][:, None] + self._s_np[1][None, :]).reshape(-1)


def bf_key_schedule(key: bytes) -> BlowfishState:
    """Mix the key into a libgcrypt cipher where that is bound, else into the
    P-array and S-boxes in Python; the bytes are the same."""
    if not MIN_KEY_BYTES <= len(key) <= MAX_KEY_BYTES:
        raise BadKeyLength(
            f"Blowfish key must be {MIN_KEY_BYTES}..{MAX_KEY_BYTES} bytes, got {len(key)}"
        )
    native = _native_schedule()
    return native(key) if native else _python_key_schedule(key)


def _python_key_schedule(key: bytes) -> BlowfishState:
    """The schedule in Python: the fallback, and the tests' reference."""
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


@functools.cache
def _native_schedule():
    """The libgcrypt key schedule, bound on first use, or None to run it in Python."""
    return _bind(_gcrypt._load())


# The known answer, under the key of one of the published ECB vectors: that
# vector's block, then the keystream from counter 2^64 - 2 across the wrap to
# counter 1, whose first 13 bytes a first call gets, leaving three bytes of a
# block unused, and all of which a second call from the same counter gets.  A
# counter written or counted in the other byte order, or whose low word alone
# counts, misses it.  Last, the same block under a weak key (the Python
# schedule's S1 repeats a word), which a library keying no weak key misses
_CHECK_KEY, _CHECK_BLOCK, _CHECK_CIPHERTEXT = (
    bytes.fromhex(h) for h in ("0123456789ABCDEF", "1111111111111111", "61F9C3802281B096")
)
_CHECK_NONCE = _MASK64 - 1
_CHECK_LENGTHS = (13, 32)
_CHECK_STREAM = bytes.fromhex("59bc08a9702930831c6cd49835c7b012245946885754369a3b538209f118ef2a")
_CHECK_WEAK_KEY, _CHECK_WEAK_CIPHERTEXT = b"weak098604", bytes.fromhex("e0d7a972a5637fa7")


def _bind(lib):
    """A key schedule opening one lib Blowfish-CTR handle per key; or None
    where lib is None or misses the known answer."""
    if lib is None:
        return None

    def schedule(key: bytes) -> BlowfishState:
        return BlowfishState(None, None, _gcrypt.cipher(lib, _gcrypt.BLOWFISH, _gcrypt.CTR, key))

    try:
        check = schedule(_CHECK_KEY)
        block = bf_encrypt_block(check, _CHECK_BLOCK)
        calls = [check._cipher(_CHECK_NONCE.to_bytes(8, "big"), bytes(n)).tobytes() for n in _CHECK_LENGTHS]
        weak = bf_encrypt_block(schedule(_CHECK_WEAK_KEY), _CHECK_BLOCK)
    except RuntimeError:  # a call returned an error
        return None
    expect = [_CHECK_STREAM[:n] for n in _CHECK_LENGTHS]
    return schedule if (block, calls, weak) == (_CHECK_CIPHERTEXT, expect, _CHECK_WEAK_CIPHERTEXT) else None


def _encrypt_words(p, s, xl: int, xr: int) -> tuple[int, int]:
    # F inlined, by precedence (S0 + S1 ^ S2) + S3 & mask: one mask suffices, as
    # the low 32 bits of a sum or xor depend only on those of its operands
    s0, s1, s2, s3 = s
    for i in range(16):
        xl ^= p[i]
        xr ^= (s0[xl >> 24] + s1[xl >> 16 & 0xFF] ^ s2[xl >> 8 & 0xFF]) + s3[xl & 0xFF] & _MASK32
        xl, xr = xr, xl
    return xr ^ p[17], xl ^ p[16]


def bf_encrypt_block(state: BlowfishState, block: bytes) -> bytes:
    if len(block) != 8:
        raise BadLength(f"block must be 8 bytes, got {len(block)}")
    if state._cipher is not None:  # E(block) is the keystream at counter = block
        return state._cipher(bytes(block), bytes(8)).tobytes()
    xl, xr = _encrypt_words(state.p, state.s, *struct.unpack(">II", block))
    return struct.pack(">II", xl, xr)


def bf_ctr_transform(state: BlowfishState, nonce: int, data: bytes | np.ndarray) -> np.ndarray:
    """XOR data with the keystream of big-endian counter blocks (nonce + i) mod 2^64,
    each Blowfish-encrypted; applying it twice is the identity.

    Either path takes data, left unchanged, as bytes-like (read as its bytes, a
    strided memoryview's in order) or a 1-D uint8 array (a strided one is
    copied first); any other array raises DimensionMismatch.  The result is a
    fresh, flat, writable uint8 array of data's size: libgcrypt's output, or
    the numpy keystream buffer XORed in place.
    """
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(check_flat(data, "keystream input"))  # no copy if contiguous
    else:
        data = np.frombuffer(data if memoryview(data).c_contiguous else bytes(data), np.uint8)
    if state._cipher is not None:
        return state._cipher((nonce & _MASK64).to_bytes(8, "big"), data)
    blocks = np.empty(((data.size + 7) // 8, 2), dtype=">u4")
    _numpy_keystream(state, nonce, blocks)
    out = blocks.view(np.uint8).reshape(-1)[: data.size]
    np.bitwise_xor(out, data, out=out)
    return out


def _numpy_keystream(state: BlowfishState, nonce: int, blocks: np.ndarray) -> None:
    """Write the keystream from counter nonce into blocks, (n, 2) big-endian
    words, with the Feistel rounds run on whole chunks of counters in numpy."""
    nblocks = len(blocks)
    n = min(_CHUNK_BLOCKS, nblocks)
    # little-endian halves, so the S-box indices are plain views of a half:
    # half-word 1 is x >> 16, byte 1 is (x >> 8) & 0xFF, byte 0 is x & 0xFF
    xl_buf = np.empty(n, dtype="<u4")
    xr_buf = np.empty(n, dtype="<u4")
    f_buf = np.empty(n, dtype=np.uint32)
    g_buf = np.empty(n, dtype=np.uint32)
    p, t01, s2, s3 = state._p32, state._t01, state._s_np[2], state._s_np[3]

    for start in range(0, nblocks, _CHUNK_BLOCKS):
        base = (nonce + start) & _MASK64
        high, low = base >> 32, base & _MASK32
        m = min(_CHUNK_BLOCKS, nblocks - start)
        xl, xr, f, g = xl_buf[:m], xr_buf[:m], f_buf[:m], g_buf[:m]
        # the counters' low words, wrapping, then their high words: a low word
        # below the chunk's first has carried
        np.add(np.arange(m, dtype=np.uint32), low, out=xr)
        np.less(xr, low, out=xl)
        xl += high
        il, ir = _index_views(xl), _index_views(xr)
        for i in range(16):
            np.bitwise_xor(xl, p[i], out=xl)
            # F(x) = (T01[x >> 16] ^ S2[(x >> 8) & 0xFF]) + S3[x & 0xFF]
            hw, b1, b0 = il
            t01.take(hw, out=f, mode="wrap")
            s2.take(b1, out=g, mode="wrap")
            f ^= g
            s3.take(b0, out=g, mode="wrap")
            f += g
            xr ^= f
            xl, xr, il, ir = xr, xl, ir, il
        # the names still carry the last round's swap, so the halves are
        # whitened crosswise into the output words: (xr ^ P17, xl ^ P16)
        np.bitwise_xor(xr, p[17], out=blocks[start : start + m, 0])
        np.bitwise_xor(xl, p[16], out=blocks[start : start + m, 1])


def _index_views(half: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The S-box indices of a little-endian half: x >> 16, (x >> 8) & 0xFF, x & 0xFF."""
    x8 = half.view(np.uint8)
    return half.view("<u2")[1::2], x8[1::4], x8[0::4]
