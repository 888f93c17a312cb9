"""Blowfish for the cover path: block primitives plus a counter-mode keystream.

Counter mode matters here: LSB substitution happens in the encrypted domain,
and under CTR a flipped ciphertext bit maps back to exactly one flipped
plaintext bit, which the room-reservation step can restore.  A block mode
would smear every flipped LSB over a whole 8-byte block on decryption and
destroy reversibility.

Where the platform's libcrypto (the one CPython's ``_hashlib`` links)
exports ``BF_set_key`` and ``BF_cbc_encrypt``, both run there.  Blowfish
decryption is encryption with the P-array reversed, so under a ``BF_KEY``
whose P-array is reversed, CBC decryption of the big-endian counter blocks
c_1..c_m with IV c_0 = c_1 - 1 writes E(c_i) ^ c_(i-1): one bulk C loop per
chunk, and one XOR with the counters shifted by a block leaves the
keystream.  Each native state keeps its reversed-P key words.  The call
releases the GIL, but it stays on one thread: splitting it over two was
slower than one on two vCPUs.  Both symbols are bound together on the first
schedule, or neither; the binding is kept only if the all-zero key's whole
state matches a pinned digest and its keystream across the 2^64 wrap matches
the scalar cipher.  No option selects the path.

Elsewhere the keystream is computed in numpy, which also serves the tests as
the reference: the Feistel rounds run on whole arrays of counter blocks at
once.  Four choices keep it fast and small:

- A fused S0+S1 table.  Each key schedule also builds
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
  65,536-entry fused table and a uint8 index inside an S-box; the default
  bounds check would also stage each gather in a temporary.  The last
  round's halves are whitened straight into the big-endian output.
- 32-bit counter words, no 64-bit counter array.  A chunk also ends where
  the low word carries, so its counters share one high word and their low
  words count up from the chunk's first without wrapping.
- Counter-determined rounds.  Within a chunk, round 0's input is the high
  word alone, so its F is one scalar; it sets the key K that round 1's input
  ``v ^ K`` carries, v being the low word.  Round 1's F is then a row term,
  ``T01 ^ S2`` of ``(v >> 8) ^ (K >> 8)``, plus a column term, ``S3`` of
  ``(v & 0xFF) ^ (K & 0xFF)``: a table of one word per 256-counter row the
  chunk touches and one of 256 words, added by broadcasting into the left
  half.  Rounds 0 and 1 thus make no per-block gather, and only rounds 2-15
  gather per block.

``bf_ctr_transform`` XORs the data into the keystream buffer it has just
filled and returns that buffer, a fresh, flat, writable uint8 array: the
pipeline writes the payload frame straight into it, with no copy.

The key schedule is 521 chained block encryptions, so it cannot be
vectorised.  It runs in libcrypto where that is bound (both symbols are
deprecated in OpenSSL 3 and absent from ``no-deprecated`` builds), else in
Python, with the same state; the library is over ten times faster.  The
Python schedule stays as the fallback and the tests' reference.  Its scalar
block function, also the single-block API, unrolls all 16 rounds, with F
inlined and each P-array XOR folded into a round: no loop, no call and no
swap per block.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib

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
# counter blocks per vectorised pass: at 16K blocks the four 64 KB word
# buffers a round works in and the 256 KB fused table stay near the cache, and
# a call's scratch (those buffers plus ndarray.take's 128 KB intp index copy)
# is 384 KB.  32K blocks took about 3.5% less time on a 786 KB call, for twice
# that scratch, which set the image round trip's memory peak
_CHUNK_BLOCKS = 1 << 14
_BYTES = np.arange(256, dtype=np.uint8)
_STATE_WORDS = 18 + 4 * 256  # the P-array and the four S-boxes


class BlowfishState:
    """P-array and S-boxes after key mixing, as ints and as uint32 arrays, plus fused S0+S1."""

    __slots__ = ("p", "s", "_p32", "_s_np", "_t01", "_keystream")

    def __init__(self, p: list[int], s: list[list[int]]):
        self.p = tuple(p)
        self._p32 = np.asarray(p, dtype=np.uint32)
        self.s = tuple(tuple(box) for box in s)
        self._s_np = np.asarray(s, dtype=np.uint32)  # one (4, 256) array
        # _t01[(a << 8) | b] = (S0[a] + S1[b]) mod 2^32, 65,536 entries
        self._t01 = (self._s_np[0][:, None] + self._s_np[1][None, :]).reshape(-1)
        # the libcrypto keystream under this state, set by the libcrypto
        # schedule: (nonce, blocks) -> None.  None runs the numpy kernel
        self._keystream = None


def bf_key_schedule(key: bytes) -> BlowfishState:
    """Mix the key into the pi-initialized P-array and S-boxes, in libcrypto
    where it is bound, else in Python; the state is the same either way."""
    if not MIN_KEY_BYTES <= len(key) <= MAX_KEY_BYTES:
        raise BadKeyLength(
            f"Blowfish key must be {MIN_KEY_BYTES}..{MAX_KEY_BYTES} bytes, got {len(key)}"
        )
    return (_native_schedule() or _python_key_schedule)(key)


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


def _libcrypto():
    """The libcrypto CPython's _hashlib links, as a ctypes library, or None."""
    try:
        import _hashlib

        # symbol lookups through this handle also search the libraries it links
        return ctypes.CDLL(_hashlib.__file__)
    except (ImportError, AttributeError, OSError):  # no OpenSSL, built in, or unloadable
        return None


@functools.cache
def _native_schedule():
    """The libcrypto key schedule, bound on first use, or None to run it in Python."""
    return _bind(_libcrypto())


# SHA-256 of the all-zero 8-byte key's 1,042 state words, big-endian
_ZERO_KEY_DIGEST = "e230e9720babf049ceb56b06dee05423d9a7cbdfaea0cb673b0ea8a29c805b57"


def _state_digest(state: BlowfishState) -> str:
    words = np.concatenate((state._p32, state._s_np.reshape(-1)))
    return hashlib.sha256(words.astype(">u4").tobytes()).hexdigest()


def _bind(lib):
    """A key schedule calling lib's BF_set_key, whose states run their keystream
    through lib's BF_cbc_encrypt; or None where lib is None, lacks either
    symbol, or fails the all-zero key's state digest or keystream."""
    set_key = getattr(lib, "BF_set_key", None)
    cbc = getattr(lib, "BF_cbc_encrypt", None)
    if set_key is None or cbc is None:
        return None
    set_key.argtypes = (ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p)
    set_key.restype = None
    # BF_cbc_encrypt(in, out, length, schedule, ivec, enc)
    cbc.argtypes = (ctypes.c_void_p,) * 2 + (ctypes.c_long,) + (ctypes.c_void_p,) * 2 + (ctypes.c_int,)
    cbc.restype = None

    def schedule(key: bytes) -> BlowfishState:
        # BF_KEY is P[18] then S[4 * 256] of BF_LONG; twice the room of 32-bit
        # words, so a 64-bit BF_LONG writes in bounds and fails the check below
        words = np.zeros(2 * _STATE_WORDS, dtype=np.uint32)
        set_key(words.ctypes.data, len(key), bytes(key))
        state = BlowfishState(words[:18].tolist(), words[18:_STATE_WORDS].reshape(4, 256).tolist())
        words[:18] = words[17::-1].copy()  # decryption under the reversed P encrypts
        state._keystream = functools.partial(_native_keystream, cbc, words)
        return state

    zero = schedule(bytes(8))
    if _state_digest(zero) != _ZERO_KEY_DIGEST:
        return None
    # three counters across the 2^64 wrap, against the scalar cipher
    stream = np.empty((3, 2), dtype=">u4")
    zero._keystream(_MASK64, stream)
    counters = (_MASK64, 0, 1)
    if stream.tobytes() != b"".join(bf_encrypt_block(zero, c.to_bytes(8, "big")) for c in counters):
        return None
    return schedule


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
    blocks = np.empty(((nbytes + 7) // 8, 2), dtype=">u4")
    if state._keystream is None:
        _numpy_keystream(state, nonce, blocks)
    else:
        state._keystream(nonce, blocks)
    out = blocks.view(np.uint8).reshape(-1)[:nbytes]
    np.bitwise_xor(out, np.frombuffer(data, dtype=np.uint8), out=out)
    return out


def _native_keystream(cbc, bf_key: np.ndarray, nonce: int, blocks: np.ndarray) -> None:
    """Write the keystream from counter nonce into blocks through libcrypto's
    BF_cbc_encrypt, decrypting under bf_key, the state with its P-array reversed.

    Each chunk's counters c_0..c_m go into one reused buffer, c_0 being the
    one before the chunk's first, and are byte-swapped there into big-endian
    blocks.  CBC decryption of c_1..c_m with IV c_0 writes E(c_i) ^ c_(i-1),
    and XORing the buffer's first m blocks back leaves E(c_i).
    """
    nblocks = len(blocks)
    n = min(_CHUNK_BLOCKS, nblocks)
    ramp = np.arange(n + 1, dtype=np.uint64)
    counters = np.empty(n + 1, dtype=np.uint64)
    iv = np.empty(1, dtype=np.uint64)  # BF_cbc_encrypt overwrites its IV
    stream = blocks.view(np.uint64).reshape(-1)  # XOR is byte-order-free
    out, ctr, key, ivec = (a.ctypes.data for a in (blocks, counters, bf_key, iv))
    for start in range(0, nblocks, _CHUNK_BLOCKS):
        m = min(_CHUNK_BLOCKS, nblocks - start)
        c = counters[: m + 1]
        np.add(ramp[: m + 1], (nonce + start - 1) & _MASK64, out=c)  # wraps mod 2^64
        c.byteswap(inplace=True)
        iv[0] = c[0]
        cbc(ctr + 8, out + 8 * start, 8 * m, key, ivec, 0)
        chunk = stream[start : start + m]
        np.bitwise_xor(chunk, c[:m], out=chunk)


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

    start = 0
    while start < nblocks:
        base = (nonce + start) & _MASK64
        high, low = base >> 32, base & _MASK32
        m = min(_CHUNK_BLOCKS, nblocks - start, (1 << 32) - low)  # ends at the low word's carry
        xl, xr, f, g = xl_buf[:m], xr_buf[:m], f_buf[:m], g_buf[:m]
        _first_two_rounds(state, high, low, xl, xr)
        il, ir = _index_views(xl), _index_views(xr)
        for i in range(2, 16):
            if i > 2:  # round 2's P entry is already in xl
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
        start += m


def _index_views(half: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The S-box indices of a little-endian half: x >> 16, (x >> 8) & 0xFF, x & 0xFF."""
    x8 = half.view(np.uint8)
    return half.view("<u2")[1::2], x8[1::4], x8[0::4]


def _first_two_rounds(
    state: BlowfishState, high: int, low: int, xl: np.ndarray, xr: np.ndarray
) -> None:
    """Rounds 0 and 1 for the counters (high, low + i), i < len(xl), whose low
    words do not wrap; writes the halves that enter round 2, with P2 in xl.

    Round 0's input is the high word alone, so its F is one scalar, and round
    1's input is v ^ key with v = low + i.  Its F depends on x >> 8 =
    (v >> 8) ^ (key >> 8) through T01 ^ S2 and on x & 0xFF = (v & 0xFF) ^
    (key & 0xFF) through S3, so it is a row term plus a column term over the
    256-counter rows: one small table for each, broadcast into xl.
    """
    p, (s0, s1, s2, s3) = state.p, state.s
    x = high ^ p[0]
    key = ((s0[x >> 24] + s1[x >> 16 & 0xFF] ^ s2[x >> 8 & 0xFF]) + s3[x & 0xFF] & _MASK32) ^ p[1]
    np.bitwise_xor(np.arange(low, low + xl.size, dtype=np.uint32), key, out=xr)  # v ^ key
    # x >> 8 for each 256-counter row the chunk touches, x & 0xFF for each column
    rows = np.arange(low >> 8, ((low + xl.size - 1) >> 8) + 1, dtype=np.uint32)
    rows ^= key >> 8
    cols = _BYTES ^ (key & 0xFF)
    row_f = state._t01.take(rows >> 8, mode="wrap")
    row_f ^= state._s_np[2].take(rows & 0xFF, mode="wrap")
    _rows_plus_cols(row_f, state._s_np[3].take(cols, mode="wrap"), low & 0xFF, xl)
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
