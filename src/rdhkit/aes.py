"""AES-128 for the payload path: CBC with PKCS#7, in libgcrypt or in Python.

Where ``_gcrypt`` loads libgcrypt, CBC (NIST SP 800-38A §6.2) runs there,
in one call per direction on a handle keyed for that call.  Padding and the
checks of every input stay in Python, and no option selects the path.

Elsewhere the cipher runs in Python, which also serves the tests as the
reference; both paths give the same bytes.  Its rounds use the 32-bit
T-table form of Rijndael (FIPS-197 §5; Daemen and Rijmen, *The Design of
Rijndael*, §4.2): SubBytes, ShiftRows and MixColumns fold into four
256-entry word tables, so a round is 16 table lookups XORed into four column
words.  CBC encryption chains each block into the next, so it runs block by
block on a 16-byte state: one ``struct`` unpack names the bytes, the lookups
take the names in ShiftRows order (so ShiftRows costs nothing), and one pack
makes bytes of the four column words.  The last round has no MixColumns:
``(state * 5)[::5]`` is the state after ShiftRows (byte i is byte 5i mod
16), and ``bytes.translate`` substitutes all 16 bytes at once.  Whitening
and the chain are one 128-bit int XOR per block.  CBC decryption has no
chain between blocks, so ``decrypt_block`` runs the equivalent inverse
cipher (FIPS-197 §5.3.5: InvMixColumns applied to round keys 1-9) on every
block at once, with numpy uint32 inverse T-tables gathered over all blocks.

``expand_key`` returns the 44 schedule words w[0..43] of FIPS-197 §5.2, the
form both Python directions read.  The FIPS-197 known-answer block (the
first block of a zero-IV CBC encryption is ECB) and the NIST SP 800-38A
F.2.1 CBC vectors check both paths byte for byte.  Only the 128-bit key size
is supported.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from . import _gcrypt
from .errors import BadKeyLength, BadLength, BadPadding

BLOCK_SIZE = 16
NUM_ROUNDS = 10

SBOX = (
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B, 0xFE, 0xD7, 0xAB, 0x76,
    0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0, 0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0,
    0xB7, 0xFD, 0x93, 0x26, 0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2, 0xEB, 0x27, 0xB2, 0x75,
    0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0, 0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84,
    0x53, 0xD1, 0x00, 0xED, 0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F, 0x50, 0x3C, 0x9F, 0xA8,
    0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5, 0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2,
    0xCD, 0x0C, 0x13, 0xEC, 0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14, 0xDE, 0x5E, 0x0B, 0xDB,
    0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C, 0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79,
    0xE7, 0xC8, 0x37, 0x6D, 0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F, 0x4B, 0xBD, 0x8B, 0x8A,
    0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E, 0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E,
    0xE1, 0xF8, 0x98, 0x11, 0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F, 0xB0, 0x54, 0xBB, 0x16,
)

INV_SBOX = tuple(SBOX.index(x) for x in range(256))
_SBOX_BYTES = bytes(SBOX)  # SubBytes of a whole state through bytes.translate


RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def expand_key(key: bytes) -> list[int]:
    """The 44 schedule words w[0..43] of FIPS-197 §5.2; round r's key is w[4r..4r+3]."""
    _check_key(key)
    w = list(struct.unpack(">4I", key))
    for i in range(4, 44):
        temp = w[i - 1]
        if i % 4 == 0:  # SubWord(RotWord(temp)) ^ Rcon
            temp = (
                (SBOX[temp >> 16 & 255] ^ RCON[i // 4 - 1]) << 24
                | SBOX[temp >> 8 & 255] << 16
                | SBOX[temp & 255] << 8
                | SBOX[temp >> 24]
            )
        w.append(w[i - 4] ^ temp)
    return w


def _xtime(b: int) -> int:
    b <<= 1
    return (b ^ 0x1B) & 0xFF if b & 0x100 else b


def _gmul(a: int, b: int) -> int:
    p = 0
    while b:
        if b & 1:
            p ^= a
        a = _xtime(a)
        b >>= 1
    return p


# column-mix multiplication tables, derived from the field arithmetic above
_MUL2 = tuple(_gmul(x, 2) for x in range(256))
_MUL3 = tuple(_gmul(x, 3) for x in range(256))
_MUL9 = tuple(_gmul(x, 9) for x in range(256))
_MUL11 = tuple(_gmul(x, 11) for x in range(256))
_MUL13 = tuple(_gmul(x, 13) for x in range(256))
_MUL14 = tuple(_gmul(x, 14) for x in range(256))


def _ror8(word: int) -> int:
    return (word >> 8) | (word & 0xFF) << 24


# _TE<j>[x]: what byte x in row j adds to its column word after SubBytes and
# MixColumns, row 0 in the top byte
_TE0 = tuple(_MUL2[s] << 24 | s << 16 | s << 8 | _MUL3[s] for s in SBOX)
_TE1 = tuple(map(_ror8, _TE0))
_TE2 = tuple(map(_ror8, _TE1))
_TE3 = tuple(map(_ror8, _TE2))
_STATE = struct.Struct("16B")  # a round's 16 state bytes
_COLUMNS = struct.Struct(">4I")  # its four column words, row 0 in the top byte


# The inverse cipher works on (nblocks, 16) state bytes, byte 4c + j being
# row j of column c.  _TD[256 j + x] is what byte x in row j adds to its
# column after InvSubBytes and InvMixColumns, as a uint32 whose memory bytes
# are rows 0-3, so a word XOR is a bytewise XOR in either byte order.
_SBOX_NP = np.array(SBOX, np.uint8)
_INV_SBOX_NP = np.array(INV_SBOX, np.uint8)
_INV_MIX_COL0 = np.stack(  # InvMixColumns' first column, (14, 9, 13, 11), times InvSubBytes
    [np.array(m, np.uint8)[_INV_SBOX_NP] for m in (_MUL14, _MUL9, _MUL13, _MUL11)], axis=1
)
_TD = np.stack([np.roll(_INV_MIX_COL0, j, axis=1) for j in range(4)]).view(np.uint32).reshape(-1)
_BY_ROW = np.array([4 * c + j for j in range(4) for c in range(4)])  # state bytes grouped by row
_TD_OFFSET = np.repeat(np.arange(0, 1024, 256, dtype=np.uint16), 4)  # 256 j for each of _BY_ROW
_INV_SHIFT_ROWS = np.array([(p - 4 * (p % 4)) % 16 for p in range(16)])  # source byte of each byte
_ROUND_ORDER = _INV_SHIFT_ROWS[_BY_ROW]  # a round's gather: InvShiftRows, grouped by row


def _inv_mix(state: np.ndarray, order: np.ndarray) -> np.ndarray:
    """InvSubBytes and InvMixColumns of the state bytes taken in order, grouped by row.

    Returns (nblocks, 4) column words, ready to be viewed as state bytes again.
    """
    t = _TD.take(state.take(order, axis=1) + _TD_OFFSET)
    return t[:, 0:4] ^ t[:, 4:8] ^ t[:, 8:12] ^ t[:, 12:16]


def decrypt_block(block: bytes, round_keys: list[int]) -> bytes:
    """The inverse cipher on every 16-byte block of block at once (ECB).

    CBC decryption calls this once on its whole ciphertext.  Each round is
    one gather of all state bytes through _TD, keyed by the equivalent
    inverse cipher's round keys.
    """
    if not block or len(block) % BLOCK_SIZE:
        raise BadLength(f"block length {len(block)} is not a positive multiple of {BLOCK_SIZE}")
    # big-endian words: each round key's bytes in FIPS-197 order
    rk = np.array(round_keys, ">u4").view(np.uint8).reshape(NUM_ROUNDS + 1, BLOCK_SIZE)
    # equivalent-inverse-cipher keys; the S-box cancels the InvSubBytes inside _TD
    inv_mixed_keys = _inv_mix(_SBOX_NP[rk], _BY_ROW)
    state = np.frombuffer(block, np.uint8).reshape(-1, BLOCK_SIZE) ^ rk[NUM_ROUNDS]
    for i in range(NUM_ROUNDS - 1, 0, -1):
        state = (_inv_mix(state, _ROUND_ORDER) ^ inv_mixed_keys[i]).view(np.uint8)
    return (_INV_SBOX_NP[state.take(_INV_SHIFT_ROWS, axis=1)] ^ rk[0]).tobytes()


def _check_key(key: bytes) -> None:
    if len(key) != 16:
        raise BadKeyLength(f"AES-128 key must be 16 bytes, got {len(key)}")


def _check_iv(iv: bytes) -> None:
    if len(iv) != BLOCK_SIZE:
        raise BadLength(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")


def _pad(data: bytes) -> bytes:
    n = BLOCK_SIZE - len(data) % BLOCK_SIZE
    return data + bytes([n]) * n


def _unpad(data: bytes) -> bytes:
    n = data[-1]
    if not 1 <= n <= BLOCK_SIZE or data[-n:] != bytes([n]) * n:
        raise BadPadding("invalid block padding: wrong key or corrupted ciphertext")
    return data[:-n]


def aes_cbc_encrypt(data: bytes, key: bytes, iv: bytes) -> bytes:
    """CBC over PKCS#7-padded data; output is always a whole number of blocks."""
    _check_iv(iv)
    _check_key(key)
    return (_native_cbc() or _python_cbc)(_pad(data), key, iv, 1)


def aes_cbc_decrypt(data: bytes, key: bytes, iv: bytes) -> bytes:
    _check_iv(iv)
    _check_key(key)
    if not data or len(data) % BLOCK_SIZE:
        raise BadLength(f"ciphertext length {len(data)} is not a positive multiple of {BLOCK_SIZE}")
    return _unpad((_native_cbc() or _python_cbc)(data, key, iv, 0))


def _python_cbc(blocks: bytes, key: bytes, iv: bytes, enc: int) -> bytes:
    """CBC over whole blocks in Python, encrypting if enc: the fallback, and
    the tests' reference."""
    if not enc:
        decrypted = np.frombuffer(decrypt_block(blocks, expand_key(key)), np.uint8)
        return (decrypted ^ np.frombuffer(iv + blocks[:-BLOCK_SIZE], np.uint8)).tobytes()
    t0, t1, t2, t3, unpack, pack = _TE0, _TE1, _TE2, _TE3, _STATE.unpack, _COLUMNS.pack
    rk = expand_key(key)
    rk0 = int.from_bytes(pack(*rk[:4]), "big")
    rk10 = int.from_bytes(pack(*rk[40:]), "big")
    middle = [rk[r : r + 4] for r in range(4, 4 * NUM_ROUNDS, 4)]  # round keys 1-9
    out = bytearray()
    chain = int.from_bytes(iv, "big") ^ rk0
    for i in range(0, len(blocks), 16):
        state = (int.from_bytes(blocks[i : i + 16], "big") ^ chain).to_bytes(16, "big")
        for k0, k1, k2, k3 in middle:
            # byte 4c + r is row r of column c; column c takes row r from column c + r
            a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = unpack(state)
            state = pack(
                t0[a0] ^ t1[a5] ^ t2[a10] ^ t3[a15] ^ k0,
                t0[a4] ^ t1[a9] ^ t2[a14] ^ t3[a3] ^ k1,
                t0[a8] ^ t1[a13] ^ t2[a2] ^ t3[a7] ^ k2,
                t0[a12] ^ t1[a1] ^ t2[a6] ^ t3[a11] ^ k3,
            )
        block = int.from_bytes((state * 5)[::5].translate(_SBOX_BYTES), "big") ^ rk10
        out += block.to_bytes(16, "big")
        chain = block ^ rk0
    return bytes(out)


@functools.cache
def _native_cbc():
    """libgcrypt's CBC, bound on first use, or None to run it in Python."""
    return _bind(_gcrypt._load())


# (key, iv, plaintext, ciphertext): the FIPS-197 C.1 block, whose zero-IV CBC
# is ECB, and the NIST SP 800-38A F.2.1 CBC-AES128 vector
_CHECK_VECTORS = tuple(
    tuple(map(bytes.fromhex, vector))
    for vector in (
        (
            "000102030405060708090a0b0c0d0e0f",
            "00" * 16,
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        ),
        (
            "2b7e151628aed2a6abf7158809cf4f3c",
            "000102030405060708090a0b0c0d0e0f",
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
            "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2"
            "73bed6b8e3c1743b7116e69e222295163ff1caa1681fac09120eca307586e1a7",
        ),
    )
)


def _bind(lib):
    """CBC over whole blocks on one lib AES-128-CBC handle per call, called as
    _python_cbc is; or None where lib is None or misses the check vectors in
    either direction."""
    if lib is None:
        return None

    def run(blocks: bytes, key: bytes, iv: bytes, enc: int) -> bytes:
        # the caller has checked the key, the IV and, decrypting, the length
        cbc = _gcrypt.cipher(lib, _gcrypt.AES128, _gcrypt.CBC, key)
        return cbc(bytes(iv), blocks, decrypt=not enc).tobytes()

    try:
        ok = all(run(p, key, iv, 1) == c and run(c, key, iv, 0) == p for key, iv, p, c in _CHECK_VECTORS)
    except RuntimeError:  # a call returned an error
        return None
    return run if ok else None
