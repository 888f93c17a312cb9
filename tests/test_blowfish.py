import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from rdhkit import blowfish as bf
from rdhkit.errors import BadKeyLength

# from the published Blowfish ECB reference vector set
ECB_VECTORS = [
    ("0000000000000000", "0000000000000000", "4EF997456198DD78"),
    ("FFFFFFFFFFFFFFFF", "FFFFFFFFFFFFFFFF", "51866FD5B85ECB8A"),
    ("3000000000000000", "1000000000000001", "7D856F9A613063F2"),
    ("1111111111111111", "1111111111111111", "2466DD878B963C9D"),
    ("0123456789ABCDEF", "1111111111111111", "61F9C3802281B096"),
    ("1111111111111111", "0123456789ABCDEF", "7D0CC630AFDA1EC7"),
    ("FEDCBA9876543210", "0123456789ABCDEF", "0ACEAB0FC6A0A28D"),
    ("7CA110454A1A6E57", "01A1D6D039776742", "59C68245EB05282B"),
    ("0131D9619DC1376E", "5CD54CA83DEF57DA", "B1B8CC0B250F09A0"),
]


def test_pre_mix_state_is_pi():
    assert bf.P_INIT[0] == 0x243F6A88
    assert bf.P_INIT[1] == 0x85A308D3
    assert bf.S_INIT[0][0] == 0xD1310BA6
    assert len(bf.P_INIT) == 18
    assert all(len(box) == 256 for box in bf.S_INIT)


def test_key_length_limits():
    with pytest.raises(BadKeyLength):
        bf.bf_key_schedule(b"abc")
    with pytest.raises(BadKeyLength):
        bf.bf_key_schedule(b"x" * 57)
    bf.bf_key_schedule(b"abcd")
    bf.bf_key_schedule(b"x" * 56)


def test_schedule_is_deterministic():
    a = bf.bf_key_schedule(b"same key")
    b = bf.bf_key_schedule(b"same key")
    assert a.p == b.p
    assert a.s == b.s


@pytest.mark.parametrize("key_hex,plain_hex,cipher_hex", ECB_VECTORS)
def test_published_ecb_vectors(key_hex, plain_hex, cipher_hex):
    state = bf.bf_key_schedule(bytes.fromhex(key_hex))
    ct = bf.bf_encrypt_block(state, bytes.fromhex(plain_hex))
    assert ct.hex().upper() == cipher_hex


def test_variable_length_key_vector():
    state = bf.bf_key_schedule(b"abcdefghijklmnopqrstuvwxyz")
    assert bf.bf_encrypt_block(state, b"BLOWFISH").hex().upper() == "324ED0FEF413A203"


def test_block_length_enforced():
    state = bf.bf_key_schedule(b"abcd")
    with pytest.raises(ValueError):
        bf.bf_encrypt_block(state, b"short")


def test_ctr_first_keystream_block_matches_zero_vector():
    state = bf.bf_key_schedule(bytes(8))
    # encrypting plaintext zeros under nonce 0 exposes the raw keystream
    out = bf.bf_ctr_transform(state, 0, bytes(8))
    assert out.tobytes().hex().upper() == "4EF997456198DD78"


def test_ctr_is_an_involution():
    rng = random.Random(13)
    state = bf.bf_key_schedule(b"ctr key!")
    for n in (0, 1, 7, 8, 9, 100, 4096):
        data = rng.randbytes(n)
        nonce = rng.getrandbits(64)
        back = bf.bf_ctr_transform(state, nonce, bf.bf_ctr_transform(state, nonce, data))
        assert back.tobytes() == data
    assert bf.bf_ctr_transform(state, 5, b"").tobytes() == b""


def test_ctr_matches_scalar_block_reference():
    rng = random.Random(14)
    state = bf.bf_key_schedule(b"refcheck")
    for _ in range(10):
        nonce = rng.getrandbits(64)
        n = rng.randrange(1, 120)
        data = rng.randbytes(n)
        stream = bytearray()
        i = 0
        while len(stream) < n:
            counter = ((nonce + i) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
            stream.extend(bf.bf_encrypt_block(state, counter))
            i += 1
        expect = bytes(a ^ b for a, b in zip(data, stream))
        assert bf.bf_ctr_transform(state, nonce, data).tobytes() == expect


def test_ctr_counter_wraps_mod_2_64():
    state = bf.bf_key_schedule(b"wrapwrap")
    data = bytes(24)
    out = bf.bf_ctr_transform(state, 0xFFFFFFFFFFFFFFFF, data)
    k0 = bf.bf_encrypt_block(state, (0xFFFFFFFFFFFFFFFF).to_bytes(8, "big"))
    k1 = bf.bf_encrypt_block(state, (0).to_bytes(8, "big"))
    k2 = bf.bf_encrypt_block(state, (1).to_bytes(8, "big"))
    assert out.tobytes() == k0 + k1 + k2


CONTRACT_DATA = random.Random(16).randbytes(1001)


@pytest.mark.parametrize(
    "given",
    [CONTRACT_DATA, np.frombuffer(CONTRACT_DATA, np.uint8).copy(), b""],
    ids=["bytes", "array", "empty"],
)
def test_ctr_returns_a_fresh_writable_array(given):
    before = bytes(given)
    out = bf.bf_ctr_transform(bf.bf_key_schedule(b"contract"), 21, given)
    assert isinstance(out, np.ndarray)
    assert out.dtype == np.uint8 and out.ndim == 1 and out.size == len(given)
    assert out.flags.writeable
    assert not np.shares_memory(out, np.frombuffer(given, np.uint8))
    assert bytes(given) == before


def test_ctr_bit_locality():
    rng = random.Random(15)
    state = bf.bf_key_schedule(b"locality")
    data = rng.randbytes(256)
    ct = bytearray(bf.bf_ctr_transform(state, 99, data))
    for bit in (0, 7, 8, 100, 2047):
        flipped = bytearray(ct)
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        back = bf.bf_ctr_transform(state, 99, bytes(flipped))
        diff = [i for i in range(len(data)) if back[i] != data[i]]
        assert diff == [bit // 8]
        assert back[bit // 8] ^ data[bit // 8] == 0x80 >> (bit % 8)


# SHA-256 of the keystream under schedule(GOLDEN_KEY), read as
# bf_ctr_transform(state, nonce, bytes(nbytes)), pinned from the
# earlier unfused, unchunked implementation
GOLDEN_KEY = b"rdhkit-benchmark-image-key"
GOLDEN_KEYSTREAMS = [
    (0x0123456789ABCDEF, 786_432, "9c077bba7ee65a67e5799ac1aa5ea75d372404b9a662a193cdb45788433d9ab6"),
    (0xFFFFFFFFFFFFFF00, 300_001, "9ea4ba4f4c8c61673d9e059b72f1ca64415b6eb40e1ffc28251961d7bbef4d06"),
    (0x00000000FFFFF000, 262_147, "88eaef0b1135232b67c66e9994903beb0c6910b24aa6def5f9a74c7e28b65c9a"),
]
CHUNK = bf._CHUNK_BLOCKS
MASK64 = (1 << 64) - 1


@pytest.mark.parametrize("nonce,nbytes,digest", GOLDEN_KEYSTREAMS)
def test_keystream_golden_digests(nonce, nbytes, digest):
    stream = bf.bf_ctr_transform(bf.bf_key_schedule(GOLDEN_KEY), nonce, bytes(nbytes))
    assert len(stream) == nbytes
    assert hashlib.sha256(stream).hexdigest() == digest


def _counter_blocks(nonce: int, nbytes: int) -> bytes:
    nblocks = (nbytes + 7) // 8
    return b"".join(((nonce + i) & MASK64).to_bytes(8, "big") for i in range(nblocks))


def _scalar_stream(state, nonce: int, nblocks: int) -> bytes:
    counters = (((nonce + i) & MASK64).to_bytes(8, "big") for i in range(nblocks))
    return b"".join(bf.bf_encrypt_block(state, c) for c in counters)


ROWS_STATE = bf.bf_key_schedule(b"row by column")


@pytest.mark.parametrize("high", [0x5EED, 0xFFFFFFFF], ids=["carry", "wrap-2^64"])
@pytest.mark.parametrize("offset", [0, 1, 255, 256, 257])
def test_low_word_carry_at_each_offset_from_a_row_start(high, offset):
    # rounds 0-1 come from per-row tables, one run before the low word
    # carries and one after; the first run is offset + start_col blocks long
    # (none for 0) and starts at column (-offset - start_col) mod 256
    for start_col in (0, 0x9D):
        nonce = ((high << 32) + (1 << 32) - offset - start_col) & MASK64
        nblocks = offset + start_col + 300
        stream = bf.bf_ctr_transform(ROWS_STATE, nonce, bytes(8 * nblocks)).tobytes()
        assert stream == _scalar_stream(ROWS_STATE, nonce, nblocks), (offset, start_col)


def test_runs_shorter_than_a_row():
    for nonce in (0x0123456789ABCD9D, 0xFEDCBA98765432FF):
        assert nonce & 0xFF
        expect = _scalar_stream(ROWS_STATE, nonce, 255)
        for nblocks in range(1, 256):
            stream = bf.bf_ctr_transform(ROWS_STATE, nonce, bytes(8 * nblocks)).tobytes()
            assert stream == expect[: 8 * nblocks], (nonce, nblocks)


@seed(1408)
@settings(max_examples=60, deadline=None)
@given(
    high=st.integers(0, (1 << 32) - 1),
    delta=st.integers(-300, 300),
    nblocks=st.integers(1, 700),
)
def test_keystream_near_every_low_word_carry_matches_scalar_blocks(high, delta, nblocks):
    nonce = ((high << 32) + delta) & MASK64
    stream = bf.bf_ctr_transform(ROWS_STATE, nonce, bytes(8 * nblocks)).tobytes()
    assert stream == _scalar_stream(ROWS_STATE, nonce, nblocks)


def test_keystream_around_a_chunk_boundary_matches_scalar_blocks():
    state = bf.bf_key_schedule(b"chunked!")
    for nonce, nbytes in [
        (0x00000000FFFFFFF0 - CHUNK, 8 * (CHUNK + 40) + 3),  # carry just after the boundary
        ((0x0A << 32) + (1 << 32) - CHUNK, 8 * (CHUNK + 300)),  # carry on a chunk's first block
        ((0x0A << 32) + (1 << 32) - CHUNK + 1, 8 * (CHUNK + 300)),  # carry on a chunk's last block
        (0x01234567FFFFFF00, 4099),  # carry into a non-zero high word
        (0xFFFFFFFEFFFFFFF0, 8 * (CHUNK + 3)),  # carry into high word 0xFFFFFFFF
    ]:
        stream = bf.bf_ctr_transform(state, nonce, bytes(nbytes)).tobytes()
        assert len(stream) == nbytes
        nblocks = (nbytes + 7) // 8
        carry = -nonce % (1 << 32)  # the first block whose low word wraps
        near = [i for edge in (CHUNK, carry) for i in range(edge - 20, edge + 40)]
        for i in sorted({0, 1, nblocks - 1, *near} & set(range(nblocks))):
            counter = ((nonce + i) & MASK64).to_bytes(8, "big")
            block = bf.bf_encrypt_block(state, counter)
            assert stream[8 * i : 8 * i + 8] == block[: nbytes - 8 * i], (nonce, i)


@pytest.mark.parametrize(
    "nonce,nbytes",
    [
        (0, 13),
        (0x0123456789ABCDEF, 8 * 2 * CHUNK + 5),  # three chunks, ragged tail
        (0x00000000FFFFFF00, 4099),  # low-word carry inside a chunk
        (0x01234567FFFFFF00, 4099),  # the same carry into a non-zero high word
        (0xFFFFFFFEFFFFFFF0, 8 * (CHUNK + 3)),  # carry into high word 0xFFFFFFFF
        ((1 << 32) - CHUNK, 8 * (CHUNK + 17) + 1),  # carry exactly at a chunk boundary
        (MASK64 - 100, 8 * 300 + 7),  # wraps at 2^64 inside a chunk
        ((1 << 64) - CHUNK, 8 * (CHUNK + 9)),  # wraps at 2^64 at a chunk boundary
    ],
)
def test_keystream_matches_independent_blowfish(nonce, nbytes):
    # the decrepit module (cryptography >= 43) is where Blowfish lives now
    decrepit = pytest.importorskip("cryptography.hazmat.decrepit.ciphers.algorithms")
    from cryptography.hazmat.primitives.ciphers import Cipher, modes

    key = bytes(range(3, 40))
    # the library refuses Blowfish-CTR, so encrypt the counter blocks in ECB
    enc = Cipher(decrepit.Blowfish(key), modes.ECB()).encryptor()
    expect = (enc.update(_counter_blocks(nonce, nbytes)) + enc.finalize())[:nbytes]
    state = bf.bf_key_schedule(key)
    assert bf.bf_ctr_transform(state, nonce, bytes(nbytes)).tobytes() == expect
    data = random.Random(nbytes).randbytes(nbytes)
    out = bf.bf_ctr_transform(state, nonce, data).tobytes()
    assert out == bytes(a ^ b for a, b in zip(data, expect))



def test_block_matches_independent_blowfish_at_every_key_length():
    decrepit = pytest.importorskip("cryptography.hazmat.decrepit.ciphers.algorithms")
    from cryptography.hazmat.primitives.ciphers import Cipher, modes

    rng = random.Random(56)
    for klen in range(bf.MIN_KEY_BYTES, bf.MAX_KEY_BYTES + 1):
        key, block = rng.randbytes(klen), rng.randbytes(8)
        enc = Cipher(decrepit.Blowfish(key), modes.ECB()).encryptor()
        expect = enc.update(block) + enc.finalize()
        assert bf.bf_encrypt_block(bf.bf_key_schedule(key), block) == expect, klen

def test_fused_table_is_s0_plus_s1():
    state = bf.bf_key_schedule(b"fusedtab")
    s0, s1 = state.s[0], state.s[1]
    assert state._t01.shape == (65536,)
    for a, b in ((0, 0), (0, 255), (255, 0), (255, 255), (17, 200), (128, 1)):
        assert state._t01[(a << 8) | b] == (s0[a] + s1[b]) & 0xFFFFFFFF
