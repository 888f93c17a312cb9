import ctypes
import hashlib
import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import make_cover
from rdhkit import blowfish as bf, netpbm, pipeline, video
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


NATIVE = bf._native_schedule()
needs_native = pytest.mark.skipif(NATIVE is None, reason="no libcrypto Blowfish binding on this platform")
# the Python schedule, and the libcrypto one where the platform has it
SCHEDULES = [bf._python_key_schedule] + ([NATIVE] if NATIVE else [])
# a state's schedule also picks its keystream: the Python one's runs in numpy,
# the libcrypto one's through BF_cbc_encrypt, so the keystream tests run both


@pytest.mark.parametrize("key_hex,plain_hex,cipher_hex", ECB_VECTORS)
def test_published_ecb_vectors(key_hex, plain_hex, cipher_hex):
    for schedule in SCHEDULES:
        state = schedule(bytes.fromhex(key_hex))
        ct = bf.bf_encrypt_block(state, bytes.fromhex(plain_hex))
        assert ct.hex().upper() == cipher_hex, schedule


def test_variable_length_key_vector():
    for schedule in SCHEDULES:
        state = schedule(b"abcdefghijklmnopqrstuvwxyz")
        assert bf.bf_encrypt_block(state, b"BLOWFISH").hex().upper() == "324ED0FEF413A203", schedule


@needs_native
@seed(1042)
@settings(max_examples=100, deadline=None)
@given(key=st.binary(min_size=bf.MIN_KEY_BYTES, max_size=bf.MAX_KEY_BYTES))
def test_native_schedule_matches_the_python_schedule(key):
    native, python = NATIVE(key), bf._python_key_schedule(key)
    assert native.p == python.p
    assert native.s == python.s
    assert np.array_equal(native._t01, python._t01)


def _skip_without_libcrypto_blowfish():
    lib = bf._libcrypto()
    if getattr(lib, "BF_set_key", None) is None or getattr(lib, "BF_cbc_encrypt", None) is None:
        pytest.skip("this platform's libcrypto does not export BF_set_key and BF_cbc_encrypt")


def test_the_schedule_runs_in_libcrypto_where_it_exports_bf_set_key(monkeypatch):
    # a lookup or layout regression would fall back silently, with the same
    # bytes and every other test green, at about a quarter of a round trip
    _skip_without_libcrypto_blowfish()
    expect = bf._python_key_schedule(b"silent fallback")

    def refuse(key):
        raise AssertionError("bf_key_schedule fell back to the Python schedule")

    monkeypatch.setattr(bf, "_python_key_schedule", refuse)
    state = bf.bf_key_schedule(b"silent fallback")
    assert (state.p, state.s) == (expect.p, expect.s)


def test_the_keystream_runs_in_libcrypto_where_it_exports_bf_cbc_encrypt(monkeypatch):
    # the same silent fallback, for the larger part of a round trip
    _skip_without_libcrypto_blowfish()
    data = random.Random(33).randbytes(8 * CHUNK + 13)
    expect = bf.bf_ctr_transform(bf._python_key_schedule(b"silent fallback"), MASK64 - 9, data)

    def refuse(state, nonce, blocks):
        raise AssertionError("bf_ctr_transform fell back to the numpy keystream")

    monkeypatch.setattr(bf, "_numpy_keystream", refuse)
    out = bf.bf_ctr_transform(bf.bf_key_schedule(b"silent fallback"), MASK64 - 9, data)
    assert out.tobytes() == expect.tobytes()


def test_the_pinned_zero_key_digest_is_the_python_schedules_state():
    assert bf._state_digest(bf._python_key_schedule(bytes(8))) == bf._ZERO_KEY_DIGEST


@pytest.fixture
def rebind():
    """Binds again on the next schedule, and again after the test."""
    bf._native_schedule.cache_clear()
    yield
    bf._native_schedule.cache_clear()


_SET_KEY = ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p)
# BF_cbc_encrypt(in, out, length, key, ivec, enc)
_CBC_ARGS = (ctypes.c_void_p,) * 2 + (ctypes.c_long,) + (ctypes.c_void_p,) * 2 + (ctypes.c_int,)
_CBC = ctypes.CFUNCTYPE(None, *_CBC_ARGS)
PLATFORM_CBC = getattr(bf._libcrypto(), "BF_cbc_encrypt", None)
if PLATFORM_CBC is not None:
    PLATFORM_CBC.argtypes, PLATFORM_CBC.restype = _CBC_ARGS, None


class StandIn:
    """A library whose BF_set_key writes the given words, whatever the key, and
    whose BF_cbc_encrypt is cbc (the platform's by default), or missing if None."""

    def __init__(self, words: np.ndarray, cbc=PLATFORM_CBC):
        self.BF_set_key = _SET_KEY(lambda buf, n, key: ctypes.memmove(buf, words.tobytes(), words.nbytes))
        if cbc is not None:
            self.BF_cbc_encrypt = cbc


ZERO_KEY = bf._python_key_schedule(bytes(8))
ZERO_KEY_WORDS = np.array(ZERO_KEY.p + sum(ZERO_KEY.s, ()), dtype=np.uint32)
# one S-box word the zero block's encryption never reads, off by one bit
ONE_WORD_OFF = ZERO_KEY_WORDS.copy()
ONE_WORD_OFF[18 + 700] ^= 1


def _garbled_cbc(inp, out, length, key, ivec, enc):
    PLATFORM_CBC(inp, out, length, key, ivec, enc)
    ctypes.memset(out, 0x5A, 1)


# no library, no symbol, or a stand-in writing the words a layout or ABI
# mismatch would, or one wrong word, or a wrong keystream
@pytest.mark.parametrize(
    "lib",
    [
        pytest.param(lambda: None, id="no-library"),
        pytest.param(object, id="no-symbol"),
        pytest.param(lambda: StandIn(ZERO_KEY_WORDS.byteswap()), id="other-byte-order"),
        pytest.param(lambda: StandIn(np.roll(ZERO_KEY_WORDS, 1)), id="shifted-a-word"),
        # a 64-bit BF_LONG fills the whole buffer
        pytest.param(lambda: StandIn(ZERO_KEY_WORDS.astype(np.uint64)), id="64-bit-words"),
        pytest.param(lambda: StandIn(ONE_WORD_OFF), id="s-box-word-700-off"),
        pytest.param(lambda: StandIn(ZERO_KEY_WORDS, cbc=None), id="no-cbc-symbol"),
        pytest.param(
            lambda: StandIn(ZERO_KEY_WORDS, cbc=_CBC(_garbled_cbc)),
            id="cbc-writes-wrong-bytes",
            marks=needs_native,
        ),
    ],
)
def test_a_failed_binding_keeps_the_python_schedule(lib, monkeypatch, rebind):
    monkeypatch.setattr(bf, "_libcrypto", lib)
    key = b"fallback key"
    state, expect = bf.bf_key_schedule(key), bf._python_key_schedule(key)
    assert bf._native_schedule() is None
    assert (state.p, state.s) == (expect.p, expect.s)
    assert np.array_equal(state._t01, expect._t01)
    # neither symbol is bound: the keystream is the numpy kernel's
    assert state._keystream is None
    data = bytes(8 * 300 + 5)
    stream = bf.bf_ctr_transform(state, MASK64 - 7, data)
    assert stream.tobytes() == bf.bf_ctr_transform(expect, MASK64 - 7, data).tobytes()


@needs_native
def test_the_check_accepts_a_stand_in_writing_the_true_words():
    # the stand-in ignores its key, so only the all-zero key's state is right
    schedule = bf._bind(StandIn(ZERO_KEY_WORDS))
    assert schedule is not None
    state = schedule(bytes(8))
    assert (state.p, state.s) == (ZERO_KEY.p, ZERO_KEY.s)
    assert state._keystream is not None


def test_no_hashlib_means_no_library(monkeypatch):
    monkeypatch.setitem(sys.modules, "_hashlib", None)  # makes the import fail
    assert bf._libcrypto() is None


ROUNDTRIP_KEYS = pipeline.StegoKeys(bytes(range(16)), b"both schedules", 0x5EED)


def _ppm_roundtrip() -> bytes:
    cover = make_cover(np.random.default_rng(31), 48, 48)
    result = pipeline.hide(cover, b"same bytes either way", ROUNDTRIP_KEYS, iv=bytes(16))
    secret, original = pipeline.reveal(result.image, ROUNDTRIP_KEYS)
    assert secret == b"same bytes either way" and np.array_equal(original, cover)
    return netpbm.save_ppm(result.image, ROUNDTRIP_KEYS.nonce)


def _y4m_roundtrip() -> bytes:
    rng = np.random.default_rng(32)
    frames = []
    for _ in range(2):
        y = np.full((64, 64), 90, dtype=np.uint8)
        y[rng.random((64, 64)) < 0.4] = 91
        frames.append(np.concatenate((y, rng.integers(0, 256, 2 * 32 * 32, dtype=np.uint8)), axis=None))
    clip = video.Y4mVideo([b"W64", b"H64", b"F25:1", b"C420"], frames, [b""] * 2)
    marked = video.video_hide(clip, b"same bytes either way", ROUNDTRIP_KEYS, iv=bytes(16))
    secret, original = video.video_reveal(marked, ROUNDTRIP_KEYS)
    assert secret == b"same bytes either way"
    assert video.write_y4m(original) == video.write_y4m(clip)
    return video.write_y4m(marked)


@needs_native
@pytest.mark.parametrize("roundtrip", [_ppm_roundtrip, _y4m_roundtrip], ids=["ppm", "y4m"])
def test_roundtrip_bytes_are_the_same_on_either_schedule(roundtrip, monkeypatch):
    native = roundtrip()
    monkeypatch.setattr(bf, "_native_schedule", lambda: None)
    assert roundtrip() == native


def test_block_length_enforced():
    state = bf.bf_key_schedule(b"abcd")
    with pytest.raises(ValueError):
        bf.bf_encrypt_block(state, b"short")


def test_ctr_first_keystream_block_matches_zero_vector():
    for schedule in SCHEDULES:
        # encrypting plaintext zeros under nonce 0 exposes the raw keystream
        out = bf.bf_ctr_transform(schedule(bytes(8)), 0, bytes(8))
        assert out.tobytes().hex().upper() == "4EF997456198DD78", schedule


def test_ctr_is_an_involution():
    for schedule in SCHEDULES:
        rng = random.Random(13)
        state = schedule(b"ctr key!")
        for n in (0, 1, 7, 8, 9, 100, 4096):
            data = rng.randbytes(n)
            nonce = rng.getrandbits(64)
            back = bf.bf_ctr_transform(state, nonce, bf.bf_ctr_transform(state, nonce, data))
            assert back.tobytes() == data, schedule
        assert bf.bf_ctr_transform(state, 5, b"").tobytes() == b""


def test_ctr_matches_scalar_block_reference():
    for schedule in SCHEDULES:
        rng = random.Random(14)
        state = schedule(b"refcheck")
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
            assert bf.bf_ctr_transform(state, nonce, data).tobytes() == expect, schedule


def test_ctr_counter_wraps_mod_2_64():
    for schedule in SCHEDULES:
        state = schedule(b"wrapwrap")
        data = bytes(24)
        out = bf.bf_ctr_transform(state, 0xFFFFFFFFFFFFFFFF, data)
        k0 = bf.bf_encrypt_block(state, (0xFFFFFFFFFFFFFFFF).to_bytes(8, "big"))
        k1 = bf.bf_encrypt_block(state, (0).to_bytes(8, "big"))
        k2 = bf.bf_encrypt_block(state, (1).to_bytes(8, "big"))
        assert out.tobytes() == k0 + k1 + k2, schedule


CONTRACT_DATA = random.Random(16).randbytes(1001)


@pytest.mark.parametrize(
    "given",
    [CONTRACT_DATA, np.frombuffer(CONTRACT_DATA, np.uint8).copy(), b""],
    ids=["bytes", "array", "empty"],
)
def test_ctr_returns_a_fresh_writable_array(given):
    before = bytes(given)
    for schedule in SCHEDULES:
        out = bf.bf_ctr_transform(schedule(b"contract"), 21, given)
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
    for schedule in SCHEDULES:
        stream = bf.bf_ctr_transform(schedule(GOLDEN_KEY), nonce, bytes(nbytes))
        assert len(stream) == nbytes
        assert hashlib.sha256(stream).hexdigest() == digest, schedule


def _counter_blocks(nonce: int, nbytes: int) -> bytes:
    nblocks = (nbytes + 7) // 8
    return b"".join(((nonce + i) & MASK64).to_bytes(8, "big") for i in range(nblocks))


def _scalar_stream(state, nonce: int, nblocks: int) -> bytes:
    counters = (((nonce + i) & MASK64).to_bytes(8, "big") for i in range(nblocks))
    return b"".join(bf.bf_encrypt_block(state, c) for c in counters)


ROWS_STATES = [schedule(b"row by column") for schedule in SCHEDULES]


@pytest.mark.parametrize("high", [0x5EED, 0xFFFFFFFF], ids=["carry", "wrap-2^64"])
@pytest.mark.parametrize("offset", [0, 1, 255, 256, 257])
def test_low_word_carry_at_each_offset_from_a_row_start(high, offset):
    # rounds 0-1 come from per-row tables, one run before the low word
    # carries and one after; the first run is offset + start_col blocks long
    # (none for 0) and starts at column (-offset - start_col) mod 256
    for state, start_col in itertools.product(ROWS_STATES, (0, 0x9D)):
        nonce = ((high << 32) + (1 << 32) - offset - start_col) & MASK64
        nblocks = offset + start_col + 300
        stream = bf.bf_ctr_transform(state, nonce, bytes(8 * nblocks)).tobytes()
        assert stream == _scalar_stream(state, nonce, nblocks), (offset, start_col)


def test_runs_shorter_than_a_row():
    for state, nonce in itertools.product(ROWS_STATES, (0x0123456789ABCD9D, 0xFEDCBA98765432FF)):
        assert nonce & 0xFF
        expect = _scalar_stream(state, nonce, 255)
        for nblocks in range(1, 256):
            stream = bf.bf_ctr_transform(state, nonce, bytes(8 * nblocks)).tobytes()
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
    for state in ROWS_STATES:
        stream = bf.bf_ctr_transform(state, nonce, bytes(8 * nblocks)).tobytes()
        assert stream == _scalar_stream(state, nonce, nblocks)


def test_keystream_around_a_chunk_boundary_matches_scalar_blocks():
    states = [schedule(b"chunked!") for schedule in SCHEDULES]
    edges = [
        (0x00000000FFFFFFF0 - CHUNK, 8 * (CHUNK + 40) + 3),  # carry just after the boundary
        ((0x0A << 32) + (1 << 32) - CHUNK, 8 * (CHUNK + 300)),  # carry on a chunk's first block
        ((0x0A << 32) + (1 << 32) - CHUNK + 1, 8 * (CHUNK + 300)),  # carry on a chunk's last block
        (0x01234567FFFFFF00, 4099),  # carry into a non-zero high word
        (0xFFFFFFFEFFFFFFF0, 8 * (CHUNK + 3)),  # carry into high word 0xFFFFFFFF
    ]
    for state, (nonce, nbytes) in itertools.product(states, edges):
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
        (0x00000000FFFFFFFD, 38016),  # one QCIF frame straddling a low-word carry
        # the same edges at 32K blocks: every one falls on an even chunk boundary
        (0x0123456789ABCDEF, 8 * 2 * 32768 + 5),
        (0xFFFFFFFEFFFFFFF0, 8 * (32768 + 3)),
        ((1 << 32) - 32768, 8 * (32768 + 17) + 1),
        ((1 << 64) - 32768, 8 * (32768 + 9)),
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
    data = random.Random(nbytes).randbytes(nbytes)
    for schedule in SCHEDULES:
        state = schedule(key)
        assert bf.bf_ctr_transform(state, nonce, bytes(nbytes)).tobytes() == expect, schedule
        out = bf.bf_ctr_transform(state, nonce, data).tobytes()
        assert out == bytes(a ^ b for a, b in zip(data, expect)), schedule



@needs_native
@seed(3249)
@settings(max_examples=40, deadline=None)
@given(
    key=st.binary(min_size=bf.MIN_KEY_BYTES, max_size=bf.MAX_KEY_BYTES),
    nonce=st.integers(0, MASK64),
    nbytes=st.integers(0, 3 * 8 * CHUNK),
)
def test_libcrypto_keystream_matches_the_numpy_kernel(key, nonce, nbytes):
    data = bytes(nbytes)
    native = bf.bf_ctr_transform(NATIVE(key), nonce, data)
    assert native.tobytes() == bf.bf_ctr_transform(bf._python_key_schedule(key), nonce, data).tobytes()


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


def test_precast_p_words_are_p():
    state = bf.bf_key_schedule(b"precast P")
    assert state._p32.dtype == np.uint32 and state._p32.shape == (18,)
    assert state._p32.tolist() == list(state.p)
