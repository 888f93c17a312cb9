import ctypes
import gc
import hashlib
import itertools
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from conftest import (GCRYPT as LIB, GCRYPT_FAILURES, GcryptStandIn, gcrypt_case, gcrypt_fails, needs_gcrypt,
                      ppm_roundtrip, y4m_roundtrip)
from rdhkit import blowfish as bf
from rdhkit.errors import BadKeyLength, DimensionMismatch

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
    # a libgcrypt key holds no tables; the tests below compare it by its bytes
    a = bf._python_key_schedule(b"same key")
    b = bf._python_key_schedule(b"same key")
    assert a.p == b.p
    assert a.s == b.s


NATIVE = bf._bind(LIB)
# a key libgcrypt calls weak: the Python schedule's S1 repeats a word
WEAK_KEY = b"weak098604"
needs_native = pytest.mark.skipif(NATIVE is None, reason="no libgcrypt Blowfish binding on this platform")
# the Python schedule, and the libgcrypt one where the platform has it
SCHEDULES = [bf._python_key_schedule] + ([NATIVE] if NATIVE else [])
# a state's schedule also picks its keystream: the Python one's runs in numpy,
# the libgcrypt one's through gcry_cipher_encrypt, so the keystream tests run both


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
@given(
    key=st.binary(min_size=bf.MIN_KEY_BYTES, max_size=bf.MAX_KEY_BYTES),
    block=st.binary(min_size=8, max_size=8),
)
@example(key=WEAK_KEY, block=b"BLOWFISH")
def test_native_schedule_matches_the_python_schedule(key, block):
    # a libgcrypt key holds no tables, so it is compared by what it encrypts
    native = NATIVE(key)
    assert bf.bf_encrypt_block(native, block) == bf.bf_encrypt_block(bf._python_key_schedule(key), block)


def _refuse(*args):
    raise AssertionError("Blowfish fell back to the Python schedule or the numpy keystream")


@needs_gcrypt
def test_the_schedule_runs_in_libgcrypt_where_it_loads(monkeypatch, load_gcrypt):
    # a lookup or binding regression would fall back silently, with the same
    # bytes and every other test green, at more than half a round trip; the
    # binding's own check runs no Python schedule either
    load_gcrypt(lambda: LIB)
    expect = bf.bf_encrypt_block(bf._python_key_schedule(b"silent fallback"), b"BLOWFISH")
    monkeypatch.setattr(bf, "_python_key_schedule", _refuse)
    state = bf.bf_key_schedule(b"silent fallback")
    assert state._cipher is not None
    assert bf.bf_encrypt_block(state, b"BLOWFISH") == expect


@needs_gcrypt
def test_the_keystream_runs_in_libgcrypt_where_it_loads(monkeypatch):
    # the same silent fallback, for the larger part of a round trip
    data = random.Random(33).randbytes(8 * CHUNK + 13)
    expect = bf.bf_ctr_transform(bf._python_key_schedule(b"silent fallback"), MASK64 - 9, data)
    monkeypatch.setattr(bf, "_numpy_keystream", _refuse)
    out = bf.bf_ctr_transform(bf.bf_key_schedule(b"silent fallback"), MASK64 - 9, data)
    assert out.tobytes() == expect.tobytes()


def test_the_pinned_known_answer_is_the_python_schedules_output():
    state = bf._python_key_schedule(bf._CHECK_KEY)
    assert bf.bf_encrypt_block(state, bf._CHECK_BLOCK) == bf._CHECK_CIPHERTEXT
    weak = bf._python_key_schedule(bf._CHECK_WEAK_KEY)
    assert bf.bf_encrypt_block(weak, bf._CHECK_BLOCK) == bf._CHECK_WEAK_CIPHERTEXT
    assert max(bf._CHECK_LENGTHS) == len(bf._CHECK_STREAM)
    for n in bf._CHECK_LENGTHS:
        assert bf.bf_ctr_transform(state, bf._CHECK_NONCE, bytes(n)).tobytes() == bf._CHECK_STREAM[:n]


def _garbled_encrypt(handle, out, outsize, src, inlen):
    err = LIB.gcry_cipher_encrypt(handle, out, outsize, src, inlen)
    ctypes.memset(out, 0x5A, min(inlen, 1))
    return err


def _keeps_leftover():
    """A library whose setctr keeps the keystream a ragged encrypt left unused,
    which the next encrypt then uses first."""
    left = bytearray()

    def encrypt(handle, out, outsize, src, inlen):
        used = min(len(left), inlen)
        head = bytes(a ^ b for a, b in zip(ctypes.string_at(src, used), left))
        del left[:used]
        err = LIB.gcry_cipher_encrypt(handle, out + used, outsize - used, src + used, inlen - used)
        ctypes.memmove(out, head, used)
        pad = -(inlen - used) % 8
        if pad:  # the rest of the last block's keystream, kept
            tail = ctypes.create_string_buffer(pad)
            LIB.gcry_cipher_encrypt(handle, tail, pad, bytes(pad), pad)
            left[:] = tail.raw
        return err

    return GcryptStandIn(cipher_encrypt=encrypt)


def _counter_reversed(handle, counter, n):
    return LIB.gcry_cipher_setctr(handle, counter[::-1], n)


def _weak_key_not_allowed(handle, cmd, buffer, buflen):
    return 0  # success, without allowing the handle weak keys


# the failures of both ciphers, an error from setctr, a garbled byte, a
# counter in the other byte order, leftover keystream kept across setctr, or
# a ctl that leaves weak keys unkeyed
@pytest.mark.parametrize(
    "lib",
    [
        *GCRYPT_FAILURES,
        gcrypt_case("weak-key-not-allowed", cipher_ctl=_weak_key_not_allowed),
        gcrypt_case("setctr-fails", cipher_setctr=gcrypt_fails),
        gcrypt_case("encrypt-garbles-a-byte", cipher_encrypt=_garbled_encrypt),
        gcrypt_case("other-byte-order", cipher_setctr=_counter_reversed),
        pytest.param(_keeps_leftover, marks=needs_gcrypt, id="setctr-keeps-leftover"),
    ],
)
def test_a_failed_binding_keeps_the_python_schedule(lib, load_gcrypt):
    load_gcrypt(lib)
    key = b"fallback key"
    state, expect = bf.bf_key_schedule(key), bf._python_key_schedule(key)
    assert bf._native_schedule() is None
    assert state._cipher is None
    assert (state.p, state.s) == (expect.p, expect.s)
    assert np.array_equal(state._t01, expect._t01)
    data = bytes(8 * 300 + 5)
    stream = bf.bf_ctr_transform(state, MASK64 - 7, data)
    assert stream.tobytes() == bf.bf_ctr_transform(expect, MASK64 - 7, data).tobytes()


@needs_native
def test_a_weak_key_runs_in_libgcrypt():
    expect = bf._python_key_schedule(WEAK_KEY)
    assert len(set(expect.s[1])) == 255
    state = bf.bf_key_schedule(WEAK_KEY)
    assert state._cipher is not None
    assert bf.bf_encrypt_block(state, b"BLOWFISH") == bf.bf_encrypt_block(expect, b"BLOWFISH")
    data = bytes(8 * 50 + 3)
    nonce = MASK64 - 4  # across the wrap at 2^64
    assert bf.bf_ctr_transform(state, nonce, data).tobytes() == bf.bf_ctr_transform(expect, nonce, data).tobytes()


@needs_native
def test_a_weak_image_key_marks_the_same_bytes_without_the_library(load_gcrypt):
    native = ppm_roundtrip(WEAK_KEY)
    load_gcrypt(lambda: None)
    assert ppm_roundtrip(WEAK_KEY) == native


@needs_native
def test_the_check_accepts_a_stand_in_writing_the_true_words():
    # every function is the platform's: each failure above differs in one
    schedule = bf._bind(GcryptStandIn())
    assert schedule is not None
    state, expect = schedule(b"fallback key"), bf._python_key_schedule(b"fallback key")
    assert state._cipher is not None
    data = bytes(8 * 300 + 5)
    stream = bf.bf_ctr_transform(state, MASK64 - 7, data)
    assert stream.tobytes() == bf.bf_ctr_transform(expect, MASK64 - 7, data).tobytes()


@needs_native
def test_collecting_a_key_closes_its_handle(load_gcrypt):
    closed = []

    def close(handle):
        closed.append(handle.value)
        LIB.gcry_cipher_close(handle)

    load_gcrypt(lambda: GcryptStandIn(cipher_close=close))
    state = bf.bf_key_schedule(b"short-lived key")
    handle = state._cipher.args[1].value
    assert len(closed) == 2  # the binding's two check keys, closed once checked
    closed.clear()
    gc.collect()
    assert closed == []
    del state
    gc.collect()
    assert closed == [handle]


@needs_native
def test_threads_sharing_a_key_each_get_their_own_keystream():
    # the handle carries the counter from setctr to encrypt, and ctypes drops
    # the GIL between them; each thread's calls cross 2^64 from its own nonce
    state, reference = NATIVE(b"shared by threads"), bf._python_key_schedule(b"shared by threads")
    jobs = [(MASK64 - 3 - 5 * i, 8 * (20 + 7 * i) + i) for i in range(4)]
    expect = [bf.bf_ctr_transform(reference, nonce, bytes(n)).tobytes() for nonce, n in jobs]
    wrong = []

    def run(i):
        nonce, n = jobs[i]
        for _ in range(2000):
            if bf.bf_ctr_transform(state, nonce, bytes(n)).tobytes() != expect[i]:
                wrong.append(i)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


@needs_native
@pytest.mark.parametrize("roundtrip", [ppm_roundtrip, y4m_roundtrip], ids=["ppm", "y4m"])
def test_roundtrip_bytes_are_the_same_on_either_schedule(roundtrip, monkeypatch):
    # Blowfish alone on the Python schedule, AES still where it was bound
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


def test_both_paths_take_one_input_rule():
    # libgcrypt and the numpy kernel read each bytes-like form and 1-D uint8
    # array as the same bytes, and refuse the same arrays: a 2-D one, which
    # libgcrypt would read whole, and a uint16 one, which it would read as bytes
    data = random.Random(17).randbytes(1001)
    flat = np.frombuffer(data, np.uint8)
    forms = {
        "bytes": data,
        "bytearray": bytearray(data),
        "memoryview": memoryview(data),
        "contiguous": flat.copy(),
        "strided": np.repeat(flat, 2)[::2],
    }
    assert not forms["strided"].flags.c_contiguous
    expect = bf.bf_ctr_transform(bf._python_key_schedule(b"one rule"), MASK64 - 3, data).tobytes()
    for schedule in SCHEDULES:
        state = schedule(b"one rule")
        for name, given in forms.items():
            assert bf.bf_ctr_transform(state, MASK64 - 3, given).tobytes() == expect, (schedule, name)
        for bad in (flat[:24].reshape(4, 6), flat[:12].view(np.uint16)):
            with pytest.raises(DimensionMismatch):
                bf.bf_ctr_transform(state, MASK64 - 3, bad)


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
    # the call starts at column (-offset - start_col) mod 256 of a 256-counter
    # row, and its low word carries offset + start_col blocks in (at once for 0)
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
    before_wrap=st.integers(1, 4 * CHUNK),
    nbytes=st.integers(0, 3 * 8 * CHUNK),
)
@example(key=WEAK_KEY, before_wrap=5, nbytes=403)
def test_libgcrypt_keystream_matches_the_numpy_kernel(key, before_wrap, nbytes):
    native = NATIVE(key)
    nonce, data = (1 << 64) - before_wrap, bytes(nbytes)
    expect = bf.bf_ctr_transform(bf._python_key_schedule(key), nonce, data)
    assert bf.bf_ctr_transform(native, nonce, data).tobytes() == expect.tobytes()


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
    state = bf._python_key_schedule(b"fusedtab")
    s0, s1 = state.s[0], state.s[1]
    assert state._t01.shape == (65536,)
    for a, b in ((0, 0), (0, 255), (255, 0), (255, 255), (17, 200), (128, 1)):
        assert state._t01[(a << 8) | b] == (s0[a] + s1[b]) & 0xFFFFFFFF


def test_precast_p_words_are_p():
    state = bf._python_key_schedule(b"precast P")
    assert state._p32.dtype == np.uint32 and state._p32.shape == (18,)
    assert state._p32.tolist() == list(state.p)
