import ctypes
import random

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import (GCRYPT, GCRYPT_FAILURES, GcryptStandIn, gcrypt_case, gcrypt_fails, needs_gcrypt,
                      ppm_roundtrip, y4m_roundtrip)
from rdhkit import aes, blowfish
from rdhkit.errors import BadKeyLength, BadLength, BadPadding, RdhError

# published FIPS-197 walkthrough values
KEY_EXPANSION_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
KAT_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
KAT_PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")
KAT_CIPHER = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

# NIST SP 800-38A, F.2.1 CBC-AES128.Encrypt
SP800_38A_KEY = KEY_EXPANSION_KEY
SP800_38A_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
SP800_38A_PLAIN = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
SP800_38A_CIPHER = bytes.fromhex(
    "7649abac8119b246cee98e9b12e9197d"
    "5086cb9b507219ee95db113a917678b2"
    "73bed6b8e3c1743b7116e69e22229516"
    "3ff1caa1681fac09120eca307586e1a7"
)


NATIVE = aes._native_cbc()
needs_native = pytest.mark.skipif(NATIVE is None, reason="no libgcrypt AES binding on this platform")


def each_path(monkeypatch):
    """Yields the name of each CBC path, libgcrypt first where it is bound,
    while aes_cbc_encrypt and aes_cbc_decrypt run on it."""
    if NATIVE is not None:
        yield "libgcrypt"
    monkeypatch.setattr(aes, "_native_cbc", lambda: None)
    yield "python"


def test_round_key_zero_is_the_key():
    ks = aes.expand_key(KEY_EXPANSION_KEY)
    assert b"".join(w.to_bytes(4, "big") for w in ks[:4]) == KEY_EXPANSION_KEY
    assert len(ks) == 44
    assert all(0 <= w < 1 << 32 for w in ks)


def test_key_expansion_first_round_word():
    ks = aes.expand_key(KEY_EXPANSION_KEY)
    assert ks[4] == 0xA0FAFE17
    assert ks[43] == 0xB6630CA6  # FIPS-197 A.1: the last word of round key 10


def test_key_expansion_deterministic():
    assert aes.expand_key(KAT_KEY) == aes.expand_key(KAT_KEY)


def test_key_length_enforced():
    with pytest.raises(BadKeyLength):
        aes.expand_key(b"short")
    with pytest.raises(BadKeyLength):
        aes.expand_key(bytes(24))


def ecb(block, key):
    """One block through the forward cipher: CBC's first block under a zero IV."""
    return aes.aes_cbc_encrypt(block, key, bytes(16))[:16]


def test_known_answer_block(monkeypatch):
    assert aes.decrypt_block(KAT_CIPHER, aes.expand_key(KAT_KEY)) == KAT_PLAIN
    for path in each_path(monkeypatch):
        assert ecb(KAT_PLAIN, KAT_KEY) == KAT_CIPHER, path
        out = aes.aes_cbc_encrypt(KAT_PLAIN, KAT_KEY, bytes(16))
        assert aes.aes_cbc_decrypt(out, KAT_KEY, bytes(16)) == KAT_PLAIN, path


def test_sub_bytes_component_via_final_round(monkeypatch):
    # under all-zero round keys a uniform state is a fixed point of ShiftRows
    # and of MixColumns (2 ^ 3 ^ 1 ^ 1 = 1), so each T-table round, the last
    # one included, reduces to SubBytes on every byte.  The patched schedule
    # reaches the Python cipher alone
    monkeypatch.setattr(aes, "_native_cbc", lambda: None)
    zero_keys = (0,) * 44
    monkeypatch.setattr(aes, "expand_key", lambda key: zero_keys)
    sub10 = list(range(256))
    for _ in range(10):
        sub10 = [aes.SBOX[y] for y in sub10]
    for x in range(256):
        assert ecb(bytes([x]) * 16, KAT_KEY) == bytes([sub10[x]]) * 16
        assert aes.decrypt_block(bytes([sub10[x]]) * 16, zero_keys) == bytes([x]) * 16
    # ShiftRows and MixColumns engaged on a non-uniform state
    assert ecb(bytes(range(16)), KAT_KEY) != bytes(sub10[:16])


def test_shift_rows_rotates_row_one():
    # the inverse cipher gathers state bytes through InvShiftRows; the inverse
    # of that permutation is ShiftRows, applied here to bytes 0..15
    state = np.argsort(aes._INV_SHIFT_ROWS).tolist()
    # row r sits at flat indices r, r+4, r+8, r+12 (column-major state)
    assert [state[1], state[5], state[9], state[13]] == [5, 9, 13, 1]
    assert [state[0], state[4], state[8], state[12]] == [0, 4, 8, 12]
    # encryption's last round takes byte 5i mod 16 as byte i: the same permutation
    assert (bytes(range(16)) * 5)[::5] == bytes(state)


def test_encryption_is_deterministic():
    assert ecb(KAT_PLAIN, KAT_KEY) == ecb(KAT_PLAIN, KAT_KEY)


def test_block_inverse_on_random_blocks():
    rng = random.Random(77)
    key = rng.randbytes(16)
    ks = aes.expand_key(key)
    for _ in range(1000):
        block = rng.randbytes(16)
        assert aes.decrypt_block(ecb(block, key), ks) == block


def test_all_zero_decrypt_is_deterministic():
    ks = aes.expand_key(bytes(16))
    once = aes.decrypt_block(bytes(16), ks)
    assert once == aes.decrypt_block(bytes(16), ks)
    assert len(once) == 16


def test_cbc_empty_input_is_one_padding_block(monkeypatch):
    for path in each_path(monkeypatch):
        out = aes.aes_cbc_encrypt(b"", KAT_KEY, bytes(16))
        assert len(out) == 16, path
        assert aes.aes_cbc_decrypt(out, KAT_KEY, bytes(16)) == b"", path


def test_cbc_output_length_rule(monkeypatch):
    for path in each_path(monkeypatch):
        for n in (0, 1, 15, 16, 17, 32):
            out = aes.aes_cbc_encrypt(bytes(n), KAT_KEY, bytes(16))
            assert len(out) == (n // 16 + 1) * 16, path


def test_cbc_roundtrip_all_lengths_to_1000(monkeypatch):
    for path in each_path(monkeypatch):
        rng = random.Random(3)
        key, iv = rng.randbytes(16), rng.randbytes(16)
        for n in range(0, 1001):
            data = rng.randbytes(n)
            assert aes.aes_cbc_decrypt(aes.aes_cbc_encrypt(data, key, iv), key, iv) == data, path


def test_cbc_bit_flip_corrupts_two_blocks_only(monkeypatch):
    for path in each_path(monkeypatch):
        rng = random.Random(4)
        key, iv = rng.randbytes(16), rng.randbytes(16)
        data = rng.randbytes(64)  # 4 data blocks + 1 padding block
        ct = bytearray(aes.aes_cbc_encrypt(data, key, iv))
        ct[16 + 3] ^= 0x10  # flip one bit inside ciphertext block 1
        out = aes.aes_cbc_decrypt(bytes(ct), key, iv)
        blocks_in = [data[i : i + 16] for i in range(0, 64, 16)]
        blocks_out = [out[i : i + 16] for i in range(0, 64, 16)]
        assert blocks_out[0] == blocks_in[0], path
        assert blocks_out[1] != blocks_in[1], path  # garbled
        diff = bytes(a ^ b for a, b in zip(blocks_out[2], blocks_in[2]))
        assert diff == bytes([0, 0, 0, 0x10] + [0] * 12), path  # exactly the flipped bit
        assert blocks_out[3] == blocks_in[3], path


def test_cbc_length_validation(monkeypatch):
    for path in each_path(monkeypatch):
        with pytest.raises(BadLength):
            aes.aes_cbc_decrypt(bytes(15), KAT_KEY, bytes(16))
        with pytest.raises(BadLength):
            aes.aes_cbc_decrypt(b"", KAT_KEY, bytes(16))
        with pytest.raises(BadLength):
            aes.aes_cbc_encrypt(b"x", KAT_KEY, bytes(8))


def test_cbc_decrypt_rejects_a_short_iv(monkeypatch):
    for path in each_path(monkeypatch):
        with pytest.raises(BadLength, match="IV") as exc:
            aes.aes_cbc_decrypt(bytes(16), KAT_KEY, bytes(15))
        assert exc.type is BadLength, path


def test_every_input_is_checked_before_the_cipher_runs(monkeypatch):
    # a bad input must be refused with the package's own error before either
    # path is reached, not left to the library's error codes
    def refuse(blocks, key, iv, enc):
        raise AssertionError("the cipher ran on an unchecked input")

    monkeypatch.setattr(aes, "_native_cbc", lambda: refuse)
    for key in (b"", bytes(15), bytes(17), bytes(32)):
        with pytest.raises(BadKeyLength):
            aes.aes_cbc_encrypt(b"secret", key, bytes(16))
        with pytest.raises(BadKeyLength):
            aes.aes_cbc_decrypt(bytes(32), key, bytes(16))
    for iv in (b"", bytes(15), bytes(17)):
        with pytest.raises(BadLength, match="IV"):
            aes.aes_cbc_encrypt(b"secret", KAT_KEY, iv)
        with pytest.raises(BadLength, match="IV"):
            aes.aes_cbc_decrypt(bytes(32), KAT_KEY, iv)
    for ciphertext in (b"", bytes(1), bytes(15), bytes(17), bytes(47)):
        with pytest.raises(BadLength):
            aes.aes_cbc_decrypt(ciphertext, KAT_KEY, bytes(16))


def test_the_callers_iv_and_data_are_unchanged(monkeypatch):
    # CBC carries the chain from block to block; it must not be written back
    # into the caller's IV or data
    rng = random.Random(7)
    for path in each_path(monkeypatch):
        for kind in (bytes, bytearray):
            key, iv, data = rng.randbytes(16), kind(rng.randbytes(16)), kind(rng.randbytes(100))
            iv_before, data_before = bytes(iv), bytes(data)
            ciphertext = kind(aes.aes_cbc_encrypt(data, key, iv))
            assert (iv, data) == (iv_before, data_before), (path, kind)
            ciphertext_before = bytes(ciphertext)
            assert aes.aes_cbc_decrypt(ciphertext, key, iv) == data_before, (path, kind)
            assert (iv, ciphertext) == (iv_before, ciphertext_before), (path, kind)


def test_wrong_key_raises_bad_padding_almost_always(monkeypatch):
    for path in each_path(monkeypatch):
        rng = random.Random(5)
        key, iv = rng.randbytes(16), rng.randbytes(16)
        ct = aes.aes_cbc_encrypt(b"secret", key, iv)
        bad_padding = 0
        trials = 1000
        for _ in range(trials):
            wrong = rng.randbytes(16)
            if wrong == key:
                continue
            try:
                out = aes.aes_cbc_decrypt(ct, wrong, iv)
            except BadPadding:
                bad_padding += 1
            else:
                assert out != b"secret", path  # a padding fluke must still not reveal the plaintext
        # expected rate ~255/256; leave slack for the seeded fluke count
        assert bad_padding >= trials * 0.98, path


def test_decrypt_block_works_on_every_block_at_once():
    rng = random.Random(6)
    key = rng.randbytes(16)
    ks = aes.expand_key(key)
    blocks = [rng.randbytes(16) for _ in range(40)]
    ciphertext = b"".join(ecb(b, key) for b in blocks)
    assert aes.decrypt_block(ciphertext, ks) == b"".join(blocks)
    for bad in (b"", bytes(15), bytes(33)):
        with pytest.raises(BadLength):
            aes.decrypt_block(bad, ks)


def test_sp800_38a_cbc_vectors(monkeypatch):
    for path in each_path(monkeypatch):
        out = aes.aes_cbc_encrypt(SP800_38A_PLAIN, SP800_38A_KEY, SP800_38A_IV)
        assert out[:64] == SP800_38A_CIPHER, path
        assert len(out) == 80, path  # the PKCS#7 block follows the four vector blocks
        assert aes.aes_cbc_decrypt(out, SP800_38A_KEY, SP800_38A_IV) == SP800_38A_PLAIN, path
    # the vector blocks alone: block decryptions XORed with the IV and the shifted ciphertext
    blocks = aes.decrypt_block(SP800_38A_CIPHER, aes.expand_key(SP800_38A_KEY))
    chain = SP800_38A_IV + SP800_38A_CIPHER[:48]
    assert bytes(a ^ b for a, b in zip(blocks, chain)) == SP800_38A_PLAIN


def _cryptography_cbc(key: bytes, iv: bytes):
    """Encrypt and decrypt under the cryptography package's AES-CBC with PKCS#7."""
    ciphers = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
    from cryptography.hazmat.primitives import padding

    cipher = ciphers.Cipher(ciphers.algorithms.AES(key), ciphers.modes.CBC(iv))

    def encrypt(data: bytes) -> bytes:
        padder, enc = padding.PKCS7(128).padder(), cipher.encryptor()
        return enc.update(padder.update(data) + padder.finalize()) + enc.finalize()

    def decrypt(data: bytes) -> bytes:
        dec, unpadder = cipher.decryptor(), padding.PKCS7(128).unpadder()
        padded = dec.update(data) + dec.finalize()
        return unpadder.update(padded) + unpadder.finalize()

    return encrypt, decrypt


def test_cbc_matches_cryptography_both_ways(monkeypatch):
    for path in each_path(monkeypatch):
        rng = random.Random(38)
        for _ in range(4):
            key, iv = rng.randbytes(16), rng.randbytes(16)
            encrypt, decrypt = _cryptography_cbc(key, iv)
            for n in range(301):
                data = rng.randbytes(n)
                expect = encrypt(data)
                ours = aes.aes_cbc_encrypt(data, key, iv)
                assert ours == expect, path
                assert aes.aes_cbc_decrypt(expect, key, iv) == data, path
                assert decrypt(ours) == data, path


def test_cbc_matches_cryptography_at_bench_sizes(monkeypatch):
    # payload-16k's Huffman output is 9,753 bytes; 16,384 is a whole number of
    # blocks, so its PKCS#7 block is all padding
    for path in each_path(monkeypatch):
        rng = random.Random(39)
        for n in (9753, 16384, 20000, *(rng.randrange(20001) for _ in range(5))):
            key, iv, data = rng.randbytes(16), rng.randbytes(16), rng.randbytes(n)
            encrypt, decrypt = _cryptography_cbc(key, iv)
            ours = aes.aes_cbc_encrypt(data, key, iv)
            assert ours == encrypt(data), (path, n)
            assert aes.aes_cbc_decrypt(encrypt(data), key, iv) == data, (path, n)
            assert decrypt(ours) == data, (path, n)


def test_mutated_ciphertexts_raise_only_package_errors(monkeypatch):
    for path in each_path(monkeypatch):
        rng = random.Random(2025)
        key, iv = rng.randbytes(16), rng.randbytes(16)
        ciphertext = aes.aes_cbc_encrypt(rng.randbytes(90), key, iv)
        for _ in range(3000):
            mutant = bytearray(ciphertext)
            kind = rng.randrange(4)
            if kind == 0:
                for _ in range(rng.randrange(1, 4)):
                    mutant[rng.randrange(len(mutant))] ^= 1 << rng.randrange(8)
            elif kind == 1:
                mutant[rng.randrange(len(mutant))] = rng.randrange(256)
            elif kind == 2:
                del mutant[rng.randrange(len(mutant) + 1) :]
            else:
                mutant[rng.randrange(len(mutant) + 1) : 0] = rng.randbytes(rng.randrange(1, 33))
            try:
                aes.aes_cbc_decrypt(bytes(mutant), key, iv)
            except RdhError:
                pass


@needs_native
@seed(1408)
@settings(max_examples=60, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    iv=st.binary(min_size=16, max_size=16),
    n=st.integers(0, 20000),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_libgcrypt_cbc_matches_the_python_cbc(key, iv, n, data_seed):
    padded = aes._pad(random.Random(data_seed).randbytes(n))
    ciphertext = NATIVE(padded, key, iv, 1)
    assert ciphertext == aes._python_cbc(padded, key, iv, 1)
    assert NATIVE(ciphertext, key, iv, 0) == aes._python_cbc(ciphertext, key, iv, 0) == padded
    # decryption of blocks no encryption made: any whole number of blocks
    blocks = random.Random(data_seed).randbytes(len(padded))
    assert NATIVE(blocks, key, iv, 0) == aes._python_cbc(blocks, key, iv, 0)


@needs_gcrypt
def test_cbc_runs_in_libgcrypt_where_it_loads(monkeypatch, load_gcrypt):
    # a lookup or binding regression would fall back silently, with the same
    # bytes and every other test green, at about 8 ms of payload-16k's 14 ms
    # hide; the binding's own check runs no Python cipher either
    data = random.Random(34).randbytes(1000)
    expect = aes._python_cbc(aes._pad(data), KAT_KEY, SP800_38A_IV, 1)

    def refuse(*args):
        raise AssertionError("AES-CBC fell back to the Python cipher")

    monkeypatch.setattr(aes, "_python_cbc", refuse)
    monkeypatch.setattr(aes, "decrypt_block", refuse)
    load_gcrypt(lambda: GCRYPT)
    ciphertext = aes.aes_cbc_encrypt(data, KAT_KEY, SP800_38A_IV)
    assert ciphertext == expect
    assert aes.aes_cbc_decrypt(ciphertext, KAT_KEY, SP800_38A_IV) == data


def _garbled(name):
    """The platform's gcry_cipher_<name>, with the last byte it writes flipped."""

    def garbled(handle, out, outsize, src, inlen):
        err = getattr(GCRYPT, "gcry_cipher_" + name)(handle, out, outsize, src, inlen)
        ctypes.c_uint8.from_address(out + inlen - 1).value ^= 1
        return err

    return garbled


def _ecb(handle, algo, mode, flags):
    return GCRYPT.gcry_cipher_open(handle, algo, 1, flags)  # GCRY_CIPHER_MODE_ECB, whatever was asked


# the failures of both ciphers, an error from setiv or decrypt, a byte
# garbled both ways, or a CBC handle that drops the chain
@pytest.mark.parametrize(
    "lib",
    [
        *GCRYPT_FAILURES,
        gcrypt_case("setiv-fails", cipher_setiv=gcrypt_fails),
        gcrypt_case("decrypt-fails", cipher_decrypt=gcrypt_fails),
        gcrypt_case("cbc-garbles-a-byte", cipher_encrypt=_garbled("encrypt"), cipher_decrypt=_garbled("decrypt")),
        gcrypt_case("cbc-ignores-the-chain", cipher_open=_ecb),
    ],
)
def test_a_failed_binding_keeps_the_python_cbc(lib, load_gcrypt):
    load_gcrypt(lib)
    rng = random.Random(35)
    key, iv, data = rng.randbytes(16), rng.randbytes(16), rng.randbytes(300)
    expect = aes._python_cbc(aes._pad(data), key, iv, 1)
    assert aes.aes_cbc_encrypt(data, key, iv) == expect
    assert aes.aes_cbc_decrypt(expect, key, iv) == data
    assert aes._native_cbc() is None


@needs_native
def test_the_check_accepts_the_platforms_functions_through_a_stand_in():
    # the stand-ins above fail the check only by what they change
    run = aes._bind(GcryptStandIn())
    assert run is not None
    assert run(SP800_38A_PLAIN, SP800_38A_KEY, SP800_38A_IV, 1) == SP800_38A_CIPHER


@needs_gcrypt
@pytest.mark.parametrize("roundtrip", [ppm_roundtrip, y4m_roundtrip], ids=["ppm", "y4m"])
def test_roundtrip_bytes_are_the_same_on_either_path(roundtrip, load_gcrypt):
    # one loader decides both ciphers: without the library, AES and Blowfish
    # both run in Python and numpy, and the files are the native run's
    native = roundtrip()
    load_gcrypt(lambda: None)
    assert aes._native_cbc() is None and blowfish._native_schedule() is None
    assert roundtrip() == native
