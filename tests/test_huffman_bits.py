"""Bit input and output of the secret's Deflate stream, in RFC 1951's order.

The packer (``huffman._pack_codes``) lays each canonical codeword out most
significant bit first, and takes nothing but the code lengths; the encoder
then fills the bytes least significant bit first, so a codeword's first bit
lands in the lowest free position of its byte, and zero-pads the last byte.
The reader is stdlib zlib's inflater: it takes header bits from the least
significant end of a byte, stored bytes whole, blocks in turn, and raises
rather than zero-fill a stream that ends early.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rdhkit import huffman
from rdhkit.errors import Truncated
from rdhkit.huffman import _pack_codes, code_lengths

# every byte value with an 8-bit code: canonically, each symbol's code is its own value
EIGHT_BIT_LENGTHS = [8] * 256


def _lengths(**by_char: int) -> list[int]:
    lengths = [0] * 256
    for ch, length in by_char.items():
        lengths[ord(ch)] = length
    return lengths


# canonical codes: a=0, b=10, c=110, d=111
ABCD_LENGTHS = _lengths(a=1, b=2, c=3, d=3)


def _freq(data: bytes) -> list[int]:
    return [data.count(s) for s in range(256)]


def _pack(data: bytes, lengths: list[int]) -> list[int]:
    return _pack_codes(np.frombuffer(data, np.uint8), np.array(lengths)).tolist()


def test_single_bit_lands_msb_first():
    # canonical codes a=0, b=10, c=11: a codeword's most significant bit is
    # written first, whatever its length
    lengths = _lengths(a=1, b=2, c=2)
    assert _pack(b"a", lengths) == [0]
    assert _pack(b"ba", lengths) == [1, 0, 0]


def stored(data: bytes, final: bool = True) -> bytes:
    """One stored block: BFINAL, LEN and NLEN, then the bytes."""
    return struct.pack("<BHH", final, len(data), len(data) ^ 0xFFFF) + data


def container(stream: bytes, original_len: int) -> bytes:
    return b"HUF2" + struct.pack(">I", original_len) + stream


def test_read_single_bit():
    # BFINAL is the first byte's least significant bit, and BTYPE 2 (dynamic)
    # follows it, least significant bit first; without BFINAL the reader
    # waits for another block
    assert huffman.huffman_compress(b"lsb first " * 20)[8] & 0b111 == 0b101
    assert huffman.huffman_decompress(container(stored(b"x"), 1)) == b"x"
    with pytest.raises(Truncated):
        huffman.huffman_decompress(container(stored(b"x", final=False), 1))


def test_read_whole_byte():
    # stored bytes are read whole, not bit-reversed like the packed codewords
    assert huffman.huffman_decompress(container(stored(b"\xa5\x01"), 2)) == b"\xa5\x01"


def test_read_past_end_raises_not_zero_fills():
    with pytest.raises(Truncated):
        huffman.huffman_decompress(container(stored(b"\xff")[:-1], 1))
    with pytest.raises(Truncated):  # LEN promises a byte the stream does not hold
        huffman.huffman_decompress(container(stored(b"\xff")[:5], 1))
    with pytest.raises(Truncated):
        huffman.huffman_decompress(container(b"", 0))


def test_cursor_advances():
    # from one block to the next, and from the stored form to a dynamic block
    dynamic = huffman.huffman_compress(b"bcba" * 50)[8:]
    stream = stored(b"ab", final=False) + stored(b"", final=False) + dynamic
    assert huffman.huffman_decompress(container(stream, 202)) == b"ab" + b"bcba" * 50


def test_whole_byte_identity():
    assert _pack(b"\xa5", EIGHT_BIT_LENGTHS) == [1, 0, 1, 0, 0, 1, 0, 1]
    # so a byte of 8-bit codes fills its byte reversed
    bits = _pack_codes(np.frombuffer(b"\x01", np.uint8), np.array(EIGHT_BIT_LENGTHS))
    assert np.packbits(bits, bitorder="little").tobytes() == b"\x80"


def test_hand_packed_partial_byte():
    # 110 then 10, each codeword most significant bit first
    assert _pack(b"cb", ABCD_LENGTHS) == [1, 1, 0, 1, 0]


def _read(bits: list[int], lengths: list[int], count: int) -> bytes:
    """Bit-by-bit canonical decode of count symbols, most significant bit of
    each codeword first, sharing no code with the packer."""
    codes, code, previous = {}, 0, 0
    for length, symbol in sorted((n, s) for s, n in enumerate(lengths) if n):
        code <<= length - previous
        codes[length, code] = symbol
        code, previous = code + 1, length
    out, code, length = bytearray(), 0, 0
    for bit in bits:
        code, length = code << 1 | bit, length + 1
        if (length, code) in codes:
            out.append(codes[length, code])
            code = length = 0
    assert length == 0 and len(out) == count
    return bytes(out)


@given(
    st.binary(min_size=1, max_size=200),
    st.dictionaries(st.integers(0, 255), st.integers(1, 2**20), max_size=24),
)
def test_roundtrip_any_write_sequence(data, extra_weights):
    # skewed extra weights push the rarest codes to Deflate's 15-bit limit
    freq = _freq(data)
    for s, w in extra_weights.items():
        freq[s] += w
    lengths = code_lengths(freq, 15)
    assert _read(_pack(data, lengths), lengths, len(data)) == data


@given(st.binary(min_size=1, max_size=200))
def test_padding_determinism(data):
    lengths = code_lengths(_freq(data), 15)
    buffers = [_pack(data, lengths) for _ in range(2)]
    assert buffers[0] == buffers[1]
    assert len(buffers[0]) == sum(lengths[s] for s in data)
    # the pad bits past the stream's last bit are zero
    container = huffman.huffman_compress(data)
    assert container == huffman.huffman_compress(data)
    assert container[-1] >> (8 - _pad_bits(container)) == 0


def _pad_bits(container: bytes) -> int:
    """How many of the last byte's high bits the inflater ignores: flipping
    one of them leaves the inflated bytes as they were."""
    inflated = zlib.decompress(container[8:], -15)
    for k in range(8):
        mutant = bytearray(container)
        mutant[-1] ^= 0x80 >> k
        try:
            if zlib.decompress(bytes(mutant[8:]), -15) != inflated:
                return k
        except zlib.error:
            return k
    return 8
