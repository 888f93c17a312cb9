"""Bit input and output of the Huffman bitstream, in MSB-first order.

The packer (``huffman._pack_codes``) and the table decoder
(``huffman._decode``) are the package's only bit writer and reader, and both
take nothing but the code lengths: the first bit written lands in the most
significant position of the first byte, the last byte is zero-padded, and a
read past the end raises rather than zero-filling.
"""

import pytest
from hypothesis import given, strategies as st

from rdhkit.errors import Truncated
from rdhkit.huffman import _decode, _pack_codes, code_lengths

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


def test_single_bit_lands_msb_first():
    # canonical codes: NUL=0, a=1
    lengths = _lengths(a=1)
    lengths[0] = 1
    assert _pack_codes(b"a", lengths) == bytes([0x80])


def test_whole_byte_identity():
    assert _pack_codes(b"\xa5", EIGHT_BIT_LENGTHS) == bytes([0xA5])


def test_hand_packed_partial_byte():
    # 110 then 10 -> 11010 padded with zeros -> 0b11010000
    assert _pack_codes(b"cb", ABCD_LENGTHS) == bytes([0b11010000])


def test_read_single_bit():
    lengths = [0] * 256
    lengths[0] = lengths[1] = 1  # canonical codes 0 and 1
    assert _decode(bytes([0x80]), lengths, 1) == b"\x01"


def test_read_whole_byte():
    assert _decode(bytes([0xA5]), EIGHT_BIT_LENGTHS, 1) == b"\xa5"


def test_read_past_end_raises_not_zero_fills():
    assert _decode(bytes([0xFF]), EIGHT_BIT_LENGTHS, 1) == b"\xff"
    with pytest.raises(Truncated):
        _decode(bytes([0xFF]), EIGHT_BIT_LENGTHS, 2)
    with pytest.raises(Truncated):
        _decode(b"", EIGHT_BIT_LENGTHS, 1)


def test_cursor_advances():
    # 0b10110100 reads 10|110|10|0
    assert _decode(bytes([0b10110100]), ABCD_LENGTHS, 4) == b"bcba"


@given(
    st.binary(min_size=1, max_size=200),
    st.dictionaries(st.integers(0, 255), st.integers(1, 2**20), max_size=24),
)
def test_roundtrip_any_write_sequence(data, extra_weights):
    # skewed extra weights push the rarest codes past the decoder's peek width
    freq = _freq(data)
    for s, w in extra_weights.items():
        freq[s] += w
    lengths = code_lengths(freq)
    assert _decode(_pack_codes(data, lengths), lengths, len(data)) == data


@given(st.binary(min_size=1, max_size=200))
def test_padding_determinism(data):
    lengths = code_lengths(_freq(data))
    buffers = [_pack_codes(data, lengths) for _ in range(2)]
    assert buffers[0] == buffers[1]
    nbits = sum(lengths[s] for s in data)
    assert len(buffers[0]) == (nbits + 7) // 8
    # the pad bits after the last codeword are zero
    assert int.from_bytes(buffers[0], "big") & ((1 << (8 * len(buffers[0]) - nbits)) - 1) == 0
