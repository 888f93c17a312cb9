"""MSB-first bit order of the Huffman bitstream.

The packer (``huffman._pack_codes``) and the table decoder
(``huffman._decode``) are the package's only bit writer and reader: the
first bit written lands in the most significant position of the first byte,
the last byte is zero-padded, and a read past the end raises rather than
zero-filling.
"""

import pytest
from hypothesis import given, strategies as st

from rdhkit.errors import Truncated
from rdhkit.huffman import CodeTable, _decode, _pack_codes, build_canonical_codes, build_frequency_table

# every byte value with an 8-bit code: canonically, each symbol's code is its own value
EIGHT_BIT_LENGTHS = [8] * 256


def _table(codes: dict[int, tuple[int, int]]) -> CodeTable:
    """Table from {symbol: (codeword, length)}."""
    lengths, words = [0] * 256, [0] * 256
    for s, (code, length) in codes.items():
        words[s], lengths[s] = code, length
    return CodeTable(lengths, words)


def test_single_bit_lands_msb_first():
    assert _pack_codes(b"a", _table({ord("a"): (0b1, 1)})) == bytes([0x80])


def test_whole_byte_identity():
    assert _pack_codes(b"a", _table({ord("a"): (0xA5, 8)})) == bytes([0xA5])


def test_hand_packed_partial_byte():
    # 101 then 11 -> 10111 padded with zeros -> 0b10111000
    table = _table({ord("a"): (0b101, 3), ord("b"): (0b11, 2)})
    assert _pack_codes(b"ab", table) == bytes([0b10111000])


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
    # canonical codes: a=0, b=10, c=110, d=111; 0b10110100 reads 10|110|10|0
    lengths = [0] * 256
    for ch, length in zip("abcd", (1, 2, 3, 3)):
        lengths[ord(ch)] = length
    assert _decode(bytes([0b10110100]), lengths, 4) == b"bcba"


@given(
    st.binary(min_size=1, max_size=200),
    st.dictionaries(st.integers(0, 255), st.integers(1, 2**20), max_size=24),
)
def test_roundtrip_any_write_sequence(data, extra_weights):
    # skewed extra weights push the rarest codes past the decoder's peek width
    freq = build_frequency_table(data)
    for s, w in extra_weights.items():
        freq[s] += w
    table = build_canonical_codes(freq)
    assert _decode(_pack_codes(data, table), table.lengths, len(data)) == data


@given(st.binary(min_size=1, max_size=200))
def test_padding_determinism(data):
    table = build_canonical_codes(build_frequency_table(data))
    buffers = [_pack_codes(data, table) for _ in range(2)]
    assert buffers[0] == buffers[1]
    nbits = sum(table.lengths[s] for s in data)
    assert len(buffers[0]) == (nbits + 7) // 8
    # the pad bits after the last codeword are zero
    assert int.from_bytes(buffers[0], "big") & ((1 << (8 * len(buffers[0]) - nbits)) - 1) == 0
