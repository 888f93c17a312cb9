import pytest
from hypothesis import given, strategies as st

from rdhkit.bitio import BitReader, BitWriter
from rdhkit.errors import OutOfBits


def test_single_bit_lands_msb_first():
    w = BitWriter()
    w.write_bits(0b1, 1)
    assert w.getvalue() == bytes([0x80])
    assert w.bit_count == 1


def test_whole_byte_identity():
    w = BitWriter()
    w.write_bits(0xA5, 8)
    assert w.getvalue() == bytes([0xA5])


def test_hand_packed_partial_byte():
    # 101 then 11 -> 10111 padded with zeros -> 0b10111000
    w = BitWriter()
    w.write_bits(0b101, 3)
    w.write_bits(0b11, 2)
    assert w.getvalue() == bytes([0b10111000])
    assert w.bit_count == 5


def test_only_low_bits_are_significant():
    w = BitWriter()
    w.write_bits(0xFF0F, 4)  # only the low 4 bits matter
    assert w.getvalue() == bytes([0xF0])


def test_write_rejects_bad_counts():
    w = BitWriter()
    with pytest.raises(ValueError):
        w.write_bits(0, 65)
    with pytest.raises(ValueError):
        w.write_bits(0, -1)


def test_read_single_bit():
    assert BitReader(bytes([0x80])).read_bits(1) == 1


def test_read_whole_byte():
    assert BitReader(bytes([0xA5])).read_bits(8) == 0xA5


def test_read_past_end_raises_not_zero_fills():
    r = BitReader(bytes([0xFF]))
    r.read_bits(8)
    with pytest.raises(OutOfBits):
        r.read_bits(1)
    r2 = BitReader(b"")
    with pytest.raises(OutOfBits):
        r2.read_bits(1)


def test_cursor_advances():
    r = BitReader(bytes([0b10110100]))
    assert r.read_bits(3) == 0b101
    assert r.cursor == 3
    assert r.read_bits(5) == 0b10100
    assert r.remaining == 0


@given(
    st.lists(
        st.integers(min_value=0, max_value=64).flatmap(
            lambda n: st.tuples(st.integers(min_value=0, max_value=(1 << n) - 1 if n else 0),
                                st.just(n))
        ),
        max_size=60,
    )
)
def test_roundtrip_any_write_sequence(chunks):
    w = BitWriter()
    for value, n in chunks:
        w.write_bits(value, n)
    r = BitReader(w.getvalue())
    for value, n in chunks:
        assert r.read_bits(n) == value


@given(st.lists(st.tuples(st.integers(0, 2**16 - 1), st.integers(1, 16)), max_size=40))
def test_padding_determinism(chunks):
    buffers = []
    for _ in range(2):
        w = BitWriter()
        for value, n in chunks:
            w.write_bits(value, n)
        buffers.append(w.getvalue())
    assert buffers[0] == buffers[1]
    assert len(buffers[0]) == (sum(n for _, n in chunks) + 7) // 8
