import numpy as np
import pytest

from rdhkit import histshift as hs
from rdhkit.errors import (
    CapacityExceeded,
    NoZeroBin,
    OutOfRange,
    PayloadOverrun,
    ZeroBinNotEmpty,
)


def brute_histogram(plane):
    counts = [0] * 256
    for v in np.asarray(plane).reshape(-1):
        counts[int(v)] += 1
    return counts


def test_plan_constant_plane():
    plane = np.full((4, 4), 9, dtype=np.uint8)
    assert hs.plan_hs(plane) == (9, 10, 16)


def test_plan_small_plane():
    plane = np.array([5, 5, 5, 7, 200], dtype=np.uint8)
    peak, zero, cap = hs.plan_hs(plane)
    assert (peak, zero, cap) == (5, 6, 3)
    assert cap == brute_histogram(plane)[peak]


def test_plan_tie_breaks_to_smallest_value():
    plane = np.array([3, 3, 12, 12, 50], dtype=np.uint8)
    peak, _, cap = hs.plan_hs(plane)
    assert peak == 3 and cap == 2


def test_plan_falls_back_below_peak():
    # every value from peak upward occurs, so the zero bin must sit below
    plane = np.arange(100, 256, dtype=np.uint8)
    plane = np.concatenate([plane, np.array([200, 200], dtype=np.uint8)])
    peak, zero, _ = hs.plan_hs(plane)
    assert peak == 200
    assert zero == 99


def test_plan_no_zero_bin():
    plane = np.arange(256, dtype=np.uint8)
    with pytest.raises(NoZeroBin):
        hs.plan_hs(plane)


def test_embed_hand_traced_example():
    plane = np.array([5, 5, 6], dtype=np.uint8)
    out = hs.hs_embed(plane, [1, 0], peak=5, zero=7)
    assert out.tolist() == [6, 5, 7]


def test_embed_zero_bits_only_shifts():
    plane = np.array([5, 5, 6], dtype=np.uint8)
    out = hs.hs_embed(plane, [0, 0], peak=5, zero=7)
    assert out.tolist() == [5, 5, 7]


def test_embed_rejects_overfull_payload():
    plane = np.array([5, 5, 6], dtype=np.uint8)
    with pytest.raises(CapacityExceeded):
        hs.hs_embed(plane, [1, 0, 1], peak=5, zero=7)


def test_embed_rejects_occupied_zero_bin():
    plane = np.array([5, 7], dtype=np.uint8)
    with pytest.raises(ZeroBinNotEmpty):
        hs.hs_embed(plane, [1], peak=5, zero=7)


def test_extract_inverts_hand_example():
    marked = np.array([6, 5, 7], dtype=np.uint8)
    plane, bits = hs.hs_extract(marked, peak=5, zero=7, nbits=2)
    assert plane.tolist() == [5, 5, 6]
    assert bits.tolist() == [1, 0]


def test_extract_zero_payload_is_pure_unshift():
    marked = np.array([5, 5, 7], dtype=np.uint8)
    plane, bits = hs.hs_extract(marked, peak=5, zero=7, nbits=0)
    assert plane.tolist() == [5, 5, 6]
    assert bits.size == 0


def test_extract_payload_overrun():
    marked = np.array([5, 6], dtype=np.uint8)
    with pytest.raises(PayloadOverrun):
        hs.hs_extract(marked, peak=5, zero=7, nbits=3)


@pytest.mark.parametrize(
    "alphabet",
    [
        np.concatenate([np.arange(16), [255]]),  # zero bins above the peak
        np.arange(240, 256),  # peaks near 255 force the mirrored direction
    ],
)
def test_thousand_plane_roundtrip_oracle(alphabet):
    rng = np.random.default_rng(123)
    alphabet = alphabet.astype(np.uint8)
    mirrored_seen = False
    for _ in range(1000):
        plane = rng.choice(alphabet, size=(8, 8)).astype(np.uint8)
        try:
            peak, zero, cap = hs.plan_hs(plane)
        except NoZeroBin:
            continue  # the 240..255 alphabet occasionally uses few values
        assert cap == brute_histogram(plane)[peak]
        mirrored_seen |= zero < peak
        nbits = int(rng.integers(0, cap + 1))
        bits = rng.integers(0, 2, size=nbits, dtype=np.uint8)
        marked = hs.hs_embed(plane, bits, peak, zero)
        assert np.max(np.abs(marked.astype(int) - plane.astype(int))) <= 1
        back, got = hs.hs_extract(marked, peak, zero, nbits)
        assert np.array_equal(back, plane)
        assert np.array_equal(got, bits)
    if alphabet[0] == 240:
        assert mirrored_seen


def test_embed_never_touches_values_outside_the_interval():
    rng = np.random.default_rng(55)
    plane = rng.choice(np.array([3, 4, 5, 9, 200], dtype=np.uint8), size=100)
    peak, zero, cap = hs.plan_hs(plane)
    bits = rng.integers(0, 2, size=cap, dtype=np.uint8)
    marked = hs.hs_embed(plane, bits, peak, zero)
    lo, hi = min(peak, zero), max(peak, zero)
    outside = (plane < lo) | (plane > hi)
    assert np.array_equal(marked[outside], plane[outside])


def test_lsb_replace_and_read():
    out = np.array([0xFF, 0xFE, 0x01], dtype=np.uint8)
    assert hs.lsb_read(out, 0, 3).tolist() == [1, 0, 1]


def test_lsb_roundtrip_property():
    rng = np.random.default_rng(77)
    for _ in range(50):
        plane = rng.integers(0, 256, size=64, dtype=np.uint8)
        start = int(rng.integers(0, 32))
        bits = rng.integers(0, 2, size=int(rng.integers(0, 32)), dtype=np.uint8)
        out = plane.copy()
        out[start : start + bits.size] = (out[start : start + bits.size] & 0xFE) | bits
        assert np.array_equal(hs.lsb_read(out, start, bits.size), bits)


def test_lsb_out_of_range():
    plane = np.zeros(4, dtype=np.uint8)
    with pytest.raises(OutOfRange):
        hs.lsb_read(plane, 2, 3)
    with pytest.raises(OutOfRange):
        hs.lsb_read(plane, 3, 2)


def test_invalid_bins_rejected():
    plane = np.array([5, 5], dtype=np.uint8)
    with pytest.raises(ValueError):
        hs.hs_embed(plane, [1], peak=5, zero=5)
    with pytest.raises(ValueError):
        hs.hs_embed(plane, [2], peak=5, zero=7)  # bits must be 0/1
