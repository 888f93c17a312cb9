import numpy as np
import pytest

from rdhkit import histshift as hs
from rdhkit.errors import (
    CapacityExceeded,
    NoZeroBin,
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


def test_invalid_bins_rejected():
    plane = np.array([5, 5], dtype=np.uint8)
    with pytest.raises(ValueError):
        hs.hs_embed(plane, [1], peak=5, zero=5)
    with pytest.raises(ValueError):
        hs.hs_embed(plane, [2], peak=5, zero=7)  # bits must be 0/1


# --- table passes against the mask-based reference ------------------------


def mask_hs_embed(plane, bits, peak, zero):
    """Reference hs_embed: comparisons and a masked read-modify-write."""
    hs._check_bins(peak, zero)
    bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
    if bits.size and bits.max() > 1:
        raise ValueError("payload bits must be 0 or 1")
    out = np.array(plane, dtype=np.uint8, copy=True)
    flat = out.reshape(-1)
    if np.any(flat == zero):
        raise ZeroBinNotEmpty(f"bin {zero} is not empty")
    if peak < zero:
        flat[(flat > peak) & (flat < zero)] += 1
    else:
        flat[(flat < peak) & (flat > zero)] -= 1
    slots = np.flatnonzero(flat == peak)
    if bits.size > slots.size:
        raise CapacityExceeded(needed=bits.size, available=slots.size, detail="peak bin")
    if peak < zero:
        flat[slots[: bits.size]] += bits
    else:
        flat[slots[: bits.size]] -= bits
    return out


def mask_hs_extract(plane, peak, zero, nbits):
    """Reference hs_extract: comparisons and a masked read-modify-write."""
    hs._check_bins(peak, zero)
    out = np.array(plane, dtype=np.uint8, copy=True)
    flat = out.reshape(-1)
    mark = peak + 1 if peak < zero else peak - 1
    candidates = np.flatnonzero((flat == peak) | (flat == mark))
    if candidates.size < nbits:
        raise PayloadOverrun(f"need {nbits} payload slots, plane holds {candidates.size}")
    bits = (flat[candidates[:nbits]] == mark).astype(np.uint8)
    if peak < zero:
        flat[(flat >= peak + 1) & (flat <= zero)] -= 1
    else:
        flat[(flat <= peak - 1) & (flat >= zero)] += 1
    return out, bits


def outcome(fn, plane, *args):
    """fn's result, or the type of the exception it raised; plane must stay unchanged."""
    before = np.array(plane, copy=True)
    try:
        result = fn(plane, *args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        result = type(exc)
    assert np.array_equal(plane, before), "input plane was mutated"
    return result


def assert_same(got, want, shape):
    if isinstance(want, type):
        assert got is want
        return
    got = got if isinstance(got, tuple) else (got,)
    want = want if isinstance(want, tuple) else (want,)
    assert got[0].shape == want[0].shape == shape
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.uint8
        assert np.array_equal(g, w)


def host_planes(rng):
    """Seeded planes: flat, 2-D, strided and 2-D strided views, around random centres."""
    for _ in range(300):
        centre = int(rng.choice([0, 1, 2, 128, 253, 254, 255, int(rng.integers(0, 256))]))
        raw = np.clip(rng.normal(centre, rng.uniform(0.3, 4), 3 * 96), 0, 255).astype(np.uint8)
        yield raw[:96]
        yield raw.reshape(16, 18)
        yield raw[0::3]
        yield raw.reshape(12, 24)[::2, 1::3]


def random_bins(rng, plane):
    """A (peak, zero) pair: usually planned, else nearby, clamped or invalid."""
    try:
        peak, zero, _ = hs.plan_hs(plane)
    except NoZeroBin:
        peak, zero = int(rng.integers(0, 256)), int(rng.integers(0, 256))
    roll = rng.random()
    if roll < 0.15:
        zero = int(np.clip(peak + rng.choice([-1, 1]), 0, 255))  # empty shift interval
    elif roll < 0.25:
        peak, zero = int(rng.choice([0, 255])), int(rng.integers(0, 256))
    elif roll < 0.3:
        peak = int(rng.choice([-1, 256, zero]))  # invalid or equal bins
    elif roll < 0.4:
        zero = int(rng.integers(0, 256))  # often an occupied zero bin
    return peak, zero


def test_embed_matches_mask_reference():
    rng = np.random.default_rng(501)
    seen = set()
    for plane in host_planes(rng):
        peak, zero = random_bins(rng, plane)
        hist = np.bincount(plane.reshape(-1), minlength=256)
        cap = int(hist[peak]) if 0 <= peak <= 255 else 0
        nbits = int(rng.integers(0, cap + 3))
        bits = rng.integers(0, 2, size=nbits, dtype=np.uint8)
        if rng.random() < 0.05 and nbits:
            bits[-1] = 2
        want = outcome(mask_hs_embed, plane, bits, peak, zero)
        assert_same(outcome(hs.hs_embed, plane, bits, peak, zero), want, plane.shape)
        seen.add(want if isinstance(want, type) else ("up" if peak < zero else "down"))
    assert seen == {"up", "down", ValueError, ZeroBinNotEmpty, CapacityExceeded}


def test_extract_matches_mask_reference():
    rng = np.random.default_rng(502)
    seen = set()
    for plane in host_planes(rng):
        peak, zero = random_bins(rng, plane)
        hist = np.bincount(plane.reshape(-1), minlength=256)
        if 0 <= peak <= 255 and 0 <= zero <= 255 and peak != zero and not hist[zero]:
            bits = rng.integers(0, 2, size=int(hist[peak]), dtype=np.uint8)
            if rng.random() < 0.8:
                plane = hs.hs_embed(plane, bits, peak, zero)
        nbits = int(rng.integers(0, plane.size + 1))
        want = outcome(mask_hs_extract, plane, peak, zero, nbits)
        assert_same(outcome(hs.hs_extract, plane, peak, zero, nbits), want, plane.shape)
        seen.add(want if isinstance(want, type) else ("up" if peak < zero else "down"))
    assert seen == {"up", "down", ValueError, PayloadOverrun}


@pytest.mark.parametrize(
    "values, peak, zero",
    [
        ([0, 0, 0, 1, 2, 7], 0, 3),  # peak at bin 0, shifting up
        ([255, 255, 255, 254, 250], 255, 253),  # peak at bin 255, shifting down
        ([4, 4, 4, 9], 4, 5),  # zero next to the peak: nothing shifts
        ([4, 4, 4, 9], 4, 3),
        ([0, 0, 9], 0, 255),  # the widest interval
        ([255, 255, 9], 255, 0),
    ],
)
def test_embed_extract_edge_bins_match_reference(values, peak, zero):
    plane = np.array(values, dtype=np.uint8)
    bits = np.array([1, 0, 1][: values.count(peak)], dtype=np.uint8)
    marked = hs.hs_embed(plane, bits, peak, zero)
    assert np.array_equal(marked, mask_hs_embed(plane, bits, peak, zero))
    got = hs.hs_extract(marked, peak, zero, bits.size)
    want = mask_hs_extract(marked, peak, zero, bits.size)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[0], plane)
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[1], bits)


def test_error_order_matches_reference():
    plane = np.array([[5, 5], [7, 7]], dtype=np.uint8)
    # bin 7 occupied and three bits for two slots: the zero bin is reported first
    for fn in (hs.hs_embed, mask_hs_embed):
        with pytest.raises(ZeroBinNotEmpty):
            fn(plane, [1, 0, 1], 5, 7)
        with pytest.raises(ValueError):
            fn(plane, [2], 5, 7)  # bad bits come before the zero bin
        with pytest.raises(ValueError):
            fn(plane, [1], 256, 7)
    for fn in (hs.hs_extract, mask_hs_extract):
        with pytest.raises(PayloadOverrun):
            fn(plane, 5, 8, 5)
        with pytest.raises(ValueError):
            fn(plane, 5, 5, 0)
