import numpy as np
import pytest

from rdhkit import histshift as hs
from rdhkit.errors import (
    CapacityExceeded,
    DimensionMismatch,
    NoZeroBin,
    PayloadOverrun,
    ZeroBinNotEmpty,
)


def brute_histogram(plane):
    counts = [0] * 256
    for v in np.asarray(plane).reshape(-1):
        counts[int(v)] += 1
    return counts


@pytest.mark.parametrize("size", [0, 1, hs.BLOCK - 1, hs.BLOCK, hs.BLOCK + 1, 3 * hs.BLOCK + 7])
def test_count_values_on_both_sides_of_one_block(size):
    flat = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8)
    hist = hs.count_values(flat)
    assert hist.dtype == np.intp and hist.shape == (256,)
    assert hist.tolist() == np.bincount(flat.astype(np.int64), minlength=256).tolist()


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


def marked_layouts(rng):
    """(marked plane, peak, zero, nbits): flat, C, Fortran, strided and 2-D strided
    copies of one marked plane, shifting both ways."""
    for centre in (3, 128, 252):
        plane = np.clip(np.rint(rng.normal(centre, 1.5, 240)), 0, 255).astype(np.uint8)
        peak, zero, capacity = hs.plan_hs(plane)
        for zero in {zero, 2 * peak - zero} & set(range(256)):
            if np.count_nonzero(plane == zero):
                continue
            marked = hs.hs_embed(plane, rng.integers(0, 2, capacity, dtype=np.uint8), peak, zero)
            rows = np.zeros((24, 20), np.uint8)
            rows[::2] = marked.reshape(12, 20)
            for layout in (
                marked,
                marked.reshape(12, 20),
                np.asfortranarray(marked.reshape(12, 20)),
                np.repeat(marked, 2)[0::2],
                rows[::2],
            ):
                yield layout, peak, zero, capacity


def test_extract_into_out_matches_the_allocating_form():
    rng = np.random.default_rng(504)
    seen = set()
    for marked, peak, zero, nbits in marked_layouts(rng):
        want_plane, want_bits = hs.hs_extract(marked, peak, zero, nbits)
        # out in its own buffer, C or Fortran, or interleaved with bytes it must not touch
        spare = np.full(2 * marked.size, 77, np.uint8)
        for out in (
            np.empty(marked.shape, np.uint8),
            np.empty(marked.shape, np.uint8, order="F"),
            spare[1::2].reshape(marked.shape),
        ):
            before = marked.copy()
            got_plane, got_bits = hs.hs_extract(marked, peak, zero, nbits, out=out)
            assert got_plane is out
            assert np.array_equal(out, want_plane) and np.array_equal(got_bits, want_bits)
            assert np.array_equal(marked, before)
        assert np.all(spare[0::2] == 77)
        layout = "C" if marked.flags.c_contiguous else "F" if marked.flags.f_contiguous else "strided"
        seen.add(("up" if peak < zero else "down", layout))
    assert seen == {(d, c) for d in ("up", "down") for c in ("C", "F", "strided")}


def test_extract_into_an_out_interleaved_with_the_plane():
    # out and the plane share a buffer but no byte: allowed
    rng = np.random.default_rng(505)
    plane = (40 + rng.integers(0, 2, 300)).astype(np.uint8)
    bits = rng.integers(0, 2, np.count_nonzero(plane == 40), dtype=np.uint8)
    buf = np.zeros(600, np.uint8)
    buf[0::2] = hs.hs_embed(plane, bits, 40, 42)
    _, got = hs.hs_extract(buf[0::2], 40, 42, bits.size, out=buf[1::2])
    assert np.array_equal(buf[1::2], plane) and np.array_equal(got, bits)


@pytest.mark.parametrize(
    "make_out",
    [
        lambda plane, buf: np.empty(plane.size + 1, np.uint8),  # wrong size
        lambda plane, buf: np.empty(plane.size - 1, np.uint8),
        lambda plane, buf: np.empty(plane.shape, np.int16),  # not uint8
        lambda plane, buf: np.empty(plane.shape, np.bool_),
        lambda plane, buf: [0] * plane.size,  # not an array
        lambda plane, buf: np.frombuffer(bytes(plane.size), np.uint8),  # read-only
        lambda plane, buf: plane,  # in place
        lambda plane, buf: buf[50:150],  # half over the plane
        lambda plane, buf: buf[::-1][100:],  # the plane reversed
    ],
    ids=["size+1", "size-1", "int16", "bool", "list", "read-only", "in-place", "partial", "reversed"],
)
def test_extract_refuses_an_out_it_cannot_write(make_out):
    # writing in place would be wrong: the run mask overwrites the plane
    # before the unshift reads it
    buf = np.full(200, 5, np.uint8)
    buf[::7] = 6
    plane, before = buf[:100], buf.copy()
    with pytest.raises(DimensionMismatch):
        hs.hs_extract(plane, 5, 7, 3, out=make_out(plane, buf))
    assert np.array_equal(buf, before)


def scan_plane(rng, size, peak, mark, carriers):
    """A flat plane whose peak and mark samples sit exactly at the carrier positions."""
    others = np.setdiff1d(np.arange(256, dtype=np.uint8), [peak, mark])
    flat = rng.choice(others, size)
    flat[carriers] = rng.choice(np.array([peak, mark], dtype=np.uint8), len(carriers))
    return flat


@pytest.mark.parametrize("peak, zero", [(100, 140), (100, 60)])
def test_extract_matches_reference_across_scan_steps(peak, zero):
    # hs_extract scans a first step of _SCAN_PER_BIT * nbits samples (at most
    # _SCAN_STEP), then _SCAN_STEP at a time; put the nbits-th carried bit on
    # either side of each step end and of the plane's first _SCAN_STEP, with
    # and without an empty first step, on planes of more than two steps
    rng = np.random.default_rng(503)
    mark = peak + 1 if peak < zero else peak - 1
    cap = hs._SCAN_STEP
    size = 2 * cap + 4321
    per_bit = hs._SCAN_PER_BIT
    seen = set()
    for nbits in (1, 3, 328, cap // per_bit - 1, cap // per_bit, 5000):
        step = min(cap, per_bit * nbits)
        for edge in {step, step + cap, cap}:
            for last, empty_head in ((edge - 1, False), (edge, False), (edge, True)):
                head = step if empty_head else 0
                if last - head < nbits - 1 or last < 0:
                    continue
                before = rng.choice(np.arange(head, last), nbits - 1, replace=False)
                after = rng.choice(np.arange(last + 1, size), 50, replace=False)
                flat = scan_plane(rng, size, peak, mark, np.concatenate((before, [last], after)))
                carried = np.flatnonzero((flat == peak) | (flat == mark))
                assert carried[nbits - 1] == last
                if empty_head:
                    assert carried[0] >= step
                    seen.add("empty first step")
                seen.add(("before" if last < edge else "at", "step" if edge == step else "cap"))
                for n in (nbits - 1, nbits, nbits + 1):
                    want = mask_hs_extract(flat, peak, zero, n)
                    assert_same(hs.hs_extract(flat, peak, zero, n), want, flat.shape)
                short = carried.size + 1  # more bits than the plane carries
                assert outcome(hs.hs_extract, flat, peak, zero, short) is PayloadOverrun
    assert seen == {
        "empty first step", ("before", "step"), ("at", "step"), ("before", "cap"), ("at", "cap")
    }


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
