import numpy as np
import pytest

from conftest import host_hist
from rdhkit import histshift as hs
from rdhkit.errors import (
    CapacityExceeded,
    CoverTooSmall,
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
    assert hs.plan_hs(host_hist(plane)) == (9, 10)


def test_plan_small_plane():
    plane = np.array([5, 5, 5, 7, 200], dtype=np.uint8)
    assert hs.plan_hs(host_hist(plane)) == (5, 6)


def test_plan_tie_breaks_to_smallest_value():
    plane = np.array([3, 3, 12, 12, 50], dtype=np.uint8)
    peak, _ = hs.plan_hs(host_hist(plane))
    assert peak == 3


def test_plan_falls_back_below_peak():
    # every value from peak upward occurs, so the zero bin must sit below
    plane = np.arange(100, 256, dtype=np.uint8)
    plane = np.concatenate([plane, np.array([200, 200], dtype=np.uint8)])
    peak, zero = hs.plan_hs(host_hist(plane))
    assert peak == 200
    assert zero == 99


def test_plan_no_zero_bin():
    plane = np.arange(256, dtype=np.uint8)
    with pytest.raises(NoZeroBin):
        hs.plan_hs(host_hist(plane))


def test_embed_hand_traced_example():
    plane = np.array([5, 5, 6], dtype=np.uint8)
    assert hs.hs_embed(plane, [1, 0], peak=5, zero=7) is None
    assert plane.tolist() == [6, 5, 7]


def test_embed_zero_bits_only_shifts():
    plane = np.array([5, 5, 6], dtype=np.uint8)
    hs.hs_embed(plane, [0, 0], peak=5, zero=7)
    assert plane.tolist() == [5, 5, 7]


def test_embed_rejects_overfull_payload():
    plane = np.array([5, 5, 6], dtype=np.uint8)
    with pytest.raises(CapacityExceeded):
        hs.hs_embed(plane, [1, 0, 1], peak=5, zero=7)


def test_embed_rejects_occupied_zero_bin():
    plane = np.array([5, 7], dtype=np.uint8)
    with pytest.raises(ZeroBinNotEmpty):
        hs.hs_embed(plane, [1], peak=5, zero=7)


def test_extract_inverts_hand_example():
    plane = np.array([6, 5, 7], dtype=np.uint8)
    bits = hs.hs_extract(plane, peak=5, zero=7, nbits=2)
    assert plane.tolist() == [5, 5, 6]
    assert bits.tolist() == [1, 0]


def test_extract_zero_payload_is_pure_unshift():
    plane = np.array([5, 5, 7], dtype=np.uint8)
    bits = hs.hs_extract(plane, peak=5, zero=7, nbits=0)
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
            peak, zero = hs.plan_hs(host_hist(plane))
        except NoZeroBin:
            continue  # the 240..255 alphabet occasionally uses few values
        cap = brute_histogram(plane)[peak]
        mirrored_seen |= zero < peak
        nbits = int(rng.integers(0, cap + 1))
        bits = rng.integers(0, 2, size=nbits, dtype=np.uint8)
        marked = plane.copy()
        hs.hs_embed(marked, bits, peak, zero)
        assert np.max(np.abs(marked.astype(int) - plane.astype(int))) <= 1
        got = hs.hs_extract(marked, peak, zero, nbits)
        assert np.array_equal(marked, plane)
        assert np.array_equal(got, bits)
    if alphabet[0] == 240:
        assert mirrored_seen


def test_embed_never_touches_values_outside_the_interval():
    rng = np.random.default_rng(55)
    plane = rng.choice(np.array([3, 4, 5, 9, 200], dtype=np.uint8), size=100)
    peak, zero = hs.plan_hs(host_hist(plane))
    bits = rng.integers(0, 2, size=brute_histogram(plane)[peak], dtype=np.uint8)
    marked = plane.copy()
    hs.hs_embed(marked, bits, peak, zero)
    lo, hi = min(peak, zero), max(peak, zero)
    outside = (plane < lo) | (plane > hi)
    assert np.array_equal(marked[outside], plane[outside])


def test_invalid_bins_rejected():
    plane = np.array([5, 5], dtype=np.uint8)
    with pytest.raises(ValueError):
        hs.hs_embed(plane, [1], peak=5, zero=5)
    with pytest.raises(ValueError):
        hs.hs_embed(plane, [2], peak=5, zero=7)  # bits must be 0/1


@pytest.mark.parametrize(
    "bits",
    [np.array([256, 257]), np.array([1.0, 0.9]), [256], [-1], np.array([0.0, 1.0])],
    ids=["int-above-1", "float", "list-256", "negative", "float-0-1"],
)
def test_embed_refuses_bits_that_are_not_integer_0_or_1(bits):
    # a uint8 cast would embed 256, 257 as 0, 1 and 1.0, 0.9 as 1, 0
    plane = np.array([5, 5, 5, 6], dtype=np.uint8)
    with pytest.raises(ValueError, match="0 or 1"):
        hs.hs_embed(plane, bits, 5, 7)


@pytest.mark.parametrize(
    "bits",
    [[1, 0, 1], np.array([True, False, True]), np.array([1, 0, 1], np.int64), np.array([1, 0, 1], np.uint16)],
    ids=["list", "bool", "int64", "uint16"],
)
def test_embed_takes_integer_and_bool_bits(bits):
    plane = np.array([5, 5, 5, 6], dtype=np.uint8)
    want = embedded(plane.copy(), np.array([1, 0, 1], np.uint8), 5, 7)
    assert np.array_equal(embedded(plane, bits, 5, 7), want)


def test_plan_of_an_empty_plane_is_cover_too_small():
    with pytest.raises(CoverTooSmall) as exc:
        hs.plan_hs(host_hist(np.zeros(0, np.uint8)))
    assert exc.type is CoverTooSmall


# --- table passes against the mask-based reference ------------------------


def mask_hs_embed(plane, bits, peak, zero):
    """Reference hs_embed: comparisons and a masked read-modify-write."""
    hs._check_bins(peak, zero)
    bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
    if bits.size and bits.max() > 1:
        raise ValueError("payload bits must be 0 or 1")
    out = np.array(plane, dtype=np.uint8, order="C")  # so reshape(-1) is a view
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
    out = np.array(plane, dtype=np.uint8, order="C")  # so reshape(-1) is a view
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


def embedded(plane, bits, peak, zero):
    """hs_embed in the reference's form: the plane it marked in place."""
    assert hs.hs_embed(plane, bits, peak, zero) is None
    return plane


def extracted(plane, peak, zero, nbits):
    """hs_extract in the reference's form: the plane it restored in place, and the bits."""
    return plane, hs.hs_extract(plane, peak, zero, nbits)


def outcome(fn, plane, *args):
    """fn's result, or the type of the exception it raised; a refusal must leave
    plane byte-identical, since the kernels check everything before their first write."""
    before = np.array(plane, copy=True)
    try:
        return fn(plane, *args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        assert np.array_equal(plane, before), "a refusal wrote to the plane"
        return type(exc)


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
    """Seeded planes: flat, 2-D, strided and 2-D strided views, around random centres,
    each into its own copy of the samples, so a kernel's writes stay in its plane."""
    for _ in range(300):
        centre = int(rng.choice([0, 1, 2, 128, 253, 254, 255, int(rng.integers(0, 256))]))
        raw = np.clip(rng.normal(centre, rng.uniform(0.3, 4), 3 * 96), 0, 255).astype(np.uint8)
        yield raw[:96].copy()
        yield raw.copy().reshape(16, 18)
        yield raw.copy()[0::3]
        yield raw.copy().reshape(12, 24)[::2, 1::3]


def random_bins(rng, plane):
    """A (peak, zero) pair: usually planned, else nearby, clamped or invalid."""
    try:
        peak, zero = hs.plan_hs(host_hist(plane))
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
        assert_same(outcome(embedded, plane, bits, peak, zero), want, plane.shape)
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
                hs.hs_embed(plane, bits, peak, zero)
        nbits = int(rng.integers(0, plane.size + 1))
        want = outcome(mask_hs_extract, plane, peak, zero, nbits)
        assert_same(outcome(extracted, plane, peak, zero, nbits), want, plane.shape)
        seen.add(want if isinstance(want, type) else ("up" if peak < zero else "down"))
    assert seen == {"up", "down", ValueError, PayloadOverrun}


def marked_layouts(rng):
    """(marked plane, the bytes between its samples, peak, zero, nbits): flat, C, Fortran,
    strided and 2-D strided copies of one marked plane, shifting both ways.  The strided
    copies sit in buffers whose other bytes are 77."""
    for centre in (3, 128, 252):
        plane = np.clip(np.rint(rng.normal(centre, 1.5, 240)), 0, 255).astype(np.uint8)
        peak, zero = hs.plan_hs(host_hist(plane))
        capacity = np.count_nonzero(plane == peak)
        for zero in {zero, 2 * peak - zero} & set(range(256)):
            if np.count_nonzero(plane == zero):
                continue
            marked = plane.copy()
            hs.hs_embed(marked, rng.integers(0, 2, capacity, dtype=np.uint8), peak, zero)
            pairs, rows = np.full(2 * marked.size, 77, np.uint8), np.full((24, 20), 77, np.uint8)
            pairs[0::2], rows[::2] = marked, marked.reshape(12, 20)
            no_gaps = np.empty(0, np.uint8)
            for layout, gaps in (
                (marked, no_gaps),
                (marked.reshape(12, 20).copy(), no_gaps),
                (np.asfortranarray(marked.reshape(12, 20)), no_gaps),
                (pairs[0::2], pairs[1::2]),
                (rows[::2], rows[1::2]),
            ):
                yield layout, gaps, peak, zero, capacity


def test_in_place_kernels_match_the_reference_on_every_layout():
    rng = np.random.default_rng(504)
    seen = set()
    for plane, gaps, peak, zero, nbits in marked_layouts(rng):
        marked = plane.copy()
        want_plane, want_bits = mask_hs_extract(plane, peak, zero, nbits)
        bits = hs.hs_extract(plane, peak, zero, nbits)
        assert np.array_equal(plane, want_plane) and np.array_equal(bits, want_bits)
        want = mask_hs_embed(plane, bits, peak, zero)
        assert hs.hs_embed(plane, bits, peak, zero) is None
        assert np.array_equal(plane, want) and np.array_equal(plane, marked)
        layout = "C" if plane.flags.c_contiguous else "F" if plane.flags.f_contiguous else "strided"
        seen.add(("up" if peak < zero else "down", layout))
    assert seen == {(d, c) for d in ("up", "down") for c in ("C", "F", "strided")}


def test_in_place_shift_of_an_interleaved_plane_leaves_the_bytes_between_its_samples_alone():
    rng = np.random.default_rng(505)
    seen = set()
    for plane, gaps, peak, zero, nbits in marked_layouts(rng):
        if not gaps.size:
            continue
        marked = plane.copy()
        bits = hs.hs_extract(plane, peak, zero, nbits)
        assert np.all(gaps == 77), "hs_extract wrote between the plane's samples"
        hs.hs_embed(plane, bits, peak, zero)
        assert np.all(gaps == 77), "hs_embed wrote between the plane's samples"
        assert np.array_equal(plane, marked)
        seen.add(("up" if peak < zero else "down", plane.ndim))
    assert seen == {(d, n) for d in ("up", "down") for n in (1, 2)}


@pytest.mark.parametrize(
    "make_plane",
    [
        lambda plane: np.frombuffer(plane.tobytes(), np.uint8),
        lambda plane: np.lib.stride_tricks.as_strided(plane, writeable=False),
        lambda plane: plane.astype(np.int16),
        lambda plane: plane.astype(np.bool_),
        lambda plane: plane.tolist(),
    ],
    ids=["read-only", "read-only-view", "int16", "bool", "list"],
)
def test_kernels_refuse_a_plane_they_cannot_write_before_any_work(make_plane, monkeypatch):
    # bin 7 is occupied and the plane carries fewer than 9 bits, so any check
    # made after the plane's would raise another error
    plane = make_plane(np.array([5, 5, 6, 7, 6, 5], np.uint8))
    before = np.array(plane, copy=True)

    def never(*args):
        raise AssertionError("a run mask was built for a plane the kernel cannot write")

    monkeypatch.setattr(hs, "_in_run", never)
    with pytest.raises(DimensionMismatch) as exc:
        hs.hs_embed(plane, [1, 0], 5, 7)
    assert exc.type is DimensionMismatch
    with pytest.raises(DimensionMismatch) as exc:
        hs.hs_extract(plane, 5, 7, 9)
    assert exc.type is DimensionMismatch
    assert np.array_equal(plane, before)


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
                    assert_same(extracted(flat.copy(), peak, zero, n), want, flat.shape)
                short = carried.size + 1  # more bits than the plane carries
                assert outcome(extracted, flat, peak, zero, short) is PayloadOverrun
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
    marked = embedded(plane.copy(), bits, peak, zero)
    assert np.array_equal(marked, mask_hs_embed(plane, bits, peak, zero))
    want = mask_hs_extract(marked, peak, zero, bits.size)
    got = extracted(marked, peak, zero, bits.size)
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
