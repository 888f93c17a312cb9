import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import host_hist, image_with_frame, make_cover, max_secret_bytes, random_keys
from rdhkit import pipeline, video
from rdhkit.blowfish import bf_ctr_transform, bf_key_schedule
from rdhkit.histshift import hs_embed, hs_extract, plan_hs
from rdhkit.errors import (
    BadCrc,
    BadMagic,
    BadPadding,
    BadVersion,
    CapacityError,
    CapacityExceeded,
    CoverTooSmall,
    DimensionMismatch,
    HeaderChecksum,
    KeyEncodingError,
    MissingSegment,
    NoZeroBin,
    RdhError,
)
from rdhkit.huffman import huffman_compress
from rdhkit.metrics import psnr
from rdhkit.pipeline import (
    FRAME_OVERHEAD_BYTES,
    HEADER_SLOTS,
    RED,
    PayloadFrame,
    StegoKeys,
    build_frames,
    embed_segments,
    frame_num_bits,
    hide,
    max_embeddable_bits,
    pack_side_header,
    parse_frame,
    parse_side_header,
    recover_plane,
    recover_units,
    reserve_room_plane,
    reveal,
)

KEYS = StegoKeys(data_key=bytes(range(16)), image_key=b"image key bytes", nonce=77)
IV = bytes(range(16, 32))


def decrypted(marked):
    """The plain-domain view of a marked image: its cover keystream removed."""
    state = bf_key_schedule(KEYS.image_key)
    return bf_ctr_transform(state, KEYS.nonce, marked.tobytes()).reshape(marked.shape)


# --- payload frames -------------------------------------------------------


def test_frame_roundtrip():
    frame = PayloadFrame(2, 5, IV, b"cipher bytes here")
    parsed = parse_frame(frame.serialize())
    assert parsed == frame
    assert frame.num_bits == 8 * (33 + len(b"cipher bytes here"))


def test_frame_parse_ignores_trailing_bytes():
    frame = PayloadFrame(0, 1, IV, b"xyz")
    assert parse_frame(frame.serialize() + b"garbage after") == frame


def test_random_bits_never_parse():
    rng = random.Random(2001)
    for _ in range(10_000):
        with pytest.raises(BadMagic):
            parse_frame(rng.randbytes(64))


def test_flipped_bit_fails_crc():
    raw = bytearray(PayloadFrame(0, 1, IV, b"payload").serialize())
    raw[20] ^= 0x01
    with pytest.raises(BadCrc):
        parse_frame(bytes(raw))


def test_unsupported_version():
    raw = bytearray(PayloadFrame(0, 1, IV, b"").serialize())
    raw[4] = 9
    with pytest.raises(BadVersion):
        parse_frame(bytes(raw))


def test_truncated_frame_stream():
    raw = PayloadFrame(0, 1, IV, b"0123456789").serialize()
    with pytest.raises(BadCrc):
        parse_frame(raw[:-4])
    with pytest.raises(BadMagic):
        parse_frame(raw[:8])


def test_mutated_frames_raise_only_package_errors():
    rng = random.Random(4098)
    stream = PayloadFrame(1, 3, IV, bytes(range(40))).serialize() + bytes(8)
    accepted = 0
    for _ in range(4000):
        mutant = bytearray(stream)
        kind = rng.randrange(4)
        if kind == 0:
            for _ in range(rng.randrange(1, 4)):
                mutant[rng.randrange(len(mutant))] ^= 1 << rng.randrange(8)
        elif kind == 1:
            mutant[rng.randrange(len(mutant))] = rng.randrange(256)
        elif kind == 2:
            del mutant[rng.randrange(len(mutant) + 1) :]
        else:
            mutant[rng.randrange(len(mutant) + 1) : 0] = rng.randbytes(rng.randrange(1, 9))
        try:
            frame = parse_frame(bytes(mutant))
        except RdhError:
            continue
        accepted += 1
        serialized = frame.serialize()  # an accepted frame is the stream's prefix
        assert serialized == mutant[: len(serialized)]
    assert accepted > 100


# --- side header ----------------------------------------------------------


def test_side_header_roundtrip():
    packed = pack_side_header(200, 17, 123456)
    assert len(packed) == 8
    assert parse_side_header(packed) == (200, 17, 123456)


def test_side_header_checksum_detects_damage():
    packed = bytearray(pack_side_header(1, 2, 3))
    packed[2] ^= 0x40
    with pytest.raises(HeaderChecksum):
        parse_side_header(bytes(packed))


def test_side_header_rejects_equal_bins():
    body = bytes([9, 9]) + (50).to_bytes(4, "big")
    packed = body + pipeline._ones_complement_sum(body).to_bytes(2, "big")
    with pytest.raises(HeaderChecksum):
        parse_side_header(packed)


# --- frame building -------------------------------------------------------


def test_single_unit_single_frame():
    frames = build_frames(b"hello", KEYS.data_key, IV, [10_000])
    assert len(frames) == 1
    assert frames[0].segment_index == 0
    assert frames[0].segment_count == 1
    assert frames[0].iv == IV


def test_empty_secret_is_one_padded_block():
    frames = build_frames(b"", KEYS.data_key, IV, [10_000])
    assert len(frames) == 1
    assert len(frames[0].ciphertext) == 16


def test_greedy_split_matches_packing_oracle():
    secret = bytes(random.Random(6).randbytes(60))
    capacities = [900, 2000]
    frames = build_frames(secret, KEYS.data_key, IV, capacities)
    ciphertext = b"".join(f.ciphertext for f in frames)

    # brute-force oracle: unit u takes the largest piece whose frame fits
    remaining = len(ciphertext)
    expect_sizes = []
    for cap in capacities:
        best = 0
        for take in range(remaining + 1):
            if frame_num_bits(take) <= cap:
                best = take
        expect_sizes.append(min(best, remaining))
        remaining -= expect_sizes[-1]
    assert remaining == 0
    assert [len(f.ciphertext) for f in frames] == expect_sizes
    assert [f.segment_index for f in frames] == list(range(len(expect_sizes)))
    assert all(f.segment_count == len(frames) for f in frames)


def test_build_frames_capacity_error_reports_numbers():
    with pytest.raises(CapacityExceeded) as info:
        build_frames(b"x" * 1000, KEYS.data_key, IV, [400])
    assert info.value.needed > info.value.available


def test_build_frames_numbers_at_most_65535_units(monkeypatch):
    # segment_index and segment_count are u16 fields of every unit's frame
    assert len(build_frames(b"x", KEYS.data_key, IV, [10**6] * 0xFFFF)) == 1

    def never(*args):
        raise AssertionError("encrypted before the unit count was checked")

    monkeypatch.setattr(pipeline, "aes_cbc_encrypt", never)
    with pytest.raises(CapacityError):
        build_frames(b"x", KEYS.data_key, IV, [10**6] * 65537)


# --- room reservation -----------------------------------------------------


def test_reserve_recover_plane_roundtrip():
    rng = np.random.default_rng(21)
    for _ in range(20):
        plane = (50 + rng.integers(0, 2, size=800)).astype(np.uint8)
        nbits = int(rng.integers(0, 120))
        original = plane.copy()
        reserved = reserve_room_plane(plane, nbits, host_hist(plane))
        # region A untouched by reservation itself, which leaves the caller's host as it was
        assert np.array_equal(reserved[:nbits], plane[:nbits])
        assert np.array_equal(plane, original)
        raster = np.repeat(reserved, 3)  # the host as the red samples of a raster
        assert recover_plane(reserved, nbits) is None
        assert np.array_equal(reserved, plane)
        recover_plane(raster[0::3], nbits)
        assert np.array_equal(raster[0::3], plane)
        # only the host is restored: the raster's other samples keep the reserved ones
        marked = np.repeat(reserve_room_plane(plane, nbits, host_hist(plane)), 3)
        assert np.array_equal(raster[1::3], marked[1::3])
        assert np.array_equal(raster[2::3], marked[2::3])


def test_reserve_room_zero_length_region():
    rng = np.random.default_rng(22)
    plane = (9 + rng.integers(0, 2, size=300)).astype(np.uint8)
    reserved = reserve_room_plane(plane, 0, host_hist(plane))
    assert not np.array_equal(reserved, plane)  # header still written
    recover_plane(reserved, 0)
    assert np.array_equal(reserved, plane)


def test_reserve_room_image_level_touches_only_red():
    rng = np.random.default_rng(23)
    img = make_cover(rng, 40, 40)  # a 32x32 cover cannot hold the smallest frame
    reserved = decrypted(hide(img, b"red only", KEYS, iv=IV).image)
    assert np.array_equal(reserved[:, :, 1:], img[:, :, 1:])
    assert not np.array_equal(reserved[:, :, 0], img[:, :, 0])


def test_reserve_room_cover_too_small():
    plane = np.full(64, 5, dtype=np.uint8)  # an 8x8 red plane
    with pytest.raises(CoverTooSmall):
        reserve_room_plane(plane, 1, host_hist(plane))


def test_reserve_room_hs_capacity_exceeded():
    # region B exists but its peak bin is far too small for 64+L bits
    plane = np.arange(200, dtype=np.uint8)
    with pytest.raises(CapacityExceeded) as info:
        reserve_room_plane(plane, 64, host_hist(plane))
    assert (info.value.needed, info.value.available) == (64 + HEADER_SLOTS, 1)


def test_reserve_room_no_zero_bin():
    plane = np.tile(np.arange(256, dtype=np.uint8), 4)
    with pytest.raises(NoZeroBin):
        reserve_room_plane(plane, 8, host_hist(plane))


@pytest.mark.parametrize("nbits", [0, 77])
def test_region_b_carries_the_header_slots_lsbs_then_region_as(nbits):
    # the backup order is part of the on-disk format
    plane = (50 + np.random.default_rng(25).integers(0, 2, size=800)).astype(np.uint8)
    reserved = reserve_room_plane(plane, nbits, host_hist(plane))
    header_end = nbits + HEADER_SLOTS
    peak, zero, _ = parse_side_header(np.packbits(reserved[nbits:header_end] & 1).tobytes())
    backup = hs_extract(reserved[header_end:], peak, zero, header_end)
    want = np.concatenate([plane[nbits:header_end] & 1, plane[:nbits] & 1])
    assert np.array_equal(backup, want)


def test_side_header_of_seven_bytes_is_a_header_checksum_error():
    with pytest.raises(HeaderChecksum) as exc:
        parse_side_header(b"1234567")
    assert exc.type is HeaderChecksum


def test_reservation_that_leaves_region_b_empty_is_rejected():
    plane = np.full(800, 50, np.uint8)
    with pytest.raises(CapacityExceeded, match="region B is empty") as exc:
        reserve_room_plane(plane, plane.size - HEADER_SLOTS, host_hist(plane))
    assert exc.type is CapacityExceeded


def test_recovery_of_a_region_longer_than_the_plane_is_a_header_checksum_error():
    plane = np.full(800, 50, np.uint8)
    with pytest.raises(HeaderChecksum, match="does not fit") as exc:
        recover_plane(plane, plane.size - HEADER_SLOTS + 1)
    assert exc.type is HeaderChecksum


def test_recover_plane_refuses_a_host_that_is_not_1d():
    # reshape(-1) copies a non-contiguous 2-D host, and an in-place restore
    # into that copy would be dropped
    reserved = reserve_room_plane(HOST, 8, host_hist(HOST))
    spaced = np.zeros((2 * HOST.size // 40, 40), np.uint8)
    spaced[:, ::2] = reserved.reshape(-1, 20)
    for host in (reserved.reshape(40, 20), spaced[:, ::2], reserved.reshape(1, -1)):
        before = host.copy()
        with pytest.raises(DimensionMismatch, match="1-D") as exc:
            recover_plane(host, 8)
        assert exc.type is DimensionMismatch
        assert np.array_equal(host, before)
    recover_plane(reserved, 8)
    assert np.array_equal(reserved, HOST)


@pytest.mark.parametrize("shape", [(32, 32), (32, 32, 4)])
def test_hide_and_reveal_take_only_rgb_arrays(shape):
    image = np.zeros(shape, np.uint8)
    with pytest.raises(DimensionMismatch, match=r"RGB \(h, w, 3\) array") as exc:
        hide(image, b"x", KEYS, iv=IV)
    assert exc.type is DimensionMismatch
    with pytest.raises(DimensionMismatch, match=r"RGB \(h, w, 3\) array") as exc:
        reveal(image, KEYS)
    assert exc.type is DimensionMismatch


def test_side_header_must_confirm_the_frame_length():
    plane = np.full(800, 50, np.uint8)
    header = np.unpackbits(np.frombuffer(pack_side_header(50, 52, 100), np.uint8))
    plane[40 : 40 + HEADER_SLOTS] |= header
    with pytest.raises(HeaderChecksum, match="claims a 100-bit region A") as exc:
        recover_plane(plane, 40)
    assert exc.type is HeaderChecksum


def test_embed_leaves_the_unit_as_the_image_key_holder_decrypts_it():
    raw = make_cover(np.random.default_rng(26), 64, 64).reshape(-1)
    frame = PayloadFrame(0, 1, IV, b"decrypted marked cover")
    bits = np.unpackbits(np.frombuffer(frame.serialize(), np.uint8))
    (out,) = pipeline.embed_segments([raw], pipeline.RED, [frame], KEYS, [host_hist(raw[RED])])
    assert np.array_equal(out[pipeline.RED][: bits.size] & 1, bits)
    assert np.array_equal(raw, decrypted(out))
    # region A's plain LSBs are the frame XOR the keystream, not the frame
    assert not np.array_equal(raw[pipeline.RED][: bits.size] & 1, bits)


def test_embed_segments_refuses_more_segments_than_units():
    # segments past the last unit have nowhere to go: embedding them would
    # leave a cover whose receiver finds them absent
    raw = make_cover(np.random.default_rng(27), 64, 64).reshape(-1)
    segments = [PayloadFrame(i, 3, IV, b"x" * 16) for i in range(3)]
    with pytest.raises(CapacityError, match="3 segments, but the cover has only 1 units"):
        embed_segments([raw], RED, segments, KEYS, [host_hist(raw[RED])])


def _wrapping(samples):
    """samples as int64 with 256 added to the first: a uint8 cast gives samples back."""
    wide = samples.astype(np.int64)
    wide[0] += 256
    return wide


HOST = (50 + np.random.default_rng(32).integers(0, 2, size=800)).astype(np.uint8)
UNIT = make_cover(np.random.default_rng(33), 64, 64).reshape(-1)
SEGMENT = PayloadFrame(0, 1, IV, b"x" * 16)
HISTS = [host_hist(HOST), host_hist(UNIT[RED])]


def _marked_unit():
    (marked,) = embed_segments([UNIT.copy()], RED, [SEGMENT], KEYS, HISTS[1:])
    return marked


# each call passes one array through `given`; every one succeeds on uint8 samples
SAMPLE_CALLS = {
    "plan_hs": lambda given: plan_hs(host_hist(given(HOST))),  # count_values checks the samples
    "hs_embed": lambda given: hs_embed(given(HOST.copy()), [1, 0], 50, 52),
    "hs_extract": lambda given: hs_extract(given(HOST.copy()), 50, 52, 3),
    "max_embeddable_bits": lambda given: max_embeddable_bits(given(HOST), HISTS[0]),
    "reserve_room_plane": lambda given: reserve_room_plane(given(HOST), 8, HISTS[0]),
    "recover_plane": lambda given: recover_plane(given(reserve_room_plane(HOST, 8, HISTS[0])), 8),
    "embed_segments": lambda given: embed_segments(
        [given(UNIT.copy())], RED, [SEGMENT], KEYS, HISTS[1:]
    ),
    "recover_units": lambda given: recover_units(
        [given(_marked_unit())], RED, KEYS.image_key, KEYS.nonce
    ),
}


@pytest.mark.parametrize("name", sorted(SAMPLE_CALLS))
def test_every_plane_and_unit_must_be_uint8_samples(name):
    # a cast of the int64 array would give the same uint8 samples, 256 wrapping to 0
    SAMPLE_CALLS[name](lambda samples: samples)
    with pytest.raises(DimensionMismatch, match="uint8"):
        SAMPLE_CALLS[name](_wrapping)


def test_units_that_are_not_1d_are_refused_with_their_shape():
    # a host slice of a 2-D unit takes whole rows, not the samples it names
    with pytest.raises(DimensionMismatch, match=r"unit must be 1-D, got shape \(64, 192\)"):
        embed_segments([UNIT.reshape(64, 192).copy()], RED, [SEGMENT], KEYS, HISTS[1:])
    with pytest.raises(DimensionMismatch, match=r"unit must be 1-D, got shape \(64, 192\)"):
        recover_units([_marked_unit().reshape(64, 192)], RED, KEYS.image_key, KEYS.nonce)


def test_embed_segments_refuses_an_empty_segment_list():
    raw = make_cover(np.random.default_rng(28), 64, 64).reshape(-1)
    with pytest.raises(MissingSegment, match="no segments") as exc:
        embed_segments([raw], RED, [], KEYS, [host_hist(raw[RED])])
    assert exc.type is MissingSegment


def test_max_embeddable_bits_is_the_exact_boundary():
    rng = np.random.default_rng(24)
    for _ in range(10):
        plane = (100 + rng.integers(0, 2, size=int(rng.integers(500, 2000)))).astype(np.uint8)
        limit = max_embeddable_bits(plane, host_hist(plane))
        reserve_room_plane(plane, limit, host_hist(plane))  # must succeed
        with pytest.raises((CapacityExceeded, CoverTooSmall)):
            reserve_room_plane(plane, limit + 1, host_hist(plane))
    with pytest.raises(CapacityExceeded):  # region B's peak holds 1 of 64 header bits
        every = np.arange(256, dtype=np.uint8)
        max_embeddable_bits(every, host_hist(every))


def test_sizing_and_reservation_take_only_the_whole_hosts_histogram():
    hist = host_hist(HOST)
    wrong = {
        "short": hist[:255],
        "long": np.append(hist, 0),
        "another plane's": host_hist(HOST[1:]),
        "double": 2 * hist,
    }
    for name, bad in wrong.items():
        before = bad.copy()
        with pytest.raises(DimensionMismatch, match="256 bins"):
            max_embeddable_bits(HOST, bad)
        with pytest.raises(DimensionMismatch, match="256 bins"):
            reserve_room_plane(HOST, 8, bad)
        assert np.array_equal(bad, before), name
    # both derive region B's histogram in a new array, the search's writes included
    before = hist.copy()
    limit = max_embeddable_bits(HOST, hist)
    assert np.array_equal(hist, before)
    reserve_room_plane(HOST, limit, hist)
    assert np.array_equal(hist, before)
    units = [UNIT.copy(), UNIT.copy()]
    with pytest.raises(ValueError, match="shorter"):  # one histogram per unit
        embed_segments(units, RED, [SEGMENT], KEYS, HISTS[1:])


def bincount_max_embeddable_bits(plane):
    """Reference max_embeddable_bits: a full plan_hs of region B at every probe.

    Where no length is feasible it returns the class of error that
    max_embeddable_bits must raise.
    """
    flat = np.asarray(plane, dtype=np.uint8).reshape(-1)
    n = flat.size

    def feasible(length):
        region_b = flat[length + HEADER_SLOTS :]
        if region_b.size == 0:
            return False
        try:
            peak, _ = plan_hs(host_hist(region_b))
        except NoZeroBin:
            return False
        return np.count_nonzero(region_b == peak) >= HEADER_SLOTS + length

    if n <= HEADER_SLOTS:
        return CoverTooSmall
    try:
        plan_hs(host_hist(flat[HEADER_SLOTS:]))
    except NoZeroBin:
        return NoZeroBin
    if not feasible(0):
        return CapacityExceeded
    lo, hi = 0, n - HEADER_SLOTS
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def seeded_plane(rng, kind, n):
    if kind == "constant":
        return np.full(n, rng.integers(0, 256), dtype=np.uint8)
    if kind == "two-valued":
        return rng.choice(rng.integers(0, 256, size=2).astype(np.uint8), size=n)
    if kind == "gaussian":
        return np.clip(rng.normal(rng.integers(0, 256), rng.uniform(0.5, 8), n), 0, 255).astype(
            np.uint8
        )
    if kind == "every-value":  # region B at L = 0 holds all 256 values once n >= 320
        values = np.resize(np.arange(256, dtype=np.uint8), max(0, n - HEADER_SLOTS))
        head = rng.integers(0, 256, min(n, HEADER_SLOTS), dtype=np.uint8)
        return np.concatenate([head, rng.permutation(values)])
    return rng.integers(0, 256, size=n, dtype=np.uint8)  # uniform


def embeddable_or_reason(plane):
    try:
        return max_embeddable_bits(plane, host_hist(plane))
    except (CapacityExceeded, CoverTooSmall, NoZeroBin) as exc:
        return type(exc)


def test_max_embeddable_bits_matches_bincount_reference_at_every_size():
    rng = np.random.default_rng(31)
    kinds = ["constant", "two-valued", "gaussian", "uniform", "every-value"]
    results = set()
    for n in range(3001):
        kind = kinds[n % len(kinds)]
        plane = seeded_plane(rng, kind, n)
        want = bincount_max_embeddable_bits(plane)
        assert embeddable_or_reason(plane) == want, (n, kind)
        if kind == "every-value" and n >= HEADER_SLOTS + 256:
            assert want is NoZeroBin
        results.add(want if isinstance(want, type) else int)
    assert results == {int, CoverTooSmall, NoZeroBin, CapacityExceeded}


def test_max_embeddable_bits_raises_when_only_a_longer_region_a_empties_a_bin():
    # region B at L = 0 holds every value, but value 0 only in its first sample,
    # so from L = 1 on region B has an empty bin and a peak big enough
    body = np.concatenate([np.arange(1, 256), np.full(4000, 100)]).astype(np.uint8)
    plane = np.concatenate([np.full(HEADER_SLOTS, 100, np.uint8), [0], body]).astype(np.uint8)
    reserve_room_plane(plane, 16, host_hist(plane))  # a longer region A is feasible
    with pytest.raises(NoZeroBin):
        reserve_room_plane(plane, 0, host_hist(plane))
    assert bincount_max_embeddable_bits(plane) is NoZeroBin
    with pytest.raises(NoZeroBin):
        max_embeddable_bits(plane, host_hist(plane))
    # so hide rejects a cover with this red plane up front
    cover = np.zeros((plane.size, 1, 3), dtype=np.uint8)
    cover[:, 0, 0] = plane
    with pytest.raises(NoZeroBin):
        hide(cover, b"", KEYS, iv=IV)


@pytest.mark.parametrize("kind", ["gaussian", "peaked", "uniform"])
def test_max_embeddable_bits_counts_at_most_2n_samples(monkeypatch, kind):
    rng = np.random.default_rng(33)
    n = 512 * 512
    if kind == "peaked":
        plane = make_cover(rng, 512, 512)[:, :, 0]
    else:
        plane = seeded_plane(rng, kind, n).reshape(512, 512)
    want = bincount_max_embeddable_bits(plane)
    counted = []
    # the histogram of region B goes through bincount, each probe through count_nonzero
    for name in ("bincount", "count_nonzero"):

        def counting(x, *args, _count=getattr(np, name), **kwargs):
            counted.append(np.asarray(x).size)
            return _count(x, *args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    assert embeddable_or_reason(plane) == want
    assert 0 < sum(counted) <= 2 * n


def gaussian_cover(rng, height, width):
    """A cover whose red plane is sigma=6 Gaussian noise, as in the benchmark."""
    cover = make_cover(rng, height, width)
    cover[:, :, 0] = np.clip(np.rint(rng.normal(128, 6, (height, width))), 0, 255)
    return cover


def counted_samples(monkeypatch):
    """The sizes of the arrays np.bincount is given from here on."""
    counted = []

    def counting(x, *args, _count=np.bincount, **kwargs):
        counted.append(np.asarray(x).size)
        return _count(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", counting)
    return counted


# one count of a host sizes and reserves it; beyond it max_embeddable_bits
# counts the HEADER_SLOTS header slots at L = 0 and at most capacity_bits
# samples more, the reservation the first frame_bits + HEADER_SLOTS, and
# huffman_compress the secret's bytes.  Counting each host twice crosses it
def hide_count_bound(n, capacity_bits, frame_bits):
    return n + capacity_bits + frame_bits + 2 * HEADER_SLOTS


@pytest.mark.parametrize("kind", ["gaussian", "peaked"])
def test_hide_counts_each_host_sample_once(monkeypatch, kind):
    rng = np.random.default_rng(41)
    cover = gaussian_cover(rng, 512, 512) if kind == "gaussian" else make_cover(rng, 512, 512)
    secret = b"count each host sample once"
    counted = counted_samples(monkeypatch)
    result = hide(cover, secret, KEYS, iv=IV)
    bound = hide_count_bound(512 * 512, result.capacity_bits, result.frame_bits)
    assert 0 < sum(counted) <= bound + len(secret)


def test_video_hide_counts_each_y_plane_once(monkeypatch):
    rng = np.random.default_rng(42)
    n = 176 * 144
    frames = [
        np.concatenate((np.clip(np.rint(rng.normal(100, 6, n)), 0, 255).astype(np.uint8),
                        rng.integers(0, 256, n // 2, dtype=np.uint8)))
        for _ in range(3)
    ]
    clip = video.Y4mVideo([b"W176", b"H144", b"F25:1", b"C420"], frames, [b""] * 3)
    secret = rng.bytes(100)
    host = video.y_host(clip)
    capacities = [max_embeddable_bits(f[host], host_hist(f[host])) for f in frames]
    segments = build_frames(secret, KEYS.data_key, IV, capacities)
    assert len(segments) == 2  # the third frame carries an empty segment
    bits = [s.num_bits for s in segments] + [frame_num_bits(0)]
    counted = counted_samples(monkeypatch)
    video.video_hide(clip, secret, KEYS, iv=IV)
    bound = sum(hide_count_bound(n, c, b) for c, b in zip(capacities, bits))
    assert 0 < sum(counted) <= bound + len(secret)


def whole_host_frame(raw, host):
    """Reference extract: parse the frame from all of the host's LSBs, packed."""
    return parse_frame(np.packbits(raw[host] & 1).tobytes())


def test_extract_matches_whole_host_parse():
    # extract packs only the fixed header's bits and then the declared
    # frame's; hosts shorter than either, truncated and mutated frames, and
    # huge declared lengths must give the same frame or the same error
    rng = random.Random(4099)
    frame = PayloadFrame(1, 3, IV, bytes(range(40))).serialize()
    seen = set()
    for _ in range(3000):
        stream = bytearray(frame + rng.randbytes(rng.randrange(0, 9)))
        for _ in range(rng.randrange(0, 3)):
            stream[rng.randrange(len(stream))] ^= 1 << rng.randrange(8)
        if rng.random() < 0.2:
            stream[9:13] = rng.randbytes(4)  # any declared ct_len
        bits = np.unpackbits(np.frombuffer(bytes(stream), np.uint8))
        bits = bits[: rng.randrange(0, bits.size + 1)]  # the host may end anywhere
        raw = np.tile(np.array([6, 9, 200], dtype=np.uint8), bits.size)
        raw[RED] = (raw[RED] & 0xFE) | bits
        results = []
        for read in (pipeline.extract, whole_host_frame):
            try:
                results.append(read(raw, RED))
            except RdhError as exc:
                results.append(type(exc))
        assert results[0] == results[1]
        seen.add(results[0] if isinstance(results[0], type) else "frame")
    assert seen == {"frame", BadMagic, BadVersion, BadCrc}


# --- hide / reveal --------------------------------------------------------


def test_keys_have_no_default_nonce():
    # a shared default would give every cover under one image key one keystream
    with pytest.raises(TypeError):
        StegoKeys(data_key=bytes(16), image_key=b"image key bytes")


@pytest.mark.parametrize("nonce", [-1, 2**64, "1", 1.0, None])
def test_keys_reject_a_nonce_outside_the_64_bit_domain(nonce):
    with pytest.raises(KeyEncodingError):
        StegoKeys(KEYS.data_key, KEYS.image_key, nonce)
    with pytest.raises(KeyEncodingError):
        recover_units([make_cover(np.random.default_rng(8), 8, 8)], RED, KEYS.image_key, nonce)


def test_keys_take_both_ends_of_the_nonce_domain():
    assert StegoKeys(KEYS.data_key, KEYS.image_key, 0).nonce == 0
    assert StegoKeys(KEYS.data_key, KEYS.image_key, 2**64 - 1).nonce == 2**64 - 1


@pytest.mark.parametrize("host", [RED, np.s_[:1600]], ids=["image", "video"])
def test_embedding_leaves_every_sample_outside_the_host_unchanged(host):
    # embedding writes the host alone, in a frame's Y as in an image's red samples
    rng = np.random.default_rng(31)
    cover = make_cover(rng, 40, 40)
    before = cover.reshape(-1).copy()
    before[host] = cover[:, :, 0].reshape(-1)  # the peaked plane, as a frame's Y
    raw = before.copy()
    hist = host_hist(raw[host])
    frames = build_frames(b"outside", KEYS.data_key, IV, [max_embeddable_bits(raw[host], hist)])
    embed_segments([raw], host, frames, KEYS, [hist])
    outside = np.ones(raw.size, dtype=bool)
    outside[host] = False
    assert np.array_equal(raw[outside], before[outside])
    assert not np.array_equal(raw[host], before[host])


def test_hide_reveal_roundtrip():
    rng = np.random.default_rng(25)
    cover = make_cover(rng, 48, 48)
    secret = b"meet me at the usual place"
    result = hide(cover, secret, KEYS, iv=IV)
    got, original = reveal(result.image, KEYS)
    assert got == secret
    assert np.array_equal(original, cover)


def test_hide_and_reveal_leave_their_input_images_alone():
    # the image twin of the video test: the histogram shifts write in place,
    # so only buffers hide and reveal own may reach them
    wide = make_cover(np.random.default_rng(29), 48, 96)
    for cover in (wide[:, :48].copy(), wide[:, ::2]):
        assert cover.flags.writeable
        before = cover.copy()
        result = hide(cover, b"hands off", KEYS, iv=IV)
        assert np.array_equal(cover, before)
        sent = result.image.copy()
        got, original = reveal(result.image, KEYS)
        assert got == b"hands off" and np.array_equal(original, cover)
        assert np.array_equal(result.image, sent)
        for out, given in ((result.image, cover), (original, result.image)):
            assert not np.shares_memory(out, given)


def test_hide_is_deterministic_given_fixed_inputs():
    rng = np.random.default_rng(26)
    cover = make_cover(rng, 40, 40)
    a = hide(cover, b"abc", KEYS, iv=IV)
    b = hide(cover, b"abc", KEYS, iv=IV)
    assert np.array_equal(a.image, b.image)
    assert a.frame_bits == b.frame_bits


def test_hide_plain_domain_changes_only_red():
    rng = np.random.default_rng(27)
    cover = make_cover(rng, 40, 40)
    result = hide(cover, b"xyz", KEYS, iv=IV)
    assert np.array_equal(decrypted(result.image)[:, :, 1:], cover[:, :, 1:])
    assert result.plain_psnr > 30


def test_hide_reports_the_psnr_of_the_decrypted_marked_image():
    # hide counts changed samples, which is the squared error only because
    # embedding moves every sample it changes by exactly 1
    rng = np.random.default_rng(28)
    full = make_cover(rng, 64, 64)
    room = hide(full, b"", KEYS, iv=IV).capacity_bits // 8 - FRAME_OVERHEAD_BYTES
    text = rng.bytes(room)  # the longest prefix whose ciphertext fills the room
    longest = next(k for k in range(room, -1, -1) if ciphertext_len(text[:k]) <= room)
    covers = [
        (gaussian_cover(rng, 160, 160), b"what the receiver sees"),
        (make_cover(rng, 48, 48), b"what the receiver sees"),
        (full, text[:longest]),
    ]
    for cover, secret in covers:
        result = hide(cover, secret, KEYS, iv=IV)
        plain = decrypted(result.image)
        assert np.abs(cover.astype(np.int16) - plain).max() <= 1
        assert result.plain_psnr == psnr(cover, plain)
    assert result.frame_bits > result.capacity_bits - 8 * 16  # within a block of full


@pytest.mark.parametrize("index,count", [(1, 2), (0, 2), (0, 0)])
def test_reveal_of_anything_but_segment_0_of_1_is_a_missing_segment(index, count):
    cover = make_cover(np.random.default_rng(36), 48, 48)
    frame = PayloadFrame(index, count, IV, bytes(32) if count else b"")
    with pytest.raises(MissingSegment):
        reveal(image_with_frame(cover, frame, KEYS), KEYS)


def test_reveal_needs_matching_nonce():
    rng = np.random.default_rng(29)
    cover = make_cover(rng, 40, 40)
    result = hide(cover, b"s", KEYS, iv=IV)
    wrong = StegoKeys(KEYS.data_key, KEYS.image_key, KEYS.nonce + 1)
    with pytest.raises(HeaderChecksum):
        reveal(result.image, wrong)


def test_wrong_data_key_raises_bad_padding_but_cover_recovers():
    rng = np.random.default_rng(30)
    cover = make_cover(rng, 48, 48)
    result = hide(cover, b"top secret", KEYS, iv=IV)
    wrong = StegoKeys(bytes(16), KEYS.image_key, KEYS.nonce)
    with pytest.raises(BadPadding):
        reveal(result.image, wrong)
    # image recovery is independent of the data key
    _, (original,) = recover_units([result.image.reshape(-1)], RED, KEYS.image_key, KEYS.nonce)
    assert np.array_equal(original, cover.reshape(-1))


def test_wrong_image_key_raises_header_checksum():
    rng = np.random.default_rng(31)
    cover = make_cover(rng, 48, 48)
    result = hide(cover, b"top secret", KEYS, iv=IV)
    with pytest.raises(HeaderChecksum):
        recover_units([result.image.reshape(-1)], RED, b"not the image key", KEYS.nonce)
    wrong = StegoKeys(KEYS.data_key, b"not the image key", KEYS.nonce)
    with pytest.raises(HeaderChecksum):
        reveal(result.image, wrong)


def test_reveal_on_unmarked_image():
    rng = np.random.default_rng(32)
    cover = make_cover(rng, 40, 40)
    with pytest.raises(BadMagic):
        reveal(cover, KEYS)


def test_recover_units_on_unmarked_image_fails_bad_magic():
    rng = np.random.default_rng(33)
    cover = make_cover(rng, 40, 40)
    with pytest.raises(BadMagic):  # the error reveal raises on the same file
        recover_units([cover.reshape(-1)], RED, KEYS.image_key, KEYS.nonce)


@pytest.mark.parametrize("n", [0, 15, 17])
def test_reveal_of_a_ciphertext_of_no_whole_blocks_is_bad_padding(n):
    # the frame's CRC holds, so only the joined length tells it from a real hide
    cover = make_cover(np.random.default_rng(39), 48, 48)
    with pytest.raises(BadPadding):
        reveal(image_with_frame(cover, PayloadFrame(0, 1, IV, bytes(n)), KEYS), KEYS)


def test_build_frames_draws_a_random_iv_when_given_none():
    first, second = (build_frames(b"iv", KEYS.data_key, None, [10**4])[0] for _ in range(2))
    assert len(first.iv) == 16 and first.iv != second.iv


def test_cover_too_small_for_any_frame():
    tiny = np.zeros((8, 8, 3), dtype=np.uint8)
    with pytest.raises(CoverTooSmall):
        hide(tiny, b"", KEYS, iv=IV)


def ciphertext_len(secret):  # PKCS#7 pads the compressed secret to whole blocks
    return len(huffman_compress(secret)) // 16 * 16 + 16


def test_hide_reports_and_enforces_the_true_capacity():
    cover = make_cover(np.random.default_rng(37), 64, 64)
    red = cover[:, :, 0]
    cap = max_embeddable_bits(red, host_hist(red))
    assert hide(cover, b"fits", KEYS, iv=IV).capacity_bits == cap
    room = cap // 8 - FRAME_OVERHEAD_BYTES

    # the shortest prefix of a 4-symbol text whose ciphertext overruns the room
    text = bytes(np.random.default_rng(38).integers(0, 4, size=8 * room, dtype=np.uint8))
    secret = text[: next(k for k in range(len(text)) if ciphertext_len(text[:k]) > room)]
    assert ciphertext_len(secret) == room // 16 * 16 + 16  # one block over the limit
    with pytest.raises(CapacityExceeded) as info:
        hide(cover, secret, KEYS, iv=IV)
    assert info.traceback[-1].name == "build_frames"
    assert info.value.available == 8 * (cap // 8 - FRAME_OVERHEAD_BYTES)


def test_capacity_accounting_matches_oracle():
    rng = np.random.default_rng(34)
    cover = make_cover(rng, 32, 32, red_spread=2)
    n = 32 * 32
    red = cover[:, :, 0].reshape(-1)

    # brute-force oracle for the largest secret that must succeed:
    # frame bits <= n - 64 and histogram-shift capacity >= 64 + frame bits
    limit_bits = max_embeddable_bits(red, host_hist(red))
    for secret_len in range(0, 200, 13):
        secret = rng.bytes(secret_len)
        frames = build_frames(secret, KEYS.data_key, IV, [10**9])
        bits = frames[0].num_bits
        should_fit = bits <= n - 64 and bits <= limit_bits
        if should_fit:
            result = hide(cover, secret, KEYS, iv=IV)
            assert result.frame_bits == bits
        else:
            with pytest.raises((CapacityExceeded, CoverTooSmall)):
                hide(cover, secret, KEYS, iv=IV)


def test_randomized_roundtrips_with_random_keys():
    rng = np.random.default_rng(35)
    for _ in range(15):
        keys = random_keys(rng)
        cover = make_cover(rng, int(rng.integers(32, 80)), int(rng.integers(32, 80)))
        bound = min(max_secret_bytes(cover), 120)
        secret = rng.bytes(int(rng.integers(0, bound + 1)))
        result = hide(cover, secret, keys, iv=rng.bytes(16))
        got, original = reveal(result.image, keys)
        assert got == secret
        assert np.array_equal(original, cover)
        _, (restored,) = recover_units([result.image.reshape(-1)], RED, keys.image_key, keys.nonce)
        assert np.array_equal(restored, cover.reshape(-1))


MASK64 = (1 << 64) - 1


def _record_counter_runs(mp, runs):
    """Wrap the pipeline's keystream so each call appends (first counter block, blocks)."""

    def recording(state, nonce, data):
        runs.append((nonce, -(-len(data) // 8)))
        return bf_ctr_transform(state, nonce, data)

    mp.setattr(pipeline, "bf_ctr_transform", recording)


@settings(max_examples=25, deadline=None)
@given(
    nonce=st.one_of(st.integers(0, MASK64), st.integers(MASK64 - 5000, MASK64)),
    shapes=st.lists(
        st.sampled_from([(96, 96), (64, 64), (41, 43), (50, 37)]), min_size=1, max_size=3
    ),
)
@example(nonce=100, shapes=[(96, 96), (64, 64)])
@example(nonce=MASK64 - 4000, shapes=[(96, 96), (64, 64), (41, 43)])
def test_units_of_one_cover_never_share_a_counter_block(nonce, shapes):
    # units of any sizes: each run starts where the one before ended, mod 2^64
    rng = np.random.default_rng(len(shapes))
    covers = [make_cover(rng, h, w).reshape(-1) for h, w in shapes]
    keys = StegoKeys(KEYS.data_key, KEYS.image_key, nonce)
    secret = b"end to end"
    hists = [host_hist(c[RED]) for c in covers]
    capacities = [max_embeddable_bits(c[RED], h) for c, h in zip(covers, hists)]
    segments = build_frames(secret, keys.data_key, IV, capacities)
    embedded: list[tuple[int, int]] = []
    recovered: list[tuple[int, int]] = []
    with pytest.MonkeyPatch.context() as mp:
        _record_counter_runs(mp, embedded)
        marked = embed_segments([c.copy() for c in covers], RED, segments, keys, hists)
        _record_counter_runs(mp, recovered)
        got, restored = pipeline.reveal_units(marked, RED, keys)
    assert got == secret
    assert all(np.array_equal(r, c) for r, c in zip(restored, covers))
    assert recovered == embedded
    assert [blocks for _, blocks in embedded] == [-(-c.size // 8) for c in covers]
    assert embedded[0][0] == nonce
    for (base, blocks), (after, _) in zip(embedded, embedded[1:]):
        assert after == (base + blocks) & MASK64
    seen = {(base + k) & MASK64 for base, blocks in embedded for k in range(blocks)}
    assert len(seen) == sum(blocks for _, blocks in embedded)


@pytest.mark.parametrize("nonce", [0, MASK64 - 100])
def test_equal_units_keep_the_fixed_stride_counter_layout(nonce):
    # frames of one clip: unit i starts at nonce + i * ceil(size / 8), as before
    rng = np.random.default_rng(40)
    covers = [make_cover(rng, 41, 43).reshape(-1) for _ in range(4)]
    keys = StegoKeys(KEYS.data_key, KEYS.image_key, nonce)
    hists = [host_hist(c[RED]) for c in covers]
    capacities = [max_embeddable_bits(c[RED], h) for c, h in zip(covers, hists)]
    segments = build_frames(b"stride", keys.data_key, IV, capacities)
    runs: list[tuple[int, int]] = []
    with pytest.MonkeyPatch.context() as mp:
        _record_counter_runs(mp, runs)
        embed_segments([c.copy() for c in covers], RED, segments, keys, hists)
    stride = -(-covers[0].size // 8)
    assert [base for base, _ in runs] == [(nonce + i * stride) & MASK64 for i in range(4)]
