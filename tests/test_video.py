import random
from dataclasses import replace

import numpy as np
import pytest

from conftest import embed_clip, planes, zero_segment_clip
from rdhkit import pipeline
from rdhkit import video as vid
from rdhkit.errors import (
    BadSignature,
    CapacityError,
    HeaderChecksum,
    KeyEncodingError,
    MissingSegment,
    NoZeroBin,
    RdhError,
    TruncatedFrame,
    UnsupportedColorspace,
)
from rdhkit.pipeline import StegoKeys, build_frames

KEYS = StegoKeys(data_key=bytes(range(16)), image_key=b"video key", nonce=900)
IV = bytes(range(200, 216))


def make_clip(rng, nframes=8, size=64, colorspace="C420", y_base=60):
    ch = size // 2 if colorspace == "C420" else size
    frames = []
    for _ in range(nframes):
        y = np.full((size, size), y_base, dtype=np.uint8)
        sprinkle = rng.random((size, size)) < 0.03
        y[sprinkle] = y_base + 1
        u = rng.integers(0, 256, (ch, ch), dtype=np.uint8)
        v = rng.integers(0, 256, (ch, ch), dtype=np.uint8)
        frames.append(np.concatenate((y, u, v), axis=None))
    params = [b"W%d" % size, b"H%d" % size, b"F25:1", colorspace.encode()]
    return vid.Y4mVideo(size, size, colorspace, params, frames, [b""] * nframes)


# --- container ------------------------------------------------------------


def test_parse_minimal_stream():
    raw = b"YUV4MPEG2 W2 H2 F25:1 C444\nFRAME\n" + bytes(range(12))
    clip = vid.parse_y4m(raw)
    assert (clip.width, clip.height, clip.colorspace) == (2, 2, "C444")
    assert len(clip.frames) == 1
    assert planes(clip, 0)[0].tolist() == [[0, 1], [2, 3]]
    assert vid.write_y4m(clip) == raw


def test_c420_is_the_default_colorspace():
    raw = b"YUV4MPEG2 W4 H2 F30:1\nFRAME\n" + bytes(4 * 2 + 2 * 2)
    clip = vid.parse_y4m(raw)
    assert clip.colorspace == "C420"
    assert planes(clip, 0)[1].shape == (1, 2)
    assert vid.write_y4m(clip) == raw


def test_unknown_parameters_round_trip_verbatim():
    raw = b"YUV4MPEG2 W2 H2 F25:1 Ip A1:1 C444 Xcustom=1\nFRAME Xtimestamp\n" + bytes(12)
    clip = vid.parse_y4m(raw)
    assert vid.write_y4m(clip) == raw


def test_container_roundtrip_from_objects():
    rng = np.random.default_rng(3)
    clip = make_clip(rng, nframes=3, size=8)
    raw = vid.write_y4m(clip)
    back = vid.parse_y4m(raw)
    assert vid.write_y4m(back) == raw
    assert all(np.array_equal(a, b) for a, b in zip(back.frames, clip.frames))


def test_bad_signature():
    with pytest.raises(BadSignature):
        vid.parse_y4m(b"JUV4MPEG2 W2 H2 F25:1\n")
    with pytest.raises(BadSignature):
        vid.parse_y4m(b"YUV4MPEG2 H2 F25:1\nFRAME\n")
    with pytest.raises(BadSignature):
        vid.parse_y4m(b"YUV4MPEG2 W2 H2\nFRAME\n")


def test_odd_width_c420_rejected():
    with pytest.raises(UnsupportedColorspace):
        vid.parse_y4m(b"YUV4MPEG2 W3 H2 F25:1 C420\n")


def test_unknown_colorspace_rejected():
    with pytest.raises(UnsupportedColorspace):
        vid.parse_y4m(b"YUV4MPEG2 W2 H2 F25:1 C422\n")


def test_truncated_frame():
    with pytest.raises(TruncatedFrame):
        vid.parse_y4m(b"YUV4MPEG2 W2 H2 F25:1 C444\nFRAME\n" + bytes(11))
    with pytest.raises(TruncatedFrame):
        vid.parse_y4m(b"YUV4MPEG2 W2 H2 F25:1 C444\nGARBO\n" + bytes(12))


def test_nonce_token_helpers():
    rng = np.random.default_rng(4)
    clip = make_clip(rng, nframes=1, size=8)
    assert vid.video_nonce(clip) is None
    stamped = vid.with_video_nonce(clip, 0xDEADBEEF)
    assert vid.video_nonce(stamped) == 0xDEADBEEF
    restamped = vid.with_video_nonce(stamped, 7)
    assert vid.video_nonce(restamped) == 7
    assert sum(t.startswith(b"XRDHCTR=") for t in restamped.params) == 1
    # the token survives the container
    assert vid.video_nonce(vid.parse_y4m(vid.write_y4m(stamped))) == 0xDEADBEEF


@pytest.mark.parametrize("nonce", [-1, 2**64])
def test_nonce_token_rejects_a_nonce_outside_64_bits(nonce):
    clip = make_clip(np.random.default_rng(4), nframes=1, size=8)
    with pytest.raises(KeyEncodingError):
        vid.with_video_nonce(clip, nonce)


HEAD444 = b"YUV4MPEG2 W2 H2 F25:1 C444\n"


@pytest.mark.parametrize(
    "data,expected",
    [
        (HEAD444 + b"FRAME Ixyz Xa=b\n" + bytes(12), [b" Ixyz Xa=b"]),  # FRAME with params
        (HEAD444 + b"FRAME \n" + bytes(12) + b"FRAME\n" + bytes(12), [b" ", b""]),
        (HEAD444 + b"FRAMEX\n" + bytes(12), TruncatedFrame),
        (HEAD444 + b"FRAME", TruncatedFrame),  # FRAME line with no newline
        (HEAD444 + b"FRAME Ixyz", TruncatedFrame),
        (HEAD444 + b"FRAME\n" + bytes(12) + b"FRAM", TruncatedFrame),
        (HEAD444 + b"\nFRAME\n" + bytes(12), TruncatedFrame),
        (HEAD444, []),
        (b"YUV4MPEG2 W2  H2 F25:1 C444\n", BadSignature),  # double space
        (b"YUV4MPEG2 W2 H2 F25:1 C444 \n", BadSignature),  # trailing space
        (b"YUV4MPEG2  W2 H2 F25:1 C444\n", BadSignature),
        (b"YUV4MPEG2\n", BadSignature),
        (b"YUV4MPEG2 \n", BadSignature),
        (b"YUV4MPEG2W2 H2 F25:1 C444\n", BadSignature),
        (b"YUV4MPEG2 W2 H2 F25:1 C444", BadSignature),  # no newline
        (b"YUV4MPEG2 W2\tH2 F25:1 C444\n", BadSignature),  # a tab does not separate
        (b"YUV4MPEG2 W2 H2 F25:1 C444 X\r\n", []),
        (b"YUV4MPEG2 C422 W0 H2 F25:1\n", UnsupportedColorspace),  # first failing token wins
        (b"YUV4MPEG2 W0 C422 H2 F25:1\n", BadSignature),
    ],
)
def test_container_grammar_edge_cases(data, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            vid.parse_y4m(data)
        return
    clip = vid.parse_y4m(data)
    assert clip.frame_headers == expected
    assert vid.write_y4m(clip) == data


def test_parsed_frames_are_writable_and_own_their_memory():
    raw = HEAD444 + b"FRAME\n" + bytes(range(12)) + b"FRAME\n" + bytes(range(12, 24))
    clip = vid.parse_y4m(raw)
    source = np.frombuffer(raw, np.uint8)
    for i, frame in enumerate(clip.frames):
        assert frame.ndim == 1 and frame.flags.c_contiguous
        for plane in planes(clip, i):
            assert plane.flags.writeable
            assert not np.shares_memory(plane, source)
        planes(clip, i)[0][0, 0] = 255
    assert vid.write_y4m(clip) != raw
    assert not np.shares_memory(planes(clip, 0)[0], planes(clip, 1)[0])


@pytest.mark.parametrize(
    "token,expected",
    [
        (b"XRDHCTR=000000000000000f", 15),
        (b"XRDHCTR=DEADBEEFCAFEBABE", 0xDEADBEEFCAFEBABE),  # uppercase hex
        (b"XRDHCTR=-000000000000001", None),  # int() would read a sign
        (b"XRDHCTR=0x00_0000000000f", None),  # ... a prefix and underscores
        (b"XRDHCTR=+00000000000000f", None),
        (b"XRDHCTR=\t00000000000000f", None),  # ... and surrounding whitespace
        (b"XRDHCTR=00000000000000f", None),
        (b"XRDHCTR=000000000000000f0", None),
        (b"XRDHCTR=", None),
    ],
)
def test_nonce_token_is_exactly_16_hex_digits(token, expected):
    raw = b"YUV4MPEG2 W2 H2 F25:1 C444 " + token + b"\n"
    assert vid.video_nonce(vid.parse_y4m(raw)) == expected


DIGIT_LIMIT = 4300  # CPython's default cap on the digits int() reads


@pytest.mark.parametrize(
    "data,expected",
    [
        (HEAD444[:-1] + b" W" + b"1" * (DIGIT_LIMIT + 1) + b"\n", BadSignature),
        (b"YUV4MPEG2 W2 H" + b"1" * (DIGIT_LIMIT + 1) + b" F25:1 C444\n", BadSignature),
        (b"YUV4MPEG2 W" + b"0" * DIGIT_LIMIT + b"1 H1 F25:1 C444\n", (1, 1)),  # zero-padded 1
        (b"YUV4MPEG2 W" + b"0" * (DIGIT_LIMIT + 1) + b" H1 F25:1\n", BadSignature),  # zero
        (b"YUV4MPEG2 W" + b"9" * DIGIT_LIMIT + b" H1 F25:1 C444\n", (10**DIGIT_LIMIT - 1, 1)),
        # frame_len has more digits than str() writes
        (b"YUV4MPEG2 W" + b"9" * 2200 + b" H" + b"9" * 2200 + b" F25:1 C444\nFRAME\n",
         TruncatedFrame),
    ],
    ids=["long-W", "long-H", "zero-padded-1", "long-zero", "4300-nines", "long-frame-len"],
)
def test_overlong_digit_tokens_raise_format_errors(data, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            vid.parse_y4m(data)
        return
    clip = vid.parse_y4m(data)
    assert (clip.width, clip.height) == expected
    assert vid.write_y4m(clip) == data


def test_mutated_streams_raise_only_package_errors():
    rng = random.Random(4097)
    stream = (
        b"YUV4MPEG2 W4 H2 F25:1 Ip C420 XRDHCTR=00000000000000aa\n"
        + b"FRAME\n" + bytes(range(12)) + b"FRAME Ixyz\n" + bytes(range(12, 24))
    )
    grammar = [b" ", b"\n", b"W", b"H", b"F", b"C444", b"C420", b"0", b"FRAME\n"]
    accepted = 0
    for _ in range(4000):
        mutant = bytearray(stream)
        kind = rng.randrange(6)
        if kind == 0:
            for _ in range(rng.randrange(1, 4)):
                mutant[rng.randrange(len(mutant))] ^= 1 << rng.randrange(8)
        elif kind == 1:
            mutant[rng.randrange(len(mutant))] = rng.randrange(256)
        elif kind == 2:
            del mutant[rng.randrange(len(mutant) + 1) :]
        elif kind == 3:
            mutant[rng.randrange(len(mutant) + 1) : 0] = rng.randbytes(rng.randrange(1, 9))
        elif kind == 4:
            mutant[rng.randrange(len(mutant) + 1) : 0] = rng.choice(grammar)
        else:  # a long digit run as W or H, around int()'s digit limit
            at = mutant.index(rng.choice([b" W", b" H"])) + 2
            length = rng.choice([rng.randrange(1, 40), DIGIT_LIMIT + rng.randrange(-3, 4)])
            digits = bytes(rng.choice(b"0123456789") for _ in range(length))
            mutant[at : at + 1] = rng.choice([digits, b"0" * length + b"2"])
        try:
            clip = vid.parse_y4m(bytes(mutant))
        except RdhError:
            continue
        accepted += 1
        assert vid.write_y4m(clip) == mutant  # what the reader accepts round-trips
    assert accepted > 100


# --- hide / reveal --------------------------------------------------------


def test_video_roundtrip_spanning_frames():
    rng = np.random.default_rng(6)
    clip = make_clip(rng)
    secret = rng.bytes(1000)
    marked = vid.video_hide(clip, secret, KEYS, iv=IV)
    host = vid.y_host(marked)
    spans = {pipeline.extract(f, host).segment_index for f in marked.frames}
    assert len(spans) >= 3  # payload split over several frames
    got, original = vid.video_reveal(marked, KEYS)
    assert got == secret
    assert all(np.array_equal(a, b) for a, b in zip(original.frames, clip.frames))
    assert vid.write_y4m(original) == vid.write_y4m(clip)


def test_small_payload_fills_frame_zero_only():
    rng = np.random.default_rng(7)
    clip = make_clip(rng, nframes=4)
    marked = vid.video_hide(clip, b"tiny", KEYS, iv=IV)
    payloads = [pipeline.extract(f, vid.y_host(marked)) for f in marked.frames]
    assert payloads[0].segment_count == 1
    assert len(payloads[0].ciphertext) == 32  # 19-byte container, CBC-padded
    assert all(len(p.ciphertext) == 0 for p in payloads[1:])
    assert all(p.segment_index == i for i, p in enumerate(payloads))
    got, original = vid.video_reveal(marked, KEYS)
    assert got == b"tiny"
    assert all(np.array_equal(a, b) for a, b in zip(original.frames, clip.frames))


def test_video_hide_is_deterministic():
    rng = np.random.default_rng(8)
    clip = make_clip(rng, nframes=2)
    a = vid.video_hide(clip, b"abc", KEYS, iv=IV)
    b = vid.video_hide(clip, b"abc", KEYS, iv=IV)
    assert vid.write_y4m(a) == vid.write_y4m(b)


def test_segments_reassemble_by_index_not_position():
    rng = np.random.default_rng(9)
    clip = make_clip(rng, nframes=2)
    # a near-uniform 4-symbol secret compresses to ~2 bits/byte: the 256-byte
    # ciphertext must split across both frames under these capacities
    secret = bytes(rng.integers(0, 4, size=900, dtype=np.uint8))
    capacities = [1700, 1700]
    segments = build_frames(secret, KEYS.data_key, IV, capacities)
    assert len(segments) == 2
    # embed segment 1 into frame 0 and segment 0 into frame 1
    shuffled = embed_clip(clip, [segments[1], segments[0]], KEYS)
    got, original = vid.video_reveal(shuffled, KEYS)
    assert got == secret
    assert all(np.array_equal(a, b) for a, b in zip(original.frames, clip.frames))


def test_missing_segment_detected():
    rng = np.random.default_rng(10)
    clip = make_clip(rng, nframes=2)
    secret = bytes(rng.integers(0, 4, size=900, dtype=np.uint8))
    segments = build_frames(secret, KEYS.data_key, IV, [1700, 1700])
    assert len(segments) == 2
    # both frames carry segment 1; segment 0 never appears
    broken = embed_clip(clip, [segments[1], segments[1]], KEYS)
    with pytest.raises(MissingSegment):
        vid.video_reveal(broken, KEYS)


def test_frames_of_two_hides_are_not_joined():
    rng = np.random.default_rng(18)
    clip = make_clip(rng, nframes=6)
    secret = bytes(rng.integers(0, 4, size=2400, dtype=np.uint8))
    first = vid.video_hide(clip, secret, KEYS, iv=IV)
    second = vid.video_hide(clip, secret, KEYS, iv=bytes(16))
    # one segment layout, so only the IVs tell the hides apart; segment 0
    # comes from the first hide and the rest from the second
    spliced = replace(second, frames=[first.frames[0], *second.frames[1:]])
    assert pipeline.extract(spliced.frames[0], vid.y_host(spliced)).segment_count > 1
    with pytest.raises(MissingSegment):
        vid.video_reveal(spliced, KEYS)


def test_wrong_image_key_fails_on_frame_zero():
    rng = np.random.default_rng(11)
    clip = make_clip(rng, nframes=2)
    marked = vid.video_hide(clip, b"secret", KEYS, iv=IV)
    wrong = StegoKeys(KEYS.data_key, b"other key", KEYS.nonce)
    with pytest.raises(HeaderChecksum):
        vid.video_reveal(marked, wrong)


def test_c444_video_roundtrip():
    rng = np.random.default_rng(12)
    clip = make_clip(rng, nframes=3, size=64, colorspace="C444")
    secret = rng.bytes(40)
    marked = vid.video_hide(clip, secret, KEYS, iv=IV)
    got, original = vid.video_reveal(marked, KEYS)
    assert got == secret
    assert all(np.array_equal(a, b) for a, b in zip(original.frames, clip.frames))


def test_frame_without_an_empty_bin_is_rejected():
    clip = make_clip(np.random.default_rng(16), nframes=3)
    # frame 1's Y region B holds every value, so no bin is free to shift into
    planes(clip, 1)[0].reshape(-1)[-256:] = np.arange(256)
    with pytest.raises(NoZeroBin):
        vid.video_hide(clip, b"no room in frame 1", KEYS, iv=IV)


@pytest.mark.parametrize("kind", ["tiny", "noise"])
def test_frame_that_cannot_hold_an_empty_segment_is_rejected(kind):
    rng = np.random.default_rng(17)
    if kind == "tiny":  # 256 Y samples cannot hold a 264-bit frame and the header
        clip = make_clip(rng, nframes=2, size=16)
    else:  # uniform noise: region B's peak is far below the header and frame
        clip = make_clip(rng, nframes=2, size=32)
        planes(clip, 0)[0][:] = rng.integers(0, 256, (32, 32), dtype=np.uint8)
    with pytest.raises(CapacityError):
        vid.video_hide(clip, b"", KEYS, iv=IV)


def test_empty_video_rejected():
    clip = vid.Y4mVideo(4, 4, "C444", [b"W4", b"H4", b"F1:1", b"C444"], [], [])
    with pytest.raises(MissingSegment):
        vid.video_reveal(clip, KEYS)


def test_zero_segment_count_is_a_missing_segment():
    # there is no ciphertext to decrypt: a payload error, not an AES length error
    clip = zero_segment_clip(make_clip(np.random.default_rng(13), nframes=2), KEYS, IV)
    with pytest.raises(MissingSegment):
        vid.video_reveal(clip, KEYS)


def test_video_reveal_parses_each_frame_once(monkeypatch):
    clip = make_clip(np.random.default_rng(14), nframes=4)
    marked = vid.video_hide(clip, b"parse me once", KEYS, iv=IV)
    calls = []
    extract = pipeline.extract
    monkeypatch.setattr(pipeline, "extract", lambda *args: calls.append(args) or extract(*args))
    got, original = vid.video_reveal(marked, KEYS)
    assert got == b"parse me once"
    assert vid.write_y4m(original) == vid.write_y4m(clip)
    assert len(calls) == len(clip.frames)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="frame i+1's counter base is frame i's plus one block, so its keystream is "
    "frame i's shifted by 8 bytes (one CTR run per video would fix it)",
)
def test_adjacent_frames_never_share_keystream():
    clip = make_clip(np.random.default_rng(15), nframes=3)
    marked = vid.video_hide(clip, b"one key, one keystream", KEYS, iv=IV)
    # embedding leaves U and V alone, so marked ^ plain is the frame's keystream there
    keystreams = [
        np.concatenate(planes(marked, i)[1:], axis=None)
        ^ np.concatenate(planes(clip, i)[1:], axis=None)
        for i in range(len(clip.frames))
    ]
    for this, following in zip(keystreams, keystreams[1:]):
        # byte k of this frame against byte k - 8 of the next one
        assert not np.array_equal(this[8:], following[:-8])


def test_hide_and_reveal_leave_their_input_frames_alone():
    clip = make_clip(np.random.default_rng(19), nframes=3)
    before = [frame.copy() for frame in clip.frames]
    marked = vid.video_hide(clip, b"hands off", KEYS, iv=IV)
    assert all(np.array_equal(a, b) for a, b in zip(clip.frames, before))
    sent = [frame.copy() for frame in marked.frames]
    got, original = vid.video_reveal(marked, KEYS)
    assert got == b"hands off"
    assert all(np.array_equal(a, b) for a, b in zip(marked.frames, sent))
    for out, given in ((marked, clip), (original, marked)):
        for frame in out.frames:
            assert frame.ndim == 1 and frame.flags.c_contiguous
            assert not any(np.shares_memory(frame, g) for g in given.frames)


def test_hide_and_reveal_return_clips_with_their_own_params():
    clip = make_clip(np.random.default_rng(20), nframes=3)
    params = list(clip.params)
    marked = vid.video_hide(clip, b"own lists", KEYS, iv=IV)
    marked.params.append(b"Xhide")
    _, original = vid.video_reveal(marked, KEYS)
    original.params.append(b"Xreveal")
    assert clip.params == params
    assert marked.params == [*params, b"Xhide"]
