import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import embed_clip, host_hist, make_cover, planes, zero_segment_clip
from rdhkit import pipeline
from rdhkit import video as vid
from rdhkit.errors import (
    BadPadding,
    BadSignature,
    CapacityError,
    DimensionMismatch,
    HeaderChecksum,
    KeyEncodingError,
    MissingSegment,
    NoZeroBin,
    RdhError,
    TruncatedFrame,
    UnsupportedColorspace,
)
from rdhkit.pipeline import PayloadFrame, StegoKeys, build_frames

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
    return vid.Y4mVideo(params, frames, [b""] * nframes)


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


@pytest.mark.parametrize("token", [b"C420", b"C420jpeg", b"C420mpeg2", b"C420paldv"])
def test_odd_dimensions_rejected_for_every_420_siting(token):
    for dims in (b"W3 H2", b"W2 H3"):
        with pytest.raises(UnsupportedColorspace):
            vid.parse_y4m(b"YUV4MPEG2 " + dims + b" F25:1 " + token + b"\n")


def test_unknown_colorspace_rejected():
    for token in (b"C422", b"C420p10", b"Cmono"):
        with pytest.raises(UnsupportedColorspace):
            vid.parse_y4m(b"YUV4MPEG2 W2 H2 F25:1 " + token + b"\n")


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


@pytest.mark.parametrize("buffer", [bytes, bytearray])
def test_parsed_frames_are_read_only_views_of_their_input(buffer):
    raw = HEAD444 + b"FRAME\n" + bytes(range(12)) + b"FRAME\n" + bytes(range(12, 24))
    data = buffer(raw)
    clip = vid.parse_y4m(data)
    source = np.frombuffer(data, np.uint8)
    for frame in clip.frames:
        assert frame.ndim == 1 and frame.flags.c_contiguous
        assert np.shares_memory(frame, source)
        assert not frame.flags.writeable
        with pytest.raises(ValueError):
            frame[0] = 255
    assert not np.shares_memory(clip.frames[0], clip.frames[1])
    assert vid.write_y4m(clip) == raw


def test_write_refuses_frames_that_are_not_uint8():
    clip = vid.parse_y4m(HEAD444 + b"FRAME\n" + bytes(range(12)))
    # joined as it is, the int64 frame's 12 samples would write 96 raster bytes
    for frame in (clip.frames[0].astype(np.int64), bytes(12), list(range(12))):
        with pytest.raises(DimensionMismatch, match="uint8"):
            vid.write_y4m(replace(clip, frames=[frame]))


def test_write_joins_a_strided_frame_as_its_samples():
    frame = np.arange(24, dtype=np.uint8)[::2]
    clip = vid.parse_y4m(HEAD444 + b"FRAME\n" + bytes(12))
    raw = vid.write_y4m(replace(clip, frames=[frame]))
    assert raw == HEAD444 + b"FRAME\n" + bytes(range(0, 24, 2))
    assert np.array_equal(vid.parse_y4m(raw).frames[0], frame)


@pytest.mark.parametrize(
    "params,samples,expected",
    [
        ([b"W2", b"H2", b"F1:1", b"C444"], 48, DimensionMismatch),  # frames of a 4x4 clip
        ([b"W4", b"H4", b"F1:1", b"C444"], 24, DimensionMismatch),  # a 4x4 C420 frame
        ([b"W4", b"F1:1", b"C444"], 48, BadSignature),
    ],
    ids=["W2-H2-over-4x4", "C444-over-C420", "no-H"],
)
def test_write_sizes_frames_by_the_header_it_writes(params, samples, expected):
    clip = vid.Y4mVideo(params, [np.zeros(samples, np.uint8)], [b""])
    with pytest.raises(expected):
        vid.write_y4m(clip)


def test_write_refuses_frames_of_another_length():
    clip = vid.parse_y4m(HEAD444 + b"FRAME\n" + bytes(range(12)) + b"FRAME\n" + bytes(12))
    short = replace(clip, frames=[clip.frames[0], clip.frames[1][:5]])
    with pytest.raises(DimensionMismatch, match="12 uint8 samples"):
        vid.write_y4m(short)


def with_2d_frames(clip):
    """clip with each frame reshaped to rows of its width: as many samples, in 2-D."""
    return replace(clip, frames=[frame.reshape(-1, clip.width) for frame in clip.frames])


def test_write_refuses_a_frame_that_is_not_1d():
    clip = with_2d_frames(make_clip(np.random.default_rng(60), nframes=2))
    with pytest.raises(DimensionMismatch, match=r"got shape \(96, 64\)") as exc:
        vid.write_y4m(clip)
    assert exc.type is DimensionMismatch


def test_hide_and_reveal_refuse_frames_that_are_not_1d():
    # a 2-D frame's host slice [:w*h] takes whole rows, so the host would be
    # the frame's Y, U and V samples alike
    clip = make_clip(np.random.default_rng(61), nframes=2)
    with pytest.raises(DimensionMismatch, match=r"got shape \(96, 64\)") as exc:
        vid.video_hide(with_2d_frames(clip), b"flat frames only", KEYS, iv=IV)
    assert exc.type is DimensionMismatch
    marked = vid.video_hide(clip, b"flat frames only", KEYS, iv=IV)
    with pytest.raises(DimensionMismatch, match=r"got shape \(96, 64\)") as exc:
        vid.video_reveal(with_2d_frames(marked), KEYS)
    assert exc.type is DimensionMismatch
    assert vid.video_reveal(marked, KEYS)[0] == b"flat frames only"


def strided(frames):
    """Each frame as a strided view of a new buffer twice its length: the same samples."""
    return [np.repeat(frame, 2)[::2] for frame in frames]


@pytest.mark.parametrize("path", ["platform", "python"])
def test_reveal_and_embed_read_strided_frames_as_their_samples(path, load_gcrypt):
    # the cover cipher reads each unit as one buffer; a strided 1-D frame is
    # as good a frame as a contiguous one on either cipher path
    if path == "python":
        load_gcrypt(lambda: None)
    clip = make_clip(np.random.default_rng(62), nframes=3)
    marked = vid.video_hide(clip, b"any 1-D frame", KEYS, iv=IV)
    secret, original = vid.video_reveal(replace(marked, frames=strided(marked.frames)), KEYS)
    assert secret == b"any 1-D frame"
    assert vid.write_y4m(original) == vid.write_y4m(clip)
    host = vid.y_host(clip)
    hists = [host_hist(frame[host]) for frame in clip.frames]
    capacities = [pipeline.max_embeddable_bits(f[host], h) for f, h in zip(clip.frames, hists)]
    segments = build_frames(b"any 1-D frame", KEYS.data_key, IV, capacities)
    units, flat = strided(clip.frames), [frame.copy() for frame in clip.frames]
    marked_units = pipeline.embed_segments(units, host, segments, KEYS, hists)
    marked_flat = pipeline.embed_segments(flat, host, segments, KEYS, hists)
    assert all(np.array_equal(a, b) for a, b in zip(marked_units, marked_flat))
    assert all(np.array_equal(a, b) for a, b in zip(units, flat))


@pytest.mark.parametrize(
    "change",
    [
        {"frame_headers": []},  # zip would drop the frame
        {"frame_headers": [b"", b""]},
        {"params": []},
        {"params": [b"W2", b"", b"H2", b"F25:1", b"C444"]},
        {"params": [b"W2 H2", b"F25:1", b"C444"]},  # would read back as two
        {"params": [b"W2", b"H2", b"F25:1", b"C444", b"X\n"]},
        {"frame_headers": [b"Ixyz"]},
        {"frame_headers": [b" a\nb"]},
    ],
    ids=[
        "no-suffix", "extra-suffix", "no-params", "empty-param", "param-with-space",
        "param-with-lf", "suffix-without-space", "suffix-with-lf",
    ],
)
def test_write_refuses_a_clip_the_reader_would_not_read_back(change):
    clip = vid.parse_y4m(HEAD444 + b"FRAME\n" + bytes(range(12)))
    with pytest.raises(DimensionMismatch):
        vid.write_y4m(replace(clip, **change))


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


@st.composite
def token_grammar_clips(draw):
    """(clip, whether the writer must accept it) from a small token grammar: W, H,
    F and C tokens present, missing, repeated or disagreeing with the frames,
    extension and XRDHCTR= tokens, and frames of the wrong length, type or stride."""
    only_good = draw(st.booleans())  # half the clips are well formed by construction

    def pick(good, bad):
        return draw(st.sampled_from(good if only_good else [*good, *bad]))

    cs = pick([b"C444", b"C420", b"C420jpeg", b"C420mpeg2", b"C420paldv"], [])
    width, height = pick([2, 4], [1, 3]), pick([2, 4], [1, 3])
    accept = cs == b"C444" or width % 2 == height % 2 == 0
    kinds = [  # each kind's token, then others of its kind, the first one well formed
        (b"W%d" % width, [b"W%d" % (width + 1), b"W0", b"Wx"]),
        (b"H%d" % height, [b"H%d" % (height + 2), b"H00", b"H"]),
        (b"F25:1", [b"F30000:1001"]),
        (cs, [b"C420" if cs == b"C444" else b"C444", b"C422"]),
    ]
    params = []
    for right, others in draw(st.permutations(kinds)):
        default = right.startswith(b"C420")  # a 4:2:0 clip may leave C out
        form = pick(["present", "repeated", *["missing"] * default], ["missing", "disagreeing"])
        if form == "present":
            params.append(right)
        elif form == "repeated":  # the last token of a kind wins
            params += [others[0], right]
        elif form == "disagreeing":
            params.append(draw(st.sampled_from(others)))
        if form == "missing":
            accept &= default
        elif form == "disagreeing":
            accept &= right.startswith(b"F")  # every F token is a rate
    extensions = [b"Ip", b"A1:1", b"Xcustom=1", b"XRDHCTR=00000000000000aa", b"XRDHCTR=-1"]
    for token in draw(st.lists(st.sampled_from(extensions), max_size=3)):
        params.insert(draw(st.integers(0, len(params))), token)

    chroma = width * height if cs == b"C444" else (width // 2) * (height // 2)
    n = width * height + 2 * chroma
    frames = []
    for _ in range(draw(st.integers(0, 3))):
        samples = np.frombuffer(draw(st.binary(min_size=n, max_size=n)), np.uint8)
        kind = pick(["exact", "strided"], ["short", "long", "int16", "bytes", "list"])
        frames.append({
            "exact": samples,
            "strided": np.repeat(samples, 2)[::2],
            "short": samples[1:],
            "long": np.append(samples, samples[:1]),
            "int16": samples.astype(np.int16),
            "bytes": samples.tobytes(),
            "list": samples.tolist(),
        }[kind])
        accept &= kind in ("exact", "strided")
    count = max(0, len(frames) + pick([0], [-1, 1]))
    suffixes = [b"", b" ", b" Ixyz", b" Xa=b"]  # the frame-line suffixes the reader accepts
    headers = [pick(suffixes, [b"Ixyz", b" a\nb"]) for _ in range(count)]
    accept &= count == len(frames) and set(headers) <= set(suffixes)
    return vid.Y4mVideo(params, frames, headers), accept


@settings(max_examples=300, deadline=None)
@given(token_grammar_clips())
def test_written_clips_read_back_or_raise_package_errors(case):
    # the converse of test_mutated_streams_raise_only_package_errors
    clip, accept = case
    try:
        data = vid.write_y4m(clip)
    except RdhError:
        assert not accept
        return
    back = vid.parse_y4m(data)
    assert (back.params, back.frame_headers) == (clip.params, clip.frame_headers)
    assert len(back.frames) == len(clip.frames)
    assert all(np.array_equal(a, b) for a, b in zip(back.frames, clip.frames))


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


def test_segments_out_of_unit_order_are_a_missing_segment():
    rng = np.random.default_rng(9)
    clip = make_clip(rng, nframes=2)
    # a near-uniform 4-symbol secret compresses to ~2 bits/byte: the 256-byte
    # ciphertext must split across both frames under these capacities
    secret = bytes(rng.integers(0, 4, size=900, dtype=np.uint8))
    capacities = [1700, 1700]
    segments = build_frames(secret, KEYS.data_key, IV, capacities)
    assert len(segments) == 2
    # embed segment 1 into frame 0 and segment 0 into frame 1: unit i must carry segment i
    shuffled = embed_clip(clip, [segments[1], segments[0]], KEYS)
    with pytest.raises(MissingSegment, match="unit 0 carries segment 1"):
        vid.video_reveal(shuffled, KEYS)


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


def test_frames_declaring_two_segment_counts_are_rejected():
    clip = make_clip(np.random.default_rng(20), nframes=2)
    segments = [PayloadFrame(0, 2, IV, bytes(16)), PayloadFrame(1, 3, IV, bytes(16))]
    marked = embed_clip(clip, segments, KEYS)
    with pytest.raises(MissingSegment, match="unit 1 declares 3 segments, expected 2") as exc:
        vid.video_reveal(marked, KEYS)
    assert exc.type is MissingSegment


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


@pytest.mark.parametrize("token", [b"C420jpeg", b"C420mpeg2", b"C420paldv"])
def test_420_siting_tokens_hide_and_reveal_like_c420(token):
    cover = make_clip(np.random.default_rng(13), nframes=3)
    raw = vid.write_y4m(replace(cover, params=[*cover.params[:3], token]))
    clip = vid.parse_y4m(raw)
    assert clip.colorspace == "C420"
    assert clip.params[-1] == token
    secret = np.random.default_rng(14).bytes(100)
    marked = vid.write_y4m(vid.video_hide(clip, secret, KEYS, iv=IV))
    assert marked.split(b"\n", 1)[0] == raw.split(b"\n", 1)[0]
    got, original = vid.video_reveal(vid.parse_y4m(marked), KEYS)
    assert got == secret
    assert vid.write_y4m(original) == raw


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
    clip = vid.Y4mVideo([b"W4", b"H4", b"F1:1", b"C444"], [], [])
    with pytest.raises(MissingSegment):
        vid.video_reveal(clip, KEYS)


def test_zero_segment_count_is_a_missing_segment():
    # there is no ciphertext to decrypt: a payload error, not an AES length error
    clip = zero_segment_clip(make_clip(np.random.default_rng(13), nframes=2), KEYS, IV)
    with pytest.raises(MissingSegment):
        vid.video_reveal(clip, KEYS)


@pytest.mark.parametrize("n", [0, 15, 17])
def test_video_reveal_of_a_ciphertext_of_no_whole_blocks_is_bad_padding(n):
    clip = make_clip(np.random.default_rng(19), nframes=2)
    marked = embed_clip(clip, [PayloadFrame(0, 1, IV, bytes(n))], KEYS)
    with pytest.raises(BadPadding):
        vid.video_reveal(marked, KEYS)


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


def test_round_trips_never_dispatch_through_numpy_wrappers(monkeypatch):
    # a performance guard, not a correctness check (tests/test_golden.py pins
    # the bytes): the cover cipher gathers with the ndarray.take method and
    # room reservation rotates with np.concatenate; np.take and np.roll would
    # add their Python wrappers' cost to every video frame, so a failure here
    # reads as a possible speed regression
    rng = np.random.default_rng(21)
    clip = make_clip(rng, nframes=3)
    cover = make_cover(rng, 48, 80)
    expect_clip = vid.write_y4m(vid.video_hide(clip, b"no wrappers", KEYS, iv=IV))
    expect_image = pipeline.hide(cover, b"no wrappers", KEYS, iv=IV).image

    def refuse(*args, **kwargs):
        raise AssertionError("dispatched through a numpy wrapper")

    monkeypatch.setattr(np, "take", refuse)
    monkeypatch.setattr(np, "roll", refuse)
    marked = vid.video_hide(clip, b"no wrappers", KEYS, iv=IV)
    assert vid.write_y4m(marked) == expect_clip
    got, original = vid.video_reveal(marked, KEYS)
    assert got == b"no wrappers"
    assert vid.write_y4m(original) == vid.write_y4m(clip)
    image = pipeline.hide(cover, b"no wrappers", KEYS, iv=IV).image
    assert np.array_equal(image, expect_image)
    got, original = pipeline.reveal(image, KEYS)
    assert got == b"no wrappers"
    assert np.array_equal(original, cover)
