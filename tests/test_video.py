import numpy as np
import pytest

from conftest import embed_clip, zero_segment_clip
from rdhkit import pipeline
from rdhkit import video as vid
from rdhkit.errors import (
    BadSignature,
    HeaderChecksum,
    MissingSegment,
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
        frames.append(vid.YuvFrame(y, u, v))
    params = [b"W%d" % size, b"H%d" % size, b"F25:1", colorspace.encode()]
    return vid.Y4mVideo(size, size, colorspace, params, frames, [b""] * nframes)


def frames_equal(a, b):
    return (
        np.array_equal(a.y, b.y) and np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
    )


# --- container ------------------------------------------------------------


def test_parse_minimal_stream():
    raw = b"YUV4MPEG2 W2 H2 F25:1 C444\nFRAME\n" + bytes(range(12))
    clip = vid.parse_y4m(raw)
    assert (clip.width, clip.height, clip.colorspace) == (2, 2, "C444")
    assert len(clip.frames) == 1
    assert clip.frames[0].y.tolist() == [[0, 1], [2, 3]]
    assert vid.write_y4m(clip) == raw


def test_c420_is_the_default_colorspace():
    raw = b"YUV4MPEG2 W4 H2 F30:1\nFRAME\n" + bytes(4 * 2 + 2 * 2)
    clip = vid.parse_y4m(raw)
    assert clip.colorspace == "C420"
    assert clip.frames[0].u.shape == (1, 2)
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
    assert all(frames_equal(a, b) for a, b in zip(back.frames, clip.frames))


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


# --- hide / reveal --------------------------------------------------------


def test_video_roundtrip_spanning_frames():
    rng = np.random.default_rng(6)
    clip = make_clip(rng)
    secret = rng.bytes(1000)
    marked = vid.video_hide(clip, secret, KEYS, iv=IV)
    spans = {vid.extract_frame_payload(f).segment_index for f in marked.frames}
    assert len(spans) >= 3  # payload split over several frames
    got, original = vid.video_reveal(marked, KEYS)
    assert got == secret
    assert all(frames_equal(a, b) for a, b in zip(original.frames, clip.frames))
    assert vid.write_y4m(original) == vid.write_y4m(clip)


def test_small_payload_fills_frame_zero_only():
    rng = np.random.default_rng(7)
    clip = make_clip(rng, nframes=4)
    marked = vid.video_hide(clip, b"tiny", KEYS, iv=IV)
    payloads = [vid.extract_frame_payload(f) for f in marked.frames]
    assert payloads[0].segment_count == 1
    assert len(payloads[0].ciphertext) == 32  # 19-byte container, CBC-padded
    assert all(len(p.ciphertext) == 0 for p in payloads[1:])
    assert all(p.segment_index == i for i, p in enumerate(payloads))
    got, original = vid.video_reveal(marked, KEYS)
    assert got == b"tiny"
    assert all(frames_equal(a, b) for a, b in zip(original.frames, clip.frames))


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
    assert all(frames_equal(a, b) for a, b in zip(original.frames, clip.frames))


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
    assert all(frames_equal(a, b) for a, b in zip(original.frames, clip.frames))


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
        np.concatenate((m.u, m.v), axis=None) ^ np.concatenate((p.u, p.v), axis=None)
        for m, p in zip(marked.frames, clip.frames)
    ]
    for this, following in zip(keystreams, keystreams[1:]):
        # byte k of this frame against byte k - 8 of the next one
        assert not np.array_equal(this[8:], following[:-8])
