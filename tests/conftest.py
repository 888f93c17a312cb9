import numpy as np
import pytest

from rdhkit import _gcrypt

GCRYPT = _gcrypt._load()
needs_gcrypt = pytest.mark.skipif(GCRYPT is None, reason="libgcrypt.so.20 does not load on this platform")


def make_cover(rng, height, width, red_spread=4, red_base=None, concentration=0.88):
    """Random RGB cover whose red histogram is dominated by one value, so the
    histogram-shift host has room; green and blue are fully random."""
    img = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    if red_base is None:
        red_base = int(rng.integers(10, 240))
    red = np.full((height, width), red_base, dtype=np.uint8)
    noisy = rng.random((height, width)) >= concentration
    red[noisy] = (red_base + rng.integers(1, max(2, red_spread), size=int(noisy.sum()))).astype(
        np.uint8
    )
    img[:, :, 0] = red
    return img


def host_hist(plane):
    """count_values of a host plane of any shape: the histogram hide counts once."""
    from rdhkit.histshift import count_values

    return count_values(plane.reshape(-1))


def random_keys(rng):
    from rdhkit.pipeline import StegoKeys

    return StegoKeys(
        data_key=rng.bytes(16),
        image_key=rng.bytes(int(rng.integers(4, 57))),
        nonce=int(rng.integers(0, 2**63)),
    )


def max_secret_bytes(cover):
    """Conservative upper bound on a random-bytes secret that must fit this cover."""
    from rdhkit.errors import CapacityError
    from rdhkit.pipeline import FRAME_OVERHEAD_BYTES, max_embeddable_bits

    try:
        limit = max_embeddable_bits(cover[:, :, 0], host_hist(cover[:, :, 0]))
    except CapacityError:
        return None
    max_ct = limit // 8 - FRAME_OVERHEAD_BYTES
    if max_ct < 16:
        return None
    budget = max_ct - 16 - 11  # CBC padding + container fixed header
    if budget <= 0:
        return 0
    # random bytes cost at most 2 table bytes + 1 bitstream byte each while
    # the alphabet is growing, and 523 fixed table bytes once it is full
    small = budget // 3
    if small <= 256:
        return small
    return max(256, budget - 523)


def image_with_frame(cover, frame, keys):
    """Encrypted copy of an RGB cover carrying the given payload frame in its
    red LSBs, embedded under the given keys."""
    from rdhkit.pipeline import RED, embed_segments

    raw = cover.reshape(-1).copy()
    (out,) = embed_segments([raw], RED, [frame], keys, [host_hist(raw[RED])])
    return out.reshape(cover.shape)


def embed_clip(clip, segments, keys):
    """Copy of a Y4M clip whose frame i carries segments[i] (an empty segment
    past the last), embedded under the given keys."""
    from dataclasses import replace

    from rdhkit import pipeline, video

    frames, host = [frame.copy() for frame in clip.frames], video.y_host(clip)
    hists = [host_hist(frame[host]) for frame in frames]
    return replace(clip, frames=pipeline.embed_segments(frames, host, segments, keys, hists))


def zero_segment_clip(clip, keys, iv=bytes(16)):
    """Copy of a Y4M clip whose every frame carries a payload frame declaring
    zero segments, embedded under the given keys."""
    from rdhkit.pipeline import PayloadFrame

    return embed_clip(clip, [PayloadFrame(0, 0, iv, b"")] * len(clip.frames), keys)


def planes(clip, i):
    """Y, U and V of a Y4M clip's frame i, as 2-D views of its flat buffer."""
    h, w = clip.height, clip.width
    ch, cw = (h // 2, w // 2) if clip.colorspace == "C420" else (h, w)
    ny, nc = w * h, ch * cw
    frame = clip.frames[i]
    return (
        frame[:ny].reshape(h, w),
        frame[ny : ny + nc].reshape(ch, cw),
        frame[ny + nc :].reshape(ch, cw),
    )


def _roundtrip_keys(image_key=b"either path"):
    from rdhkit.pipeline import StegoKeys

    return StegoKeys(bytes(range(16)), image_key, 0x5EED)


def ppm_roundtrip(image_key=b"either path") -> bytes:
    """Hide and reveal on a small PPM cover, checking both; the marked file."""
    from rdhkit import netpbm, pipeline

    keys = _roundtrip_keys(image_key)
    cover = make_cover(np.random.default_rng(31), 48, 48)
    result = pipeline.hide(cover, b"same bytes either way", keys, iv=bytes(16))
    secret, original = pipeline.reveal(result.image, keys)
    assert secret == b"same bytes either way" and np.array_equal(original, cover)
    return netpbm.save_ppm(result.image, keys.nonce)


def y4m_roundtrip() -> bytes:
    """Hide and reveal on a small two-frame Y4M clip, checking both; the marked file."""
    from rdhkit import video

    keys = _roundtrip_keys()
    rng = np.random.default_rng(32)
    frames = []
    for _ in range(2):
        y = np.full((64, 64), 90, dtype=np.uint8)
        y[rng.random((64, 64)) < 0.4] = 91
        frames.append(np.concatenate((y, rng.integers(0, 256, 2 * 32 * 32, dtype=np.uint8)), axis=None))
    clip = video.Y4mVideo([b"W64", b"H64", b"F25:1", b"C420"], frames, [b""] * 2)
    marked = video.video_hide(clip, b"same bytes either way", keys, iv=bytes(16))
    secret, original = video.video_reveal(marked, keys)
    assert secret == b"same bytes either way"
    assert video.write_y4m(original) == video.write_y4m(clip)
    return video.write_y4m(marked)


class GcryptStandIn:
    """The platform's libgcrypt with the given functions in place of its own,
    and without those given as None."""

    def __init__(self, **functions):
        for name in _gcrypt._CALLS:
            function = functions.get(name, getattr(GCRYPT, "gcry_" + name))
            if function is not None:
                setattr(self, "gcry_" + name, function)


def gcrypt_fails(*args):
    return 1  # a gcry_error_t other than 0


def gcrypt_case(id, **functions):
    """A failed-binding case: a stand-in library with the given functions."""
    return pytest.param(lambda: GcryptStandIn(**functions), marks=needs_gcrypt, id=id)


# the library the failed-binding tests of both ciphers load in place of the
# platform's: none, one without a call either cipher needs, one whose
# version check fails, or one where a call both ciphers make (the weak-key
# ctl among them) returns an error.
# Each module adds the failures of the calls and bytes its own cipher alone
# makes
GCRYPT_FAILURES = [
    pytest.param(lambda: None, id="no-library"),
    pytest.param(object, id="no-symbol"),
    *(gcrypt_case(f"no-{call}-symbol", **{"cipher_" + call: None}) for call in ("ctl", "setiv", "setctr", "decrypt")),
    gcrypt_case("version-check-fails", check_version=lambda version: None),
    gcrypt_case("open-fails", cipher_open=gcrypt_fails),
    gcrypt_case("ctl-fails", cipher_ctl=gcrypt_fails),
    gcrypt_case("setkey-fails", cipher_setkey=gcrypt_fails),
    gcrypt_case("encrypt-fails", cipher_encrypt=gcrypt_fails),
]


@pytest.fixture
def load_gcrypt(monkeypatch):
    """Makes _gcrypt load what the given function returns, typed as the
    platform's library is, and binds both ciphers again on their next use
    and after the test."""
    from rdhkit import aes, blowfish

    def load(make):
        lib = _gcrypt._typed(make())
        monkeypatch.setattr(_gcrypt, "_load", lambda: lib)
        rebind()

    def rebind():
        aes._native_cbc.cache_clear()
        blowfish._native_schedule.cache_clear()

    yield load
    rebind()
