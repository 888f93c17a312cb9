"""Golden digests: hide and video_hide output pinned for fixed inputs.

The on-disk formats are the behavioural contract, so a refactor of the
embedding code must reproduce these bytes exactly.  Each digest is the
SHA-256 of the file the CLI would write (PPM with its nonce comment, or the
Y4M stream as video_hide returns it).  The benchmark's seed-1 hide outputs
are pinned too, through the benchmark's own inputs and operations.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_cover
from rdhkit import netpbm, pipeline, video

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import ops  # noqa: E402
import workloads  # noqa: E402

KEYS = pipeline.StegoKeys(
    data_key=bytes.fromhex("00112233445566778899aabbccddeeff"),
    image_key=b"golden image key",
    nonce=0x0F1E2D3C4B5A6978,
)
IV = bytes.fromhex("a0a1a2a3a4a5a6a7a8a9aaabacadaeaf")
SECRET = b"golden digests pin the embedding bytes " * 3

IMAGE_DIGEST = "02cc2e53024a33ef7e1bc7c11230ba2b4be0bc2be8226bde758d0e12185b8b1b"
# original vs the marked image decrypted with the image key
IMAGE_PLAIN_PSNR = 58.813722644854096
# the secret spans two frames; the third carries an empty segment.  Frame i
# is encrypted from counter nonce + i * ceil(frame bytes / 8)
VIDEO_DIGESTS = {
    "C420": "86441e3725cc3c33d84d50017e7104db0a37430d2b62c324cfc67f221b79e870",
    "C444": "7fe9cc4bd33ae0187392961185046b5ae0c15016390221c7861d3c5365da2b45",
}

BENCH_HIDE_DIGESTS = {
    "image-1k": "b646eef61c6e35a6cff22e50c7478618ee673750080537865d65dcf029ef65e0",
    "payload-16k": "7c8368319320e90207fd863767ebe86e8a9b4c955dad236054d9fc191388037e",
    "video-qcif": "339b59dbc6339d1f93b0fe2e3868a059b22c88cce9ba3cd3749258bdb4d3d17b",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cover():
    return make_cover(np.random.default_rng(2024), 64, 64)


def _clip(colorspace: str) -> video.Y4mVideo:
    rng = np.random.default_rng(2025)
    size = 48
    ch = size // 2 if colorspace == "C420" else size
    frames = []
    for _ in range(3):
        y = np.full((size, size), 90, dtype=np.uint8)
        y[rng.random((size, size)) < 0.4] = 91
        u = rng.integers(0, 256, (ch, ch), dtype=np.uint8)
        v = rng.integers(0, 256, (ch, ch), dtype=np.uint8)
        frames.append(np.concatenate((y, u, v), axis=None))
    params = [b"W%d" % size, b"H%d" % size, b"F25:1", colorspace.encode()]
    return video.Y4mVideo(params, frames, [b""] * 3)


def test_image_hide_digest_and_roundtrip():
    cover = _cover()
    result = pipeline.hide(cover, SECRET, KEYS, iv=IV)
    assert _sha(netpbm.save_ppm(result.image, KEYS.nonce)) == IMAGE_DIGEST
    assert result.plain_psnr == IMAGE_PLAIN_PSNR

    secret, original = pipeline.reveal(result.image, KEYS)
    assert secret == SECRET
    assert np.array_equal(original, cover)
    _, (recovered,) = pipeline.recover_units(
        [result.image.reshape(-1)], pipeline.RED, KEYS.image_key, KEYS.nonce
    )
    assert np.array_equal(recovered, cover.reshape(-1))


@pytest.mark.parametrize("colorspace", ["C420", "C444"])
def test_video_hide_digest_and_roundtrip(colorspace):
    clip = _clip(colorspace)
    marked = video.video_hide(clip, SECRET, KEYS, iv=IV)
    assert _sha(video.write_y4m(marked)) == VIDEO_DIGESTS[colorspace]

    secret, original = video.video_reveal(marked, KEYS)
    assert secret == SECRET
    assert video.write_y4m(original) == video.write_y4m(clip)


@pytest.mark.parametrize("name", sorted(BENCH_HIDE_DIGESTS))
def test_benchmark_hide_digest_at_seed_one(name):
    inputs = workloads.build(name, 1)
    hide, _ = ops.OPS[inputs.kind]
    marked, _ = hide(inputs.cover, inputs.secret)
    assert _sha(marked) == BENCH_HIDE_DIGESTS[name]
