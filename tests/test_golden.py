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

IMAGE_DIGEST = "c30b38f62accf2d35be7f8cfd1d2bd67da89372a9b7f613eaf35ea3b06669bf4"
# original vs plain-domain marked cover, the frame in region A's LSBs
IMAGE_PLAIN_PSNR = 59.368895923352405
# the secret spans two frames; the third carries an empty segment.  Frame i
# is encrypted from counter nonce + i * ceil(frame bytes / 8)
VIDEO_DIGESTS = {
    "C420": "c5c5ac323d6de73aa3589b4b25cf6cb270b681fe4f2d52199c138dcfce8c72dc",
    "C444": "6006a71195b2114402f3e1e1abff8646b566fcb1cd867f5878a347d561f9683f",
}

BENCH_HIDE_DIGESTS = {
    "image-1k": "9ba6ec69243d40db2e08d51a5e5e5f66e310bd7b99de13041e524c5255341693",
    "payload-16k": "04ddb8aacb7f73ab85efb6bce1b52f7d91fa8526070bb74ed984aa768bba71aa",
    "video-qcif": "021df00d937744ce6b88c8e7ad7e2e13033fc12e9b3a2df096124e6f8dca6483",
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
