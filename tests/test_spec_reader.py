"""Marked files read back by tests/spec_reader.py, which shares no code with rdhkit."""

import numpy as np
import pytest

import spec_reader
from conftest import make_cover
from rdhkit import netpbm, pipeline, video

# a nonce near 2^64, so the counter runs wrap inside the cover
KEYS = pipeline.StegoKeys(bytes(range(16)), b"spec reader image key", nonce=2**64 - 1000)
SECRET = b"a second reader joins the segments by index, " * 3
IV = bytes(range(32, 48))


def test_spec_reader_reveals_a_marked_ppm():
    cover = make_cover(np.random.default_rng(60), 64, 64)
    result = pipeline.hide(cover, SECRET, KEYS, iv=IV)
    data = netpbm.save_ppm(result.image, nonce=KEYS.nonce)
    secret, raster = spec_reader.reveal_ppm(data, KEYS.data_key, KEYS.image_key)
    assert secret == SECRET
    assert raster == cover.tobytes()


@pytest.mark.parametrize("colorspace", ["C420", "C444"])
def test_spec_reader_reveals_a_marked_y4m(colorspace):
    rng = np.random.default_rng(61)
    size, chroma = 48, 24 if colorspace == "C420" else 48
    frames = []
    for _ in range(3):
        y = np.full(size * size, 90, np.uint8)
        y[rng.random(size * size) < 0.4] = 91
        frames.append(np.concatenate((y, rng.integers(0, 256, 2 * chroma * chroma, np.uint8))))
    params = [b"W48", b"H48", b"F25:1", colorspace.encode()]
    clip = video.Y4mVideo(params, frames, [b""] * 3)
    marked = video.video_hide(clip, SECRET, KEYS, iv=IV)
    assert pipeline.extract(marked.frames[0], video.y_host(marked)).segment_count == 2
    data = video.write_y4m(video.with_video_nonce(marked, KEYS.nonce))
    secret, restored = spec_reader.reveal_y4m(data, KEYS.data_key, KEYS.image_key)
    assert secret == SECRET
    assert restored == [frame.tobytes() for frame in frames]
