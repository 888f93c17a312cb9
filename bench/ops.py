"""The benchmark's operations: one hide and one reveal through rdhkit's public API.

All key material is fixed, so for a given workload seed the hide output is
byte-identical from run to run and its SHA-256 is a golden digest.  The
nonce is non-zero so that the counter keystream does not start at block 0.

rdhkit is imported from the ``src/`` tree next to this directory, never from
an installed copy, so that the benchmark measures the checkout it sits in.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if not (SRC / "rdhkit" / "__init__.py").is_file():
    raise ImportError(f"rdhkit sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from rdhkit import netpbm, pipeline, video  # noqa: E402

KEYS = pipeline.StegoKeys(
    data_key=bytes.fromhex("000102030405060708090a0b0c0d0e0f"),
    image_key=b"rdhkit-benchmark-image-key",
    nonce=0x0123456789ABCDEF,
)
IV = bytes.fromhex("f0e1d2c3b4a5968778695a4b3c2d1e0f")


def image_hide(cover: bytes, secret: bytes) -> tuple[bytes, float]:
    """load_ppm -> hide -> save_ppm; returns the marked PPM and its plain PSNR."""
    img, _ = netpbm.load_ppm(cover)
    result = pipeline.hide(img, secret, KEYS, iv=IV)
    return netpbm.save_ppm(result.image, nonce=KEYS.nonce), result.plain_psnr


def image_reveal(marked: bytes) -> tuple[bytes, bytes]:
    """load_ppm -> reveal -> save_ppm; returns (secret, recovered cover PPM)."""
    img, nonce = netpbm.load_ppm(marked)
    secret, original = pipeline.reveal(img, replace(KEYS, nonce=nonce))
    return secret, netpbm.save_ppm(original)


def video_hide(cover: bytes, secret: bytes) -> tuple[bytes, None]:
    """parse_y4m -> video_hide -> write_y4m, with the nonce stored in the stream."""
    clip = video.parse_y4m(cover)
    marked = video.with_video_nonce(video.video_hide(clip, secret, KEYS, iv=IV), KEYS.nonce)
    return video.write_y4m(marked), None


def video_reveal(marked: bytes) -> tuple[bytes, bytes]:
    """parse_y4m -> video_reveal -> write_y4m of the recovered clip, nonce token removed."""
    clip = video.parse_y4m(marked)
    secret, original = video.video_reveal(clip, replace(KEYS, nonce=video.video_nonce(clip)))
    return secret, video.write_y4m(video.without_video_nonce(original))


OPS = {"image": (image_hide, image_reveal), "video": (video_hide, video_reveal)}
