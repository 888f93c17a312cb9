"""Seeded input generators for the benchmark workloads.

Every input is a pure function of (workload, seed, tiny): the same seed gives
byte-identical covers and secrets.  The library only ever sees the generated
bytes, never the seed.  ``tiny`` shrinks each workload to a few milliseconds
per round trip for the benchmark's self-test; the full sizes are the ones the
numbers in README.md refer to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# English letter frequencies (percent), for text-like secrets whose byte
# histogram Huffman-codes to roughly 60% of the input, as prose does.
_LETTER_FREQ = {
    "e": 12.7, "t": 9.1, "a": 8.2, "o": 7.5, "i": 7.0, "n": 6.7, "s": 6.3,
    "h": 6.1, "r": 6.0, "d": 4.3, "l": 4.0, "c": 2.8, "u": 2.8, "m": 2.4,
    "w": 2.4, "f": 2.2, "g": 2.0, "y": 2.0, "p": 1.9, "b": 1.5, "v": 1.0,
    "k": 0.8, "j": 0.15, "x": 0.15, "q": 0.1, "z": 0.07,
}
_LETTERS = np.frombuffer("".join(_LETTER_FREQ).encode(), np.uint8)
_LETTER_P = np.array(list(_LETTER_FREQ.values())) / sum(_LETTER_FREQ.values())
_PUNCT = b",.;:!?'"

QCIF = (144, 176)  # height, width


@dataclass(frozen=True)
class Inputs:
    """One workload instance: what a sender holds before hiding."""

    kind: str  # "image" (PPM cover) or "video" (Y4M clip)
    cover: bytes  # serialized cover, exactly as a user would read it from disk
    secret: bytes


@dataclass(frozen=True)
class Workload:
    kind: str
    full: dict  # generator arguments for the measured run
    tiny: dict  # generator arguments for the self-test


def text_secret(rng: np.random.Generator, nbytes: int) -> bytes:
    """Prose-like bytes: words of English-frequency letters, some capitalised,
    some numeric, with punctuation and line breaks."""
    out = bytearray()
    while len(out) < nbytes:
        length = 1 + int(rng.poisson(3.7))
        capital, numeric, punct, newline = rng.random(4)
        if numeric < 0.05:
            word = bytearray(rng.integers(ord("0"), ord("9") + 1, length, dtype=np.uint8))
        else:
            word = bytearray(rng.choice(_LETTERS, length, p=_LETTER_P))
            if capital < 0.15:
                word[0] -= 32
        if punct < 0.12:
            word.append(_PUNCT[int(rng.integers(len(_PUNCT)))])
        word.append(ord("\n") if newline < 0.06 else ord(" "))
        out += word
    return bytes(out[:nbytes])


def gaussian_plane(rng: np.random.Generator, shape, mean: float, sigma: float = 6.0) -> np.ndarray:
    """A natural-like host plane: rounded normal samples clipped to bytes."""
    return np.clip(np.rint(rng.normal(mean, sigma, shape)), 0, 255).astype(np.uint8)


def gaussian_cover(rng: np.random.Generator, side: int) -> np.ndarray:
    """RGB cover with a sigma=6 Gaussian red plane and uniform G and B."""
    img = rng.integers(0, 256, size=(side, side, 3), dtype=np.uint8)
    img[:, :, 0] = gaussian_plane(rng, (side, side), rng.uniform(64, 192))
    return img


def peaked_cover(rng: np.random.Generator, side: int) -> np.ndarray:
    """RGB cover whose red plane puts 88% of samples on one value and the rest
    on the three values above it; G and B are uniform."""
    img = rng.integers(0, 256, size=(side, side, 3), dtype=np.uint8)
    base = int(rng.integers(10, 240))
    red = np.full((side, side), base, dtype=np.uint8)
    noisy = rng.random((side, side)) >= 0.88
    red[noisy] = base + rng.integers(1, 4, size=int(noisy.sum()))
    img[:, :, 0] = red
    return img


def ppm_bytes(img: np.ndarray) -> bytes:
    """Canonical binary PPM, written without rdhkit so that the round trip's
    byte comparison also checks that the library's writer is canonical."""
    height, width = img.shape[:2]
    return b"P6\n%d %d\n255\n" % (width, height) + img.tobytes()


def qcif_clip(rng: np.random.Generator, frames: int) -> bytes:
    """4:2:0 QCIF Y4M clip: each Y plane is a sigma=6 Gaussian whose mean
    drifts linearly across the clip; U and V are uniform."""
    height, width = QCIF
    start = rng.uniform(96, 160)
    slope = rng.uniform(-1.0, 1.0)
    out = bytearray(b"YUV4MPEG2 W%d H%d F30000:1001 Ip A1:1 C420\n" % (width, height))
    for f in range(frames):
        out += b"FRAME\n"
        out += gaussian_plane(rng, (height, width), start + slope * f).tobytes()
        out += rng.integers(0, 256, size=2 * (height // 2) * (width // 2), dtype=np.uint8).tobytes()
    return bytes(out)


# Why each workload exists is recorded in BENCHMARK.json.  In short:
# image-1k is cover-bound (Blowfish), payload-16k is payload-bound (AES and
# Huffman), and video-qcif is the only one that runs the video container and
# the capacity search.
WORKLOADS = {
    "image-1k": Workload(
        "image",
        full={"cover": "gaussian", "side": 512, "secret": 1024},
        tiny={"cover": "gaussian", "side": 128, "secret": 24},
    ),
    "payload-16k": Workload(
        "image",
        full={"cover": "peaked", "side": 512, "secret": 16384},
        tiny={"cover": "peaked", "side": 64, "secret": 64},
    ),
    "video-qcif": Workload(
        "video",
        full={"frames": 30, "secret": 2048},
        tiny={"frames": 3, "secret": 256},
    ),
}


def build(name: str, seed: int, tiny: bool = False) -> Inputs:
    """Generate one workload's inputs from its seed."""
    workload = WORKLOADS[name]
    spec = workload.tiny if tiny else workload.full
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    if workload.kind == "video":
        cover = qcif_clip(rng, spec["frames"])
    else:
        make = gaussian_cover if spec["cover"] == "gaussian" else peaked_cover
        cover = ppm_bytes(make(rng, spec["side"]))
    return Inputs(workload.kind, cover, text_secret(rng, spec["secret"]))
