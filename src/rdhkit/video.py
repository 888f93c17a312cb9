"""Y4M (YUV4MPEG2) parsing/writing, and hiding across a clip's frames.

``video_hide`` and ``video_reveal`` hand the clip to the driver in
``pipeline`` (``embed_segments``, ``reveal_units``) with one unit per frame:
the frame's Y+U+V planes as one flat buffer, host slice ``[:w*h]`` (the Y
plane), just as an image is one unit whose host is its red samples.  Each
frame's capacity is ``pipeline.max_embeddable_bits`` of its Y plane, the
same rule an image's red plane follows; it sets how the encrypted secret
splits into segments, and a frame that cannot carry one raises the reason.
This module adds only what is video's own: the conversion between frames
and buffers, made one frame at a time so that the input buffers are never
all held at once.

The reader accepts one grammar.  The stream header is the line
``YUV4MPEG2 P1 P2 ... Pn\\n``: one or more parameters, each one space before
it and none after the last, a parameter being any bytes other than space and
LF.  It must hold ``W`` and ``H`` (positive decimal) and an ``F`` rate;
``C420`` (the default, even dimensions) and ``C444`` are the colorspaces.
Each frame is the line ``FRAME\\n`` or ``FRAME <any bytes but LF>\\n``, then
exactly the frame's Y, U and V plane bytes; nothing follows the last frame.

Unknown stream-header parameters and frame-line suffixes round-trip
verbatim, so a marked video can carry its counter nonce as an
``XRDHCTR=<16 hex digits>`` extension token that players ignore.  Only a
token of exactly that form counts: a sign, ``0x`` or ``_`` means no nonce.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BadSignature, TruncatedFrame, UnsupportedColorspace
from .pipeline import (
    PayloadFrame,
    StegoKeys,
    build_frames,
    embed_segments,
    extract,
    max_embeddable_bits,
    reveal_units,
)

# bench/spans.py traces layers through the names this module binds, so these
# stay bound here although the calls are made in pipeline
from .aes import aes_cbc_decrypt  # noqa: F401
from .blowfish import bf_ctr_transform, bf_key_schedule  # noqa: F401
from .huffman import huffman_decompress  # noqa: F401
from .pipeline import recover_plane, reserve_room_plane  # noqa: F401

_STREAM_HEADER = re.compile(rb"YUV4MPEG2 ([^ \n]+(?: [^ \n]+)*)\n")
_FRAME_HEADER = re.compile(rb"FRAME((?: [^\n]*)?)\n")
_NONCE_PREFIX = b"XRDHCTR="
_NONCE_TOKEN = re.compile(rb"XRDHCTR=([0-9a-fA-F]{16})")
_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass
class YuvFrame:
    y: np.ndarray
    u: np.ndarray
    v: np.ndarray


@dataclass
class Y4mVideo:
    width: int
    height: int
    colorspace: str  # "C420" or "C444"
    params: list[bytes]  # raw stream-header tokens, order preserved
    frames: list[YuvFrame] = field(default_factory=list)
    frame_headers: list[bytes] = field(default_factory=list)  # raw suffix per frame

    def chroma_shape(self) -> tuple[int, int]:
        if self.colorspace == "C420":
            return (self.height // 2, self.width // 2)
        return (self.height, self.width)


def parse_y4m(data: bytes) -> Y4mVideo:
    m = _STREAM_HEADER.match(data)
    if m is None:
        raise BadSignature("no 'YUV4MPEG2' line of space-separated parameters at byte 0")
    tokens = m[1].split(b" ")
    width = height = None
    colorspace = "C420"
    saw_rate = False
    for tok in tokens:
        if tok.startswith(b"W"):
            width = _positive_int(tok[1:], "width")
        elif tok.startswith(b"H"):
            height = _positive_int(tok[1:], "height")
        elif tok.startswith(b"F"):
            saw_rate = True
        elif tok.startswith(b"C"):
            cs = tok.decode("ascii", "replace")
            if cs not in ("C420", "C444"):
                raise UnsupportedColorspace(f"colorspace {cs} is not supported")
            colorspace = cs
    if width is None or height is None:
        raise BadSignature("stream header lacks W or H")
    if not saw_rate:
        raise BadSignature("stream header lacks a frame rate")
    if colorspace == "C420" and (width % 2 or height % 2):
        raise UnsupportedColorspace(
            f"C420 requires even dimensions, stream is {width}x{height}"
        )

    video = Y4mVideo(width, height, colorspace, tokens)
    ch, cw = video.chroma_shape()
    frame_len = width * height + 2 * ch * cw
    pos = m.end()
    while pos < len(data):
        m = _FRAME_HEADER.match(data, pos)
        if m is None:
            raise TruncatedFrame(f"expected a FRAME header line at byte {pos}")
        pos = m.end()
        if len(data) - pos < frame_len:
            raise TruncatedFrame(
                f"frame needs {frame_len} plane bytes, stream holds {len(data) - pos}"
            )
        planes = np.frombuffer(data, np.uint8, count=frame_len, offset=pos).copy()
        video.frames.append(_split_planes(planes, (height, width), (ch, cw)))
        video.frame_headers.append(m[1])
        pos += frame_len
    return video


def write_y4m(video: Y4mVideo) -> bytes:
    parts = [b"YUV4MPEG2 " + b" ".join(video.params) + b"\n"]
    for frame, suffix in zip(video.frames, video.frame_headers):
        parts.append(b"FRAME" + suffix + b"\n")
        parts += (np.ascontiguousarray(p) for p in (frame.y, frame.u, frame.v))
    return b"".join(parts)  # each plane's one copy


def _split_planes(raw: np.ndarray, y_shape: tuple, c_shape: tuple) -> YuvFrame:
    """Y, U and V as views of one flat Y+U+V buffer."""
    ny = y_shape[0] * y_shape[1]
    nc = c_shape[0] * c_shape[1]
    return YuvFrame(
        raw[:ny].reshape(y_shape),
        raw[ny : ny + nc].reshape(c_shape),
        raw[ny + nc :].reshape(c_shape),
    )


def _positive_int(tok: bytes, what: str) -> int:
    if not tok.isdigit() or int(tok) <= 0:
        raise BadSignature(f"{what} must be a positive integer, got {tok!r}")
    return int(tok)


def video_nonce(video: Y4mVideo) -> int | None:
    """Counter nonce of the first ``XRDHCTR=<16 hex digits>`` token, if any."""
    for tok in video.params:
        if m := _NONCE_TOKEN.fullmatch(tok):
            return int(m[1], 16)
    return None


def with_video_nonce(video: Y4mVideo, nonce: int) -> Y4mVideo:
    """Copy of the video with its nonce token replaced or appended."""
    token = _NONCE_PREFIX + b"%016x" % (nonce & _MASK64)
    return replace(video, params=[*without_video_nonce(video).params, token])


def without_video_nonce(video: Y4mVideo) -> Y4mVideo:
    """Inverse of with_video_nonce for covers that carried no token of their own."""
    return replace(video, params=[t for t in video.params if not t.startswith(_NONCE_PREFIX)])


def extract_frame_payload(frame: YuvFrame) -> PayloadFrame:
    """Parse the payload segment from the Y LSBs; needs no key material."""
    return extract(frame.y.reshape(-1), np.s_[:])


def video_hide(
    video: Y4mVideo, secret: bytes, keys: StegoKeys, iv: bytes | None = None
) -> Y4mVideo:
    """Split the encrypted secret across frames; every frame carries a segment."""
    if iv is None:
        iv = os.urandom(16)
    capacities = [max_embeddable_bits(frame.y) for frame in video.frames]
    segments = build_frames(secret, keys.data_key, iv, capacities)
    buffers = embed_segments(_frame_buffers(video), _y_plane(video), segments, keys)
    return _with_frames(video, buffers)


def video_reveal(video: Y4mVideo, keys: StegoKeys) -> tuple[bytes, Y4mVideo]:
    """Inverse of video_hide: (secret, original video), segments joined by index."""
    secret, buffers = reveal_units(_frame_buffers(video), _y_plane(video), keys)
    return secret, _with_frames(video, buffers)


def _frame_buffers(video: Y4mVideo) -> Iterator[np.ndarray]:
    # one frame's buffer at a time: the driver keeps only what it returns
    return (np.concatenate((f.y, f.u, f.v), axis=None) for f in video.frames)


def _y_plane(video: Y4mVideo) -> slice:
    return np.s_[: video.width * video.height]


def _with_frames(video: Y4mVideo, buffers: list[np.ndarray]) -> Y4mVideo:
    frames = [_split_planes(b, f.y.shape, f.u.shape) for b, f in zip(buffers, video.frames)]
    return replace(video, frames=frames, frame_headers=list(video.frame_headers))

