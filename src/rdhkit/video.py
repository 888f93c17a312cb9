"""Y4M (YUV4MPEG2) parsing/writing, and hiding across a clip's frames.

``video_hide`` and ``video_reveal`` hand the clip to the driver in
``pipeline`` (``embed_segments``, ``reveal_units``) with one unit per frame:
the frame's Y+U+V bytes as one flat buffer, host ``y_host`` (the Y plane,
slice ``[:w*h]``), just as an image is one unit whose host is its red
samples.  Each frame's capacity is ``pipeline.max_embeddable_bits`` of its Y
plane, the same rule an image's red plane follows; it sets how the encrypted
secret splits into segments, and a frame that cannot carry one raises the
reason.  A parsed frame already is that unit, so ``video_reveal`` hands the
frames over as they are, and ``video_hide`` hands over one copy per frame,
made as the driver reaches it, because embedding leaves its input as the
plain-domain marked cover.

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
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BadSignature, TruncatedFrame, UnsupportedColorspace, check_nonce
from .pipeline import StegoKeys, build_frames, embed_segments, max_embeddable_bits, reveal_units

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


@dataclass
class Y4mVideo:
    width: int
    height: int
    colorspace: str  # "C420" or "C444"
    params: list[bytes]  # raw stream-header tokens, order preserved
    frames: list[np.ndarray] = field(default_factory=list)  # flat C-contiguous Y+U+V bytes
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
            # names the dimensions: frame_len may have more digits than str() writes
            left = len(data) - pos
            raise TruncatedFrame(f"a {width}x{height} frame needs more than the {left} bytes left")
        video.frames.append(np.frombuffer(data, np.uint8, count=frame_len, offset=pos).copy())
        video.frame_headers.append(m[1])
        pos += frame_len
    return video


def write_y4m(video: Y4mVideo) -> bytes:
    parts = [b"YUV4MPEG2 " + b" ".join(video.params) + b"\n"]
    for frame, suffix in zip(video.frames, video.frame_headers):
        parts += (b"FRAME" + suffix + b"\n", frame)
    return b"".join(parts)  # each frame's one copy


def _positive_int(tok: bytes, what: str) -> int:
    digits = tok.lstrip(b"0")
    if not tok.isdigit() or not digits:
        raise BadSignature(f"{what} must be a positive integer, got {tok!r}")
    try:
        return int(digits)
    except ValueError:  # more digits than int() reads
        raise BadSignature(f"{what} has {len(digits)} digits, too many to read") from None


def video_nonce(video: Y4mVideo) -> int | None:
    """Counter nonce of the first ``XRDHCTR=<16 hex digits>`` token, if any."""
    for tok in video.params:
        if m := _NONCE_TOKEN.fullmatch(tok):
            return int(m[1], 16)
    return None


def with_video_nonce(video: Y4mVideo, nonce: int) -> Y4mVideo:
    """Copy of the video with its nonce token replaced or appended."""
    check_nonce(nonce)
    token = _NONCE_PREFIX + b"%016x" % nonce
    return replace(video, params=[*without_video_nonce(video).params, token])


def without_video_nonce(video: Y4mVideo) -> Y4mVideo:
    """Inverse of with_video_nonce for covers that carried no well-formed token of their own.

    Only tokens video_nonce would read are dropped; a malformed XRDHCTR= one stays.
    """
    return replace(video, params=[t for t in video.params if not _NONCE_TOKEN.fullmatch(t)])


def y_host(video: Y4mVideo) -> slice:
    """The host of every frame buffer: its Y plane."""
    return np.s_[: video.width * video.height]


def video_hide(
    video: Y4mVideo, secret: bytes, keys: StegoKeys, iv: bytes | None = None
) -> Y4mVideo:
    """Split the encrypted secret across frames; every frame carries a segment."""
    if iv is None:
        iv = os.urandom(16)
    host = y_host(video)
    capacities = [max_embeddable_bits(frame[host]) for frame in video.frames]
    segments = build_frames(secret, keys.data_key, iv, capacities)
    # embedding leaves its input as the plain-domain marked cover
    frames = embed_segments((frame.copy() for frame in video.frames), host, segments, keys)
    return replace(
        video, params=list(video.params), frames=frames, frame_headers=list(video.frame_headers)
    )


def video_reveal(video: Y4mVideo, keys: StegoKeys) -> tuple[bytes, Y4mVideo]:
    """Inverse of video_hide: (secret, original video), segments joined by index."""
    secret, frames = reveal_units(video.frames, y_host(video), keys)
    return secret, replace(
        video, params=list(video.params), frames=frames, frame_headers=list(video.frame_headers)
    )

