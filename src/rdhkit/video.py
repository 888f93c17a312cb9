"""Y4M (YUV4MPEG2) parsing/writing, and hiding across a clip's frames.

``video_hide`` and ``video_reveal`` hand the clip to the driver in
``pipeline`` (``embed_segments``, ``reveal_units``) with one unit per frame:
the frame's Y+U+V bytes as one flat buffer, host ``y_host`` (the Y plane,
slice ``[:w*h]``), just as an image is one unit whose host is its red
samples.  Each frame's capacity is ``pipeline.max_embeddable_bits`` of its Y
plane, contiguous where it lies, whose one count also reserves it, as for an
image's red plane copy; it sets how the encrypted secret splits into
segments, and a frame that cannot carry one raises the reason.  A parsed
frame, a read-only view of the parsed bytes, already is that unit, so
``video_reveal`` hands the frames over as they are, and ``video_hide`` hands
over one copy per frame, made as the driver reaches it, because embedding
leaves its input as the decrypted marked frame.

The reader accepts one grammar.  The stream header is the line
``YUV4MPEG2 P1 P2 ... Pn\\n``: one or more parameters, each one space before
it and none after the last, a parameter being any bytes other than space and
LF.  It must hold ``W`` and ``H`` (``errors.read_decimal``) and an ``F`` rate.
The colorspaces are ``C444`` and 4:2:0 (even dimensions): ``C420``, the
default, or its chroma sitings ``C420jpeg``, ``C420mpeg2`` and ``C420paldv``,
which share its plane sizes; the token itself round-trips verbatim.  The last
token of a kind wins.  Each frame is the line ``FRAME\\n`` or ``FRAME <any
bytes but LF>\\n``, then exactly its Y, U and V plane bytes
(``errors.read_samples``); nothing follows the last frame.

A ``Y4mVideo`` holds what its file holds: the header tokens ``params``, the
``frames`` and their frame-line suffixes ``frame_headers``.  Its geometry is
read from the tokens by the rule above: the writer and ``video_hide`` take
only 1-D frames of the size the header gives, and the writer refuses a clip
that the reader would not read back.

Unknown stream-header parameters and frame-line suffixes round-trip
verbatim, so a marked video can carry its counter nonce as an
``XRDHCTR=<16 hex digits>`` extension token that players ignore.  Only a
token of exactly that form counts: a sign, ``0x`` or ``_`` means no nonce.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (BadSignature, DimensionMismatch, TruncatedFrame, UnsupportedColorspace,
                     check_nonce, check_samples, read_decimal, read_samples)
from .histshift import count_values
from .pipeline import StegoKeys, build_frames, embed_segments, max_embeddable_bits, reveal_units

# bench/spans.py traces layers through the names this module binds, so these
# stay bound here although the calls are made in pipeline
from .aes import aes_cbc_decrypt  # noqa: F401
from .blowfish import bf_ctr_transform, bf_key_schedule  # noqa: F401
from .huffman import huffman_decompress  # noqa: F401
from .pipeline import recover_plane, reserve_room_plane  # noqa: F401

_STREAM_HEADER = re.compile(rb"YUV4MPEG2 ([^ \n]+(?: [^ \n]+)*)\n")
_FRAME_HEADER = re.compile(rb"FRAME((?: [^\n]*)?)\n")
_PARAM = re.compile(rb"[^ \n]+")
_NONCE_PREFIX = b"XRDHCTR="
_NONCE_TOKEN = re.compile(rb"XRDHCTR=([0-9a-fA-F]{16})")
# colorspace token -> plane layout; the 4:2:0 sitings differ only in chroma position
_COLORSPACES = {b"C444": "C444"} | dict.fromkeys(
    (b"C420", b"C420jpeg", b"C420mpeg2", b"C420paldv"), "C420"
)


@dataclass
class Y4mVideo:
    params: list[bytes]  # raw stream-header tokens, order preserved; the geometry's one source
    frames: list[np.ndarray] = field(default_factory=list)  # 1-D Y+U+V uint8 buffers
    frame_headers: list[bytes] = field(default_factory=list)  # raw suffix per frame

    width = property(lambda self: _geometry(self.params)[0])
    height = property(lambda self: _geometry(self.params)[1])
    colorspace = property(lambda self: _geometry(self.params)[2])  # "C420" or "C444"


def _geometry(params: list[bytes]) -> tuple[int, int, str, int]:
    """(width, height, colorspace, frame length) of the stream-header tokens,
    the last token of a kind winning, else the first failing token's error."""
    width, height, colorspace, saw_rate = None, None, "C420", False
    for tok in params:
        if tok.startswith(b"W"):
            width = read_decimal(tok[1:], "width", BadSignature)
        elif tok.startswith(b"H"):
            height = read_decimal(tok[1:], "height", BadSignature)
        elif tok.startswith(b"F"):
            saw_rate = True
        elif tok.startswith(b"C"):
            if tok not in _COLORSPACES:
                cs = tok.decode("ascii", "replace")
                raise UnsupportedColorspace(f"colorspace {cs} is not supported")
            colorspace = _COLORSPACES[tok]
    if width is None or height is None:
        raise BadSignature("stream header lacks W or H")
    if not saw_rate:
        raise BadSignature("stream header lacks a frame rate")
    if colorspace == "C420" and (width % 2 or height % 2):
        raise UnsupportedColorspace(f"C420 requires even dimensions, stream is {width}x{height}")
    chroma = (height // 2) * (width // 2) if colorspace == "C420" else height * width
    return width, height, colorspace, width * height + 2 * chroma


def parse_y4m(data: bytes) -> Y4mVideo:
    """The clip in data; its frames are read-only views of data, not copies."""
    m = _STREAM_HEADER.match(data)
    if m is None:
        raise BadSignature("no 'YUV4MPEG2' line of space-separated parameters at byte 0")
    video = Y4mVideo(m[1].split(b" "))
    width, height, _, frame_len = _geometry(video.params)
    pos, what = m.end(), f"a {width}x{height} frame"
    while pos < len(data):
        m = _FRAME_HEADER.match(data, pos)
        if m is None:
            raise TruncatedFrame(f"expected a FRAME header line at byte {pos}")
        video.frames.append(read_samples(data, m.end(), frame_len, TruncatedFrame, what))
        video.frame_headers.append(m[1])
        pos = m.end() + frame_len
    return video


def write_y4m(video: Y4mVideo) -> bytes:
    if len(video.frames) != len(video.frame_headers):
        raise DimensionMismatch(f"{len(video.frames)} frames, {len(video.frame_headers)} suffixes")
    if not video.params or not all(map(_PARAM.fullmatch, video.params)):
        raise DimensionMismatch(f"params must be runs of bytes but space and LF: {video.params}")
    parts = [b"YUV4MPEG2 " + b" ".join(video.params) + b"\n"]
    for frame, suffix in zip(_frames(video), video.frame_headers):
        if not _FRAME_HEADER.fullmatch(line := b"FRAME" + suffix + b"\n"):
            raise DimensionMismatch(f"a frame suffix is b'' or b' ...' without LF: {suffix!r}")
        parts += (line, np.ascontiguousarray(frame))
    return b"".join(parts)  # each frame's one copy


def _frames(video: Y4mVideo) -> list[np.ndarray]:
    """The clip's frames if each is its header's frame length of uint8 samples in 1-D:
    a write would misframe the file, and a 2-D frame's host slice takes whole rows."""
    n = _geometry(video.params)[3]
    for frame in video.frames:
        if check_samples(frame, "a frame").shape != (n,):
            raise DimensionMismatch(f"a frame is {n} uint8 samples in 1-D, got shape {frame.shape}")
    return video.frames


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
    host = y_host(video)
    planes = [frame[host] for frame in _frames(video)]  # each Y plane: counted, sized and reserved
    hists = [count_values(plane) for plane in planes]
    capacities = [max_embeddable_bits(plane, hist) for plane, hist in zip(planes, hists)]
    segments = build_frames(secret, keys.data_key, iv, capacities)
    frames = embed_segments((f.copy() for f in video.frames), host, segments, keys, hists, planes)
    return Y4mVideo(list(video.params), frames, list(video.frame_headers))


def video_reveal(video: Y4mVideo, keys: StegoKeys) -> tuple[bytes, Y4mVideo]:
    """Inverse of video_hide: (secret, original video), segments joined in frame order."""
    secret, frames = reveal_units(video.frames, y_host(video), keys)
    return secret, Y4mVideo(list(video.params), frames, list(video.frame_headers))

