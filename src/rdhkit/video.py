"""Y4M (YUV4MPEG2) parsing/writing and frame-looped hiding.

Each video frame is an independent host for the embedding core in
``pipeline`` (``embed``, ``recover``, ``extract``): the core sees the frame as
one flat Y+U+V buffer whose host slice is the Y plane, ``[:w*h]``, just as
an image's host is its red channel.  The buffer is encrypted with the
counter keystream under nonce + frame_index, and one payload segment lands
in the frame's region-A Y LSBs.  Frames beyond the last segment carry
zero-length segments so every frame stays recoverable on its own.
Reassembly orders segments by their index, not by frame position.

Unknown stream-header parameters round-trip verbatim, so a marked video can
carry its counter nonce as an ``XRDHCTR=<16 hex>`` extension token that
players ignore.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .blowfish import BlowfishState, bf_key_schedule
from .errors import (
    BadSignature,
    CapacityExceeded,
    CoverTooSmall,
    MissingSegment,
    NoZeroBin,
    TruncatedFrame,
    UnsupportedColorspace,
)
from .pipeline import (
    HEADER_SLOTS,
    PayloadFrame,
    StegoKeys,
    build_frames,
    embed,
    extract,
    frame_num_bits,
    max_embeddable_bits,
    recover,
    reserve_room_plane,
)

from .aes import aes_cbc_decrypt
from .huffman import huffman_decompress

# bench/spans.py traces layers through the names this module binds, so these
# stay bound here although the calls are made in pipeline
from .blowfish import bf_ctr_transform  # noqa: F401
from .pipeline import recover_plane  # noqa: F401

_SIGNATURE = b"YUV4MPEG2"
_NONCE_PREFIX = b"XRDHCTR="
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
    if not data.startswith(_SIGNATURE):
        raise BadSignature("stream does not start with YUV4MPEG2")
    newline = data.find(b"\n")
    if newline == -1:
        raise BadSignature("stream header is not newline-terminated")
    header = data[len(_SIGNATURE) : newline]
    if not header.startswith(b" "):
        raise BadSignature("stream header carries no parameters")
    tokens = header[1:].split(b" ")
    if any(not t for t in tokens):
        raise BadSignature("empty parameter in stream header")

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
    pos = newline + 1
    while pos < len(data):
        if data[pos : pos + 5] != b"FRAME":
            raise TruncatedFrame(f"expected a FRAME marker at byte {pos}")
        end = data.find(b"\n", pos)
        if end == -1:
            raise TruncatedFrame("frame header is not newline-terminated")
        suffix = data[pos + 5 : end]
        if suffix and not suffix.startswith(b" "):
            raise TruncatedFrame(f"malformed frame header {suffix!r}")
        pos = end + 1
        raw = data[pos : pos + frame_len]
        if len(raw) < frame_len:
            raise TruncatedFrame(
                f"frame needs {frame_len} plane bytes, stream holds {len(raw)}"
            )
        planes = np.frombuffer(raw, dtype=np.uint8).copy()
        video.frames.append(_split_planes(planes, (height, width), (ch, cw)))
        video.frame_headers.append(suffix)
        pos += frame_len
    return video


def write_y4m(video: Y4mVideo) -> bytes:
    out = bytearray(_SIGNATURE + b" " + b" ".join(video.params) + b"\n")
    for frame, suffix in zip(video.frames, video.frame_headers):
        out += b"FRAME" + suffix + b"\n"
        out += frame.y.tobytes() + frame.u.tobytes() + frame.v.tobytes()
    return bytes(out)


def _split_planes(raw: np.ndarray, y_shape: tuple, c_shape: tuple) -> YuvFrame:
    """Y, U and V as views of one flat Y+U+V buffer."""
    ny = y_shape[0] * y_shape[1]
    nc = c_shape[0] * c_shape[1]
    return YuvFrame(
        raw[:ny].reshape(y_shape),
        raw[ny : ny + nc].reshape(c_shape),
        raw[ny + nc :].reshape(c_shape),
    )


def _frame_buffer(frame: YuvFrame) -> np.ndarray:
    return np.concatenate((frame.y, frame.u, frame.v), axis=None)


def _positive_int(tok: bytes, what: str) -> int:
    if not tok.isdigit() or int(tok) <= 0:
        raise BadSignature(f"{what} must be a positive integer, got {tok!r}")
    return int(tok)


def video_nonce(video: Y4mVideo) -> int | None:
    """Counter nonce carried as an XRDHCTR extension token, if any."""
    for tok in video.params:
        if tok.startswith(_NONCE_PREFIX):
            hexpart = tok[len(_NONCE_PREFIX) :]
            if len(hexpart) == 16:
                try:
                    return int(hexpart, 16)
                except ValueError:
                    return None
    return None


def with_video_nonce(video: Y4mVideo, nonce: int) -> Y4mVideo:
    """Copy of the video with its nonce token replaced or appended."""
    token = _NONCE_PREFIX + b"%016x" % (nonce & _MASK64)
    return replace(video, params=[*without_video_nonce(video).params, token])


def without_video_nonce(video: Y4mVideo) -> Y4mVideo:
    """Inverse of with_video_nonce for covers that carried no token of their own."""
    return replace(video, params=[t for t in video.params if not t.startswith(_NONCE_PREFIX)])


def embed_frame_payload(
    frame: YuvFrame, payload: bytes, state: BlowfishState, nonce: int
) -> YuvFrame:
    """Room-reserve the Y plane, encrypt the whole frame, substitute the payload."""
    out = embed(_frame_buffer(frame), np.s_[: frame.y.size], payload, state, nonce)
    return _split_planes(out, frame.y.shape, frame.u.shape)


def extract_frame_payload(frame: YuvFrame) -> PayloadFrame:
    """Parse the payload segment from the Y LSBs; needs no key material."""
    return extract(frame.y.reshape(-1), np.s_[:])


def recover_frame(frame: YuvFrame, state: BlowfishState, nonce: int, frame_bits: int) -> YuvFrame:
    """Decrypt one marked frame whose payload frame is frame_bits long; restore its planes."""
    out = recover(_frame_buffer(frame), np.s_[: frame.y.size], frame_bits, state, nonce)
    return _split_planes(out, frame.y.shape, frame.u.shape)


def video_hide(
    video: Y4mVideo, secret: bytes, keys: StegoKeys, iv: bytes | None = None
) -> Y4mVideo:
    """Split the encrypted secret across frames; every frame carries a segment."""
    if iv is None:
        iv = os.urandom(16)
    capacities = [
        _frame_capacity(i, frame.y.reshape(-1)) for i, frame in enumerate(video.frames)
    ]
    segments = build_frames(secret, keys.data_key, iv, capacities)
    count = len(segments)
    state = bf_key_schedule(keys.image_key)
    marked = []
    for i, frame in enumerate(video.frames):
        segment = segments[i] if i < count else PayloadFrame(i, count, iv, b"")
        marked.append(
            embed_frame_payload(frame, segment.serialize(), state, (keys.nonce + i) & _MASK64)
        )
    return replace(video, frames=marked, frame_headers=list(video.frame_headers))


def video_reveal(video: Y4mVideo, keys: StegoKeys) -> tuple[bytes, Y4mVideo]:
    """Inverse of video_hide: (secret, original video), segments joined by index."""
    if not video.frames:
        raise MissingSegment("video has no frames")
    state = bf_key_schedule(keys.image_key)
    segments: dict[int, bytes] = {}
    count = None
    iv = None
    originals = []
    for i, frame in enumerate(video.frames):
        payload = extract_frame_payload(frame)
        if count is None:
            count, iv = payload.segment_count, payload.iv
            if count == 0:
                raise MissingSegment(f"frame {i} declares zero segments")
        elif payload.segment_count != count:
            raise MissingSegment(
                f"frame {i} declares {payload.segment_count} segments, expected {count}"
            )
        if payload.segment_index < count:
            if payload.segment_index in segments:
                raise MissingSegment(f"segment {payload.segment_index} appears twice")
            segments[payload.segment_index] = payload.ciphertext
        nonce = (keys.nonce + i) & _MASK64
        originals.append(recover_frame(frame, state, nonce, payload.num_bits))
    missing = [k for k in range(count) if k not in segments]
    if missing:
        raise MissingSegment(f"segments {missing} are absent")
    ciphertext = b"".join(segments[k] for k in range(count))
    secret = huffman_decompress(aes_cbc_decrypt(ciphertext, keys.data_key, iv))
    return secret, replace(video, frames=originals, frame_headers=list(video.frame_headers))


def _frame_capacity(index: int, y_flat: np.ndarray) -> int:
    capacity = max_embeddable_bits(y_flat)
    if capacity is None or capacity < frame_num_bits(0):
        # re-derive the reason for a precise per-frame error
        if y_flat.size <= HEADER_SLOTS + frame_num_bits(0):
            raise CoverTooSmall(
                f"frame {index}: Y plane of {y_flat.size} samples cannot hold a segment"
            )
        try:
            reserve_room_plane(y_flat, frame_num_bits(0))
        except NoZeroBin as exc:
            raise NoZeroBin(f"frame {index}: {exc}") from exc
        except CapacityExceeded as exc:
            raise CapacityExceeded(
                needed=exc.needed, available=exc.available, detail=f"frame {index}"
            ) from exc
        raise CoverTooSmall(f"frame {index}: no room for a segment")
    return capacity
