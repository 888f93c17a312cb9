"""End-to-end hide/reveal: framing, room reservation, encrypted-domain embedding.

One driver serves images and video.  A cover is a sequence of units, each
a 1-D uint8 buffer, plus one host slice into every unit: an image is one
unit, its interleaved RGB raster with host ``RED`` (``[0::3]``); a video
has one unit per frame, its Y+U+V buffer with host ``[:w*h]`` (the Y plane).
``embed_segments`` gives unit i segment i of the encrypted secret (an empty
segment past the last) and encrypts it under one key schedule per call, its
counter run starting where unit i - 1's ended, unit 0's at the nonce, mod 2^64.
``recover_units`` parses each unit's frame once and restores the unit, and
``reveal_units`` checks that all frames declare one non-zero segment count
and one IV and that unit i carries segment i, then joins them to decrypt.

Each direction is one loop over the units: ``embed_segments`` reserves
room, writes the frame, encrypts and writes it again; ``recover_units``
runs ``extract``, decrypts and restores the host.  The host is split
row-major into three regions::

    [0, L)       region A   payload frame, one bit per sample LSB, MSB first
    [L, L+64)    header     side header, one bit per sample LSB, MSB first
    [L+64, n)    region B   histogram-shift host for the 64+L original LSBs

Region B carries those LSBs in one fixed order, part of the on-disk format:
the header slots' first, then region A's (the host's first L+64 LSBs
rotated left by L).  Recovery rotates them back by L.

How long region A may be is decided in one place, ``max_embeddable_bits``:
the longest L whose region B can still take the 64+L backup bits.  Every
cover is sized by it, an image's red samples and each video frame's Y
plane alike, and a host that cannot carry even L = 0 raises the reason.
Each host is one contiguous plane (an image's red samples copied once, a
frame's Y plane where it lies), counted once (``count_values``); plane and
count size it and reserve it, region B's count at any L being the count less
the first L+64 samples'.

Room is reserved before encryption: the original LSBs of the header slots
and region A are tucked reversibly into region B, the side header (peak u8,
zero u8, L u32, RFC 1071 checksum u16; ``pack_side_header`` writes it and
``parse_side_header`` reads and checks it) overwrites the header-slot LSBs, and
only then is the whole buffer encrypted as one Blowfish counter run.  The
payload frame then overwrites region A's LSBs in the *encrypted* buffer.

Every cover is encrypted; there is no plain-domain output.  Decryption
restores every bit the embedder did not touch after encrypting, so the side
header becomes readable again while region A stays garbled until the
histogram-shift backup puts the original LSBs back.  Recovery needs only the
image key, for images and video alike; no receiver yet reads the secret
without it.  ``tests/spec_reader.py`` reads marked files from these
docstrings alone, so a format change updates it first.

The payload frame is self-delimiting, all integers big-endian::

    "RDH1" | version u8 | segment_index u16 | segment_count u16 |
    ct_len u32 | iv 16B | ciphertext | crc32 u32 over everything before it
"""

from __future__ import annotations

import os
import struct
import zlib
from collections.abc import Iterable, Sized
from dataclasses import dataclass

import numpy as np

from .aes import BLOCK_SIZE, aes_cbc_decrypt, aes_cbc_encrypt
from .blowfish import bf_ctr_transform, bf_key_schedule
from .errors import (
    BadCrc,
    BadMagic,
    BadPadding,
    BadVersion,
    CapacityError,
    CapacityExceeded,
    CoverTooSmall,
    DimensionMismatch,
    HeaderChecksum,
    MissingSegment,
    NoZeroBin,
    check_flat,
    check_nonce,
    check_samples,
)
from .histshift import BLOCK, count_values, hs_embed, hs_extract, plan_hs
from .huffman import huffman_compress, huffman_decompress
from .metrics import psnr_of_mse

# bench/spans.py traces hide's PSNR through this name, so it stays bound
# here although hide computes the PSNR from a count of changed samples
from .metrics import psnr  # noqa: F401

FRAME_MAGIC = b"RDH1"
FRAME_VERSION = 1
_FRAME_FIXED = struct.Struct(">4sBHHI")  # magic, version, index, count, ct_len
FRAME_OVERHEAD_BYTES = _FRAME_FIXED.size + 16 + 4  # + iv + crc = 33
HEADER_SLOTS = 64


def frame_num_bits(ct_len: int) -> int:
    return 8 * (FRAME_OVERHEAD_BYTES + ct_len)


@dataclass(frozen=True)
class StegoKeys:
    """Key material for one hide/reveal run."""

    data_key: bytes  # AES-128, 16 bytes
    image_key: bytes  # Blowfish, 4..56 bytes
    nonce: int  # 64-bit counter base for the cover keystream

    def __post_init__(self) -> None:
        check_nonce(self.nonce)


@dataclass(frozen=True)
class PayloadFrame:
    segment_index: int
    segment_count: int
    iv: bytes
    ciphertext: bytes

    def serialize(self) -> bytes:
        body = _FRAME_FIXED.pack(
            FRAME_MAGIC,
            FRAME_VERSION,
            self.segment_index,
            self.segment_count,
            len(self.ciphertext),
        )
        body += self.iv + self.ciphertext
        return body + struct.pack(">I", zlib.crc32(body))

    @property
    def num_bits(self) -> int:
        return frame_num_bits(len(self.ciphertext))


def parse_frame(data: bytes) -> PayloadFrame:
    """Parse one frame from the start of a packed bit stream; trailing bytes ignored."""
    if len(data) < _FRAME_FIXED.size:
        raise BadMagic(f"stream of {len(data)} bytes cannot hold a frame header")
    magic, version, index, count, ct_len = _FRAME_FIXED.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise BadMagic(f"expected {FRAME_MAGIC!r}, got {magic!r}")
    if version != FRAME_VERSION:
        raise BadVersion(f"unsupported frame version {version}")
    total = FRAME_OVERHEAD_BYTES + ct_len
    if len(data) < total:
        raise BadCrc(f"frame declares {total} bytes, stream holds {len(data)}")
    (crc,) = struct.unpack_from(">I", data, total - 4)
    if crc != zlib.crc32(data[: total - 4]):
        raise BadCrc("frame CRC mismatch: corrupted payload")
    iv = data[_FRAME_FIXED.size : _FRAME_FIXED.size + 16]
    ciphertext = data[_FRAME_FIXED.size + 16 : total - 4]
    return PayloadFrame(index, count, iv, ciphertext)


def build_frames(
    secret: bytes, data_key: bytes, iv: bytes | None, capacities: list[int]
) -> list[PayloadFrame]:
    """Compress, encrypt and split the secret greedily across embedding units.

    Unit u receives the largest ciphertext slice whose whole frame fits
    capacities[u] bits.  Every unit, those past the last segment included,
    must hold an empty frame, else CapacityExceeded before any compression or
    encryption.  All frames repeat the same IV, a random one if iv is None;
    CBC runs once over the full ciphertext before splitting.  Each unit's
    frame carries its index and the segment count as u16 fields, so there
    are at most 65535 units.
    """
    if len(capacities) > 0xFFFF:
        raise CapacityError(
            f"{len(capacities)} units, but u16 segment indices and counts number at most 65535"
        )
    for u, cap in enumerate(capacities):
        if cap < frame_num_bits(0):
            raise CapacityExceeded(frame_num_bits(0), cap, f"unit {u} cannot hold even an empty frame")
    if iv is None:
        iv = os.urandom(16)
    ciphertext = aes_cbc_encrypt(huffman_compress(secret), data_key, iv)
    pieces, offset = [], 0
    for cap in capacities:
        take = min(cap // 8 - FRAME_OVERHEAD_BYTES, len(ciphertext) - offset)
        pieces.append(ciphertext[offset : offset + take])
        offset += take
        if offset == len(ciphertext):
            break
    if offset < len(ciphertext):
        usable = 8 * sum(c // 8 - FRAME_OVERHEAD_BYTES for c in capacities)
        raise CapacityExceeded(
            needed=8 * len(ciphertext),
            available=usable,
            detail="ciphertext bits vs room left after per-frame overhead",
        )
    count = len(pieces)
    return [PayloadFrame(i, count, iv, piece) for i, piece in enumerate(pieces)]


_SIDE_HEADER = struct.Struct(">BBI")  # peak, zero, region_a_bits; a u16 checksum follows


def pack_side_header(peak: int, zero: int, region_a_bits: int) -> bytes:
    """The 8-byte record written into the header-slot LSBs before encryption."""
    body = _SIDE_HEADER.pack(peak, zero, region_a_bits)
    return body + struct.pack(">H", _ones_complement_sum(body))


def parse_side_header(data: bytes) -> tuple[int, int, int]:
    """(peak, zero, region_a_bits) of an 8-byte side header, else HeaderChecksum."""
    if len(data) != 8:
        raise HeaderChecksum(f"side header must be 8 bytes, got {len(data)}")
    if int.from_bytes(data[6:], "big") != _ones_complement_sum(data[:6]):
        raise HeaderChecksum("side header checksum mismatch: wrong image key or damaged cover")
    peak, zero, region_a_bits = _SIDE_HEADER.unpack_from(data)
    if peak == zero:
        raise HeaderChecksum("side header names identical peak and zero bins")
    return peak, zero, region_a_bits


def _ones_complement_sum(data: bytes) -> int:
    # big-endian 16-bit words with end-around carry, then complemented
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def reserve_room_plane(flat: np.ndarray, frame_bits: int, hist: np.ndarray) -> np.ndarray:
    """Room-reserve a flat host plane for a frame_bits-long region A; flat is not written.

    Region A is left untouched; its original LSBs plus the header slots' travel
    inside region B's histogram shift, made in place in the one contiguous copy
    returned; region B is planned from hist, count_values of all of flat, less
    the first frame_bits + HEADER_SLOTS samples' count.  hide passes the contiguous red
    plane it counted, so the copy is a memcpy (shifting the stride-3 samples was slower).
    """
    out = check_samples(flat, "host plane").flatten()  # the one copy
    n = out.size
    if frame_bits > n - HEADER_SLOTS:
        raise CoverTooSmall(
            f"plane of {n} samples cannot hold {frame_bits} payload bits plus "
            f"{HEADER_SLOTS} header slots"
        )
    header_end = frame_bits + HEADER_SLOTS
    region_b = out[header_end:]
    if region_b.size == 0:
        raise CapacityExceeded(needed=header_end, available=0, detail="region B is empty")
    peak, zero = plan_hs(_region_b(hist, out, header_end))  # hs_embed checks the capacity
    # the header slots' LSBs, then region A's: the first header_end rotated left by frame_bits
    backup = np.concatenate((out[frame_bits:header_end], out[:frame_bits])) & 1
    hs_embed(region_b, backup, peak, zero)
    header = pack_side_header(peak, zero, frame_bits)
    _set_lsbs(out[frame_bits:header_end], np.unpackbits(np.frombuffer(header, np.uint8)))
    return out


def recover_plane(host: np.ndarray, frame_bits: int) -> None:
    """Invert reserve_room_plane in place on a decrypted unit's 1-D host slice.

    hs_extract unshifts region B where it lies and the bits it returns go back
    into the first frame_bits + HEADER_SLOTS LSBs, so no plane is allocated.
    Any other shape is refused: reshaping a non-contiguous plane copies it, and
    the restore would be lost with the copy.
    """
    n = check_flat(host, "host plane").size
    if frame_bits > n - HEADER_SLOTS:
        raise HeaderChecksum(
            f"declared region of {frame_bits} bits does not fit a plane of {n} samples"
        )
    header_end = frame_bits + HEADER_SLOTS
    peak, zero, claimed = parse_side_header(np.packbits(host[frame_bits:header_end] & 1).tobytes())
    if claimed != frame_bits:
        raise HeaderChecksum(
            f"side header claims a {claimed}-bit region A, "
            f"the payload frame occupies {frame_bits} bits"
        )
    backup = hs_extract(host[header_end:], peak, zero, header_end)
    _set_lsbs(host[:header_end], np.concatenate((backup[HEADER_SLOTS:], backup[:HEADER_SLOTS])))


def _region_b(hist: np.ndarray, flat: np.ndarray, header_end: int) -> np.ndarray:
    """Region B's histogram, a new array: flat's count hist less that of flat[:header_end]."""
    if np.shape(hist) != (256,) or np.sum(hist) != flat.size:
        raise DimensionMismatch(f"hist must count the {flat.size} host samples in 256 bins")
    return hist - count_values(flat[:header_end])


def _set_lsbs(samples: np.ndarray, bits: np.ndarray) -> None:
    """Overwrite the LSBs of a view in place with 0/1 bits."""
    samples &= 0xFE
    samples |= bits


def extract(raw: np.ndarray, host: slice) -> PayloadFrame:
    """Parse the payload frame from the LSBs of raw[host]; needs no key material."""
    samples = raw[host]  # pack only the frame's LSBs: the fixed header's for ct_len, then all
    fixed = np.packbits(samples[: 8 * _FRAME_FIXED.size] & 1).tobytes()
    ct_len = _FRAME_FIXED.unpack(fixed)[-1] if len(fixed) == _FRAME_FIXED.size else 0
    return parse_frame(np.packbits(samples[: frame_num_bits(ct_len)] & 1).tobytes())


def embed_segments(
    units: Iterable[np.ndarray], host: slice, segments: list[PayloadFrame], keys: StegoKeys,
    hists: list[np.ndarray], planes: list[np.ndarray],
) -> list[np.ndarray]:
    """Embed segment i in unit i under its own counter range; the encrypted units.

    Units beyond the last segment carry an empty one, so every unit is
    recoverable on its own; an empty segment list raises MissingSegment, and
    fewer units than segments CapacityError.  Room is reserved in unit[host]
    from planes[i], its samples as the caller counted them (1-D and as long),
    planned from hists[i], its count_values: one of each per unit, else
    DimensionMismatch before any write (units from a generator are counted as
    they come, by zip's ValueError).  The unit returned for it is that unit
    encrypted as one counter run, with the frame written over the encrypted
    host's region-A LSBs.  Each unit is left as the image-key holder decrypts
    the returned one: the reserved unit with region A's LSBs flipped wherever
    the frame flipped an encrypted LSB.
    """
    if not segments:
        raise MissingSegment("no segments to embed")
    if len(hists) != len(planes) or isinstance(units, Sized) and len(units) != len(planes):
        raise DimensionMismatch(f"{len(planes)} planes, {len(hists)} histograms: not one of each per unit")
    state = bf_key_schedule(keys.image_key)
    count, iv = len(segments), segments[0].iv
    marked, counter = [], keys.nonce
    for i, (raw, hist, plane) in enumerate(zip(units, hists, planes, strict=True)):
        segment = segments[i] if i < count else PayloadFrame(i, count, iv, b"")
        bits = np.unpackbits(np.frombuffer(segment.serialize(), np.uint8))
        if check_flat(plane, "host plane").size != (n := check_flat(raw, "unit")[host].size):
            raise DimensionMismatch(f"unit {i}'s host plane has {plane.size} samples, not {n}")
        raw[host] = reserve_room_plane(plane, bits.size, hist)
        marked.append(bf_ctr_transform(state, counter, raw))
        raw[host][: bits.size] ^= (marked[-1][host][: bits.size] ^ bits) & 1
        _set_lsbs(marked[-1][host][: bits.size], bits)
        counter = (counter + (raw.size + 7) // 8) % (1 << 64)
    if len(marked) < count:
        raise CapacityError(f"{count} segments, but the cover has only {len(marked)} units")
    return marked


def recover_units(
    units: Iterable[np.ndarray], host: slice, image_key: bytes, nonce: int
) -> tuple[list[PayloadFrame], list[np.ndarray]]:
    """Each unit's payload frame, parsed once, and the unit restored with the image key
    alone: a new buffer, decrypted from the counter embed_segments gave it, whose
    host recover_plane restores in place; the side header must confirm the frame's length."""
    check_nonce(nonce)
    state = bf_key_schedule(image_key)
    frames, restored, counter = [], [], nonce
    for raw in units:
        frames.append(extract(check_flat(raw, "unit"), host))
        restored.append(bf_ctr_transform(state, counter, raw))
        recover_plane(restored[-1][host], frames[-1].num_bits)
        counter = (counter + (raw.size + 7) // 8) % (1 << 64)
    if not frames:
        raise MissingSegment("cover has no units")
    return frames, restored


def reveal_units(
    units: Iterable[np.ndarray], host: slice, keys: StegoKeys
) -> tuple[bytes, list[np.ndarray]]:
    """Inverse of embed_segments: the secret, and each unit decrypted and restored.

    Every unit's frame must declare the same segment count, between 1 and
    the number of units, and the same IV, and unit i must carry segment i;
    the first count segments are joined in unit order.
    """
    frames, restored = recover_units(units, host, keys.image_key, keys.nonce)
    count, iv = frames[0].segment_count, frames[0].iv
    if not 0 < count <= len(frames):
        raise MissingSegment(f"unit 0 declares {count} segments, the cover has {len(frames)} units")
    for i, frame in enumerate(frames):
        if frame.segment_count != count:
            raise MissingSegment(
                f"unit {i} declares {frame.segment_count} segments, expected {count}"
            )
        if frame.iv != iv:
            raise MissingSegment(f"unit {i} carries another IV than unit 0: frames of two hides")
        if frame.segment_index != i:
            raise MissingSegment(f"unit {i} carries segment {frame.segment_index}")
    ciphertext = b"".join(frame.ciphertext for frame in frames[:count])
    if not ciphertext or len(ciphertext) % BLOCK_SIZE:
        raise BadPadding(f"ciphertext of {len(ciphertext)} bytes is not whole AES blocks")
    return huffman_decompress(aes_cbc_decrypt(ciphertext, keys.data_key, iv)), restored


RED = np.s_[0::3]  # an image's host: the red samples of its interleaved RGB raster


@dataclass(frozen=True)
class HideResult:
    image: np.ndarray
    plain_psnr: float  # original vs the marked image decrypted with the image key
    frame_bits: int
    capacity_bits: int  # max_embeddable_bits of the red plane: the longest frame it holds


def hide(cover: np.ndarray, secret: bytes, keys: StegoKeys, iv: bytes | None = None) -> HideResult:
    """Embed a secret; reveal() with the same keys inverts this bit-exactly.  The red
    samples are copied once into the one contiguous plane counted, sized and reserved."""
    flat = _raster(cover)
    raw = flat.copy()
    red = raw[RED].copy()
    hist = count_values(red)
    capacity_bits = max_embeddable_bits(red, hist)
    segments = build_frames(secret, keys.data_key, iv, [capacity_bits])
    (out,) = embed_segments([raw], RED, segments, keys, [hist], [red])
    # each sample embedding changes moves by 1: the squared error is a count, BLOCK by BLOCK
    changed = sum(np.count_nonzero(flat[i : i + BLOCK] != raw[i : i + BLOCK])
                  for i in range(0, raw.size, BLOCK))
    quality = psnr_of_mse(changed / raw.size)
    return HideResult(out.reshape(cover.shape), quality, segments[0].num_bits, capacity_bits)


def reveal(marked: np.ndarray, keys: StegoKeys) -> tuple[bytes, np.ndarray]:
    """Extract the secret and restore the original cover, both bit-exact."""
    secret, (original,) = reveal_units([_raster(marked)], RED, keys)
    return secret, original.reshape(marked.shape)


def max_embeddable_bits(plane: np.ndarray, hist: np.ndarray) -> int:
    """Largest region-A bit length this host plane, whose count_values is hist, can hold.

    Length L is feasible when region B, the samples after L + HEADER_SLOTS,
    has an empty bin and a peak bin of at least HEADER_SLOTS + L samples.
    The result is the largest L for which every length 0..L is feasible;
    when L = 0 is not, the reason is raised: CoverTooSmall (no region B),
    NoZeroBin (region B holds all 256 values) or CapacityExceeded (region
    B's peak is below HEADER_SLOTS).  Region B only loses samples as L
    grows, so each bin's count can only shrink while the need grows, and an
    empty bin stays empty: once L = 0 is feasible, the lengths at which one
    given bin is large enough form a prefix, and so does their union.  (When
    L = 0 has no empty bin, one can appear at a larger L; NoZeroBin is raised
    all the same.)  So the answer is the largest prefix end over all bins.
    The peak's is found first, in hist less the first HEADER_SLOTS samples'
    count (a new array: hist is not written).  Another bin can end later only
    if region B holds it more than HEADER_SLOTS + best times at L = best, and
    one count of the samples up to there finds every such bin.
    """
    flat = check_samples(plane, "host plane").reshape(-1)
    n = flat.size
    if n <= HEADER_SLOTS:
        raise CoverTooSmall(f"host of {n} samples leaves no region B after the header")
    hist = _region_b(hist, flat, HEADER_SLOTS)
    if hist.min() > 0:
        raise NoZeroBin("all 256 gray values occur in region B")
    if hist.max() < HEADER_SLOTS:
        raise CapacityExceeded(
            needed=HEADER_SLOTS, available=int(hist.max()), detail="peak bin of region B"
        )
    peak = int(hist.argmax())
    best = _longest_prefix(flat, peak, int(hist[peak]), 0, 0)
    hist[peak] = 0  # its prefix ends at best
    at = best
    if (hist > HEADER_SLOTS + at).any():
        hist -= count_values(flat[HEADER_SLOTS : HEADER_SLOTS + at])
        for value in np.flatnonzero(hist > HEADER_SLOTS + at).tolist():
            best = _longest_prefix(flat, value, int(hist[value]), at, best)
    return best


def _longest_prefix(flat: np.ndarray, value: int, held: int, at: int, lo: int) -> int:
    """The largest L >= lo at which region B holds value HEADER_SLOTS + L times,
    or lo, given that it holds it held times at L = at <= lo.  Each probe of
    the binary search counts value among only the samples that moved."""
    hi = held - HEADER_SLOTS
    while lo < hi:
        mid = (lo + hi + 1) // 2
        moved = np.count_nonzero(
            flat[HEADER_SLOTS + min(at, mid) : HEADER_SLOTS + max(at, mid)] == value
        )
        held += -moved if mid > at else moved
        at = mid
        if held >= HEADER_SLOTS + mid:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _raster(img: np.ndarray) -> np.ndarray:
    """The interleaved RGB samples of an (h, w, 3) uint8 image as one contiguous run."""
    if check_samples(img, "image").ndim != 3 or img.shape[2] != 3:
        raise DimensionMismatch(f"expected an RGB (h, w, 3) array, got shape {img.shape}")
    return np.ascontiguousarray(img).reshape(-1)
