"""Canonical Huffman compression for the secret payload, as one raw Deflate stream.

    "HUF2" | original_len u32 big-endian | raw Deflate stream (RFC 1951)

The stream is whichever of two RFC 1951 (Deutsch, 1996) forms is shorter.  One
is a final dynamic block (§3.2.7): HLIT 257 (the bytes and end-of-block) and
HDIST 1 (one distance code, of length 0), so every symbol is a literal; the
code-length code's lengths, 3 bits each in the RFC's order, trailing zeros
trimmed; the 258 code lengths, one code-length symbol each (no run-length
symbols 16-18); then each byte's codeword and end-of-block.  The other is
stored blocks (§3.2.4) of at most 65,535 bytes behind 5 header bytes, the last
final, one empty block for empty input.  So a container exceeds its input by
at most 8 bytes plus 5 per started 65,535 (one at least).

Codes are canonical (§3.2.2): assigned in (length, symbol) order, from
Huffman's lengths for the byte counts with end-of-block at weight 1.  Where
the longest exceeds Deflate's limit, 15 bits for literals and 7 for the
code-length code, every present weight is halved, rounding up, and the code
rebuilt.  Fields go out least significant bit first, codewords most
significant bit first (§3.1.1).  The encoder is the package's own, so this
text and not a zlib build fixes its bytes; any conformant inflater reads them.

The decoder is stdlib zlib's.  It checks the magic (BadMagic), refuses an
original_len over 8 per stream byte before any output (Truncated: a literal
takes a bit at least), and inflates at most one byte more than declared: the
stream must end after exactly original_len bytes, with nothing left over.  An
early end raises Truncated; any other fault, zlib's errors too, CorruptTable.
"""

from __future__ import annotations

import heapq
import struct
import zlib

import numpy as np

from .errors import BadMagic, CorruptTable, TooLarge, Truncated

MAGIC = b"HUF2"
_MAX_INPUT = 0xFFFFFFFF
_HEADER = struct.Struct(">4sI")
_PACK_CHUNK = 1 << 16  # symbols laid out as bit rows at a time, to bound the rows' memory
_STORED = 0xFFFF  # data bytes per stored block at most
_END = 256  # the end-of-block literal
# the order in which the code-length code's lengths are sent (RFC 1951 §3.2.7)
_CL_ORDER = np.array([16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15])


def code_lengths(freq: list[int], limit: int) -> list[int]:
    """Prefix code length of each symbol, 0 = absent, none longer than limit bits.

    The merge queue is ordered by (weight, smallest symbol value contained),
    so two runs over the same input always build the same tree.  A lone
    symbol gets length 1, never 0.  If the longest code exceeds limit, every
    present weight is halved, rounding up, and the code rebuilt.
    """
    # heap entries: (weight, smallest symbol, symbols); a merge deepens them all
    heap = [(weight, s, [s]) for s, weight in enumerate(freq) if weight > 0]
    heapq.heapify(heap)
    lengths = [0] * len(freq)
    if len(heap) == 1:
        lengths[heap[0][1]] = 1
    while len(heap) > 1:
        w1, m1, group = heapq.heappop(heap)
        w2, m2, other = heapq.heappop(heap)
        group += other
        for s in group:
            lengths[s] += 1
        heapq.heappush(heap, (w1 + w2, min(m1, m2), group))
    if max(lengths, default=0) > limit:
        return code_lengths([(weight + 1) // 2 for weight in freq], limit)
    return lengths


def _pack_codes(symbols: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Every symbol's canonical codeword in turn, most significant bit first, one bit per byte."""
    width = int(lengths.max())
    # in (length, symbol) order, each code left-aligned to width bits is the
    # sum of the 2^(width - length) spans of the codes before it
    order = np.argsort(lengths, kind="stable")
    span = np.where(lengths > 0, 1 << (width - lengths), 0)[order]
    codes = np.empty_like(span)
    codes[order] = np.cumsum(span) - span
    rows = ((codes[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)
    used = np.arange(width) < lengths[:, None]  # row s's codeword bits
    chunks = (symbols[i : i + _PACK_CHUNK] for i in range(0, symbols.size, _PACK_CHUNK))
    return np.concatenate([rows[c][used[c]] for c in chunks])


def huffman_compress(data: bytes) -> bytes:
    """Serialized container that huffman_decompress inverts exactly."""
    if len(data) > _MAX_INPUT:
        raise TooLarge(f"input of {len(data)} bytes exceeds the 32-bit length field")
    header, symbols = _HEADER.pack(MAGIC, len(data)), np.frombuffer(data, np.uint8)
    freq = np.bincount(symbols, minlength=_END + 1)
    freq[_END] = 1
    lengths = np.array(code_lengths(freq.tolist(), 15))
    sequence = np.append(lengths, 0)  # the literal code's lengths, then the distance code's
    cl_freq = np.bincount(sequence, minlength=len(_CL_ORDER))
    cl_lengths = np.array(code_lengths(cl_freq.tolist(), 7))
    sent = cl_lengths[_CL_ORDER]
    sent = sent[: np.flatnonzero(sent)[-1] + 1]  # 0 is sent fourth, so 4 at least
    nbits = 17 + 3 * sent.size + int(cl_freq @ cl_lengths) + int(freq @ lengths)
    if len(data) + 5 * max(1, -(-len(data) // _STORED)) < (nbits + 7) // 8:
        return header + _stored(data)
    # BFINAL 1, BTYPE 2 (dynamic), HLIT 0 and HDIST 0 (257 and 1 codes), HCLEN, then the sent lengths
    head = (1 | 2 << 1 | (sent.size - 4) << 13) >> np.arange(17)
    fields = np.concatenate([head, (sent[:, None] >> np.arange(3)).reshape(-1)]) & 1
    codes = [_pack_codes(sequence, cl_lengths), _pack_codes(np.append(symbols, _END), lengths)]
    bits = np.concatenate([fields.astype(np.uint8), *codes])
    return header + np.packbits(bits, bitorder="little").tobytes()


def _stored(data: bytes) -> bytes:
    """Stored blocks: a BFINAL byte, LEN and NLEN little-endian, then up to 65,535 bytes."""
    out = bytearray()
    for start in range(0, len(data), _STORED) or [0]:
        run = data[start : start + _STORED]
        out += struct.pack("<BHH", start + _STORED >= len(data), len(run), len(run) ^ 0xFFFF) + run
    return bytes(out)


def huffman_decompress(container: bytes) -> bytes:
    """Inverse of huffman_compress."""
    if len(container) < _HEADER.size:
        raise BadMagic("container shorter than its fixed header")
    magic, original_len = _HEADER.unpack_from(container)
    if magic != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, got {magic!r}")
    stream = memoryview(container)[_HEADER.size :]
    if original_len > 8 * len(stream):
        raise Truncated(f"{original_len} bytes cannot come from a {8 * len(stream)}-bit stream")
    inflater = zlib.decompressobj(-15)
    try:  # one byte more than declared, which a longer stream fills
        out = inflater.decompress(stream, original_len + 1)
    except zlib.error as exc:
        raise CorruptTable(f"not a Deflate stream: {exc}") from None
    if not inflater.eof and len(out) <= original_len:
        raise Truncated(f"stream ends after {len(out)} of {original_len} bytes, before its final block")
    if inflater.unused_data or len(out) != original_len:
        raise CorruptTable(f"stream does not end after exactly {original_len} bytes")
    return out
