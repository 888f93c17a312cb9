"""Canonical Huffman compression for the secret payload.

The container is deliberately tiny and deterministic: a fixed header, the
code table as (symbol, length) pairs, and the packed bitstream.  Codewords
themselves are never stored; both sides rebuild them canonically from the
lengths, ordered by (length, symbol value).

Layout, all integers big-endian::

    "HUF1" | original_len u32 | symbol_count u16 | symbol_count x (symbol u8, length u8) | bitstream

The bitstream is MSB-first.  The encoder derives every byte value's codeword
from the code lengths, as the decoder does, lays the codewords out as rows of
bits and packs the rows of the whole input with ``np.packbits``.
Decoding peeks ``_PEEK_BITS`` bits at a time out of 24-bit windows, one per
stream byte, and looks the symbol and its code length up together in a
canonical table.  A code longer than the peek, which only the rarest symbols
get, is looked up length by length; lengths are bounded by the u8 length
field, so a code is at most 255 bits.  Prefixes that start no codeword raise
``Truncated``, and a declared length that needs more symbols than the stream
has bits is rejected before any output is allocated.
"""

from __future__ import annotations

import heapq
import struct

import numpy as np

from .errors import BadMagic, CorruptTable, EmptyInput, TooLarge, Truncated

MAGIC = b"HUF1"
_MAX_INPUT = 0xFFFFFFFF
_HEADER = struct.Struct(">4sIH")
_PEEK_BITS = 11  # codes up to this long decode with one table lookup
_PACK_CHUNK = 1 << 16  # symbols laid out as bit rows at a time, to bound the rows' memory


def code_lengths(freq: list[int]) -> list[int]:
    """Optimal prefix code length of each of the 256 byte values, 0 = absent.

    The merge queue is ordered by (weight, smallest symbol value contained),
    so two runs over the same input always build the same tree.  A lone
    symbol gets length 1, never 0.
    """
    present = [s for s in range(256) if freq[s] > 0]
    if not present:
        raise EmptyInput("cannot build a code for an empty frequency table")

    lengths = [0] * 256
    if len(present) == 1:
        lengths[present[0]] = 1
    # heap entries: (weight, smallest symbol, symbols); a merge deepens them all
    heap = [(freq[s], s, [s]) for s in present]
    heapq.heapify(heap)
    while len(heap) > 1:
        w1, m1, group = heapq.heappop(heap)
        w2, m2, other = heapq.heappop(heap)
        group += other
        for s in group:
            lengths[s] += 1
        heapq.heappush(heap, (w1 + w2, min(m1, m2), group))
    return lengths


def _assign_canonical(lengths: list[int]) -> list[int]:
    codes = [0] * 256
    order = sorted((s for s in range(256) if lengths[s] > 0), key=lambda s: (lengths[s], s))
    code = prev_len = 0
    for s in order:
        code <<= lengths[s] - prev_len
        codes[s] = code
        code += 1
        prev_len = lengths[s]
    return codes


def _check_kraft(lengths: list[int]) -> None:
    present = [s for s in range(256) if lengths[s] > 0]
    if len(present) < 2:
        return
    # scale by 2^max_len to stay in integers
    max_len = max(lengths[s] for s in present)
    total = sum(1 << (max_len - lengths[s]) for s in present)
    if total != 1 << max_len:
        raise CorruptTable("code lengths violate the Kraft equality")


def huffman_compress(data: bytes) -> bytes:
    """Serialized container that huffman_decompress inverts exactly."""
    if len(data) > _MAX_INPUT:
        raise TooLarge(f"input of {len(data)} bytes exceeds the 32-bit length field")
    if not data:
        return _HEADER.pack(MAGIC, 0, 0)
    lengths = code_lengths(np.bincount(np.frombuffer(data, np.uint8), minlength=256).tolist())
    table = bytes(b for s, length in enumerate(lengths) if length for b in (s, length))
    return _HEADER.pack(MAGIC, len(data), len(table) // 2) + table + _pack_codes(data, lengths)


def _pack_codes(data: bytes, lengths: list[int]) -> bytes:
    """Every byte's canonical codeword in turn, MSB first, zero-padded to a whole byte."""
    width = max(lengths)
    rows = np.zeros((256, width), np.uint8)  # row s: the bits of s's codeword
    for s, code in enumerate(_assign_canonical(lengths)):
        if lengths[s]:
            rows[s, : lengths[s]] = [int(bit) for bit in format(code, f"0{lengths[s]}b")]
    used = np.arange(width) < np.array(lengths)[:, None]
    symbols = np.frombuffer(data, np.uint8)
    chunks = (symbols[i : i + _PACK_CHUNK] for i in range(0, symbols.size, _PACK_CHUNK))
    return np.packbits(np.concatenate([rows[c][used[c]] for c in chunks])).tobytes()


def huffman_decompress(container: bytes) -> bytes:
    """Inverse of huffman_compress."""
    if len(container) < _HEADER.size:
        raise BadMagic("container shorter than its fixed header")
    magic, original_len, symbol_count = _HEADER.unpack_from(container)
    if magic != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, got {magic!r}")
    if symbol_count > 256:
        raise CorruptTable(f"symbol count {symbol_count} exceeds 256")
    table_end = _HEADER.size + 2 * symbol_count
    if len(container) < table_end:
        raise CorruptTable("container ends inside the code table")

    lengths = [0] * 256
    for i in range(symbol_count):
        sym = container[_HEADER.size + 2 * i]
        length = container[_HEADER.size + 2 * i + 1]
        if length == 0:
            raise CorruptTable(f"symbol {sym} listed with length 0")
        if lengths[sym] != 0:
            raise CorruptTable(f"symbol {sym} listed twice")
        lengths[sym] = length

    if original_len == 0:
        return b""
    if symbol_count == 0:
        raise CorruptTable("no symbols but a nonzero original length")
    _check_kraft(lengths)
    stream = container[table_end:]
    # every codeword has at least one bit
    if original_len > 8 * len(stream):
        raise Truncated(f"{original_len} symbols cannot fit a {8 * len(stream)}-bit stream")
    return _decode(stream, lengths, original_len)


def _decode(stream: bytes, lengths: list[int], count: int) -> bytes:
    peek = min(max(lengths), _PEEK_BITS)
    # lookup[p]: symbol << 8 | length of the codeword that starts the peek p,
    # 0 where that codeword is longer than the peek or where no codeword fits
    lookup = [0] * (1 << peek)
    long_codes = {}  # (length, codeword) -> symbol, for lengths beyond the peek
    for s, code in enumerate(_assign_canonical(lengths)):
        length = lengths[s]
        if length > peek:
            long_codes[length, code] = s
        elif length:
            span = 1 << (peek - length)
            lookup[code * span : (code + 1) * span] = [s << 8 | length] * span
    long_lengths = sorted({length for length, _ in long_codes})
    padded = np.frombuffer(stream + bytes(2), np.uint8).astype(np.uint32)
    window = (padded[:-2] << 16 | padded[1:-1] << 8 | padded[2:]).tolist()
    shift, mask = 24 - peek, (1 << peek) - 1
    out = bytearray(count)
    pos = 0
    try:
        for i in range(count):
            # window has one entry per stream byte: a read past the end raises IndexError
            entry = lookup[window[pos >> 3] >> (shift - (pos & 7)) & mask]
            if entry:
                out[i] = entry >> 8
                pos += entry & 0xFF
            else:
                out[i], length = _long_code(stream, pos, long_lengths, long_codes)
                pos += length
    except IndexError:
        raise Truncated(f"bitstream exhausted after {i} of {count} symbols") from None
    if pos > 8 * len(stream):
        raise Truncated(f"bitstream exhausted inside symbol {count - 1}")
    return bytes(out)


def _long_code(stream: bytes, pos: int, long_lengths: list, long_codes: dict) -> tuple[int, int]:
    """(symbol, length) of a codeword longer than the peek, tried length by length."""
    for length in long_lengths:
        end = pos + length
        if end > 8 * len(stream):
            raise Truncated("bitstream exhausted inside a codeword")
        first, last = pos >> 3, (end + 7) >> 3
        code = int.from_bytes(stream[first:last], "big") >> (8 * last - end) & ((1 << length) - 1)
        if (length, code) in long_codes:
            return long_codes[length, code], length
    raise Truncated("bit pattern matches no codeword")
