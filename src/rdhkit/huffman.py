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
Decoding is table-driven (Moffat and Turpin, "On the Implementation of
Minimum Redundancy Prefix Codes", IEEE Trans. Commun. 45(10), 1997).  For
every bit position of the stream, numpy looks the ``_PEEK_BITS`` bits from
there up in a canonical table, out of 24-bit windows, one per stream byte,
and keeps two byte tables: the symbol of the codeword that starts at that
bit and its length.  The Python loop only chases the positions, each one's
length on from the last, and stores each position's symbol.  The tables are
built for ``_TABLE_CHUNK`` stream bytes at a time, from the byte the chase has
reached on, so the decoder holds no more than its output and one chunk's
tables however long the stream.  Length 0 marks a code longer than the peek,
which only the rarest symbols get; it is looked up length by length in the
stream itself, and may run past the chunk's end.  Lengths are bounded by the
u8 length field, so a code is at most 255 bits.  Prefixes that start no
codeword raise ``Truncated``, and a declared length that needs more symbols
than the stream has bits is rejected before any output is allocated.
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
# stream bytes per decode table build.  A build holds about 120 bytes per chunk
# byte, so a 16 KB secret decodes in 0.27 MB; 4 KB chunks decoded it only 1.2%
# faster, in 0.51 MB
_TABLE_CHUNK = 1 << 11


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
    stream = memoryview(container)[table_end:]
    # every codeword has at least one bit
    if original_len > 8 * len(stream):
        raise Truncated(f"{original_len} symbols cannot fit a {8 * len(stream)}-bit stream")
    return _decode(stream, lengths, original_len)


def _decode(stream: bytes, lengths: list[int], count: int) -> bytes:
    peek = min(max(lengths), _PEEK_BITS)
    # symbol_of[p], length_of[p]: the codeword that starts the peek p, length 0
    # where that codeword is longer than the peek or where no codeword fits.
    # In (length, symbol) order, each canonical code up to the peek long
    # starts the next 2^(peek - length) peeks from peek 0 on
    short = sorted((s for s in range(256) if 0 < lengths[s] <= peek), key=lambda s: (lengths[s], s))
    pairs = b"".join(bytes([s, lengths[s]]) * (1 << (peek - lengths[s])) for s in short)
    symbol_of, length_of = np.frombuffer(pairs.ljust(2 << peek, b"\0"), np.uint8).reshape(-1, 2).T.copy()
    long_codes = {  # (length, codeword) -> symbol, for lengths beyond the peek
        (lengths[s], code): s for s, code in enumerate(_assign_canonical(lengths)) if lengths[s] > peek
    }
    long_lengths = sorted({length for length, _ in long_codes})
    out = bytearray(count)
    pos = i = 0
    while i < count:
        if pos >= 8 * len(stream):
            raise Truncated(f"bitstream exhausted after {i} of {count} symbols")
        # tables for the bits of the chunk from pos's byte on; the chase reads
        # them at pos - base, and a read past the chunk raises IndexError
        base = pos & ~7
        steps, symbols = _chunk_tables(stream, base >> 3, peek, symbol_of, length_of)
        pos -= base
        try:
            for i in range(i, count):
                if step := steps[pos]:
                    out[i] = symbols[pos]
                    pos += step
                else:
                    out[i], step = _long_code(stream, base + pos, long_lengths, long_codes)
                    pos += step
            i = count  # every symbol decoded
        except IndexError:
            pass
        pos += base
    if pos > 8 * len(stream):
        raise Truncated(f"bitstream exhausted inside symbol {count - 1}")
    return bytes(out)


def _chunk_tables(stream: bytes, first: int, peek: int, symbol_of, length_of) -> tuple[bytes, bytes]:
    """Code length and symbol of the codeword at each bit of stream bytes first on, one chunk's worth."""
    size = min(_TABLE_CHUNK, len(stream) - first)
    tail = stream[first : first + size + 2]
    held = np.zeros(size + 2, np.intp)  # zero past the stream's end
    held[: len(tail)] = np.frombuffer(tail, np.uint8)
    window = held[:-2] << 16  # the 24 bits from each byte on
    window |= held[1:-1] << 8
    window |= held[2:]
    # one column per bit offset, in place: a broadcast shift would hold
    # buffers of its own as large as the peeks
    peeks = np.empty((size, 8), np.intp)
    for bit in range(8):
        np.right_shift(window, 24 - peek - bit, out=peeks[:, bit])
    peeks &= (1 << peek) - 1
    return length_of.take(peeks).tobytes(), symbol_of.take(peeks).tobytes()


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
