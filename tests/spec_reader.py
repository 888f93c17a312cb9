"""A second reader of marked PPM and Y4M files, written from rdhkit's docstrings.

It imports nothing from rdhkit: the block ciphers come from the
``cryptography`` package (AES-128-CBC, and Blowfish-ECB over the big-endian
counter blocks), and the canonical-Huffman decoder and the histogram-shift
inverse are its own.  A change that moves a byte of the on-disk formats
fails here even when rdhkit's writer and reader move together, so a format
change updates this file first.
"""

import re
import struct
import zlib

import numpy as np
import pytest

Cipher = pytest.importorskip("cryptography.hazmat.primitives.ciphers").Cipher
AES = pytest.importorskip("cryptography.hazmat.primitives.ciphers.algorithms").AES
modes = pytest.importorskip("cryptography.hazmat.primitives.ciphers.modes")
Blowfish = pytest.importorskip("cryptography.hazmat.decrepit.ciphers.algorithms").Blowfish


def reveal_ppm(data: bytes, data_key: bytes, image_key: bytes) -> tuple[bytes, bytes]:
    """(secret, original raster bytes) of a PPM as the canonical writer writes it."""
    m = re.match(rb"P6\n# RDHCTR ([0-9a-f]{16})\n\d+ \d+\n255\n", data)
    raster = np.frombuffer(data, np.uint8, offset=m.end())
    secret, (restored,) = _reveal([raster], np.s_[0::3], data_key, image_key, int(m[1], 16))
    return secret, restored.tobytes()


def reveal_y4m(data: bytes, data_key: bytes, image_key: bytes) -> tuple[bytes, list[bytes]]:
    """(secret, each original frame's Y+U+V bytes) of a Y4M carrying an XRDHCTR= token."""
    header, _, body = data.partition(b"\n")
    params = header.split(b" ")[1:]
    fields = {p[:1]: p[1:] for p in params}
    width, height = int(fields[b"W"]), int(fields[b"H"])
    nonce = next(int(p[8:], 16) for p in params if p.startswith(b"XRDHCTR="))
    y = width * height
    size = 3 * y if b"C444" in params else y + 2 * (width // 2) * (height // 2)
    frames, pos = [], 0
    while pos < len(body):
        pos = body.index(b"\n", pos) + 1  # past the FRAME line
        frames.append(np.frombuffer(body, np.uint8, size, pos))
        pos += size
    secret, restored = _reveal(frames, np.s_[:y], data_key, image_key, nonce)
    return secret, [frame.tobytes() for frame in restored]


def _reveal(units, host, data_key, image_key, nonce):
    """Frames read from the encrypted hosts, unit i carrying segment i; units decrypted
    from consecutive counter runs."""
    segments, restored, counter = [], [], nonce
    for position, unit in enumerate(units):
        index, count, iv, ciphertext, frame_bits = _frame(unit[host])
        assert index == position
        segments.append(ciphertext)
        plain = unit ^ _keystream(image_key, counter, unit.size)
        counter = (counter + -(-unit.size // 8)) % 2**64
        _restore_host(plain[host], frame_bits)
        restored.append(plain)
    padded = Cipher(AES(data_key), modes.CBC(iv)).decryptor().update(
        b"".join(segments[:count])
    )
    return _huffman_decode(padded[: -padded[-1]]), restored


def _keystream(image_key: bytes, counter: int, nbytes: int) -> np.ndarray:
    blocks = np.arange(-(-nbytes // 8), dtype=np.uint64) + np.uint64(counter)  # wraps mod 2^64
    ecb = Cipher(Blowfish(image_key), modes.ECB()).encryptor()
    return np.frombuffer(ecb.update(blocks.astype(">u8").tobytes()), np.uint8)[:nbytes]


def _lsb_bytes(samples: np.ndarray) -> bytes:
    return np.packbits(samples & 1).tobytes()  # MSB first


def _frame(host: np.ndarray):
    """RDH1 | version | index u16 | count u16 | ct_len u32 | iv 16B | ciphertext | crc32."""
    magic, version, index, count, ct_len = struct.unpack(">4sBHHI", _lsb_bytes(host[:104]))
    data = _lsb_bytes(host[: 8 * (33 + ct_len)])
    assert (magic, version) == (b"RDH1", 1)
    assert zlib.crc32(data[:-4]) == int.from_bytes(data[-4:], "big")
    return index, count, data[13:29], data[29:-4], 8 * len(data)


def _restore_host(host: np.ndarray, a: int) -> None:
    """Undo the room reservation in place: side header, histogram shift, backup LSBs."""
    header = _lsb_bytes(host[a : a + 64])
    peak, zero, region_a_bits = struct.unpack(">BBI", header[:6])
    words = sum(int.from_bytes(header[i : i + 2], "big") for i in (0, 2, 4))
    while words >> 16:
        words = (words & 0xFFFF) + (words >> 16)
    assert region_a_bits == a and header[6:] == (~words & 0xFFFF).to_bytes(2, "big")
    region_b = host[a + 64 :]
    mark = peak + 1 if peak < zero else peak - 1
    carried = region_b[(region_b == peak) | (region_b == mark)][: a + 64]
    backup = (carried == mark).astype(np.uint8)  # header slots' LSBs, then region A's
    if peak < zero:
        region_b[(region_b > peak) & (region_b <= zero)] -= 1
    else:
        region_b[(region_b < peak) & (region_b >= zero)] += 1
    host[: a + 64] = (host[: a + 64] & 0xFE) | np.roll(backup, a)


def _huffman_decode(container: bytes) -> bytes:
    """HUF1 | original_len u32 | symbol_count u16 | (symbol, length) pairs | bitstream."""
    magic, original_len, count = struct.unpack_from(">4sIH", container)
    assert magic == b"HUF1"
    table = container[10 : 10 + 2 * count]
    codes, code, previous = {}, 0, 0
    for length, symbol in sorted(zip(table[1::2], table[0::2])):  # canonical order
        code <<= length - previous
        codes[length, code] = symbol
        code, previous = code + 1, length
    out, code, length = bytearray(), 0, 0
    for bit in np.unpackbits(np.frombuffer(container, np.uint8, offset=10 + 2 * count)).tolist():
        if len(out) == original_len:
            break
        code, length = code << 1 | bit, length + 1
        if (length, code) in codes:
            out.append(codes[length, code])
            code = length = 0
    assert len(out) == original_len
    return bytes(out)
