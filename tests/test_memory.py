"""Working memory of the host-plane kernels, traced with tracemalloc.

Covers grow to HD frames and large images, so each kernel may hold only a
few bytes per host sample beyond its inputs: none may widen a uint8 plane
to 8-byte indices (np.bincount, np.take, np.flatnonzero) or square it in a
full-size int16 copy.  The bounds are bytes per sample of a 2^20-sample
plane, the kernel's result included; a plane shifted in place is an input.  The cover keystream is bounded the
same way, per byte of a 2^20-byte buffer: its result plus chunk-sized
scratch, and no buffer that grows with the input besides the result.

The Huffman decoder may hold its result and the buffers zlib inflates into,
and beyond them a fixed amount: zlib's window and decode tables, never state
per stream byte.

AES-CBC encryption may hold its padded input, the one buffer it appends
ciphertext blocks to (or libgcrypt writes them into) and the bytes it
returns, and no object per block, on either path.

A whole file round trip (read, hide, write, read, reveal, write) is bounded
per byte of its input file: beyond the input it must hold the marked file,
the restored cover and the writer's join, and nothing else cover-sized, nor
a host plane beside the unit it restores.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_cover
from rdhkit import aes, metrics, netpbm, pipeline, video
from rdhkit.blowfish import _python_key_schedule, bf_ctr_transform, bf_key_schedule
from rdhkit.histshift import count_values, hs_embed, hs_extract, plan_hs
from rdhkit.huffman import huffman_compress, huffman_decompress
from rdhkit.pipeline import max_embeddable_bits, recover_plane, reserve_room_plane

N = 1 << 20


@pytest.fixture(scope="module")
def host():
    rng = np.random.default_rng(6)
    plane = np.clip(np.rint(rng.normal(128, 6, N)), 0, 255).astype(np.uint8)
    hist = count_values(plane)
    peak, zero = plan_hs(hist)
    bits = rng.integers(0, 2, np.count_nonzero(plane == peak), dtype=np.uint8)
    frame_bits = max_embeddable_bits(plane, hist) // 2
    marked = plane.copy()
    hs_embed(marked, bits, peak, zero)
    return SimpleNamespace(
        plane=plane,
        hist=hist,
        bits=bits,
        peak=peak,
        zero=zero,
        marked=marked,
        frame_bits=frame_bits,
        reserved=reserve_room_plane(plane, frame_bits, hist),
        other=plane ^ rng.integers(0, 2, N, dtype=np.uint8),
        state=bf_key_schedule(b"memory bound key"),
        numpy_state=_python_key_schedule(b"memory bound key"),
    )


def _peak_bytes(fn) -> int:
    """tracemalloc peak while fn runs, above what was allocated before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


KERNELS = {  # name: (bound in bytes per sample, the call)
    "count_values": (5, lambda h: count_values(h.plane)),
    # the shifts write the plane in place and hold one one-byte mask at a time:
    # the mask (1) plus the marked values (embed, 0.066) or the carried bits and
    # one scan step's temporaries (extract); a second plane-sized mask alive
    # beside the first, or a result plane, would cross each bound
    "hs_embed": (1.2, lambda h: hs_embed(h.plane, h.bits, h.peak, h.zero)),
    "hs_extract": (1.2, lambda h: hs_extract(h.marked, h.peak, h.zero, h.bits.size)),
    # the one plane copy it returns (1) plus hs_embed's region-B mask; one more
    # plane-sized buffer would cross it
    "reserve_room_plane": (2.2, lambda h: reserve_room_plane(h.plane, h.frame_bits, h.hist)),
    # restored in place: only hs_extract's region-B mask is plane-sized; a
    # result plane beside it would read 2.0
    "recover_plane": (1.1, lambda h: recover_plane(h.reserved, h.frame_bits)),
    "max_embeddable_bits": (1, lambda h: max_embeddable_bits(h.plane, h.hist)),
    "mse": (1, lambda h: metrics.mse(h.plane, h.other)),
    # the numpy keystream: the result (1), four 16K-block word buffers (0.25)
    # and ndarray.take's intp copy of one index (0.125) read 1.375; a chunk's
    # counters come from a transient arange freed before its first gather, and
    # one more chunk-sized word array held beside them (0.0625) would cross
    # 1.43.  The nonce's low word carries in the first chunk
    "bf_ctr_transform": (1.43, lambda h: bf_ctr_transform(h.numpy_state, 0xFFFFFF00, h.plane)),
    # the libgcrypt keystream: the result (1) alone, written by the library
    # straight from the input; a keystream buffer or a counter array beside it
    # would cross 1.05
    "bf_ctr_transform_libgcrypt": (
        1.05,
        lambda h: bf_ctr_transform(_libgcrypt(h.state), 0xFFFFFF00, h.plane),
    ),
}


def _libgcrypt(state):
    if state._cipher is None:
        pytest.skip("libgcrypt's Blowfish is not bound on this platform")
    return state


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_peak_memory_per_sample(host, name):
    bound, kernel = KERNELS[name]
    # the in-place kernels write their plane, so each call gets copies, made before tracing
    fresh = SimpleNamespace(
        **{k: v.copy() if isinstance(v, np.ndarray) else v for k, v in vars(host).items()}
    )
    used = _peak_bytes(lambda: kernel(fresh)) / N
    assert used <= bound, f"{name} held {used:.2f} bytes per sample, bound {bound}"


KEYS = pipeline.StegoKeys(bytes(range(16)), b"memory bound key", 0x0123456789ABCDEF)
IV = bytes(16)


def _ppm_round_trip(data: bytes, secret: bytes) -> bytes:
    marked = netpbm.save_ppm(
        pipeline.hide(netpbm.load_ppm(data)[0], secret, KEYS, iv=IV).image, KEYS.nonce
    )
    return netpbm.save_ppm(pipeline.reveal(netpbm.load_ppm(marked)[0], KEYS)[1])


def _y4m_round_trip(data: bytes, secret: bytes) -> bytes:
    marked = video.write_y4m(video.video_hide(video.parse_y4m(data), secret, KEYS, iv=IV))
    return video.write_y4m(video.video_reveal(video.parse_y4m(marked), KEYS)[1])


def _qcif_clip(rng, nframes: int) -> bytes:
    width, height = 176, 144
    frames = []
    for _ in range(nframes):
        y = np.full(width * height, 60, np.uint8)
        y[rng.random(y.size) < 0.03] = 61
        frames.append(np.concatenate((y, rng.integers(0, 256, y.size // 2, dtype=np.uint8))))
    params = [b"W176", b"H144", b"F25:1", b"C420"]
    return video.write_y4m(video.Y4mVideo(params, frames, [b""] * nframes))


@pytest.mark.parametrize("container", ["ppm", "ppm-long-frame", "y4m"])
def test_round_trip_peak_memory_per_input_byte(container):
    # three cover-sized buffers read 3.0-3.03; a copy made by either reader,
    # or a second host plane held while a PPM's host is restored (3.14), would
    # cross the bound, and so would hs_extract's scan of the long frame
    # (79,496 bits) in 64K-sample steps (3.07)
    rng = np.random.default_rng(8)
    secret = rng.bytes(1024)
    if container == "ppm":
        data, round_trip = netpbm.save_ppm(make_cover(rng, 512, 512)), _ppm_round_trip
    elif container == "ppm-long-frame":
        secret = rng.choice(np.frombuffer(b"abcdefghijklmnopqrstuvwxyz ", np.uint8), 16384).tobytes()
        data, round_trip = netpbm.save_ppm(make_cover(rng, 512, 512)), _ppm_round_trip
    else:
        data, round_trip = _qcif_clip(rng, 12), _y4m_round_trip
    assert round_trip(data, secret) == data
    used = _peak_bytes(lambda: round_trip(data, secret)) / len(data)
    assert used <= 3.05, f"a {container} round trip held {used:.2f}x its input, bound 3.05"


def test_huffman_decompress_holds_its_output_and_one_chunk_of_tables():
    # 256 KB secrets: every byte value 1,024 times, which goes out as stored
    # blocks, and 200 values, a dynamic block.  Beyond its output and the
    # buffers zlib fills it, the decoder holds zlib's inflate state: a 32 KB
    # window and its decode tables
    values = np.random.default_rng(9).permutation(np.arange(1 << 18) % 256).astype(np.uint8)
    for data, size in (values.tobytes(), 8 + (1 << 18) + 5 * 5), ((values % 200).tobytes(), None):
        container = huffman_compress(data)
        assert len(container) == size or size is None and len(container) < len(data)
        used = _peak_bytes(lambda: huffman_decompress(container)) - 2 * len(data)
        assert used <= 1 << 18, f"huffman_decompress held {used} bytes beyond its two outputs, bound 256 KiB"


def test_aes_cbc_encrypt_holds_its_padded_input_and_one_output_buffer(monkeypatch):
    # on the Python path the padded copy, the bytearray the blocks are
    # appended to and the bytes returned read 3.2 per input byte; a list of
    # 16-byte blocks joined at the end reads 10.8, and a list of column words
    # packed at the end 25.2
    monkeypatch.setattr(aes, "_native_cbc", lambda: None)
    data = np.random.default_rng(10).bytes(1 << 14)
    used = _peak_bytes(lambda: aes.aes_cbc_encrypt(data, bytes(16), bytes(16))) / len(data)
    assert used <= 4, f"aes_cbc_encrypt held {used:.2f} bytes per input byte, bound 4"


def test_libgcrypt_aes_cbc_encrypt_holds_its_padded_input_and_one_output_buffer():
    # the padded copy, the array libgcrypt writes and the bytes copied out
    # of it read 3.05-3.11 per input byte, at the Python path's bound
    if aes._native_cbc() is None:
        pytest.skip("libgcrypt's AES is not bound on this platform")
    data = np.random.default_rng(10).bytes(1 << 14)
    used = _peak_bytes(lambda: aes.aes_cbc_encrypt(data, bytes(16), bytes(16))) / len(data)
    assert used <= 4, f"aes_cbc_encrypt held {used:.2f} bytes per input byte, bound 4"
