"""Working memory of the host-plane kernels, traced with tracemalloc.

Covers grow to HD frames and large images, so each kernel may hold only a
few bytes per host sample beyond its inputs: none may widen a uint8 plane
to 8-byte indices (np.bincount, np.take, np.flatnonzero) or square it in a
full-size int16 copy.  The bounds are bytes per sample of a 2^20-sample
plane, the kernel's result included.  The cover keystream is bounded the
same way, per byte of a 2^20-byte buffer: its result plus chunk-sized
scratch, and no buffer that grows with the input besides the result.

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
from rdhkit import metrics, netpbm, pipeline, video
from rdhkit.blowfish import bf_ctr_transform, bf_key_schedule
from rdhkit.histshift import hs_embed, hs_extract, plan_hs
from rdhkit.pipeline import max_embeddable_bits, recover_plane, reserve_room_plane

N = 1 << 20


@pytest.fixture(scope="module")
def host():
    rng = np.random.default_rng(6)
    plane = np.clip(np.rint(rng.normal(128, 6, N)), 0, 255).astype(np.uint8)
    peak, zero, capacity = plan_hs(plane)
    bits = rng.integers(0, 2, capacity, dtype=np.uint8)
    frame_bits = max_embeddable_bits(plane) // 2
    return SimpleNamespace(
        plane=plane,
        bits=bits,
        peak=peak,
        zero=zero,
        marked=hs_embed(plane, bits, peak, zero),
        frame_bits=frame_bits,
        reserved=reserve_room_plane(plane, frame_bits),
        out=np.empty(N, np.uint8),
        other=plane ^ rng.integers(0, 2, N, dtype=np.uint8),
        state=bf_key_schedule(b"memory bound key"),
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
    "plan_hs": (5, lambda h: plan_hs(h.plane)),
    # the shifts write over their own one-byte mask: the result (1) plus the
    # peak mask and the marked values (embed) or the carried bits (extract);
    # one more plane-sized byte array would cross each bound
    "hs_embed": (2.5, lambda h: hs_embed(h.plane, h.bits, h.peak, h.zero)),
    "hs_extract": (1.5, lambda h: hs_extract(h.marked, h.peak, h.zero, h.bits.size)),
    # given out, only the carried bits (0.066) and one 16K-sample scan step's
    # mask and carried samples (0.02) read 0.085; 64K-sample steps read 0.14
    "hs_extract_out": (
        0.1,
        lambda h: hs_extract(h.marked, h.peak, h.zero, h.bits.size, out=h.out),
    ),
    # the host kernels plus the plane copy each one returns
    "reserve_room_plane": (3.5, lambda h: reserve_room_plane(h.plane, h.frame_bits)),
    # one plane, the result, which hs_extract unshifts into (1.06); a second
    # plane-sized buffer beside it reads 2.0
    "recover_plane": (1.5, lambda h: recover_plane(h.reserved, h.frame_bits)),
    "max_embeddable_bits": (1, lambda h: max_embeddable_bits(h.plane)),
    "mse": (1, lambda h: metrics.mse(h.plane, h.other)),
    # the result (1), four 16K-block word buffers (0.25) and ndarray.take's
    # intp copy of one index (0.125) read 1.375; one more chunk-sized word
    # array (0.0625) would cross 1.43.  The nonce's low word carries in the
    # first chunk
    "bf_ctr_transform": (1.43, lambda h: bf_ctr_transform(h.state, 0xFFFFFF00, h.plane)),
}


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_peak_memory_per_sample(host, name):
    bound, kernel = KERNELS[name]
    used = _peak_bytes(lambda: kernel(host)) / N
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
    return video.write_y4m(video.Y4mVideo(width, height, "C420", params, frames, [b""] * nframes))


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
