"""Working memory of the host-plane kernels, traced with tracemalloc.

Covers grow to HD frames and large images, so each kernel may hold only a
few bytes per host sample beyond its inputs: none may widen a uint8 plane
to 8-byte indices (np.bincount, np.take, np.flatnonzero) or square it in a
full-size int16 copy.  The bounds are bytes per sample of a 2^20-sample
plane, the kernel's result included.  The cover keystream is bounded the
same way, per byte of a 2^20-byte buffer: its result plus chunk-sized
scratch, and no buffer that grows with the input besides the result.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from rdhkit import metrics
from rdhkit.blowfish import bf_ctr_transform, bf_key_schedule
from rdhkit.histshift import hs_embed, hs_extract, plan_hs
from rdhkit.pipeline import max_embeddable_bits

N = 1 << 20


@pytest.fixture(scope="module")
def host():
    rng = np.random.default_rng(6)
    plane = np.clip(np.rint(rng.normal(128, 6, N)), 0, 255).astype(np.uint8)
    peak, zero, capacity = plan_hs(plane)
    bits = rng.integers(0, 2, capacity, dtype=np.uint8)
    return SimpleNamespace(
        plane=plane,
        bits=bits,
        peak=peak,
        zero=zero,
        marked=hs_embed(plane, bits, peak, zero),
        other=plane ^ rng.integers(0, 2, N, dtype=np.uint8),
        state=bf_key_schedule(b"memory bound key"),
    )


def _bytes_per_sample(fn) -> float:
    """tracemalloc peak while fn runs, above what was allocated before, per sample."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / N
    finally:
        tracemalloc.stop()


KERNELS = {  # name: (bound in bytes per sample, the call)
    "plan_hs": (5, lambda h: plan_hs(h.plane)),
    "hs_embed": (5, lambda h: hs_embed(h.plane, h.bits, h.peak, h.zero)),
    "hs_extract": (5, lambda h: hs_extract(h.marked, h.peak, h.zero, h.bits.size)),
    "max_embeddable_bits": (1, lambda h: max_embeddable_bits(h.plane)),
    "mse": (1, lambda h: metrics.mse(h.plane, h.other)),
    # the result (1), four chunk-sized word buffers (0.5) and np.take's intp
    # copy of one index (0.25) read 1.75; one more chunk-sized word array
    # would cross 1.85.  The nonce's low word carries in the first chunk
    "bf_ctr_transform": (1.85, lambda h: bf_ctr_transform(h.state, 0xFFFFFF00, h.plane)),
}


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_peak_memory_per_sample(host, name):
    bound, kernel = KERNELS[name]
    used = _bytes_per_sample(lambda: kernel(host))
    assert used <= bound, f"{name} held {used:.2f} bytes per sample, bound {bound}"
