"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark's host is shared: its speed moves in steps of up to 1.7x that
last minutes, with the other tenants' load, so two runs of the same code
minutes apart can read very differently in wall time.  The end-to-end timings
are therefore reported at reference speed: each operation's wall time is
multiplied by ``REFERENCE_NS / kernel time``, where the kernel is timed right
before the operation.  A change to rdhkit moves the operation and not the
kernel, so it moves the reported figure; a change in machine speed moves both
and cancels out.  The raw wall-clock medians are printed alongside.

The kernel mixes the two kinds of work rdhkit does: pure-Python integer and
table arithmetic (as in AES, Huffman and the key schedule) and numpy array
passes (as in the vectorised Blowfish CTR, histogram shifting and PSNR).  It
does no I/O and allocates the same buffers every time.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

# The kernel's median time on the reference machine, rounded: a 2-vCPU KVM
# guest on an Intel Xeon host, CPython 3.11.7, numpy 2.4.6.  Fixed, so that
# figures from different runs and commits are in the same unit.
REFERENCE_NS = 10_000_000

_rng = np.random.default_rng(0x5EED)
_TABLE = [int(x) for x in _rng.integers(0, 2**32, 256, dtype=np.uint64)]
_WORDS = _rng.integers(0, 2**32, 100_000, dtype=np.uint32)


def _python_part() -> int:
    t = _TABLE
    x = 0x12345678
    for i in range(20_000):
        x = ((t[x & 255] + t[(x >> 8) & 255]) ^ t[(x >> 16) & 255] ^ i) & 0xFFFFFFFF
    return x


def _numpy_part() -> int:
    a = _WORDS
    for _ in range(4):
        b = (a ^ (a >> 7)) * np.uint32(2654435761)
        counts = np.bincount(b & 255, minlength=256)
        a = np.sort(b)
    return int(counts[0])


def kernel_ns() -> int:
    """Wall time of one pass of the reference kernel, in ns."""
    start = perf_counter_ns()
    _python_part()
    _numpy_part()
    return perf_counter_ns() - start
