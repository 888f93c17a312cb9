"""Span tracing for the traced run, recorded from the benchmark's own files.

rdhkit has no tracing of its own yet.  Instead, for the traced round trips
only, the public names each calling module binds (``pipeline.bf_ctr_transform``,
``video.max_embeddable_bits``, ...) are replaced by wrappers that record a
span, and are restored afterwards.  Because a wrapper sits in the caller's
namespace, each span nests inside the end-to-end call that caused it.

A span is (name, start, end, parent, roundtrip, nbytes), with times from
``perf_counter_ns``.  Spans stay in memory until the run ends.  A span's
self time is its duration minus the durations of its direct children;
calls on one thread nest strictly, so children never overlap and the self
times of one round trip sum exactly to its root span's duration.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import NamedTuple

from ops import netpbm, pipeline, video

ROOT = "roundtrip"


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int  # index into Tracer.spans, -1 for a round trip's root
    roundtrip: int
    nbytes: int  # bytes the call processed, where the layer defines it, else 0


def _data_len(args, result) -> int:  # bf_ctr_transform(state, nonce, data)
    return len(args[2])


def _first_len(args, result) -> int:
    return len(args[0])


def _result_len(args, result) -> int:
    return len(result)


# (calling module, bound name, span name, byte count of one call or None).
# bitio is not wrapped: it is called once per bit, so it counts as Huffman self time.
WRAPPED = [
    # the benchmark's own calls into the public API
    (netpbm, "load_ppm", "netpbm.load", None),
    (netpbm, "save_ppm", "netpbm.save", None),
    (pipeline, "hide", "pipeline.hide", None),
    (pipeline, "reveal", "pipeline.reveal", None),
    (video, "parse_y4m", "video.parse", None),
    (video, "write_y4m", "video.write", None),
    (video, "video_hide", "video.hide", None),
    (video, "video_reveal", "video.reveal", None),
    # payload layers
    (pipeline, "huffman_compress", "huffman.compress", _result_len),
    (pipeline, "huffman_decompress", "huffman.decompress", None),
    (video, "huffman_decompress", "huffman.decompress", None),
    (pipeline, "aes_cbc_encrypt", "aes.encrypt", _first_len),
    (pipeline, "aes_cbc_decrypt", "aes.decrypt", _first_len),
    (video, "aes_cbc_decrypt", "aes.decrypt", _first_len),
    # cover layers
    (pipeline, "bf_key_schedule", "blowfish.key_schedule", None),
    (video, "bf_key_schedule", "blowfish.key_schedule", None),
    (pipeline, "bf_ctr_transform", "blowfish.ctr", _data_len),
    (video, "bf_ctr_transform", "blowfish.ctr", _data_len),
    (pipeline, "reserve_room_plane", "pipeline.reserve", None),
    (video, "reserve_room_plane", "pipeline.reserve", None),
    (pipeline, "recover_plane", "pipeline.recover", None),
    (video, "recover_plane", "pipeline.recover", None),
    (pipeline, "plan_hs", "histshift.plan", None),
    (pipeline, "hs_embed", "histshift.embed", None),
    (pipeline, "hs_extract", "histshift.extract", None),
    (video, "max_embeddable_bits", "pipeline.max_embeddable", None),
    (pipeline, "psnr", "metrics.psnr", None),
]


class Tracer:
    """Collects spans in memory; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._roundtrip = -1

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: int, nbytes: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = Span(name, start, end, parent, self._roundtrip, nbytes)

    def wrap(self, name: str, fn, size=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open()
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                nbytes = size(args, result) if size and result is not None else 0
                self._close(sid, name, start, nbytes)

        return traced

    @contextmanager
    def roundtrip(self, rt: int):
        """Root span of one round trip; every span opened inside is its descendant."""
        self._roundtrip = rt
        sid = self._open()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, ROOT, start, 0)

    @contextmanager
    def installed(self):
        """Replace every WRAPPED name by its tracing wrapper, restoring on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in WRAPPED]
        try:
            for (mod, attr, name, size), (_, _, fn) in zip(WRAPPED, saved):
                setattr(mod, attr, self.wrap(name, fn, size))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write(self, path) -> None:
        """Dump every span as one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(list(span), separators=(",", ":")) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Per-span self time in ns: duration minus the durations of direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


class LayerTotals(NamedTuple):
    self_ns: dict  # span name -> summed self time
    calls: dict  # span name -> number of spans
    nbytes: dict  # span name -> summed bytes
    roundtrips: int
    root_ns: int  # summed root-span duration


def totals(spans: list[Span]) -> LayerTotals:
    self_ns: dict = defaultdict(int)
    calls: dict = defaultdict(int)
    nbytes: dict = defaultdict(int)
    root_ns = roundtrips = 0
    for span, own in zip(spans, self_times(spans)):
        self_ns[span.name] += own
        calls[span.name] += 1
        nbytes[span.name] += span.nbytes
        if span.parent < 0:
            roundtrips += 1
            root_ns += span.end - span.start
    return LayerTotals(self_ns, calls, nbytes, roundtrips, root_ns)
