"""rdhkit benchmark: closed-loop hide/reveal round trips on seeded workloads.

    python3 bench/run.py --workload image-1k --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

One process, one thread, one caller: the next round trip starts only after
the previous one returned.  A round trip is a hide (decode the cover file,
hide, encode the marked file) followed by a reveal of that output (decode,
reveal, encode the recovered cover).  Every reveal is checked bit-exact
against the secret and the cover file.

``--trace 0`` measures the end-to-end metrics untraced, with each timing
taken to reference speed by a kernel timed next to it (see calibration.py),
because the shared host's speed moves by up to 1.7x.  ``--trace 1``
alternates untraced and traced round trips and reports self time per layer
(see spans.py); the spans are also written to ``.bench_out/``.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See README.md for what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import calibration
import ops
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 7
STRETCHES = 10  # roundtrips_per_s is the median rate over this many parts of the loop
SPEED_WINDOW = 5  # kernel passes whose median sets the speed scale of a timing

END_TO_END = {
    "hide_p50_ms": "ms",
    "reveal_p50_ms": "ms",
    "roundtrips_per_s": "1/s",
    "setup_s": "s",
    "peak_alloc_mb": "MB",
}

# Span names.  "<name>.ms" reports self time; the glue layers' self time is "<name>.self_ms".
TIMED_LAYERS = [
    "blowfish.ctr", "blowfish.key_schedule", "aes.encrypt", "aes.decrypt",
    "huffman.compress", "huffman.decompress", "histshift.plan", "histshift.embed",
    "histshift.extract", "pipeline.reserve", "pipeline.recover",
    "pipeline.max_embeddable", "metrics.psnr", "netpbm.load", "netpbm.save",
    "video.parse", "video.write",
]
GLUE_LAYERS = ["pipeline.hide", "pipeline.reveal", "video.hide", "video.reveal"]
COUNTED_LAYERS = ["blowfish.ctr", "blowfish.key_schedule", "histshift.plan", "pipeline.max_embeddable"]

PER_LAYER = {
    **{f"{name}.ms": "ms" for name in TIMED_LAYERS},
    **{f"{name}.self_ms": "ms" for name in GLUE_LAYERS},
    **{f"{name}.calls": "count" for name in COUNTED_LAYERS},
    "blowfish.ctr.mb_per_s": "MB/s",
    "aes.ms_per_kb": "ms/KB",
    "huffman.ratio": "ratio",
    "trace.roundtrip.ms": "ms",
    "trace.unwrapped.ms": "ms",
    "trace.overhead_frac": "frac",
}


class Tally:
    """Operations attempted and failed; a hide and a reveal are one operation each."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed == 1:  # the first failure explains the rest
            print(f"bench: {what}", file=sys.stderr)


def roundtrip(inputs: workloads.Inputs, tally: Tally):
    """Hide then reveal once.  Returns (hide_ns, reveal_ns, marked, psnr), or
    None after counting a failure: an exception, or output that is not bit-exact."""
    hide, reveal = ops.OPS[inputs.kind]
    tally.attempted += 1
    try:
        t0 = perf_counter_ns()
        marked, psnr = hide(inputs.cover, inputs.secret)
        hide_ns = perf_counter_ns() - t0
    except Exception:
        tally.fail("hide raised\n" + traceback.format_exc())
        return None
    tally.attempted += 1
    try:
        t0 = perf_counter_ns()
        secret, restored = reveal(marked)
        reveal_ns = perf_counter_ns() - t0
    except Exception:
        tally.fail("reveal raised\n" + traceback.format_exc())
        return None
    if secret != inputs.secret or restored != inputs.cover:
        tally.fail("reveal did not return the secret and the cover bit-exactly")
        return None
    return hide_ns, reveal_ns, marked, psnr


def speed_scale(kernel_ns: list[int]) -> float:
    """Factor that takes a wall time measured now to reference speed: the
    reference kernel time over the median of the last SPEED_WINDOW kernel passes."""
    return calibration.REFERENCE_NS / statistics.median(kernel_ns[-SPEED_WINDOW:])


def cold_start_s(inputs: workloads.Inputs, tally: Tally) -> float:
    """Seconds, at reference speed, from spawning a fresh interpreter to its
    exit after one round trip.  The kernel runs SPEED_WINDOW times before and
    after the child, and the median of those passes sets the scale."""
    payload = b"%s\n%d\n" % (inputs.kind.encode(), len(inputs.secret)) + inputs.secret + inputs.cover
    tally.attempted += 2
    kernel = [calibration.kernel_ns() for _ in range(SPEED_WINDOW)]
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py")],
        input=payload,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=120,
    )
    elapsed = perf_counter() - start
    kernel += [calibration.kernel_ns() for _ in range(SPEED_WINDOW)]
    if proc.returncode != 0:
        tally.fail("cold-start round trip failed\n" + proc.stderr.decode(errors="replace"))
    return elapsed * calibration.REFERENCE_NS / statistics.median(kernel)


def peak_alloc_mb(inputs: workloads.Inputs, tally: Tally) -> float:
    """tracemalloc peak over one round trip, in MB (1e6 bytes); untimed."""
    tracemalloc.start()
    try:
        roundtrip(inputs, tally)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def tail_percentile(samples: int) -> int | None:
    """p90, or the highest whole percentile with ten samples beyond it when a run
    holds fewer than 100; None when that would not be above the median."""
    pct = min(90, 100 * (samples - 10) // samples)
    return pct if pct > 50 else None


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def throughput(roundtrip_ms: list[float]) -> float:
    """Round trips per second at reference speed: the median rate over
    STRETCHES groups of equally many consecutive round trips, so that a burst
    of load from outside this process in one part of the loop does not set
    the figure."""
    size = max(1, len(roundtrip_ms) // STRETCHES)
    groups = [roundtrip_ms[i : i + size] for i in range(0, len(roundtrip_ms) - size + 1, size)]
    return statistics.median(size * 1e3 / sum(group) for group in groups)


def end_to_end(inputs: workloads.Inputs, seconds: float, tally: Tally):
    """Untraced metrics; returns (metrics, notes for the report).  Timings are
    at reference speed (see calibration.py): each round trip is preceded by one
    pass of the reference kernel."""
    setup = [cold_start_s(inputs, tally) for _ in range(SETUP_REPEATS)]
    peak = peak_alloc_mb(inputs, tally)
    kernel = [calibration.kernel_ns() for _ in range(SPEED_WINDOW - 1)]
    hide_ms, reveal_ms, roundtrip_ms, wall_hide_ms, wall_reveal_ms = [], [], [], [], []
    psnr = None
    start = perf_counter()
    while not roundtrip_ms or perf_counter() - start < seconds:
        kernel.append(calibration.kernel_ns())
        t0 = perf_counter_ns()
        done = roundtrip(inputs, tally)
        wall_ns = perf_counter_ns() - t0
        scale = speed_scale(kernel)
        roundtrip_ms.append(wall_ns * scale / 1e6)
        if done:
            hide_ms.append(done[0] * scale / 1e6)
            reveal_ms.append(done[1] * scale / 1e6)
            wall_hide_ms.append(done[0] / 1e6)
            wall_reveal_ms.append(done[1] / 1e6)
            psnr = done[3]
    if not hide_ms:
        return None, {}
    metrics = {
        "hide_p50_ms": statistics.median(hide_ms),
        "reveal_p50_ms": statistics.median(reveal_ms),
        "roundtrips_per_s": throughput(roundtrip_ms),
        "setup_s": statistics.median(setup),
        "peak_alloc_mb": peak,
    }
    notes = {
        "samples": len(hide_ms),
        "machine_speed": f"{calibration.REFERENCE_NS / statistics.median(kernel):.4f} x reference",
        "hide_p50_wall_ms": f"{statistics.median(wall_hide_ms):.6g} ms",
        "reveal_p50_wall_ms": f"{statistics.median(wall_reveal_ms):.6g} ms",
    }
    pct = tail_percentile(len(hide_ms))
    if pct:
        notes[f"hide_p{pct}_ms"] = f"{nearest_rank(hide_ms, pct):.6g} ms"
        notes[f"reveal_p{pct}_ms"] = f"{nearest_rank(reveal_ms, pct):.6g} ms"
    notes |= {
        "failed_frac": f"{tally.failed / tally.attempted:g} frac",
        "psnr_db": "n/a" if psnr is None else f"{psnr:.4f} dB",
    }
    return metrics, notes


def traced(inputs: workloads.Inputs, seconds: float, tally: Tally, spans_path: Path):
    """Alternate untraced and traced round trips; returns (per-layer metrics, notes)."""
    tracer = spans.Tracer()
    kernel = [calibration.kernel_ns() for _ in range(SPEED_WINDOW)]
    plain_ms, traced_ms = [], []
    rounds = 0
    start = perf_counter()
    while rounds < 2 or perf_counter() - start < seconds:
        if rounds % 2:
            with tracer.installed(), tracer.roundtrip(rounds // 2):
                done = roundtrip(inputs, tally)
            samples = traced_ms
        else:
            done = roundtrip(inputs, tally)
            samples = plain_ms
        rounds += 1
        if done:
            samples.append((done[0] + done[1]) / 1e6)
    kernel += [calibration.kernel_ns() for _ in range(SPEED_WINDOW)]
    tracer.write(spans_path)
    if not (plain_ms and traced_ms):
        return None, {}
    t = spans.totals(tracer.spans)
    n = t.roundtrips

    def ms(name):
        return t.self_ns.get(name, 0) / n / 1e6

    ctr_ns = t.self_ns.get("blowfish.ctr", 0)
    aes_ns = t.self_ns.get("aes.encrypt", 0) + t.self_ns.get("aes.decrypt", 0)
    aes_kb = (t.nbytes.get("aes.encrypt", 0) + t.nbytes.get("aes.decrypt", 0)) / 1024
    metrics = {
        **{f"{name}.ms": ms(name) for name in TIMED_LAYERS},
        **{f"{name}.self_ms": ms(name) for name in GLUE_LAYERS},
        **{f"{name}.calls": t.calls.get(name, 0) / n for name in COUNTED_LAYERS},
        "blowfish.ctr.mb_per_s": t.nbytes.get("blowfish.ctr", 0) * 1e3 / ctr_ns if ctr_ns else 0.0,
        "aes.ms_per_kb": aes_ns / 1e6 / aes_kb if aes_kb else 0.0,
        "huffman.ratio": t.nbytes.get("huffman.compress", 0)
        / t.calls.get("huffman.compress", 1)
        / len(inputs.secret),
        "trace.roundtrip.ms": t.root_ns / n / 1e6,
        "trace.unwrapped.ms": ms(spans.ROOT),
        "trace.overhead_frac": statistics.median(traced_ms) / statistics.median(plain_ms) - 1,
    }
    notes = {
        "traced_roundtrips": n,
        "untraced_roundtrips": len(plain_ms),
        # per-layer times are wall time, not taken to reference speed
        "machine_speed": f"{calibration.REFERENCE_NS / statistics.median(kernel):.4f} x reference",
        "spans": str(spans_path),
    }
    return metrics, notes


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "git": git_revision(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One workload run.  Returns (result object for the last line, report dict)."""
    inputs = workloads.build(name, seed, tiny)
    tally = Tally()
    warm = roundtrip(inputs, tally)  # lets lazy set-up finish before timing
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "hide_sha256": hashlib.sha256(warm[2]).hexdigest() if warm else None,
    }
    if trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        metrics, notes = traced(inputs, seconds, tally, out_dir / f"spans-{name}-seed{seed}.jsonl")
        units = PER_LAYER
    else:
        metrics, notes = end_to_end(inputs, seconds, tally)
        units = END_TO_END
    report.update(notes)
    result = {
        "correct": tally.failed == 0 and metrics is not None,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()} if metrics else {},
    }
    return result, report


def print_table(result: dict, report: dict) -> None:
    print(f"== {report['workload']}  seed={report['seed']}  seconds={report['seconds']}"
          f"  trace={report['trace']}")
    for key, value in report.items():
        if key not in ("workload", "seed", "seconds", "trace"):
            print(f"   {key}: {value}")
    for key, metric in result["metrics"].items():
        print(f"   {key:<32} {metric['value']:>14.6g}  {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result, report = run(name, args.seed, args.seconds, bool(args.trace))
        print_table(result, report)
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:  # one line for all workloads, metrics prefixed by workload
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}/{k}": v for n, r in results for k, v in r["metrics"].items()},
        }
    if not final["metrics"]:
        print("bench: no operation succeeded, nothing to report", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
