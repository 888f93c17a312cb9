"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ops
import run
import spans
import workloads
from rdhkit import blowfish, histshift

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_inputs_follow_the_seed(name):
    assert workloads.build(name, 7, tiny=True) == workloads.build(name, 7, tiny=True)
    assert workloads.build(name, 7, tiny=True) != workloads.build(name, 8, tiny=True)


@pytest.mark.parametrize("name", NAMES)
def test_hide_output_is_deterministic(name):
    inputs = workloads.build(name, 3, tiny=True)
    tally = run.Tally()
    first, second = run.roundtrip(inputs, tally), run.roundtrip(inputs, tally)
    assert (tally.attempted, tally.failed) == (4, 0)
    assert first[2] == second[2]


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_carry_their_units(name):
    result, report = run.run(name, seed=3, seconds=0.2, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert report["failed_frac"] == "0 frac"
    assert (report["psnr_db"] == "n/a") == (name == "video-qcif")
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_timings_are_taken_to_reference_speed():
    ref = run.calibration.REFERENCE_NS
    assert run.speed_scale([ref]) == 1.0
    # a machine at half speed: only the last SPEED_WINDOW kernel passes count
    assert run.speed_scale([ref] * 10 + [2 * ref] * run.SPEED_WINDOW) == 0.5
    assert run.throughput([250.0] * 40) == pytest.approx(4.0)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    def beyond(n, pct):
        return n - math.ceil(pct / 100 * n)

    for n in range(1, 400):
        pct = run.tail_percentile(n)
        if pct is None:
            assert beyond(n, 51) < 10
        else:
            assert 50 < pct <= 90 and beyond(n, pct) >= 10
            assert pct == 90 or beyond(n, pct + 1) < 10


def test_every_span_feeds_a_layer_metric():
    wrapped = {name for _, _, name, _ in spans.WRAPPED}
    assert wrapped == set(run.TIMED_LAYERS) | set(run.GLUE_LAYERS)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run(name, tmp_path):
    inputs = workloads.build(name, 3, tiny=True)
    tally = run.Tally()
    path = tmp_path / "spans.jsonl"
    metrics, notes = run.traced(inputs, 0.2, tally, path)
    assert tally.failed == 0
    assert ops.pipeline.bf_ctr_transform is blowfish.bf_ctr_transform
    assert ops.pipeline.plan_hs is histshift.plan_hs

    assert list(metrics) == list(run.PER_LAYER)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    frames = workloads.WORKLOADS[name].tiny.get("frames", 0)
    assert metrics["pipeline.max_embeddable.calls"] == frames
    assert metrics["blowfish.key_schedule.calls"] == 2
    assert metrics["blowfish.ctr.calls"] == (2 * frames if frames else 2)

    # self times of all layers, glue included, account for the round trip
    own = sum(v for k, v in metrics.items() if k.endswith((".ms", ".self_ms")) and not k.startswith("trace."))
    assert own + metrics["trace.unwrapped.ms"] == pytest.approx(metrics["trace.roundtrip.ms"], rel=1e-9)

    recorded = [spans.Span(*json.loads(line)) for line in path.read_text().splitlines()]
    assert len({s.roundtrip for s in recorded}) == notes["traced_roundtrips"]
    for s in recorded:
        assert s.start <= s.end
        if s.parent >= 0:
            p = recorded[s.parent]
            assert p.start <= s.start and s.end <= p.end and p.roundtrip == s.roundtrip
    roots = {s.roundtrip: s for s in recorded if s.parent < 0}
    per_rt: dict = {}
    for s, t in zip(recorded, spans.self_times(recorded)):
        per_rt[s.roundtrip] = per_rt.get(s.roundtrip, 0) + t
    assert per_rt == {rt: s.end - s.start for rt, s in roots.items()}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
