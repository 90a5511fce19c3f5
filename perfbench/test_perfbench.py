"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` from the root.

They run short in-process passes of the workloads (a few claims, a few
hundred requests), so they take well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402

#: Fast claims that still drive the event engine (C1, C6) and one that
#: fails deterministically under the gate-jitter injection (EXT-FAILOVER).
SHORT_CLAIMS = ["C1", "C6", "EXT-FAILOVER"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    value, percentile, beyond = run.tail(values)
    assert (value, beyond) == (89.0, 10)
    assert percentile == pytest.approx(90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_importtime_sums_self_time_per_package():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:      1000 |       1000 |   numpy.core",
            "import time:       500 |       1500 | numpy",
            "import time:      2000 |       2000 |     scipy.stats",
            "import time:       250 |       2250 |   repro.core",
            "unrelated line",
        ]
    )
    assert run.importtime_ms(text) == {"numpy": 1.5, "scipy": 2.0, "repro": 0.25}


def test_injected_regression_lands_in_fail_share(tmp_path):
    workload = worker.ClaimsQuick(
        0, 1, tmp_path, claim_ids=SHORT_CLAIMS, overrides={"sigma_g_scale": 2.0}
    )
    workload.prepare()
    try:
        record = worker.timed_pass(workload)
    finally:
        workload.close()
    assert record["attempted"] == len(SHORT_CLAIMS)
    assert record["failed"] >= 1
    assert "EXT-FAILOVER" in " ".join(record["extras"]["failed_checks"])
    assert record["errors"] == []  # a failed verdict is counted, not an output error


def _traced_counts(workload, out_dir):
    record = worker.traced_pass(workload, out_dir, "test")
    layers = tracing.layer_metrics(record.pop("tracer"), record, 1.0, 1.0)
    return {
        name: layers[name]
        for name in (
            "sim.event_events",
            "sim.event_calls",
            "serve.pool.blocks_total",
            "telemetry.gauge_sets_per_block",
        )
    }, record


def test_exact_counts_repeat_at_a_fixed_seed(tmp_path):
    counts = []
    for attempt in range(2):
        claims = worker.ClaimsQuick(7, 1, tmp_path, claim_ids=SHORT_CLAIMS[:2])
        serve = worker.ServeMix(7, 1, tmp_path)
        try:
            claim_counts, claim_record = _traced_counts(claims, tmp_path)
            serve_counts, serve_record = _traced_counts(serve, tmp_path)
        finally:
            claims.close()
            serve.close()
        assert claim_record["errors"] == [] and serve_record["errors"] == []
        counts.append((claim_counts, serve_counts))
    (claims_first, serve_first), (claims_second, serve_second) = counts
    assert claims_first["sim.event_events"] > 0
    assert serve_first["serve.pool.blocks_total"] > 0
    assert serve_first["telemetry.gauge_sets_per_block"] > 0
    assert claims_first == claims_second
    assert serve_first == serve_second
    # the serving path never touches the simulation engine
    assert serve_first["sim.event_events"] == serve_first["sim.event_calls"] == 0


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_run"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def test_times_are_normalised_to_the_local_reference_speed():
    # Samples: nominal speed for the first second, twice as slow from
    # t=10 s on; each sample takes 1 ms.
    nominal = hostspeed.REF_NOMINAL_MS
    samples = [(t, t + 0.001, nominal) for t in (0.0, 0.25, 0.5, 0.75)]
    samples += [(t, t + 0.001, 2 * nominal) for t in (10.0, 10.25, 10.5, 10.75)]
    speed = hostspeed.HostSpeed(samples)
    # the samples' own time is left out, raw and normalised
    assert speed.busy_s(0.1, 0.9) == pytest.approx(0.8 - 0.003)
    assert speed.normalised_s(0.1, 0.9) == pytest.approx(0.8 - 0.003)
    assert speed.normalised_s(10.1, 10.9) == pytest.approx((0.8 - 0.003) / 2)
    # an interval with too few samples inside takes the nearest ones
    assert speed.normalised_s(10.9, 11.1) == pytest.approx(0.1)


def test_sampler_interleaves_the_reference_loop():
    sampler = hostspeed.HostSampler()
    sampler.start()
    try:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 5
    assert all(end > start and ms > 0 for start, end, ms in sampler.samples)
