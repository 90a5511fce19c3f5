"""Telemetry overhead: disabled instrumentation must be (nearly) free.

Two guards around the telemetry layer's core promise:

* ``bench_telemetry`` — a tracked benchmark (gated through
  ``reference_timings.json``) running a small ``jitter_versus_length``
  campaign with telemetry in its default state (null sink, live
  registry), so a future change that makes the instrumented hot paths
  expensive trips the CI regression gate;
* ``test_null_sink_overhead_is_small`` — a direct A/B: the same run
  with the layer fully disabled (``all_disabled()`` — null sink *and*
  write-discarding registry) versus the default path, asserting the
  default adds less than 5%.

Timing ratios on shared runners are noisy, so the A/B takes the best of
several repetitions per side and allows a few attempts before failing.

The A/B is a plain test (no ``benchmark`` fixture) so
``--benchmark-only`` runs skip it; CI invokes this file explicitly.
"""

from __future__ import annotations

import time

from repro.core.characterization import jitter_versus_length
from repro.fpga.board import Board
from repro.telemetry import all_disabled

_LENGTHS = (4, 8, 16)
_PERIODS = 512


def _small_run() -> None:
    jitter_versus_length(
        Board(),
        _LENGTHS,
        "str",
        period_count=_PERIODS,
        seed=0,
    )


def _best_of(repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _small_run()
        best = min(best, time.perf_counter() - start)
    return best


def bench_telemetry(benchmark):
    benchmark.pedantic(_small_run, rounds=1, iterations=1)


def test_null_sink_overhead_is_small():
    _small_run()  # warm-up: imports, calibration caches
    ratio = float("inf")
    for _ in range(3):
        with all_disabled():
            baseline_s = _best_of(3)
        enabled_s = _best_of(3)
        ratio = enabled_s / baseline_s
        print(
            f"\ndisabled {baseline_s:.3f}s  null-sink {enabled_s:.3f}s  "
            f"ratio {ratio:.3f}"
        )
        if ratio < 1.05:
            break
    assert ratio < 1.05, (
        f"null-sink telemetry adds {(ratio - 1):.1%} to the hot path "
        "(must stay under 5%)"
    )
