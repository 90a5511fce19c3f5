"""Batch-kernel benchmarks: absolute cost and kernel-vs-oracle speedup.

Two layers, mirroring ``bench_parallel_smoke.py``:

* ``bench_batch_kernel`` is a tracked pytest-benchmark entry (see
  ``reference_timings.json``): one vectorized pass over a
  population of IROs and STRs sized like the Fig. 11/12 workloads —
  one 2001-edge run per ring length.
* ``test_kernel_speedup_over_oracle`` runs that same ~530k-event
  workload on the kernel and, ring by ring, on the per-event oracle
  (``simulate_reference``), checks that the two agree, and asserts the
  kernel's speedup when ``REPRO_MIN_BATCH_SPEEDUP`` is set (CI sets the
  floor).  ``--benchmark-only`` runs skip it; CI invokes this file
  explicitly.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.fpga.board import Board
from repro.rings.iro import InverterRingOscillator
from repro.rings.str_ring import SelfTimedRing
from repro.simulation.batch import (
    IROBatchSpec,
    STRBatchSpec,
    simulate_iro_batch,
    simulate_str_batch,
)

#: Periods per ring (2001 recorded edges, no warm-up).
_PERIODS = 1000


def _workload_rings():
    """(IRO, STR) lists of (ring, seed) runs, ~530k events in all."""
    board = Board()
    iros = [
        (InverterRingOscillator.on_board(board, length), index)
        for index, length in enumerate((3, 9, 25, 60))
    ]
    strs = [
        (SelfTimedRing.on_board(board, length), index)
        for index, length in enumerate((8, 16, 48, 96))
    ]
    return iros, strs


def _kernel_pass(iros, strs):
    edge_count = 2 * _PERIODS + 1
    iro = simulate_iro_batch(
        [IROBatchSpec.from_ring(ring, edge_count=edge_count, seed=seed) for ring, seed in iros]
    )
    str_ = simulate_str_batch(
        [STRBatchSpec.from_ring(ring, edge_count=edge_count, seed=seed) for ring, seed in strs]
    )
    return iro, str_


def _kernel_workload():
    """One vectorized pass sized like the figure workloads."""
    iro, str_ = _kernel_pass(*_workload_rings())
    return iro.events_processed + str_.events_processed


def bench_batch_kernel(benchmark):
    events = benchmark.pedantic(_kernel_workload, rounds=3, iterations=1)
    print(f"\nbatch kernel advanced {events} stage firings per pass")
    assert events > 500_000


def test_kernel_speedup_over_oracle():
    iros, strs = _workload_rings()
    kernel_s = float("inf")
    for _ in range(3):  # best of 3: one pass is short enough to be noisy
        start = time.perf_counter()
        iro, str_ = _kernel_pass(iros, strs)
        kernel_s = min(kernel_s, time.perf_counter() - start)
    start = time.perf_counter()
    oracle = [
        ring.simulate_reference(_PERIODS, seed=seed, warmup_periods=0).warmup_trace
        for ring, seed in iros + strs
    ]
    oracle_s = time.perf_counter() - start

    # IRO traces are bit-exact; noisy STR traces re-draw the same noise
    # process in another order, so only their statistics agree.
    for kernel_trace, oracle_trace in zip(iro.traces, oracle[: len(iros)]):
        np.testing.assert_array_equal(kernel_trace.times_ps, oracle_trace.times_ps)
    for kernel_trace, oracle_trace in zip(str_.traces, oracle[len(iros) :]):
        np.testing.assert_allclose(
            kernel_trace.mean_period_ps(), oracle_trace.mean_period_ps(), rtol=0.01
        )

    speedup = oracle_s / kernel_s if kernel_s > 0 else float("inf")
    events = iro.events_processed + str_.events_processed
    print(
        f"\n{events} events: oracle {oracle_s:.2f}s  kernel {kernel_s:.3f}s  "
        f"speedup {speedup:.1f}x"
    )
    floor = float(os.environ.get("REPRO_MIN_BATCH_SPEEDUP", "0"))
    assert speedup >= floor, f"kernel speedup {speedup:.1f}x below required {floor:g}x"
