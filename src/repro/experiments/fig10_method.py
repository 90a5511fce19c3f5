"""FIG10 — the divider-based jitter measurement method (Fig. 10, Eq. 6).

Reproduces the paper's methodological argument in three readings of the
same simulated oscillator:

* ``population`` — the true sigma of the simulated period population
  (inaccessible in hardware; our ground truth);
* ``direct`` — the naive scope reading, inflated by the scope's constant
  time-stamp error;
* ``divider`` — the Fig. 10 method: divide on-chip by 2^n, measure the
  cycle-to-cycle jitter of the slow signal, recover sigma_p via Eq. 6.

For the IRO (independent periods — the method's hypothesis) the divider
reading recovers the true value within a few percent while the direct
reading is far off.  The experiment also runs the method on an STR and
reports the deviation caused by the STR's anticorrelated periods — a
model prediction worth knowing when interpreting the paper's Fig. 12
absolute values (see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.characterization import jitter_from_trace
from repro.experiments.base import ExperimentResult
from repro.fpga.board import Board
from repro.measurement.counters import RippleDivider
from repro.rings.iro import InverterRingOscillator
from repro.rings.str_ring import SelfTimedRing


def run(
    board: Optional[Board] = None,
    iro_period_count: int = 16384,
    str_period_count: int = 8192,
    seed: int = 5,
    divider_bits: int = 7,
) -> ExperimentResult:
    """Compare the three jitter readings on an IRO and an STR."""
    board = board if board is not None else Board()
    divider = RippleDivider(bit_count=divider_bits)
    rows: List[Tuple] = []
    readings = {}
    for ring, period_count in (
        (InverterRingOscillator.on_board(board, 5), iro_period_count),
        (SelfTimedRing.on_board(board, 96), str_period_count),
    ):
        # One simulation per ring; the three instruments read the same trace.
        trace = ring.simulate(period_count, seed=seed, warmup_periods=64).trace
        for method in ("population", "direct", "divider"):
            result = jitter_from_trace(ring, trace, method, seed, divider)
            readings[(ring.name, method)] = result.sigma_period_ps
            hypothesis = ""
            if result.divider_reading is not None:
                hypothesis = "yes" if result.divider_reading.hypothesis_ok else "no"
            rows.append((ring.name, method, result.sigma_period_ps, hypothesis))

    iro_true = readings[("IRO 5C", "population")]
    iro_direct = readings[("IRO 5C", "direct")]
    iro_divider = readings[("IRO 5C", "divider")]
    str_true = readings[("STR 96C", "population")]
    str_direct = readings[("STR 96C", "direct")]
    return ExperimentResult(
        experiment_id="FIG10",
        title="Jitter measurement through the on-chip divider (Fig. 10 / Eq. 6)",
        columns=("ring", "method", "sigma_p [ps]", "c2c hypothesis ok"),
        rows=rows,
        paper_reference={
            "equation_6": "sigma_p = sigma_cc_mes / (2 sqrt(n))",
            "motivation": "direct scope readings of ps jitter are biased",
        },
        checks={
            "direct_reading_biased_iro": iro_direct > 1.15 * iro_true,
            "direct_reading_biased_str": str_direct > 1.15 * str_true,
            "divider_recovers_iro_jitter": abs(iro_divider - iro_true) < 0.15 * iro_true,
            "divider_beats_direct_on_iro": abs(iro_divider - iro_true)
            < abs(iro_direct - iro_true),
        },
        notes=(
            "Eq. 6 assumes independent successive periods; exact for the "
            "IRO.  STR periods are anticorrelated (the Charlie regulation), "
            "so the divider reading converges to the long-run diffusion "
            "rate, below the single-period sigma."
        ),
    )
