"""EXT5 — restart experiments (extension; the [2]-lineage methodology).

Restarting an oscillator from the *same* initial state many times and
looking at the spread of the k-th output edge across restarts is the
classic way to separate randomness from determinism (used by the
authors' group for entropy assessment):

* the deterministic part of the trajectory is identical in every
  restart, so it drops out of the across-restart variance entirely —
  even an injected supply ripple, as long as it is restart-synchronous;
* the random part accumulates: the across-restart standard deviation of
  the n-th period boundary grows like sqrt(n).

Measured here for both rings:

* IRO 5C — accumulation rate per period = sqrt(2L) sigma_g (Eq. 4's
  random walk, observed directly);
* STR 96C — accumulation at the ring's much smaller collective
  diffusion rate: per period of the *same ~300 MHz output*, the STR
  accumulates several times less absolute phase noise — the
  length-independence dividend;
* under a restart-synchronous ripple the mean trajectory shifts but the
  spread does not: deterministic jitter carries no entropy.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.experiments.base import ExperimentResult
from repro.fpga.board import Board
from repro.rings.base import RingOscillator
from repro.rings.iro import InverterRingOscillator
from repro.rings.str_ring import SelfTimedRing
from repro.simulation.batch import (
    IROBatchSpec,
    STRBatchSpec,
    simulate_iro_batch,
    simulate_str_batch,
)
from repro.simulation.noise import SinusoidalModulation
from repro.stats.fitting import fit_power_law


def _restart_spread(
    ring: RingOscillator,
    restarts: int,
    period_count: int,
    seed: int,
    modulation=None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Across-restart mean and std of each period boundary.

    Returns (period indices, mean time, std time), using the rising-edge
    boundaries common to all restarts.
    """
    # Every restart is one ring of a single kernel batch (restart r uses
    # seed + r), exactly as separate ring.simulate calls would run it.
    edge_count = 2 * (period_count + 1) + 1
    if isinstance(ring, InverterRingOscillator):
        traces = simulate_iro_batch(
            [
                IROBatchSpec.from_ring(ring, edge_count=edge_count, seed=seed + restart)
                for restart in range(restarts)
            ],
            modulation=modulation,
        ).traces
    else:
        traces = simulate_str_batch(
            [
                STRBatchSpec.from_ring(ring, edge_count=edge_count, seed=seed + restart)
                for restart in range(restarts)
            ],
            modulation=modulation,
        ).traces
    times = np.array([trace.times_ps[: 2 * period_count : 2] for trace in traces])
    indices = np.arange(1, period_count + 1)
    return indices, times.mean(axis=0), times.std(axis=0)


def run(
    board: Optional[Board] = None,
    restarts: int = 160,
    period_count: int = 48,
    ripple_amplitude: float = 0.004,
    seed: int = 61,
) -> ExperimentResult:
    """Run restart campaigns for both rings, clean and under ripple."""
    board = board if board is not None else Board()
    iro = InverterRingOscillator.on_board(board, 5)
    str_ring = SelfTimedRing.on_board(board, 96)

    rows: List[Tuple] = []
    fits = {}
    rates = {}
    for ring in (iro, str_ring):
        indices, _mean, spread = _restart_spread(ring, restarts, period_count, seed)
        # Skip the first few boundaries (start-up transient for the STR).
        keep = indices >= 4
        fit = fit_power_law(indices[keep], spread[keep])
        fits[ring.name] = fit
        rates[ring.name] = spread[-1] / np.sqrt(period_count)
        for n in (1, 4, 16, period_count):
            position = int(np.searchsorted(indices, n))
            rows.append((ring.name, "clean", n, float(spread[position])))

    # Restart-synchronous ripple: same modulation phase every restart.
    ripple = SinusoidalModulation(amplitude=ripple_amplitude, period_ps=5e4)
    _indices, mean_clean, spread_clean = _restart_spread(
        iro, restarts, period_count, seed
    )
    _indices, mean_rippled, spread_rippled = _restart_spread(
        iro, restarts, period_count, seed, modulation=ripple
    )
    mean_shift = float(abs(mean_rippled[-1] - mean_clean[-1]))
    spread_change = float(abs(spread_rippled[-1] - spread_clean[-1]))
    rows.append(("IRO 5C", "ripple: mean shift [ps]", period_count, mean_shift))
    rows.append(("IRO 5C", "ripple: spread change [ps]", period_count, spread_change))

    sigma_g = board.calibration.constants.gate_jitter_sigma_ps
    iro_expected_rate = np.sqrt(2 * iro.stage_count) * sigma_g
    return ExperimentResult(
        experiment_id="EXT5",
        title="Restart experiments: random accumulates, deterministic repeats (extension)",
        columns=("ring", "condition", "period boundary n", "across-restart sigma [ps]"),
        rows=rows,
        paper_reference={
            "lineage": "[2]'s separation of random and deterministic jitter; "
            "the restart technique of the authors' entropy-assessment work",
            "eq4_rate": f"IRO rate sqrt(2L) sigma_g = {iro_expected_rate:.2f} ps/sqrt(T)",
        },
        checks={
            "iro_sqrt_accumulation": abs(fits["IRO 5C"].exponent - 0.5) < 0.1,
            "str_sqrt_accumulation": abs(fits["STR 96C"].exponent - 0.5) < 0.2,
            "iro_rate_matches_eq4": abs(rates["IRO 5C"] - iro_expected_rate)
            < 0.25 * iro_expected_rate,
            "str_accumulates_less_per_period": rates["STR 96C"] < 0.6 * rates["IRO 5C"],
            "deterministic_shifts_mean_not_spread": mean_shift > 5.0 * max(spread_change, 1.0),
        },
        notes=(
            f"{restarts} restarts per campaign.  Measured accumulation "
            f"rates: IRO 5C {rates['IRO 5C']:.2f} ps/sqrt(period) (Eq. 4 "
            f"predicts {iro_expected_rate:.2f}), STR 96C "
            f"{rates['STR 96C']:.2f}.  A restart-synchronous ripple moved "
            f"the mean boundary by {mean_shift:.1f} ps while the spread "
            f"changed by only {spread_change:.2f} ps — deterministic "
            "jitter repeats, so it contributes no entropy."
        ),
    )
