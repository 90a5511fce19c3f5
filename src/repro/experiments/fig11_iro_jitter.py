"""FIG11 — IRO period jitter vs number of stages (paper Fig. 11, Eq. 4).

Measures the period jitter of IROs from 3 to 80 stages, fits the
square-root accumulation law ``sigma_p = sqrt(2k) sigma_g`` and recovers
the single-LUT jitter ``sigma_g`` (the paper estimates ~2 ps).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.characterization import jitter_versus_length
from repro.core.jitter_model import gate_jitter_from_iro_period_jitter
from repro.experiments.base import ExperimentResult
from repro.fpga.board import Board
from repro.stats.fitting import fit_sqrt_accumulation

#: Stage counts sampled along the paper's Fig. 11 x-axis.
FIG11_LENGTHS: Tuple[int, ...] = (3, 5, 9, 15, 25, 40, 60, 80)


def run(
    board: Optional[Board] = None,
    lengths: Sequence[int] = FIG11_LENGTHS,
    period_count: int = 3000,
    seed: int = 13,
) -> ExperimentResult:
    """Reproduce the Fig. 11 jitter-vs-length curve and the sigma_g fit.

    Every length advances in one batch-kernel call (bit-identical to the
    per-event oracle for IROs).
    """
    board = board if board is not None else Board()
    results = jitter_versus_length(
        board,
        lengths,
        ring_family="iro",
        method="population",
        period_count=period_count,
        seed=seed,
    )
    rows: List[Tuple] = []
    jitters = []
    for result in results:
        implied_gate_sigma = gate_jitter_from_iro_period_jitter(
            result.sigma_period_ps, result.stage_count
        )
        jitters.append(result.sigma_period_ps)
        rows.append(
            (
                result.stage_count,
                result.frequency_mhz,
                result.sigma_period_ps,
                implied_gate_sigma,
            )
        )
    fit = fit_sqrt_accumulation(list(lengths), jitters)
    device_sigma_g = board.calibration.constants.gate_jitter_sigma_ps
    return ExperimentResult(
        experiment_id="FIG11",
        title="Period jitter of an IRO vs number of stages (Fig. 11)",
        columns=("stages k", "F [MHz]", "sigma_p [ps]", "implied sigma_g [ps]"),
        rows=rows,
        paper_reference={
            "law": "sigma_p = sqrt(2 k) sigma_g (Eq. 4)",
            "sigma_g_ps": 2.0,
        },
        checks={
            "follows_sqrt_law": fit.follows_sqrt_law,
            "gate_sigma_near_2ps": abs(fit.gate_sigma_ps - device_sigma_g)
            < 0.25 * device_sigma_g,
            "jitter_grows_with_length": jitters[-1] > 2.0 * jitters[0],
        },
        notes=(
            f"Fitted sigma_g = {fit.gate_sigma_ps:.2f} ps "
            f"(free power-law exponent {fit.free_fit.exponent:.2f}, "
            f"R^2 = {fit.free_fit.r_squared:.3f}); paper: sigma_g ~= 2 ps."
        ),
    )
