"""Calibration of the device model against the paper's Tables I and II.

Everything mechanistic in this library (event-driven Charlie dynamics,
jitter accumulation, process averaging) runs on top of a handful of
timing constants.  This module pins those constants to the paper's
measurements:

* **Nominal frequencies** (Table I, column ``Fn``) fix the LUT delay
  (200 ps), the intra-LAB hop (66 ps) and the inter-LAB hop (161 ps):
  the three IRO rows are reproduced to ~0.5 %.
* **STR nominal frequencies** then fix the length-dependent *Charlie
  penalty* — the extra per-hop delay an STR stage pays at its balanced
  operating point (``s* = 0`` implies a full ``Dcharlie`` of penalty,
  see :mod:`repro.core.temporal_model`).
* **STR voltage excursions** (Table I, column ``delta F``) fix the
  voltage sensitivity of that penalty per ring length.

The length dependence of the penalty and of its voltage sensitivity is
the paper's *token confinement* phenomenology — the one effect the
authors explicitly say their temporal model does not explain (Section
V-B).  It is therefore fitted, not derived; :class:`ConfinementModel`
holds the fit and interpolates between the anchor lengths, and
``fit_confinement_from_table1`` reproduces the fit from the published
numbers so the calibration is auditable.

Process variability (Table II) is matched by a two-layer Gaussian model
(see :mod:`repro.fpga.process`); the sigmas fitted from the two IRO rows
are exported as ``TABLE2_PROCESS``.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.fpga.device import TimingConstants
from repro.fpga.placement import place_ring
from repro.fpga.process import ProcessVariation
from repro.fpga.voltage import (
    MAX_SWEEP_VOLTAGE,
    MIN_SWEEP_VOLTAGE,
    NOMINAL_CORE_VOLTAGE,
    VoltageSensitivity,
)
from repro.units import mhz_to_period_ps


@dataclasses.dataclass(frozen=True)
class Table1Row:
    """One row of the paper's Table I."""

    kind: str  # "iro" | "str"
    stage_count: int
    nominal_frequency_mhz: float
    delta_f: float  # normalized excursion for the 0.4 V sweep


#: Paper Table I: normalized frequency excursions for a 0.4 V sweep.
TABLE1_TARGETS: Tuple[Table1Row, ...] = (
    Table1Row("iro", 5, 376.0, 0.49),
    Table1Row("iro", 25, 73.0, 0.48),
    Table1Row("iro", 80, 23.0, 0.47),
    Table1Row("str", 4, 653.0, 0.50),
    Table1Row("str", 24, 433.0, 0.44),
    Table1Row("str", 48, 408.0, 0.39),
    Table1Row("str", 64, 369.0, 0.39),
    Table1Row("str", 96, 320.0, 0.37),
)


@dataclasses.dataclass(frozen=True)
class Table2Row:
    """One row of the paper's Table II (five boards, same bitstream)."""

    kind: str
    stage_count: int
    board_frequencies_mhz: Tuple[float, ...]
    sigma_rel: float  # relative standard deviation reported by the paper


#: Paper Table II: frequencies of identical rings on five boards.
TABLE2_TARGETS: Tuple[Table2Row, ...] = (
    Table2Row("iro", 3, (654.42, 646.84, 641.56, 645.60, 642.12), 0.0079),
    Table2Row("iro", 5, (305.72, 306.44, 302.54, 304.87, 302.20), 0.0062),
    Table2Row("str", 4, (669.05, 660.06, 658.60, 659.90, 655.62), 0.0076),
    Table2Row("str", 96, (328.16, 328.54, 327.55, 328.47, 327.46), 0.0015),
)

#: Process sigmas fitted from the two IRO rows of Table II (see module doc).
TABLE2_PROCESS = ProcessVariation(global_sigma_rel=0.00157, local_sigma_rel=0.0178)

#: STR ring lengths with Table I anchors.
STR_ANCHOR_LENGTHS: Tuple[int, ...] = (4, 24, 48, 64, 96)


def mean_route_delay_ps(constants: TimingConstants, stage_count: int) -> float:
    """Mean per-hop routing delay of a sequentially placed ring."""
    placement = place_ring(stage_count, constants.lab_capacity)
    return float(
        np.mean([constants.route_delay_ps(hop) for hop in placement.hop_classes])
    )


class ConfinementModel:
    """Length-dependent Charlie penalty of balanced STRs (fitted).

    For each ring length ``L`` the model provides:

    * ``penalty_ps(L)`` — the Charlie magnitude ``Dcharlie`` at the
      balanced operating point, which is exactly the per-hop delay excess
      over the static delay (``D_hop = Ds + Dcharlie`` at ``s* = 0``);
    * ``sensitivity(L)`` — the voltage sensitivity of that penalty.

    Values between anchors are linearly interpolated; values outside the
    anchor range are clamped to the nearest anchor (there is no
    measurement to extrapolate from).
    """

    def __init__(
        self,
        lengths: Sequence[int],
        penalties_ps: Sequence[float],
        betas_per_volt: Sequence[float],
    ) -> None:
        lengths_arr = np.asarray(lengths, dtype=float)
        penalties_arr = np.asarray(penalties_ps, dtype=float)
        betas_arr = np.asarray(betas_per_volt, dtype=float)
        if not (lengths_arr.size == penalties_arr.size == betas_arr.size):
            raise ValueError("anchor arrays must have equal lengths")
        if lengths_arr.size < 1:
            raise ValueError("need at least one anchor")
        if np.any(np.diff(lengths_arr) <= 0):
            raise ValueError("anchor lengths must be strictly increasing")
        if np.any(penalties_arr < 0):
            raise ValueError("penalties must be non-negative")
        self._lengths = lengths_arr
        self._penalties = penalties_arr
        self._betas = betas_arr

    @property
    def anchor_lengths(self) -> np.ndarray:
        return self._lengths.copy()

    def penalty_ps(self, stage_count: int) -> float:
        """Charlie penalty (``Dcharlie`` at balance) for an ``L``-stage STR."""
        if stage_count < 3:
            raise ValueError(f"an STR needs at least 3 stages, got {stage_count}")
        return float(np.interp(stage_count, self._lengths, self._penalties))

    def beta_per_volt(self, stage_count: int) -> float:
        """Voltage sensitivity coefficient of the penalty."""
        if stage_count < 3:
            raise ValueError(f"an STR needs at least 3 stages, got {stage_count}")
        return float(np.interp(stage_count, self._lengths, self._betas))

    def sensitivity(self, stage_count: int) -> VoltageSensitivity:
        return VoltageSensitivity(self.beta_per_volt(stage_count))

    def provide(self, stage_count: int) -> Tuple[float, VoltageSensitivity]:
        """Penalty and sensitivity for one length (the provider signature)."""
        return self.penalty_ps(stage_count), self.sensitivity(stage_count)

    def provider(self) -> Callable[[int], Tuple[float, VoltageSensitivity]]:
        """Adapter for :class:`repro.fpga.device.DeviceTimingModel`.

        Returns the bound :meth:`provide` method rather than a local
        closure so that boards (which hold the provider through their
        timing model) remain picklable for process-pool campaign workers.
        """
        return self.provide


def _str_effective_delay_ps(
    constants: TimingConstants,
    route_ps: float,
    penalty_ps: float,
    penalty_beta: float,
    supply_v: float,
) -> float:
    """Per-hop STR delay at a supply voltage, by component."""
    lut = constants.lut_delay_ps * constants.transistor_sensitivity.delay_factor(supply_v)
    route = route_ps * constants.interconnect_sensitivity.delay_factor(supply_v)
    charlie = penalty_ps * VoltageSensitivity(penalty_beta).delay_factor(supply_v)
    return lut + route + charlie


def _str_delta_f(
    constants: TimingConstants, route_ps: float, penalty_ps: float, penalty_beta: float
) -> float:
    """Model the Table I normalized excursion of a balanced STR."""
    frequencies = {}
    for supply_v in (MIN_SWEEP_VOLTAGE, NOMINAL_CORE_VOLTAGE, MAX_SWEEP_VOLTAGE):
        delay = _str_effective_delay_ps(constants, route_ps, penalty_ps, penalty_beta, supply_v)
        frequencies[supply_v] = 1.0 / delay  # arbitrary units cancel in the ratio
    return (
        frequencies[MAX_SWEEP_VOLTAGE] - frequencies[MIN_SWEEP_VOLTAGE]
    ) / frequencies[NOMINAL_CORE_VOLTAGE]


def fit_confinement_from_table1(
    constants: TimingConstants = TimingConstants(),
    targets: Sequence[Table1Row] = TABLE1_TARGETS,
) -> ConfinementModel:
    """Fit the confinement model from the published Table I numbers.

    For each STR row:

    1. the nominal frequency fixes the total per-hop delay
       ``D_hop = 1e6 / (4 * Fn)`` (balanced STRs oscillate at
       ``T = 4 * D_hop``), hence the penalty
       ``D_hop - lut_delay - mean_route``;
    2. the normalized excursion fixes the penalty's voltage coefficient
       via a one-dimensional root find.
    """
    from scipy.optimize import brentq
    lengths = []
    penalties = []
    betas = []
    for row in targets:
        if row.kind != "str":
            continue
        route = mean_route_delay_ps(constants, row.stage_count)
        hop_delay = mhz_to_period_ps(row.nominal_frequency_mhz) / 4.0
        penalty = hop_delay - constants.lut_delay_ps - route
        if penalty <= 0.0:
            raise RuntimeError(
                f"Table I row STR {row.stage_count}C implies a non-positive "
                f"Charlie penalty ({penalty:.1f} ps); timing constants are "
                "inconsistent with the calibration targets"
            )

        def residual(beta: float, route=route, penalty=penalty, target=row.delta_f) -> float:
            return _str_delta_f(constants, route, penalty, beta) - target

        beta = float(brentq(residual, 0.0, 3.0, xtol=1e-10))
        lengths.append(row.stage_count)
        penalties.append(penalty)
        betas.append(beta)
    return ConfinementModel(lengths, penalties, betas)


@dataclasses.dataclass(frozen=True)
class CalibratedTiming:
    """The full calibrated description of the simulated device family."""

    constants: TimingConstants
    confinement: ConfinementModel
    process: ProcessVariation

    def charlie_provider(self) -> Callable[[int], Tuple[float, VoltageSensitivity]]:
        return self.confinement.provider()

    def timing_model(self):
        """Build the :class:`DeviceTimingModel` for this calibration."""
        # Imported here to avoid a cycle at module import time.
        from repro.fpga.device import DeviceTimingModel

        return DeviceTimingModel(
            constants=self.constants,
            charlie_sensitivity_provider=self.charlie_provider(),
        )


@functools.lru_cache(maxsize=1)
def cyclone_iii_calibration() -> CalibratedTiming:
    """The library's reference calibration (Cyclone III family).

    Cached: the confinement fit costs a few root finds and every
    experiment uses the same calibration.
    """
    constants = TimingConstants()
    confinement = fit_confinement_from_table1(constants)
    return CalibratedTiming(
        constants=constants,
        confinement=confinement,
        process=TABLE2_PROCESS,
    )


def summarize_calibration(calibration: CalibratedTiming) -> Dict[str, float]:
    """Human-readable snapshot of the fitted constants (for reports)."""
    summary: Dict[str, float] = {
        "lut_delay_ps": calibration.constants.lut_delay_ps,
        "intra_lab_route_ps": calibration.constants.intra_lab_route_ps,
        "inter_lab_route_ps": calibration.constants.inter_lab_route_ps,
        "gate_jitter_sigma_ps": calibration.constants.gate_jitter_sigma_ps,
        "process_global_sigma_rel": calibration.process.global_sigma_rel,
        "process_local_sigma_rel": calibration.process.local_sigma_rel,
    }
    for length in STR_ANCHOR_LENGTHS:
        summary[f"charlie_penalty_ps_L{length}"] = calibration.confinement.penalty_ps(length)
        summary[f"charlie_beta_L{length}"] = calibration.confinement.beta_per_volt(length)
    return summary
