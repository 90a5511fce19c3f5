"""Claims-as-code: the paper's results as registered, executable checks.

Every headline result of the paper (C1-C7 of DESIGN.md Section 1), the
Eq. 3-5 model fits, and the EXT fault-recovery invariants exist here as
a :class:`ClaimSpec`: a declared estimator, an explicit equivalence
criterion (TOST, CI-overlap or a one-sided confidence bound from
:mod:`repro.verify.criteria` — never a bare ``abs(x - y) < eps``), and
a simulation budget per tier (``quick`` for CI, ``full`` for overnight
sweeps).

The same registry backs three consumers, which therefore always run the
*identical* checks:

* ``repro verify`` — the CLI seed-sweep flakiness runner
  (:mod:`repro.verify.runner`);
* ``tests/integration/test_paper_claims.py`` — a thin pytest adapter;
* replay bundles (:mod:`repro.verify.replay`) — one-command failure
  reproduction.

Injection hook
--------------
Every simulation-backed claim builds its board through :func:`claim_board`,
which honours a ``sigma_g_scale`` budget parameter.  Scaling the gate
jitter is the canonical *injected regression* used to validate that the
harness actually catches a broken entropy model (see
``docs/verification.md`` and ``tests/verify/test_runner.py``).
"""

from __future__ import annotations

import dataclasses
import math
import traceback
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.telemetry import default_registry, span
from repro.verify.criteria import (
    ci_overlap,
    ci_upper_bound,
    tost,
    wilson_interval,
)

#: Recognized simulation budget tiers.
TIERS = ("quick", "full")


@dataclasses.dataclass(frozen=True)
class Evidence:
    """What a check function returns: verdict, numbers, explanation."""

    passed: bool
    observed: Dict[str, Any]
    detail: str


#: A check maps (seed, resolved budget params) to evidence.
CheckFn = Callable[[int, Mapping[str, Any]], Evidence]


@dataclasses.dataclass(frozen=True)
class ClaimOutcome:
    """One execution of one claim at one seed — JSON-able end to end."""

    claim_id: str
    passed: bool
    criterion: str
    seed: int
    params: Dict[str, Any]
    observed: Dict[str, Any]
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ClaimOutcome":
        return cls(
            claim_id=str(payload["claim_id"]),
            passed=bool(payload["passed"]),
            criterion=str(payload["criterion"]),
            seed=int(payload["seed"]),
            params=dict(payload["params"]),
            observed=dict(payload["observed"]),
            detail=str(payload["detail"]),
        )


@dataclasses.dataclass(frozen=True)
class ClaimSpec:
    """A registered claim: estimator + criterion + per-tier budget."""

    claim_id: str
    title: str
    paper_ref: str
    criterion: str
    estimator: str
    tiers: Dict[str, Dict[str, Any]]
    check: CheckFn
    min_pass_rate: float = 1.0

    def params_for(self, tier: str) -> Dict[str, Any]:
        """The resolved budget parameters of one tier."""
        if tier not in self.tiers:
            raise KeyError(
                f"claim {self.claim_id} has no tier {tier!r} "
                f"(available: {sorted(self.tiers)})"
            )
        return dict(self.tiers[tier])

    def run(
        self,
        seed: int,
        tier: str = "quick",
        params: Optional[Mapping[str, Any]] = None,
        overrides: Optional[Mapping[str, Any]] = None,
    ) -> ClaimOutcome:
        """Execute the claim once.

        ``params`` (e.g. from a replay bundle) bypasses tier resolution
        entirely; otherwise the tier budget is taken and ``overrides``
        merged on top (the injection hook).  A crashing check is a
        *failed* claim, not a crashed runner: the traceback becomes the
        outcome detail so the replay bundle reproduces the error too.
        """
        resolved = dict(params) if params is not None else self.params_for(tier)
        if params is None and overrides:
            resolved.update(overrides)
        registry = default_registry()
        registry.counter("repro.verify.checks").inc()
        with span("verify_claim", claim=self.claim_id, seed=seed) as tele:
            try:
                evidence = self.check(int(seed), resolved)
            except Exception as error:  # noqa: BLE001 - reported, not swallowed
                evidence = Evidence(
                    passed=False,
                    observed={"error": repr(error)},
                    detail="check raised:\n" + traceback.format_exc(limit=8),
                )
            tele.set("passed", evidence.passed)
        registry.counter(
            "repro.verify.pass" if evidence.passed else "repro.verify.fail"
        ).inc()
        return ClaimOutcome(
            claim_id=self.claim_id,
            passed=evidence.passed,
            criterion=self.criterion,
            seed=int(seed),
            params=resolved,
            observed=evidence.observed,
            detail=evidence.detail,
        )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, ClaimSpec] = {}


def register_claim(spec: ClaimSpec) -> ClaimSpec:
    """Add a claim to the registry (module import time)."""
    if spec.claim_id in _REGISTRY:
        raise ValueError(f"duplicate claim id {spec.claim_id!r}")
    if not 0.0 < spec.min_pass_rate <= 1.0:
        raise ValueError(f"min_pass_rate must be in (0, 1], got {spec.min_pass_rate}")
    for tier in TIERS:
        if tier not in spec.tiers:
            raise ValueError(f"claim {spec.claim_id} is missing the {tier!r} tier")
    _REGISTRY[spec.claim_id] = spec
    return spec


def get_claim(claim_id: str) -> ClaimSpec:
    """Look a claim up by id (case-insensitive)."""
    key = claim_id.upper()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown claim {claim_id!r} (registered: {', '.join(all_claim_ids())})"
        )
    return _REGISTRY[key]


def all_claim_ids() -> List[str]:
    """Every registered claim id, in registration order."""
    return list(_REGISTRY)


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def claim_board(params: Mapping[str, Any]):
    """The board a claim simulates on, honouring the injection hook.

    ``sigma_g_scale != 1`` rebuilds the calibration with the per-LUT
    gate jitter scaled — the canonical seeded regression used to prove
    the harness catches a broken entropy model.
    """
    from repro.fpga.board import Board
    from repro.fpga.calibration import cyclone_iii_calibration

    scale = float(params.get("sigma_g_scale", 1.0))
    if scale == 1.0:
        return Board()
    if scale <= 0.0:
        raise ValueError(f"sigma_g_scale must be positive, got {scale}")
    calibration = cyclone_iii_calibration()
    constants = dataclasses.replace(
        calibration.constants,
        gate_jitter_sigma_ps=calibration.constants.gate_jitter_sigma_ps * scale,
    )
    return Board(calibration=dataclasses.replace(calibration, constants=constants))


def _subseeds(seed: int, count: int) -> List[int]:
    """Independent child seeds for a claim's internal repetitions."""
    from repro.parallel.seeds import spawn_seeds

    return [int(s) for s in spawn_seeds(int(seed), count)]  # type: ignore[arg-type]


def _str_sigmas(
    seed: int, params: Mapping[str, Any]
) -> Tuple[List[int], List[float]]:
    """Measured STR period jitter at each budgeted length."""
    from repro.core.characterization import jitter_versus_length

    lengths = [int(length) for length in params["lengths"]]
    results = jitter_versus_length(
        claim_board(params),
        lengths,
        "str",
        method="population",
        period_count=int(params["periods"]),
        seed=seed,
    )
    return lengths, [result.sigma_period_ps for result in results]


# ----------------------------------------------------------------------
# C1 — evenly-spaced locking
# ----------------------------------------------------------------------
def _check_c1(seed: int, params: Mapping[str, Any]) -> Evidence:
    from repro.rings.modes import OscillationMode, classify_trace
    from repro.rings.str_ring import SelfTimedRing

    board = claim_board(params)
    configs: List[Tuple[int, Optional[int]]] = [
        (int(length), None) for length in params["lengths"]
    ]
    configs += [(32, int(tokens)) for tokens in params["token_counts"]]
    seeds = _subseeds(seed, len(configs))
    locked = 0
    failures: List[str] = []
    for (length, tokens), sub in zip(configs, seeds):
        ring = SelfTimedRing.on_board(board, length, token_count=tokens)
        result = ring.simulate(
            int(params["periods"]), seed=sub, warmup_periods=int(params["warmup"])
        )
        mode = classify_trace(result.trace).mode
        if mode is OscillationMode.EVENLY_SPACED:
            locked += 1
        else:
            failures.append(f"L={length} NT={tokens or 'balanced'} -> {mode.value}")
    low, high = wilson_interval(locked, len(configs))
    return Evidence(
        passed=locked == len(configs),
        observed={
            "configurations": len(configs),
            "locked": locked,
            "lock_fraction": locked / len(configs),
            "wilson_low": low,
            "wilson_high": high,
        },
        detail=(
            f"{locked}/{len(configs)} balanced STR configurations locked evenly "
            f"spaced (Wilson 95% [{low:.2f}, {high:.2f}])"
            + (f"; failures: {', '.join(failures)}" if failures else "")
        ),
    )


register_claim(
    ClaimSpec(
        claim_id="C1",
        title="balanced STRs lock into the evenly-spaced mode",
        paper_ref="Section III / Fig. 5",
        criterion="proportion (all configurations, Wilson-reported)",
        estimator="classify_trace mode over L and NT configurations",
        tiers={
            "quick": {"lengths": (4, 16, 48), "token_counts": (10,), "periods": 96, "warmup": 32},
            "full": {
                "lengths": (4, 16, 48, 96),
                "token_counts": (10, 14, 20),
                "periods": 192,
                "warmup": 48,
            },
        },
        check=_check_c1,
    )
)


# ----------------------------------------------------------------------
# C2 — IRO sqrt(2k) jitter accumulation (Eq. 4 value)
# ----------------------------------------------------------------------
def _check_c2(seed: int, params: Mapping[str, Any]) -> Evidence:
    from repro.core.characterization import jitter_versus_length

    lengths = [int(length) for length in params["lengths"]]
    results = jitter_versus_length(
        claim_board(params),
        lengths,
        "iro",
        method="population",
        period_count=int(params["periods"]),
        seed=seed,
    )
    implied = [
        result.sigma_period_ps / math.sqrt(2.0 * length)
        for result, length in zip(results, lengths)
    ]
    decision = tost(
        implied, target=float(params["sigma_g_ps"]), margin=float(params["margin_ps"])
    )
    return Evidence(
        passed=decision.passed,
        observed={
            "lengths": lengths,
            "sigma_period_ps": [result.sigma_period_ps for result in results],
            "implied_sigma_g_ps": implied,
            "mean_sigma_g_ps": decision.mean,
            "p_lower": decision.p_lower,
            "p_upper": decision.p_upper,
        },
        detail="per-length implied sigma_g; " + decision.describe(),
    )


register_claim(
    ClaimSpec(
        claim_id="C2",
        title="IRO period jitter accumulates as sqrt(2k)*sigma_g with sigma_g ~ 2 ps",
        paper_ref="Section IV / Eq. 4 / Fig. 11",
        criterion="TOST on implied per-stage sigma_g",
        estimator="population period jitter over an IRO length sweep",
        tiers={
            "quick": {"lengths": (3, 9, 25, 60), "periods": 768, "sigma_g_ps": 2.0, "margin_ps": 0.5},
            "full": {
                "lengths": (3, 5, 9, 15, 25, 40, 60, 80),
                "periods": 2048,
                "sigma_g_ps": 2.0,
                "margin_ps": 0.35,
            },
        },
        check=_check_c2,
    )
)


# ----------------------------------------------------------------------
# C3 — STR jitter is length-independent
# ----------------------------------------------------------------------
def _check_c3(seed: int, params: Mapping[str, Any]) -> Evidence:
    from repro.stats.fitting import fit_constant

    lengths, sigmas = _str_sigmas(seed, params)
    fit = fit_constant(sigmas)
    decision = ci_overlap(
        sigmas, float(params["band_low_ps"]), float(params["band_high_ps"])
    )
    flat = fit.relative_spread < float(params["max_spread"])
    return Evidence(
        passed=decision.passed and flat,
        observed={
            "lengths": lengths,
            "sigma_period_ps": sigmas,
            "fitted_constant_ps": fit.value,
            "relative_spread": fit.relative_spread,
            "ci_low": decision.ci_low,
            "ci_high": decision.ci_high,
        },
        detail=(
            decision.describe()
            + f"; constant fit {fit.value:.3g} ps, spread {fit.relative_spread:.2f} "
            + ("(flat)" if flat else f"(NOT flat, limit {params['max_spread']})")
        ),
    )


register_claim(
    ClaimSpec(
        claim_id="C3",
        title="STR period jitter is independent of ring length",
        paper_ref="Section IV / Eq. 5 / Fig. 12",
        criterion="CI-overlap with the paper's 2-4 ps band + constant-fit flatness",
        estimator="population period jitter over an STR length sweep",
        tiers={
            "quick": {
                "lengths": (4, 32, 96),
                "periods": 640,
                "band_low_ps": 2.0,
                "band_high_ps": 4.5,
                "max_spread": 0.35,
            },
            "full": {
                "lengths": (4, 8, 16, 32, 64, 96),
                "periods": 1536,
                "band_low_ps": 2.0,
                "band_high_ps": 4.5,
                "max_spread": 0.35,
            },
        },
        check=_check_c3,
    )
)


# ----------------------------------------------------------------------
# C4 — deterministic (global) jitter is attenuated in the STR
# ----------------------------------------------------------------------
def _check_c4(seed: int, params: Mapping[str, Any]) -> Evidence:
    from repro.rings.iro import InverterRingOscillator
    from repro.rings.str_ring import SelfTimedRing
    from repro.trng.attacks import SupplyAttack, measure_deterministic_response

    board = claim_board(params)
    attack = SupplyAttack(
        delay_amplitude=float(params["amplitude"]), period_ps=float(params["ripple_ps"])
    )
    ratios: List[float] = []
    for sub in _subseeds(seed, int(params["repeats"])):
        iro = measure_deterministic_response(
            InverterRingOscillator.on_board(board, int(params["iro_length"])),
            attack,
            period_count=int(params["periods"]),
            seed=sub,
        )
        str_ = measure_deterministic_response(
            SelfTimedRing.on_board(board, int(params["str_length"])),
            attack,
            period_count=int(params["periods"]),
            seed=sub,
        )
        ratios.append(str_.relative_response / iro.relative_response)
    decision = ci_upper_bound(ratios, float(params["max_ratio"]))
    return Evidence(
        passed=decision.passed,
        observed={"response_ratios": ratios, "mean_ratio": decision.mean,
                  "upper_limit": decision.confidence_limit},
        detail="STR/IRO deterministic-response ratio; " + decision.describe(),
    )


register_claim(
    ClaimSpec(
        claim_id="C4",
        title="global deterministic jitter is strongly attenuated in STRs",
        paper_ref="Section IV-B",
        criterion="one-sided CI bound on the STR/IRO response ratio",
        estimator="quadrature-separated deterministic response under supply ripple",
        tiers={
            "quick": {
                "repeats": 3,
                "periods": 512,
                "iro_length": 5,
                "str_length": 96,
                "amplitude": 0.01,
                "ripple_ps": 2e5,
                "max_ratio": 0.85,
            },
            "full": {
                "repeats": 5,
                "periods": 1536,
                "iro_length": 5,
                "str_length": 96,
                "amplitude": 0.01,
                "ripple_ps": 2e5,
                "max_ratio": 0.85,
            },
        },
        check=_check_c4,
    )
)


# ----------------------------------------------------------------------
# C5 — STR robustness to voltage improves with length (RVV trends)
# ----------------------------------------------------------------------
def _analytic_excursion(board_factory, ring_factory, voltages) -> float:
    frequencies = {}
    for voltage in voltages:
        frequencies[voltage] = ring_factory(board_factory(voltage)).predicted_frequency_mhz()
    ordered = sorted(voltages)
    return (frequencies[ordered[-1]] - frequencies[ordered[0]]) / frequencies[ordered[1]]


def _check_c5(seed: int, params: Mapping[str, Any]) -> Evidence:
    from repro.fpga.voltage import SupplySpec
    from repro.rings.iro import InverterRingOscillator
    from repro.rings.str_ring import SelfTimedRing

    base = claim_board(params)
    voltages = tuple(float(v) for v in params["voltages"])

    def at(voltage: float):
        return base.with_supply(SupplySpec(voltage_v=voltage))

    str_4 = _analytic_excursion(at, lambda b: SelfTimedRing.on_board(b, 4), voltages)
    str_96 = _analytic_excursion(at, lambda b: SelfTimedRing.on_board(b, 96), voltages)
    iro_5 = _analytic_excursion(at, lambda b: InverterRingOscillator.on_board(b, 5), voltages)
    iro_80 = _analytic_excursion(at, lambda b: InverterRingOscillator.on_board(b, 80), voltages)
    trends = {
        "long STR beats short STR": str_96 < str_4,
        "long STR beats IRO": str_96 < iro_5,
        "IRO robustness is flat": abs(iro_80 - iro_5) < 0.02,
        "short STR no better than IRO": abs(str_4 - iro_5) < 0.05,
    }

    # The event simulation must agree with the analytic excursion: TOST
    # of measured STR-96 excursions (one per sub-seed) against str_96.
    excursions: List[float] = []
    for sub in _subseeds(seed, int(params["repeats"])):
        measured = {}
        for voltage in voltages:
            ring = SelfTimedRing.on_board(at(voltage), 96)
            measured[voltage] = ring.simulate(
                int(params["periods"]), seed=sub, warmup_periods=int(params["warmup"])
            ).trace.mean_frequency_mhz()
        ordered = sorted(voltages)
        excursions.append(
            (measured[ordered[-1]] - measured[ordered[0]]) / measured[ordered[1]]
        )
    decision = tost(excursions, target=str_96, margin=float(params["margin"]))
    failed_trends = [name for name, held in trends.items() if not held]
    return Evidence(
        passed=decision.passed and not failed_trends,
        observed={
            "excursion_str4": str_4,
            "excursion_str96": str_96,
            "excursion_iro5": iro_5,
            "excursion_iro80": iro_80,
            "measured_str96": excursions,
        },
        detail=(
            f"analytic dF: STR4 {str_4:.3f}, STR96 {str_96:.3f}, IRO5 {iro_5:.3f}, "
            f"IRO80 {iro_80:.3f}; " + decision.describe()
            + (f"; broken trends: {failed_trends}" if failed_trends else "")
        ),
    )


register_claim(
    ClaimSpec(
        claim_id="C5",
        title="STR voltage robustness improves with length; IRO robustness is flat",
        paper_ref="Section V-B / Table I",
        criterion="trend invariants + TOST of simulated vs analytic STR-96 excursion",
        estimator="normalized frequency excursion over the 1.0-1.4 V sweep",
        tiers={
            "quick": {"voltages": (1.0, 1.2, 1.4), "repeats": 2, "periods": 64, "warmup": 24, "margin": 0.03},
            "full": {"voltages": (1.0, 1.2, 1.4), "repeats": 4, "periods": 128, "warmup": 32, "margin": 0.02},
        },
        check=_check_c5,
    )
)


# ----------------------------------------------------------------------
# C6 — process dispersion shrinks with STR length at high frequency
# ----------------------------------------------------------------------
def _check_c6(seed: int, params: Mapping[str, Any]) -> Evidence:
    from repro.fpga.board import BoardBank
    from repro.rings.iro import InverterRingOscillator
    from repro.rings.str_ring import SelfTimedRing
    from repro.stats.descriptive import relative_standard_deviation

    ratios: List[float] = []
    str_freqs: List[float] = []
    for sub in _subseeds(seed, int(params["repeats"])):
        bank = BoardBank.manufacture(board_count=int(params["boards"]), seed=sub)
        iro_freqs = [
            InverterRingOscillator.on_board(b, 3).predicted_frequency_mhz() for b in bank
        ]
        s96_freqs = [SelfTimedRing.on_board(b, 96).predicted_frequency_mhz() for b in bank]
        ratios.append(
            relative_standard_deviation(s96_freqs) / relative_standard_deviation(iro_freqs)
        )
        str_freqs.append(float(np.mean(s96_freqs)))
    decision = ci_upper_bound(ratios, float(params["max_ratio"]))
    fast = min(str_freqs) > float(params["min_frequency_mhz"])
    return Evidence(
        passed=decision.passed and fast,
        observed={
            "dispersion_ratios": ratios,
            "mean_str96_frequency_mhz": float(np.mean(str_freqs)),
            "upper_limit": decision.confidence_limit,
        },
        detail=(
            "STR96/IRO3 sigma_rel ratio; " + decision.describe()
            + f"; mean STR96 frequency {np.mean(str_freqs):.0f} MHz"
            + ("" if fast else f" (BELOW the {params['min_frequency_mhz']} MHz floor)")
        ),
    )


register_claim(
    ClaimSpec(
        claim_id="C6",
        title="STR process dispersion shrinks with length without sacrificing speed",
        paper_ref="Section V-C / Table II",
        criterion="one-sided CI bound on the STR96/IRO3 dispersion ratio",
        estimator="sigma_rel over freshly manufactured board banks",
        tiers={
            "quick": {"repeats": 6, "boards": 24, "max_ratio": 0.45, "min_frequency_mhz": 300.0},
            "full": {"repeats": 10, "boards": 24, "max_ratio": 0.45, "min_frequency_mhz": 300.0},
        },
        check=_check_c6,
    )
)


# ----------------------------------------------------------------------
# C7 — the divider method recovers the true period jitter (Eq. 6)
# ----------------------------------------------------------------------
def _check_c7(seed: int, params: Mapping[str, Any]) -> Evidence:
    from repro.core.jitter_model import recover_period_jitter_from_divided
    from repro.measurement.counters import divide_periods
    from repro.rings.iro import InverterRingOscillator

    board = claim_board(params)
    ring = InverterRingOscillator.on_board(board, int(params["iro_length"]))
    division = int(params["division"])
    ratios: List[float] = []
    for sub in _subseeds(seed, int(params["repeats"])):
        trace = ring.simulate(int(params["periods"]), seed=sub).trace
        true_sigma = trace.period_jitter_ps()
        divided = divide_periods(trace.periods_ps(), division)
        sigma_cc = float(np.std(np.diff(divided), ddof=1))
        ratios.append(recover_period_jitter_from_divided(sigma_cc, division) / true_sigma)
    decision = tost(ratios, target=1.0, margin=float(params["margin"]))
    return Evidence(
        passed=decision.passed,
        observed={"recovered_over_true": ratios, "mean_ratio": decision.mean},
        detail="divider-recovered / true sigma ratio; " + decision.describe(),
    )


register_claim(
    ClaimSpec(
        claim_id="C7",
        title="the on-chip divider method recovers ps-level period jitter",
        paper_ref="Section V-D / Fig. 10 / Eq. 6",
        criterion="TOST on the recovered/true jitter ratio",
        estimator="sigma_cc of divided periods through recover_period_jitter_from_divided",
        tiers={
            "quick": {"iro_length": 9, "division": 32, "periods": 6144, "repeats": 4, "margin": 0.25},
            "full": {"iro_length": 9, "division": 32, "periods": 16384, "repeats": 6, "margin": 0.15},
        },
        check=_check_c7,
    )
)


# ----------------------------------------------------------------------
# EQ3 — the Charlie-effect temporal model predicts the simulated period
# ----------------------------------------------------------------------
def _check_eq3(seed: int, params: Mapping[str, Any]) -> Evidence:
    from repro.rings.str_ring import SelfTimedRing

    board = claim_board(params)
    lengths = [int(length) for length in params["lengths"]]
    seeds = _subseeds(seed, len(lengths))
    ratios: List[float] = []
    for length, sub in zip(lengths, seeds):
        ring = SelfTimedRing.on_board(board, length)
        predicted = ring.predicted_period_ps()
        measured = ring.simulate(
            int(params["periods"]), seed=sub, warmup_periods=int(params["warmup"])
        ).trace.mean_period_ps()
        ratios.append(measured / predicted)
    decision = tost(ratios, target=1.0, margin=float(params["margin"]))
    return Evidence(
        passed=decision.passed,
        observed={"lengths": lengths, "measured_over_predicted": ratios},
        detail="event-sim period / Eq. 3 steady-state period; " + decision.describe(),
    )


register_claim(
    ClaimSpec(
        claim_id="EQ3",
        title="the Eq. 3 Charlie steady-state model predicts the simulated STR period",
        paper_ref="Section III / Eq. 3",
        criterion="TOST on the measured/predicted period ratio",
        estimator="event-driven mean period vs solve_steady_state fixed point",
        tiers={
            "quick": {"lengths": (16, 48, 96), "periods": 96, "warmup": 32, "margin": 0.02},
            "full": {"lengths": (8, 16, 32, 48, 64, 96), "periods": 192, "warmup": 48, "margin": 0.015},
        },
        check=_check_eq3,
    )
)


# ----------------------------------------------------------------------
# EQ4 — the IRO accumulation law is a square root (free-exponent fit)
# ----------------------------------------------------------------------
def _check_eq4(seed: int, params: Mapping[str, Any]) -> Evidence:
    from repro.core.characterization import jitter_versus_length
    from repro.stats.fitting import fit_sqrt_accumulation

    board = claim_board(params)
    lengths = [int(length) for length in params["lengths"]]
    exponents: List[float] = []
    r_squareds: List[float] = []
    for sub in _subseeds(seed, int(params["repeats"])):
        results = jitter_versus_length(
            board,
            lengths,
            "iro",
            method="population",
            period_count=int(params["periods"]),
            seed=sub,
        )
        fit = fit_sqrt_accumulation(lengths, [r.sigma_period_ps for r in results])
        exponents.append(fit.free_fit.exponent)
        r_squareds.append(fit.free_fit.r_squared)
    decision = tost(exponents, target=0.5, margin=float(params["margin"]))
    good_fit = min(r_squareds) > float(params["min_r_squared"])
    return Evidence(
        passed=decision.passed and good_fit,
        observed={"exponents": exponents, "r_squareds": r_squareds},
        detail=(
            "free power-law exponent of the IRO accumulation; " + decision.describe()
            + f"; min r^2 {min(r_squareds):.3f}"
            + ("" if good_fit else f" (below {params['min_r_squared']})")
        ),
    )


register_claim(
    ClaimSpec(
        claim_id="EQ4",
        title="the IRO jitter-vs-length law has a free-fit exponent of 1/2",
        paper_ref="Section IV / Eq. 4 / Fig. 11",
        criterion="TOST on the fitted power-law exponent",
        estimator="fit_sqrt_accumulation free fit over repeated length sweeps",
        tiers={
            "quick": {"lengths": (3, 9, 25, 60), "periods": 512, "repeats": 3, "margin": 0.1, "min_r_squared": 0.8},
            "full": {"lengths": (3, 5, 9, 15, 25, 40, 60, 80), "periods": 1024, "repeats": 4, "margin": 0.08, "min_r_squared": 0.9},
        },
        check=_check_eq4,
    )
)


# ----------------------------------------------------------------------
# EQ5 — the STR constant-fit value sits at sqrt(2)*sigma_g (plus leakage)
# ----------------------------------------------------------------------
def _check_eq5(seed: int, params: Mapping[str, Any]) -> Evidence:
    from repro.stats.fitting import fit_constant

    lengths, sigmas = _str_sigmas(seed, params)
    fit = fit_constant(sigmas)
    reference = math.sqrt(2.0) * float(params["sigma_g_ps"])
    ratios = [sigma / reference for sigma in sigmas]
    decision = tost(
        ratios, target=float(params["leakage_factor"]), margin=float(params["margin"])
    )
    return Evidence(
        passed=decision.passed,
        observed={
            "lengths": lengths,
            "sigma_period_ps": sigmas,
            "fitted_constant_ps": fit.value,
            "reference_ps": reference,
            "ratios": ratios,
        },
        detail=(
            f"sigma / (sqrt(2)*sigma_g={reference:.3g} ps) per length; "
            + decision.describe()
        ),
    )


register_claim(
    ClaimSpec(
        claim_id="EQ5",
        title="the STR jitter constant sits at sqrt(2)*sigma_g up to neighbour leakage",
        paper_ref="Section IV / Eq. 5",
        criterion="TOST on sigma/(sqrt(2)*sigma_g) vs the documented leakage factor",
        estimator="constant fit over an STR length sweep",
        tiers={
            "quick": {"lengths": (4, 16, 48), "periods": 512, "sigma_g_ps": 2.0, "leakage_factor": 1.2, "margin": 0.25},
            "full": {"lengths": (4, 8, 16, 32, 64, 96), "periods": 1536, "sigma_g_ps": 2.0, "leakage_factor": 1.2, "margin": 0.2},
        },
        check=_check_eq5,
    )
)


# ----------------------------------------------------------------------
# GAUSS — jitter populations are Gaussian (Fig. 9 + the Eq. 6 hypothesis)
# ----------------------------------------------------------------------
def _check_gauss(seed: int, params: Mapping[str, Any]) -> Evidence:
    from repro.measurement.counters import divide_periods
    from repro.rings.iro import InverterRingOscillator
    from repro.rings.str_ring import SelfTimedRing
    from repro.stats.normality import check_normality

    board = claim_board(params)
    iro_seed, str_seed, divider_seed = _subseeds(seed, 3)
    periods = int(params["periods"])
    reports = {
        "iro5": check_normality(
            InverterRingOscillator.on_board(board, 5)
            .simulate(periods, seed=iro_seed)
            .trace.periods_ps()
        ),
        "str96": check_normality(
            SelfTimedRing.on_board(board, 96)
            .simulate(periods, seed=str_seed)
            .trace.periods_ps()
        ),
    }
    divided = divide_periods(
        InverterRingOscillator.on_board(board, 9)
        .simulate(int(params["divider_periods"]), seed=divider_seed)
        .trace.periods_ps(),
        int(params["division"]),
    )
    reports["divided_c2c"] = check_normality(np.diff(divided))
    rejected = [name for name, report in reports.items() if not report.is_normal]
    return Evidence(
        passed=not rejected,
        observed={name: report.p_value for name, report in reports.items()},
        detail=(
            "all jitter populations Gaussian "
            f"(p: {', '.join(f'{k}={v.p_value:.3g}' for k, v in reports.items())})"
            if not rejected
            else f"normality rejected for {rejected}"
        ),
    )


register_claim(
    ClaimSpec(
        claim_id="GAUSS",
        title="IRO, STR and divided-signal jitter populations are Gaussian",
        paper_ref="Section V / Fig. 9 and the Eq. 6 hypothesis (Section V-D2)",
        criterion="Shapiro-Wilk non-rejection at alpha=0.01 (statistical: 80% pass floor)",
        estimator="check_normality over period and divided cycle-to-cycle populations",
        tiers={
            "quick": {"periods": 1024, "divider_periods": 4096, "division": 64},
            "full": {"periods": 2048, "divider_periods": 8192, "division": 64},
        },
        check=_check_gauss,
        # Three alpha=0.01 tests per seed: ~3 % honest per-seed flake
        # rate, so the sweep verdict is a pass-rate floor, not all-pass.
        min_pass_rate=0.8,
    )
)


# ----------------------------------------------------------------------
# EXT — supervised-runtime fault-recovery invariants
# ----------------------------------------------------------------------
def _check_ext_failover(seed: int, params: Mapping[str, Any]) -> Evidence:
    from repro.core.campaign import RingSpec
    from repro.faults import FaultSchedule, ScheduledFault, VoltageBrownoutFault
    from repro.trng.supervisor import RecoveryPolicy, SupervisedTrng, TrngState

    trng = SupervisedTrng(
        RingSpec("iro", 5),
        board=claim_board(params),
        policy=RecoveryPolicy(backup_specs=(RingSpec("str", int(params["backup_length"])),)),
    )
    scenario = FaultSchedule(
        [ScheduledFault(VoltageBrownoutFault(float(params["severity"])), start_s=float(params["onset_s"]))],
        name="verify_brownout",
    )
    result = trng.run(int(params["bits"]), scenario=scenario, seed=seed)
    kinds = result.events.kinds()
    alarm = result.events.first_of_kind("alarm")
    failover = result.events.first_of_kind("failover")
    invariants = {
        "ends online": result.final_state is TrngState.ONLINE,
        "alarm raised": alarm is not None,
        "failover happened": failover is not None,
        "alarm precedes failover": (
            alarm is not None
            and failover is not None
            and alarm.bit_position <= failover.bit_position
        ),
        "budget filled": result.bit_count >= int(params["bits"]),
    }
    broken = [name for name, held in invariants.items() if not held]
    return Evidence(
        passed=not broken,
        observed={
            "final_state": result.final_state.value,
            "event_kinds": kinds,
            "bit_count": result.bit_count,
        },
        detail=(
            "brownout failover invariants all hold"
            if not broken
            else f"broken invariants: {broken}; events={kinds}"
        ),
    )


register_claim(
    ClaimSpec(
        claim_id="EXT-FAILOVER",
        title="a locking brownout alarms and fails over to the STR backup",
        paper_ref="EXT10 supervised-runtime extension",
        criterion="invariant conjunction over the structured event log",
        estimator="SupervisedTrng run under a scheduled VoltageBrownoutFault",
        tiers={
            "quick": {"severity": 0.95, "onset_s": 0.2, "bits": 6144, "backup_length": 48},
            "full": {"severity": 0.95, "onset_s": 0.2, "bits": 12288, "backup_length": 48},
        },
        check=_check_ext_failover,
    )
)


def _check_ext_total_failure(seed: int, params: Mapping[str, Any]) -> Evidence:
    from repro.core.campaign import RingSpec
    from repro.faults import FaultSchedule, ScheduledFault, StuckStageFault
    from repro.trng.supervisor import RecoveryPolicy, SupervisedTrng, TrngState

    trng = SupervisedTrng(
        RingSpec("iro", 5), board=claim_board(params), policy=RecoveryPolicy()
    )
    scenario = FaultSchedule(
        [ScheduledFault(StuckStageFault(), start_s=float(params["onset_s"]))],
        name="verify_stuck",
    )
    result = trng.run(int(params["bits"]), scenario=scenario, seed=seed)
    kinds = result.events.kinds()
    invariants = {
        "ends in total failure": result.final_state is TrngState.TOTAL_FAILURE,
        "alarm raised": result.first_alarm_position is not None,
        "no bits after the alarm": result.emitted_after_first_alarm == 0,
        "budget not filled": result.bit_count < int(params["bits"]),
        "no failover without backups": "failover" not in kinds,
    }
    broken = [name for name, held in invariants.items() if not held]
    return Evidence(
        passed=not broken,
        observed={
            "final_state": result.final_state.value,
            "event_kinds": kinds,
            "bit_count": result.bit_count,
        },
        detail=(
            "stuck-stage total-failure invariants all hold"
            if not broken
            else f"broken invariants: {broken}; events={kinds}"
        ),
    )


register_claim(
    ClaimSpec(
        claim_id="EXT-FAILSAFE",
        title="oscillation death without backups fails safe: no bits after the alarm",
        paper_ref="EXT10 supervised-runtime extension",
        criterion="invariant conjunction over the structured event log",
        estimator="SupervisedTrng run under a scheduled StuckStageFault, no backups",
        tiers={
            "quick": {"onset_s": 0.2, "bits": 20000},
            "full": {"onset_s": 0.2, "bits": 40000},
        },
        check=_check_ext_total_failure,
    )
)


# ----------------------------------------------------------------------
# PUF — the process model as an identity source (EXT11 extension)
# ----------------------------------------------------------------------
def _check_puf_uniq(seed: int, params: Mapping[str, Any]) -> Evidence:
    from repro.puf import PufDesign, enroll_population
    from repro.stats.puf import mean_pairwise_hamming

    design = PufDesign(
        ring_count=int(params["rings"]), stage_count=int(params["stages"])
    )
    inter_hds: List[float] = []
    for sub in _subseeds(seed, int(params["repeats"])):
        enrollment = enroll_population(int(params["devices"]), design=design, seed=sub)
        inter_hds.append(mean_pairwise_hamming(enrollment.responses))
    decision = ci_overlap(
        inter_hds, float(params["band_low"]), float(params["band_high"])
    )
    return Evidence(
        passed=decision.passed,
        observed={"inter_hds": inter_hds, "mean": decision.mean},
        detail="mean inter-device Hamming distance; " + decision.describe(),
    )


register_claim(
    ClaimSpec(
        claim_id="PUF-UNIQ",
        title="RO-PUF inter-device Hamming distance sits at 50%",
        paper_ref="EXT11 PUF extension (Table II process dispersion as identity)",
        criterion="CI overlap of the all-pairs mean inter-HD with the ideal band",
        estimator="exact all-pairs mean HD over freshly enrolled populations",
        tiers={
            "quick": {
                "devices": 256, "repeats": 3, "rings": 16, "stages": 3,
                "band_low": 0.45, "band_high": 0.55,
            },
            "full": {
                "devices": 2048, "repeats": 5, "rings": 32, "stages": 3,
                "band_low": 0.45, "band_high": 0.55,
            },
        },
        check=_check_puf_uniq,
    )
)


def _check_puf_stable(seed: int, params: Mapping[str, Any]) -> Evidence:
    import numpy as np

    from repro.fpga.voltage import SupplySpec
    from repro.puf import PufDesign, measure_population
    from repro.stats.puf import hamming_distance

    design = PufDesign(
        ring_count=int(params["rings"]),
        stage_count=int(params["stages"]),
        measure_periods=0,
    )
    devices = int(params["devices"])
    stressed = SupplySpec(
        voltage_v=float(params["stress_v"]),
        temperature_c=float(params["stress_c"]),
    )
    # Same population, three noiseless measurements: nominal twice
    # (distinct readout-noise streams, which must not matter at zero
    # noise) and one stressed corner.
    first = measure_population(
        devices, design=design, corners=(SupplySpec(), stressed), seed=seed
    )
    second = measure_population(
        devices,
        design=design,
        corners=(SupplySpec(),),
        seed=seed,
        measurement_seed=seed + 1,
    )
    remeasure_hd = float(
        hamming_distance(first.responses[0], second.responses[0]).sum()
    )
    corner_hd = float(hamming_distance(first.responses[0], first.responses[1]).sum())
    reenrolled = measure_population(
        devices, design=design, corners=(SupplySpec(),), seed=seed
    )
    invariants = {
        "re-measurement is bit-identical (intra-HD == 0)": remeasure_hd == 0.0,
        "stressed corner is bit-identical (intra-HD == 0)": corner_hd == 0.0,
        "re-enrollment from the same seed is bit-identical": bool(
            np.array_equal(first.responses[0], reenrolled.responses[0])
        ),
    }
    broken = [name for name, held in invariants.items() if not held]
    return Evidence(
        passed=not broken,
        observed={
            "devices": devices,
            "remeasure_hd_bits": remeasure_hd,
            "corner_hd_bits": corner_hd,
        },
        detail=(
            "zero-noise enrollment is deterministic and corner-stable"
            if not broken
            else f"broken invariants: {broken}"
        ),
    )


register_claim(
    ClaimSpec(
        claim_id="PUF-STABLE",
        title="zero-noise enrollment is deterministic: intra-device HD == 0",
        paper_ref="EXT11 PUF extension (aligned-placement corner invariance)",
        criterion="invariant conjunction: exact bit equality across re-measurements",
        estimator="noiseless re-measurement, stressed corner, and re-enrollment",
        tiers={
            "quick": {
                "devices": 192, "rings": 16, "stages": 3,
                "stress_v": 1.0, "stress_c": 85.0,
            },
            "full": {
                "devices": 1024, "rings": 32, "stages": 3,
                "stress_v": 1.0, "stress_c": 85.0,
            },
        },
        check=_check_puf_stable,
    )
)


# ----------------------------------------------------------------------
# EXT12 — differential measurement rejects common-mode ripple (extension)
# ----------------------------------------------------------------------
def _check_ext12_ripple(seed: int, params: Mapping[str, Any]) -> Evidence:
    from repro.measurement.differential import (
        ColocatedPair,
        measure_pair,
        worst_case_ripple,
    )

    board = claim_board(params)
    pair = ColocatedPair.on_board(board, int(params["stages"]))
    periods = int(params["periods_per_window"])
    ripple = worst_case_ripple(pair, periods, float(params["amplitude"]))
    diff_ratios: List[float] = []
    counter_ratios: List[float] = []
    for sub in _subseeds(seed, int(params["repeats"])):
        reading = measure_pair(
            pair, int(params["windows"]), periods, seed=sub, modulation=ripple
        )
        diff_ratios.append(reading.differential_sigma_ps / reading.true_sigma_ps)
        counter_ratios.append(reading.counter_sigma_a_ps / reading.true_sigma_a_ps)
    decision = tost(diff_ratios, target=1.0, margin=float(params["margin"]))
    counter_floor = 1.0 + float(params["counter_excess"])
    counter_inflated = min(counter_ratios) > counter_floor
    return Evidence(
        passed=decision.passed and counter_inflated,
        observed={
            "differential_over_true": diff_ratios,
            "counter_over_true": counter_ratios,
            "mean_differential_ratio": decision.mean,
        },
        detail=(
            "differential ratio under worst-case ripple; "
            + decision.describe()
            + f"; counter ratios {['%.2f' % value for value in counter_ratios]} "
            f"must all exceed {counter_floor:.2f} "
            f"({'do' if counter_inflated else 'do NOT'})"
        ),
    )


register_claim(
    ClaimSpec(
        claim_id="EXT12",
        title="the differential pair rejects ripple that inflates the counter method",
        paper_ref="EXT12 extension of Fig. 10 / Eq. 6 under deterministic modulation",
        criterion="TOST on the differential/true ratio AND counter ratio above floor",
        estimator="co-located pair difference vs Eq. 6 on the same windowed durations",
        tiers={
            "quick": {
                "stages": 9, "windows": 192, "periods_per_window": 64,
                "amplitude": 7e-4, "repeats": 4, "margin": 0.15,
                "counter_excess": 0.5,
            },
            "full": {
                "stages": 9, "windows": 384, "periods_per_window": 64,
                "amplitude": 7e-4, "repeats": 6, "margin": 0.10,
                "counter_excess": 0.5,
            },
        },
        check=_check_ext12_ripple,
    )
)


# ----------------------------------------------------------------------
# EXT12-VAR — on a quiet supply both estimators agree with the model
# ----------------------------------------------------------------------
def _check_ext12_quiet(seed: int, params: Mapping[str, Any]) -> Evidence:
    from repro.measurement.differential import ColocatedPair, measure_pair

    board = claim_board(params)
    pair = ColocatedPair.on_board(board, int(params["stages"]))
    diff_ratios: List[float] = []
    counter_ratios: List[float] = []
    for sub in _subseeds(seed, int(params["repeats"])):
        reading = measure_pair(
            pair,
            int(params["windows"]),
            int(params["periods_per_window"]),
            seed=sub,
        )
        diff_ratios.append(reading.differential_sigma_ps / reading.true_sigma_ps)
        counter_ratios.append(reading.counter_sigma_a_ps / reading.true_sigma_a_ps)
    margin = float(params["margin"])
    diff_decision = tost(diff_ratios, target=1.0, margin=margin)
    counter_decision = tost(counter_ratios, target=1.0, margin=margin)
    return Evidence(
        passed=diff_decision.passed and counter_decision.passed,
        observed={
            "differential_over_true": diff_ratios,
            "counter_over_true": counter_ratios,
        },
        detail=(
            "quiet supply; differential: "
            + diff_decision.describe()
            + "; counter: "
            + counter_decision.describe()
        ),
    )


register_claim(
    ClaimSpec(
        claim_id="EXT12-VAR",
        title="with no ripple the differential and counter estimates coincide",
        paper_ref="EXT12 extension — estimator equivalence on a quiet supply",
        criterion="TOST on both estimators' ratio to the analytic sigma",
        estimator="differential pair and Eq. 6 on identical quiet windows",
        tiers={
            "quick": {
                "stages": 9, "windows": 192, "periods_per_window": 64,
                "repeats": 4, "margin": 0.15,
            },
            "full": {
                "stages": 9, "windows": 384, "periods_per_window": 64,
                "repeats": 6, "margin": 0.10,
            },
        },
        check=_check_ext12_quiet,
    )
)
