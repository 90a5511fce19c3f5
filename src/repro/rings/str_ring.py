"""The self-timed ring (paper Sections II-B/II-C, Fig. 2).

Each stage is a Muller C-element plus an inverter (one LUT in the FPGA
mapping).  Stage ``i`` fires — its output takes the forward input's value
— when it holds a *token* (``C_i != C_{i-1}``) and its successor holds a
*bubble* (``C_{i+1} == C_i``).  The firing instant follows the
Charlie-effect timing model::

    t_fire = (t_f + t_r) / 2 + charlie((t_f - t_r) / 2) + noise

where ``t_f``/``t_r`` are the instants of the last forward/reverse input
events (see :mod:`repro.core.charlie`).

The observed output period is the spacing between *successive tokens*
passing the output stage, which is what makes the STR's period jitter
independent of the ring length (Eq. 5) and its deterministic jitter
strongly attenuated — both properties emerge from this event-driven model
rather than being assumed.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.charlie import CharlieDiagram, CharlieParameters, DraftingEffect
from repro.core.temporal_model import (
    SteadyState,
    balanced_token_count,
    solve_steady_state,
    validate_token_configuration,
)
from repro.rings.base import RingOscillator, SimulationResult, edge_budget
from repro.rings.tokens import fireable_stages, spread_tokens_evenly
from repro.simulation.batch import STRBatchSpec, simulate_str_batch
from repro.simulation.engine import SimulationLimits, Simulator, StopReason
from repro.simulation.events import Transition
from repro.simulation.noise import (
    ConstantModulation,
    DeterministicModulation,
    SeedLike,
    make_rng,
)
from repro.simulation.waveform import EdgeTrace
from repro.telemetry import span

_SQRT2 = math.sqrt(2.0)


class SelfTimedRing(RingOscillator):
    """A resolved STR: per-stage Charlie diagrams and jitter are known.

    Parameters
    ----------
    diagrams:
        One :class:`CharlieDiagram` per stage.
    token_count:
        Number of tokens ``NT`` (``NB = L - NT``); must be even.
    jitter_sigmas_ps:
        Gaussian jitter magnitude per stage firing; scalar broadcasts.
    initial_state:
        Optional initial output vector; defaults to ``token_count``
        evenly spread tokens (the paper's initialization).
    name:
        Report label, e.g. ``"STR 96C"``.
    """

    def __init__(
        self,
        diagrams: Sequence[CharlieDiagram],
        token_count: int,
        jitter_sigmas_ps=2.0,
        supply_weights=1.0,
        initial_state: Optional[Sequence[int]] = None,
        name: str = "STR",
    ) -> None:
        super().__init__(name)
        self._diagrams = list(diagrams)
        stage_count = len(self._diagrams)
        validate_token_configuration(stage_count, token_count)
        self._token_count = token_count
        sigmas = np.broadcast_to(
            np.asarray(jitter_sigmas_ps, dtype=float), (stage_count,)
        ).copy()
        if np.any(sigmas < 0.0):
            raise ValueError("jitter sigmas must be non-negative")
        self._sigmas = sigmas
        weights = np.broadcast_to(
            np.asarray(supply_weights, dtype=float), (stage_count,)
        ).copy()
        if np.any(weights < 0.0):
            raise ValueError("supply weights must be non-negative")
        self._supply_weights = weights
        if initial_state is None:
            state = spread_tokens_evenly(stage_count, token_count)
        else:
            state = np.asarray(initial_state, dtype=int)
            from repro.rings.tokens import count_tokens

            if state.size != stage_count:
                raise ValueError("initial state length must equal the stage count")
            if count_tokens(state) != token_count:
                raise ValueError(
                    f"initial state holds {count_tokens(state)} tokens, expected {token_count}"
                )
        self._initial_state = state

    # ------------------------------------------------------------------
    # construction on a board
    # ------------------------------------------------------------------
    @classmethod
    def on_board(
        cls,
        board,
        stage_count: int,
        token_count: Optional[int] = None,
        first_lut: int = 0,
        drafting: DraftingEffect = DraftingEffect(),
        initial_state: Optional[Sequence[int]] = None,
    ) -> "SelfTimedRing":
        """Place and resolve an STR on a board.

        ``token_count`` defaults to the balanced ``NT = NB`` configuration
        the paper studies (Section III-A).
        """
        from repro.fpga.placement import place_ring

        if token_count is None:
            token_count = balanced_token_count(stage_count)
        placement = place_ring(
            stage_count,
            lab_capacity=board.calibration.constants.lab_capacity,
            first_lut=first_lut,
        )
        timings = board.resolve(placement, with_charlie=True)
        diagrams = [
            CharlieDiagram(
                CharlieParameters.symmetric(timing.static_delay_ps, timing.charlie_ps),
                drafting=drafting,
            )
            for timing in timings
        ]
        return cls(
            diagrams=diagrams,
            token_count=token_count,
            jitter_sigmas_ps=[timing.jitter_sigma_ps for timing in timings],
            supply_weights=[timing.supply_weight for timing in timings],
            initial_state=initial_state,
            name=f"STR {stage_count}C",
        )

    # ------------------------------------------------------------------
    # structure and analytical layer
    # ------------------------------------------------------------------
    @property
    def stage_count(self) -> int:
        return len(self._diagrams)

    @property
    def token_count(self) -> int:
        return self._token_count

    @property
    def bubble_count(self) -> int:
        return self.stage_count - self._token_count

    @property
    def diagrams(self) -> List[CharlieDiagram]:
        return list(self._diagrams)

    @property
    def jitter_sigmas_ps(self) -> np.ndarray:
        return self._sigmas.copy()

    @property
    def supply_weights(self) -> np.ndarray:
        """Per-stage relative response to supply delay modulation."""
        return self._supply_weights.copy()

    @property
    def mean_supply_weight(self) -> float:
        """Delay-weighted mean supply response of the whole ring."""
        effective = np.array(
            [d.parameters.static_delay_ps + d.parameters.charlie_ps for d in self._diagrams]
        )
        return float(np.sum(self._supply_weights * effective) / np.sum(effective))

    @property
    def initial_state(self) -> np.ndarray:
        return self._initial_state.copy()

    def mean_diagram(self) -> CharlieDiagram:
        """Ring-average Charlie diagram used by the analytical layer."""
        forward = float(np.mean([d.parameters.forward_delay_ps for d in self._diagrams]))
        reverse = float(np.mean([d.parameters.reverse_delay_ps for d in self._diagrams]))
        charlie = float(np.mean([d.parameters.charlie_ps for d in self._diagrams]))
        return CharlieDiagram(
            CharlieParameters(forward, reverse, charlie),
            drafting=self._diagrams[0].drafting,
        )

    def steady_state(self) -> SteadyState:
        """Solved evenly-spaced operating point (mean-stage model)."""
        return solve_steady_state(self.mean_diagram(), self.stage_count, self._token_count)

    def predicted_period_ps(self) -> float:
        """``T = 2 L D_hop / NT`` from the steady-state fixed point."""
        return self.steady_state().period_ps

    def predicted_period_jitter_ps(self) -> float:
        """Eq. 5: ``sqrt(2) * sigma_g`` with the ring-mean gate sigma."""
        return float(_SQRT2 * np.mean(self._sigmas))

    # ------------------------------------------------------------------
    # fast statistical layer
    # ------------------------------------------------------------------
    def sample_periods(
        self,
        count: int,
        seed: SeedLike = None,
        modulation: Optional[DeterministicModulation] = None,
    ) -> np.ndarray:
        """Draw periods from the analytical STR model.

        Gaussian part: iid ``N(T, 2 sigma_g^2)`` (Eq. 5).  Deterministic
        part: the period tracks the supply modulation through the ring's
        ``mean_supply_weight``, which for an STR is substantially below
        the IRO's because the Charlie-penalty share of the delay responds
        weakly to the supply (the attenuation of Section IV-B as it
        manifests in this model — see DESIGN.md).
        """
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        rng = make_rng(seed)
        nominal = self.predicted_period_ps()
        weight = self.mean_supply_weight
        noise = rng.normal(0.0, self.predicted_period_jitter_ps(), size=count)
        if modulation is None or isinstance(modulation, ConstantModulation):
            factor = 0.0 if modulation is None else modulation.factor(0.0)
            return nominal * (1.0 + weight * factor) + noise
        boundaries = nominal * np.arange(1, count + 1)
        factors = modulation.factor_array(boundaries)
        return nominal * (1.0 + weight * factors) + noise

    # ------------------------------------------------------------------
    # exact simulation layer
    # ------------------------------------------------------------------
    def simulate(
        self,
        period_count: int,
        seed: SeedLike = None,
        modulation: Optional[DeterministicModulation] = None,
        warmup_periods: int = 16,
        output_stage: int = 0,
    ) -> SimulationResult:
        """Exact run observed at ``output_stage``, on the batch wave kernel.

        Bit-identical to :meth:`simulate_reference` for noiseless rings,
        statistically equivalent (same model, different draw order) with
        jitter.
        """
        edge_count = edge_budget(period_count, warmup_periods)
        spec = STRBatchSpec.from_ring(
            self, edge_count=edge_count, seed=seed, output_stage=output_stage
        )
        result = simulate_str_batch([spec], modulation=modulation)
        return SimulationResult.from_full_trace(
            result.traces[0], warmup_periods, result.events_processed
        )

    def simulate_phases(
        self,
        period_count: int,
        seed: SeedLike = None,
        modulation: Optional[DeterministicModulation] = None,
        warmup_periods: int = 16,
    ) -> "PhaseSimulationResult":
        """Run observing *every* stage output, on the batch wave kernel.

        The L stage outputs of an STR are phase-shifted copies of the
        same oscillation — the multi-phase structure the authors'
        follow-up TRNG exploits.  Returns per-stage traces plus the
        merged stream of all stage toggles (the "virtual fast clock"
        whose tick spacing is ``T / (2L)`` when ``gcd(L, NT) = 1``).
        Every stage records ``2 * (period_count + warmup_periods) + 1``
        edges, of which the warm-up ones are dropped.
        """
        edge_count = edge_budget(period_count, warmup_periods)
        spec = STRBatchSpec.from_ring(self, edge_count=edge_count, seed=seed)
        result = simulate_str_batch([spec], modulation=modulation, all_stages=True)
        return PhaseSimulationResult.from_stage_traces(
            result.stage_traces[0], warmup_periods, result.events_processed
        )

    # ------------------------------------------------------------------
    # per-event oracle
    # ------------------------------------------------------------------
    def simulate_reference(
        self,
        period_count: int,
        seed: SeedLike = None,
        modulation: Optional[DeterministicModulation] = None,
        warmup_periods: int = 16,
        output_stage: int = 0,
    ) -> SimulationResult:
        """:meth:`simulate` on the per-event engine: the kernel's test oracle."""
        edge_count = edge_budget(period_count, warmup_periods)
        if not (0 <= output_stage < self.stage_count):
            raise ValueError(f"output stage {output_stage} outside ring of {self.stage_count}")
        traces, events = self._run_reference(edge_count, seed, modulation, [output_stage])
        return SimulationResult.from_full_trace(traces[0], warmup_periods, events)

    def simulate_phases_reference(
        self,
        period_count: int,
        seed: SeedLike = None,
        modulation: Optional[DeterministicModulation] = None,
        warmup_periods: int = 16,
    ) -> "PhaseSimulationResult":
        """:meth:`simulate_phases` on the per-event engine (test oracle)."""
        edge_count = edge_budget(period_count, warmup_periods)
        traces, events = self._run_reference(
            edge_count, seed, modulation, range(self.stage_count)
        )
        return PhaseSimulationResult.from_stage_traces(traces, warmup_periods, events)

    def _run_reference(
        self,
        edge_count: int,
        seed: SeedLike,
        modulation: Optional[DeterministicModulation],
        stages: Sequence[int],
    ) -> Tuple[List[EdgeTrace], int]:
        """First ``edge_count`` edges of each observed stage, per-event engine.

        The engine stops on a total edge count.  Neighbouring stages'
        firings interleave, so no stage runs more than ``L // 2`` firings
        ahead of another; observing ``L // 2`` extra edges per stage
        guarantees every stage its ``edge_count``.
        """
        stages = list(stages)
        slack = 0 if len(stages) == 1 else self.stage_count // 2
        with span("simulate_reference", ring=self.name, edges=edge_count) as tele:
            process = _STRProcess(self, modulation, make_rng(seed))
            simulator = Simulator()
            for stage in stages:
                simulator.observe(stage)
            reason = simulator.run(
                process,
                SimulationLimits(max_observed_edges=len(stages) * (edge_count + slack)),
            )
            tele.set("events", simulator.events_processed)
        traces = [EdgeTrace.from_edges(simulator.edges_for(stage)[:edge_count]) for stage in stages]
        if reason is StopReason.QUEUE_EMPTY or min(len(trace) for trace in traces) < edge_count:
            raise RuntimeError(
                f"{self.name} deadlocked (engine reported {reason.value}) after "
                f"{min(len(trace) for trace in traces)} observed edges (wanted {edge_count}); "
                f"final state {''.join(str(v) for v in process.state_snapshot())}"
            )
        return traces, simulator.events_processed


@dataclasses.dataclass(frozen=True)
class PhaseSimulationResult:
    """All-stage observation of an STR run.

    ``merged_edge_times_ps`` interleaves the toggles of every stage in
    time order; for a gcd(L, NT) = 1 configuration they are evenly
    spaced by ``T / (2L)`` and form the multi-phase sampling comb.
    """

    stage_traces: List[EdgeTrace]
    merged_edge_times_ps: np.ndarray
    events_processed: int

    @classmethod
    def from_stage_traces(
        cls, full_traces: Sequence[EdgeTrace], warmup_periods: int, events_processed: int
    ) -> "PhaseSimulationResult":
        """Drop each stage's warm-up edges and merge the toggle comb."""
        stage_traces = [trace.skip_edges(2 * warmup_periods) for trace in full_traces]
        merged = np.sort(np.concatenate([trace.times_ps for trace in stage_traces]))
        # Different stages cover slightly different time windows (each
        # stops at its own last edge); clip the merged comb to the overlap
        # so its spacing statistics are free of boundary artifacts.
        window_start = max(trace.times_ps[0] for trace in stage_traces)
        window_end = min(trace.times_ps[-1] for trace in stage_traces)
        merged = merged[(merged >= window_start) & (merged <= window_end)]
        return cls(
            stage_traces=stage_traces,
            merged_edge_times_ps=merged,
            events_processed=events_processed,
        )

    @property
    def stage_count(self) -> int:
        return len(self.stage_traces)

    def merged_spacings_ps(self) -> np.ndarray:
        """Intervals between consecutive toggles across all stages."""
        return np.diff(self.merged_edge_times_ps)


class _STRProcess:
    """Engine process implementing the token/bubble firing semantics."""

    def __init__(
        self,
        ring: SelfTimedRing,
        modulation: Optional[DeterministicModulation],
        rng: np.random.Generator,
    ) -> None:
        self._stage_count = ring.stage_count
        self._diagrams = ring.diagrams
        self._sigmas = [float(s) for s in ring.jitter_sigmas_ps]
        self._supply_weight_list = [float(w) for w in ring.supply_weights]
        self._modulation = modulation
        self._rng = rng
        self._state: List[int] = [int(v) for v in ring.initial_state]
        self._last_time: List[float] = [0.0] * self._stage_count
        self._pending: List[bool] = [False] * self._stage_count

    def state_snapshot(self) -> List[int]:
        """Current output vector (for deadlock diagnostics)."""
        return list(self._state)

    # -- firing predicate ------------------------------------------------
    def _fireable(self, stage: int) -> bool:
        state = self._state
        stage_count = self._stage_count
        predecessor = stage - 1 if stage > 0 else stage_count - 1
        successor = stage + 1 if stage < stage_count - 1 else 0
        return state[stage] != state[predecessor] and state[successor] == state[stage]

    # -- engine protocol ---------------------------------------------------
    def start(self, simulator: Simulator) -> None:
        for stage in fireable_stages(self._state):
            self._schedule_fire(simulator, stage)

    def handle(self, simulator: Simulator, transition: Transition) -> None:
        stage = transition.node
        self._pending[stage] = False
        self._state[stage] = transition.value
        self._last_time[stage] = transition.time_ps
        stage_count = self._stage_count
        for neighbor in (
            stage + 1 if stage < stage_count - 1 else 0,
            stage - 1 if stage > 0 else stage_count - 1,
        ):
            if not self._pending[neighbor] and self._fireable(neighbor):
                self._schedule_fire(simulator, neighbor)

    # -- timing ------------------------------------------------------------
    def _schedule_fire(self, simulator: Simulator, stage: int) -> None:
        stage_count = self._stage_count
        predecessor = stage - 1 if stage > 0 else stage_count - 1
        successor = stage + 1 if stage < stage_count - 1 else 0
        forward_time = self._last_time[predecessor]
        reverse_time = self._last_time[successor]
        diagram = self._diagrams[stage]

        mean_time = 0.5 * (forward_time + reverse_time)
        separation = 0.5 * (forward_time - reverse_time)
        delay = diagram.delay_ps(separation)
        if diagram.drafting.is_active:
            elapsed = mean_time + delay - self._last_time[stage]
            if elapsed > 0.0:
                delay -= diagram.drafting.reduction_ps(elapsed)
        if self._modulation is not None:
            delay *= 1.0 + self._supply_weight_list[stage] * self._modulation.factor(
                simulator.now_ps
            )
        sigma = self._sigmas[stage]
        if sigma > 0.0:
            delay += self._rng.normal(0.0, sigma)

        fire_time = mean_time + delay
        floor = max(forward_time, reverse_time, simulator.now_ps)
        if fire_time <= floor:
            fire_time = floor + 1e-6  # causality guard for extreme noise draws
        new_value = self._state[predecessor]
        self._pending[stage] = True
        simulator.schedule(fire_time, stage, new_value)
