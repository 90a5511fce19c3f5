"""Vectorized batch ring-simulation kernel.

The per-event engine (:mod:`repro.simulation.engine`) advances one
transition at a time through a Python heap — faithful, but the pace is
set by the interpreter, not the hardware.  This module advances
*thousands of independent rings simultaneously* as 2-D numpy arrays
(axis 0 = ring instance, axis 1 = stage), which is what the million-ring
campaigns, PUF populations, and service-scale entropy workloads need.

Two kernels, one per ring family:

**IRO** (:func:`simulate_iro_batch`).  A free-running inverter ring is a
single event hopping stage to stage, so a whole run is one prefix sum::

    t_k = t_{k-1} + D_{k mod L} + N(0, sigma_{k mod L}^2)

The kernel tiles the per-stage delays across the event axis, injects the
Gaussian jitter of :mod:`repro.simulation.noise` in one vectorized draw
per ring, clamps the causality guard, and ``cumsum``s.  Because numpy's
``Generator`` produces the *same stream* whether sampled scalar-by-scalar
or as one array, and ``cumsum`` accumulates in the same order as the
event loop, the kernel is **bit-exact** against the event engine for the
same seed (the identity the kernel-vs-oracle tests pin down).  Under a
time-varying modulation hop ``k``'s delay depends on ``t_{k-1}``, so the
kernel steps each ring hop by hop instead — still the event process's
float operations in its order.

**STR** (:func:`simulate_str_batch`).  A self-timed ring is a marked
graph: stage ``i`` fires when it holds a token (``C_i != C_{i-1}``) and
its successor holds a bubble (``C_{i+1} == C_i``), and — crucially —
*neither neighbour of an enabled stage can fire again until it does*
(the token blocks the predecessor, the bubble blocks the successor).
Input timestamps of an enabled stage are therefore frozen, and the
event-driven run is equivalent to a synchronous fix-point iteration:
repeatedly fire **every** enabled stage of every ring in one vectorized
"wave", applying the Charlie-effect timing model

    t_fire = (t_f + t_r) / 2 + charlie((t_f - t_r)/2) + noise

to all of them at once.  The wave kernel reproduces the event engine's
firing times *exactly* for the same per-firing noise — bit-identical
when ``sigma = 0`` — and is statistically equivalent otherwise (the
noise stream is consumed in a different, but per-ring deterministic,
order; see docs/performance.md for the documented tolerance bounds).

The STR kernel can also record every stage, not just one output stage
(``all_stages=True``, what :meth:`SelfTimedRing.simulate_phases` reads).

Rings of different lengths batch together: stage axes are padded to the
longest ring and neighbours resolved through per-ring index maps, so a
mixed FIG11/FIG12-style workload runs as one kernel invocation.

Every result depends only on the owning ring's spec and seed — never on
which other rings share the batch — so batch composition is a pure
performance choice.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from repro.simulation.noise import (
    ConstantModulation,
    DeterministicModulation,
    SeedLike,
    make_rng,
)
from repro.simulation.waveform import EdgeTrace
from repro.telemetry import default_registry, span

#: Causality guard used by the event engine when a noise draw would make
#: a delay non-positive; the kernels clamp with the same constant so the
#: guarded paths stay bit-compatible.
_CAUSALITY_GUARD_PS = 1e-6


@dataclasses.dataclass(frozen=True)
class IROBatchSpec:
    """One inverter ring instance of an IRO batch.

    ``edge_count`` is the number of edges to record at the output stage
    (the last stage), matching ``SimulationLimits(max_observed_edges)``.
    """

    stage_delays_ps: np.ndarray
    jitter_sigmas_ps: np.ndarray
    supply_weights: np.ndarray
    edge_count: int
    seed: SeedLike = None

    def __post_init__(self) -> None:
        delays = np.asarray(self.stage_delays_ps, dtype=float)
        if delays.ndim != 1 or delays.size < 1:
            raise ValueError("stage delays must be a non-empty 1-D sequence")
        if np.any(delays <= 0.0):
            raise ValueError("all stage delays must be positive")
        sigmas = np.broadcast_to(
            np.asarray(self.jitter_sigmas_ps, dtype=float), delays.shape
        ).copy()
        if np.any(sigmas < 0.0):
            raise ValueError("jitter sigmas must be non-negative")
        weights = np.broadcast_to(
            np.asarray(self.supply_weights, dtype=float), delays.shape
        ).copy()
        if self.edge_count < 1:
            raise ValueError(f"edge_count must be positive, got {self.edge_count}")
        object.__setattr__(self, "stage_delays_ps", delays)
        object.__setattr__(self, "jitter_sigmas_ps", sigmas)
        object.__setattr__(self, "supply_weights", weights)

    @classmethod
    def from_ring(cls, ring, edge_count: int, seed: SeedLike = None) -> "IROBatchSpec":
        """Spec for a resolved :class:`~repro.rings.iro.InverterRingOscillator`."""
        return cls(
            stage_delays_ps=ring.stage_delays_ps,
            jitter_sigmas_ps=ring.jitter_sigmas_ps,
            supply_weights=ring.supply_weights,
            edge_count=edge_count,
            seed=seed,
        )

    @property
    def stage_count(self) -> int:
        return int(self.stage_delays_ps.size)


@dataclasses.dataclass(frozen=True)
class STRBatchSpec:
    """One self-timed ring instance of an STR batch.

    The Charlie diagram of stage ``i`` is carried in its primitive form
    (``Ds``, ``s0``, ``Dcharlie`` — see :mod:`repro.core.charlie`), plus
    the per-stage drafting parameters, so the kernel stays free of any
    per-stage Python objects.
    """

    static_delays_ps: np.ndarray  # Ds = (Dff + Drr) / 2
    separation_offsets_ps: np.ndarray  # s0 = (Drr - Dff) / 2
    charlie_ps: np.ndarray  # Dcharlie
    jitter_sigmas_ps: np.ndarray
    supply_weights: np.ndarray
    drafting_amplitudes_ps: np.ndarray
    drafting_time_constants_ps: np.ndarray
    initial_state: np.ndarray
    edge_count: int
    output_stage: int = 0
    seed: SeedLike = None
    name: str = "STR"

    def __post_init__(self) -> None:
        static = np.asarray(self.static_delays_ps, dtype=float)
        if static.ndim != 1 or static.size < 3:
            raise ValueError("an STR spec needs at least 3 stages of delays")
        shape = static.shape

        def _stage_array(value, label: str) -> np.ndarray:
            array = np.broadcast_to(np.asarray(value, dtype=float), shape).copy()
            return array

        object.__setattr__(self, "static_delays_ps", static)
        object.__setattr__(
            self, "separation_offsets_ps", _stage_array(self.separation_offsets_ps, "s0")
        )
        object.__setattr__(self, "charlie_ps", _stage_array(self.charlie_ps, "Dc"))
        sigmas = _stage_array(self.jitter_sigmas_ps, "sigma")
        if np.any(sigmas < 0.0):
            raise ValueError("jitter sigmas must be non-negative")
        object.__setattr__(self, "jitter_sigmas_ps", sigmas)
        object.__setattr__(self, "supply_weights", _stage_array(self.supply_weights, "w"))
        object.__setattr__(
            self,
            "drafting_amplitudes_ps",
            _stage_array(self.drafting_amplitudes_ps, "drafting amplitude"),
        )
        object.__setattr__(
            self,
            "drafting_time_constants_ps",
            _stage_array(self.drafting_time_constants_ps, "drafting tau"),
        )
        state = np.asarray(self.initial_state, dtype=np.int8)
        if state.shape != shape:
            raise ValueError("initial state length must equal the stage count")
        object.__setattr__(self, "initial_state", state)
        if self.edge_count < 1:
            raise ValueError(f"edge_count must be positive, got {self.edge_count}")
        if not (0 <= self.output_stage < static.size):
            raise ValueError(
                f"output stage {self.output_stage} outside ring of {static.size}"
            )

    @classmethod
    def from_ring(
        cls,
        ring,
        edge_count: int,
        seed: SeedLike = None,
        output_stage: int = 0,
    ) -> "STRBatchSpec":
        """Spec for a resolved :class:`~repro.rings.str_ring.SelfTimedRing`."""
        diagrams = ring.diagrams
        return cls(
            static_delays_ps=np.array(
                [d.parameters.static_delay_ps for d in diagrams]
            ),
            separation_offsets_ps=np.array(
                [d.parameters.separation_offset_ps for d in diagrams]
            ),
            charlie_ps=np.array([d.parameters.charlie_ps for d in diagrams]),
            jitter_sigmas_ps=ring.jitter_sigmas_ps,
            supply_weights=ring.supply_weights,
            drafting_amplitudes_ps=np.array(
                [d.drafting.amplitude_ps for d in diagrams]
            ),
            drafting_time_constants_ps=np.array(
                [d.drafting.time_constant_ps for d in diagrams]
            ),
            initial_state=ring.initial_state,
            edge_count=edge_count,
            output_stage=output_stage,
            seed=seed,
            name=ring.name,
        )

    @property
    def stage_count(self) -> int:
        return int(self.static_delays_ps.size)


@dataclasses.dataclass(frozen=True)
class BatchSimulationResult:
    """Traces of every ring in a batch, in spec order.

    ``events_processed`` counts stage firings / hops across the whole
    batch; ``waves`` is the number of synchronous iterations the STR
    kernel ran (0 for IRO batches).  ``stage_traces`` holds every
    stage's trace per ring when the STR kernel ran with
    ``all_stages=True`` (``None`` otherwise).
    """

    traces: List[EdgeTrace]
    events_processed: int
    waves: int = 0
    stage_traces: Optional[List[List[EdgeTrace]]] = None

    def __len__(self) -> int:
        return len(self.traces)


# ----------------------------------------------------------------------
# IRO kernel
# ----------------------------------------------------------------------
def _iro_noise(
    spec: IROBatchSpec, hop_count: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-hop Gaussian jitter, bit-compatible with the event engine.

    The event process draws one scalar ``normal(0, sigma_stage)`` per
    scheduled hop and *skips the draw entirely* for zero-sigma stages.
    Reproducing that stream exactly means drawing standard normals only
    at the sigma>0 hop positions, in hop order, then scaling.
    """
    stage_count = spec.stage_count
    tiles = -(-hop_count // stage_count)  # ceil division
    tiled_sigmas = np.tile(spec.jitter_sigmas_ps, tiles)[:hop_count]
    noise = np.zeros(hop_count)
    mask = tiled_sigmas > 0.0
    active = int(np.count_nonzero(mask))
    if active == hop_count:
        noise = rng.standard_normal(hop_count) * tiled_sigmas
    elif active:
        noise[mask] = rng.standard_normal(active) * tiled_sigmas[mask]
    return noise


def _iro_cumsum(
    spec: IROBatchSpec, modulation: Optional[ConstantModulation]
) -> np.ndarray:
    """Hop arrival times of one ring under a time-independent modulation."""
    hop_count = spec.edge_count * spec.stage_count
    base = spec.stage_delays_ps
    if modulation is not None:
        # Same float ops as the event process: D * (1 + w * f).
        base = base * (1.0 + spec.supply_weights * modulation.factor(0.0))
    delays = np.tile(base, spec.edge_count)
    delays += _iro_noise(spec, hop_count, make_rng(spec.seed))
    np.maximum(delays, _CAUSALITY_GUARD_PS, where=delays <= 0.0, out=delays)
    return np.cumsum(delays)


def _iro_hop_loop(
    spec: IROBatchSpec, modulation: DeterministicModulation
) -> np.ndarray:
    """Hop arrival times of one ring under a time-varying modulation.

    The event process scales hop ``k``'s delay by the modulation at the
    instant hop ``k - 1`` arrived, so the hops cannot be summed in one
    pass.  Stepping hop by hop on Python floats repeats the event
    process's double-precision operations in its order, through
    ``modulation.factor`` (which every modulation keeps bit-identical to
    ``factor_array``), so the times stay bit-exact.
    """
    hop_count = spec.edge_count * spec.stage_count
    steps = zip(
        np.tile(spec.stage_delays_ps, spec.edge_count).tolist(),
        np.tile(spec.supply_weights, spec.edge_count).tolist(),
        _iro_noise(spec, hop_count, make_rng(spec.seed)).tolist(),
    )
    factor = modulation.factor
    times = []
    now = 0.0
    for base, weight, noise in steps:
        delay = base * (1.0 + weight * factor(now)) + noise
        if delay <= 0.0:
            delay = _CAUSALITY_GUARD_PS
        now += delay
        times.append(now)
    return np.array(times)


def simulate_iro_batch(
    specs: Sequence[IROBatchSpec],
    modulation: Optional[DeterministicModulation] = None,
) -> BatchSimulationResult:
    """Advance a batch of inverter rings.

    Bit-exact against the event oracle
    (:meth:`~repro.rings.iro.InverterRingOscillator.simulate_reference`)
    for the same per-ring seed.  Without a modulation, or with a
    :class:`ConstantModulation`, each ring is one ``cumsum``; any other
    modulation steps each ring hop by hop (:func:`_iro_hop_loop`).
    """
    specs = list(specs)
    if not specs:
        return BatchSimulationResult(traces=[], events_processed=0)
    with span("batch_simulate", family="iro", rings=len(specs)) as tele:
        if modulation is None or isinstance(modulation, ConstantModulation):
            hop_times = [_iro_cumsum(spec, modulation) for spec in specs]
        else:
            hop_times = [_iro_hop_loop(spec, modulation) for spec in specs]
        # The observed node is the last stage: one edge per lap.
        traces = [
            EdgeTrace(times[spec.stage_count - 1 :: spec.stage_count], first_value=1)
            for spec, times in zip(specs, hop_times)
        ]
        total_events = sum(times.size for times in hop_times)
        tele.set("events", total_events)
        registry = default_registry()
        registry.counter("repro.batch.simulations").inc()
        registry.counter("repro.batch.rings").inc(len(specs))
        registry.counter("repro.batch.events").inc(total_events)
        return BatchSimulationResult(traces=traces, events_processed=total_events)


# ----------------------------------------------------------------------
# STR kernel
# ----------------------------------------------------------------------
def _noise_tensor(
    specs: Sequence[STRBatchSpec], budget: int, max_stages: int
) -> np.ndarray:
    """Pre-drawn jitter: ``[ring, n, stage]`` is the n-th firing's draw.

    Drawing the whole tensor up front keeps the per-wave cost at one
    gather instead of one Generator call per ring, and fixes a per-ring
    consumption order (stage-major within each firing index) so results
    are independent of batch composition.  All-zero-sigma rings skip
    their draws entirely (their slab stays zero).
    """
    noise = np.zeros((len(specs), budget, max_stages))
    for row, spec in enumerate(specs):
        if np.all(spec.jitter_sigmas_ps == 0.0):
            continue
        block = make_rng(spec.seed).standard_normal((budget, spec.stage_count))
        block *= spec.jitter_sigmas_ps[np.newaxis, :]
        noise[row, :, : spec.stage_count] = block
    return noise


def simulate_str_batch(
    specs: Sequence[STRBatchSpec],
    modulation: Optional[DeterministicModulation] = None,
    all_stages: bool = False,
) -> BatchSimulationResult:
    """Advance a batch of self-timed rings wave by wave.

    Each wave fires every enabled stage of every ring at once.  Firing
    times follow the event engine exactly (an enabled stage's inputs are
    frozen until it fires — see the module docstring), so the kernel is
    bit-identical to ``SelfTimedRing.simulate`` for noiseless rings and
    statistically equivalent with jitter.

    Two implementations share the same arithmetic, bit for bit: rings
    whose token pattern provably alternates between the even and the odd
    stages every wave (the standard evenly-spread configuration) run on
    a dense precomputed-structure kernel (:func:`_simulate_str_parity`);
    anything else falls back to the general masked-wave kernel.

    With ``all_stages=True`` every stage of a ring records its first
    ``edge_count`` firings (``stage_traces``), and the ring runs until
    its slowest stage has them.

    Raises ``RuntimeError`` when a ring deadlocks (no fireable stage
    left before its edge budget is met), mirroring the event path.
    """
    specs = list(specs)
    if not specs:
        return BatchSimulationResult(traces=[], events_processed=0)
    plans = _parity_plan(specs)
    if plans is not None:
        return _simulate_str_parity(specs, modulation, plans, all_stages)
    return _simulate_str_waves(specs, modulation, all_stages)


def _stage_traces(
    specs: Sequence[STRBatchSpec], times: Sequence[np.ndarray]
) -> List[List[EdgeTrace]]:
    """Per-ring, per-stage traces from ``times[r]`` of shape (edge, stage).

    Every firing flips a stage's output (it copies a predecessor that
    differs from it), so a stage's first edge takes the opposite of its
    initial value.
    """
    return [
        [
            EdgeTrace(ring_times[: spec.edge_count, stage], first_value=1 - int(value))
            for stage, value in enumerate(spec.initial_state)
        ]
        for spec, ring_times in zip(specs, times)
    ]


def _parity_plan(specs: Sequence[STRBatchSpec]) -> Optional[List[np.ndarray]]:
    """Prove, per ring, that firing alternates between even and odd stages.

    The *structural* evolution (which stages hold a token+bubble) never
    depends on timing, only on the state vector, so it can be iterated
    symbolically.  If wave 0 fires exactly one parity class, wave 1 the
    other, and two waves rotate the state by exactly two stages, then by
    ring symmetry the pattern repeats forever (parity classes are
    invariant under even rotations).  Returns each ring's wave-0 firing
    mask, or ``None`` when any ring breaks the pattern.
    """
    plans: List[np.ndarray] = []
    for spec in specs:
        stages = spec.stage_count
        if stages % 2:
            return None
        parity = np.arange(stages) % 2
        start = spec.initial_state.astype(np.int8)
        state = start.copy()
        masks = []
        for _ in range(2):
            pred = np.roll(state, 1)
            succ = np.roll(state, -1)
            enabled = (state != pred) & (succ == state)
            if not enabled.any():
                return None
            masks.append(enabled)
            state = np.where(enabled, pred, state)
        even, odd = parity == 0, parity == 1
        first_even = np.array_equal(masks[0], even) and np.array_equal(masks[1], odd)
        first_odd = np.array_equal(masks[0], odd) and np.array_equal(masks[1], even)
        if not (first_even or first_odd):
            return None
        if not np.array_equal(state, np.roll(start, 2)):
            return None
        plans.append(masks[0])
    return plans


def _noise_flat(
    specs: Sequence[STRBatchSpec], budget: int, bases: np.ndarray
) -> np.ndarray:
    """Pre-drawn jitter in flat layout: ``[n, base_r + stage]``.

    Draw-for-draw identical to :func:`_noise_tensor` for the same seeds
    and firing indices (both fill each ring's block row-major), so the
    parity and general kernels consume the very same values.
    """
    total = int(bases[-1]) + specs[-1].stage_count
    noise = np.zeros((budget, total))
    for spec, base in zip(specs, bases):
        if np.all(spec.jitter_sigmas_ps == 0.0):
            continue
        block = make_rng(spec.seed).standard_normal((budget, spec.stage_count))
        block *= spec.jitter_sigmas_ps[np.newaxis, :]
        noise[:, base : base + spec.stage_count] = block
    return noise


def _simulate_str_parity(
    specs: Sequence[STRBatchSpec],
    modulation: Optional[DeterministicModulation],
    plans: Sequence[np.ndarray],
    all_stages: bool = False,
) -> BatchSimulationResult:
    """Dense STR kernel for rings with a proven even/odd firing pattern.

    All rings' stages are packed into one flat vector (no padding), and
    because the firing sets are known a priori there is no per-wave
    enabled-mask computation, no done bookkeeping, and the noise row for
    firing index ``k`` is just row ``k`` of the pre-drawn matrix.  Every
    float operation mirrors :func:`_simulate_str_waves` exactly.
    """
    ring_count = len(specs)
    lengths = np.array([spec.stage_count for spec in specs], dtype=np.intp)
    bases = np.zeros(ring_count, dtype=np.intp)
    np.cumsum(lengths[:-1], out=bases[1:])
    total = int(lengths.sum())

    def packed(attr: str) -> np.ndarray:
        return np.concatenate([np.asarray(getattr(s, attr)) for s in specs])

    state = packed("initial_state").astype(np.int8)
    static_d = packed("static_delays_ps")
    offsets = packed("separation_offsets_ps")
    charlie = packed("charlie_ps")
    weights = packed("supply_weights")
    draft_amp = packed("drafting_amplitudes_ps")
    draft_tau = packed("drafting_time_constants_ps")
    drafting_active = bool(np.any(draft_amp > 0.0))
    pred = np.concatenate(
        [base + (np.arange(n) - 1) % n for base, n in zip(bases, lengths)]
    )
    succ = np.concatenate(
        [base + (np.arange(n) + 1) % n for base, n in zip(bases, lengths)]
    )
    last_time = np.zeros(total)

    edge_counts = np.array([spec.edge_count for spec in specs], dtype=np.intp)
    out_global = bases + np.array([spec.output_stage for spec in specs], dtype=np.intp)
    out_parity = np.array(
        [0 if plan[spec.output_stage] else 1 for spec, plan in zip(specs, plans)],
        dtype=np.intp,
    )
    budget = int(edge_counts.max()) + 4
    noise = _noise_flat(specs, budget, bases)

    # Per-parity structure, fixed for the whole run: firing positions,
    # their neighbours, and their parameter slices (gathered once).
    pos, pre, suc, par = [], [], [], []
    for phase in (0, 1):
        mask = np.concatenate(
            [plan if phase == 0 else ~plan for plan in plans]
        )
        p = np.flatnonzero(mask)
        pos.append(p)
        pre.append(pred.take(p))
        suc.append(succ.take(p))
        par.append(
            {
                "static": static_d.take(p),
                "offsets": offsets.take(p),
                "charlie": charlie.take(p),
                "weights": weights.take(p),
                "amp": draft_amp.take(p),
                "tau": draft_tau.take(p),
                "amp_positive": draft_amp.take(p) > 0.0,
            }
        )
    out_pos = [out_global[out_parity == phase] for phase in (0, 1)]
    out_rings = [np.flatnonzero(out_parity == phase) for phase in (0, 1)]

    edge_budget = int(edge_counts.max())
    edges_t = np.zeros((edge_budget, ring_count))
    first_values = np.full(ring_count, -1, dtype=np.int8)
    total_waves = int((2 * (edge_counts - 1) + out_parity).max()) + 1
    stage_t = None
    if all_stages:
        # Both firing classes need ``edge_budget`` firings each;
        # stage_t[k, position] is that stage's k-th firing time.
        total_waves = 2 * edge_budget
        stage_t = np.zeros((edge_budget, total))

    bufs = [
        {name: np.empty(pos[phase].size) for name in ("f", "r", "mean", "shift", "delay", "fire", "tmp", "z")}
        for phase in (0, 1)
    ]

    total_events = 0
    with span("batch_simulate", family="str", rings=ring_count, kernel="parity") as tele:
        for wave in range(total_waves):
            phase = wave & 1
            k = wave >> 1
            p = pos[phase]
            prm = par[phase]
            b = bufs[phase]
            f_t, r_t = b["f"], b["r"]
            mean_t, shifted, delay = b["mean"], b["shift"], b["delay"]
            fire_time, tmp = b["fire"], b["tmp"]

            last_time.take(pre[phase], out=f_t)
            last_time.take(suc[phase], out=r_t)
            np.add(f_t, r_t, out=mean_t)
            mean_t *= 0.5
            np.subtract(f_t, r_t, out=shifted)
            shifted *= 0.5
            shifted -= prm["offsets"]
            np.hypot(prm["charlie"], shifted, out=delay)
            delay += prm["static"]
            if drafting_active:
                np.add(mean_t, delay, out=tmp)
                tmp -= last_time.take(p)
                draft_mask = tmp > 0.0
                draft_mask &= prm["amp_positive"]
                np.maximum(tmp, 0.0, out=tmp)
                np.negative(tmp, out=tmp)
                tmp /= prm["tau"]
                np.exp(tmp, out=tmp)
                tmp *= prm["amp"]
                tmp *= draft_mask
                delay -= tmp
            floor_t = np.maximum(f_t, r_t, out=f_t)  # f_t no longer needed
            if modulation is not None:
                factor = modulation.factor_array(floor_t)
                factor *= prm["weights"]
                factor += 1.0
                delay *= factor
            noise[k].take(p, out=b["z"])
            delay += b["z"]

            np.add(mean_t, delay, out=fire_time)
            np.add(floor_t, _CAUSALITY_GUARD_PS, out=tmp)
            np.copyto(fire_time, tmp, where=fire_time <= floor_t)

            state.put(p, state.take(pre[phase]))
            last_time.put(p, fire_time)
            total_events += p.size
            if stage_t is not None:
                stage_t[k, p] = fire_time

            rec = out_pos[phase]
            if rec.size:
                edges_t[k, out_rings[phase]] = last_time.take(rec)
                if k == 0:
                    first_values[out_rings[phase]] = state.take(rec)

        tele.set("events", total_events)
        tele.set("waves", total_waves)
        registry = default_registry()
        registry.counter("repro.batch.simulations").inc()
        registry.counter("repro.batch.rings").inc(ring_count)
        registry.counter("repro.batch.events").inc(total_events)
        registry.counter("repro.batch.waves").inc(total_waves)

    traces = [
        EdgeTrace(
            edges_t[: edge_counts[row], row].copy(),
            first_value=int(first_values[row]) if first_values[row] >= 0 else 1,
        )
        for row in range(ring_count)
    ]
    stage_traces = None
    if stage_t is not None:
        stage_traces = _stage_traces(
            specs, [stage_t[:, base : base + n] for base, n in zip(bases, lengths)]
        )
    return BatchSimulationResult(
        traces=traces,
        events_processed=total_events,
        waves=total_waves,
        stage_traces=stage_traces,
    )


def _simulate_str_waves(
    specs: Sequence[STRBatchSpec],
    modulation: Optional[DeterministicModulation] = None,
    all_stages: bool = False,
) -> BatchSimulationResult:
    """General masked-wave STR kernel (padded planes, any configuration)."""
    ring_count = len(specs)
    max_stages = max(spec.stage_count for spec in specs)
    max_edges = max(spec.edge_count for spec in specs)

    # --- padded state planes ------------------------------------------------
    state = np.zeros((ring_count, max_stages), dtype=np.int8)
    last_time = np.zeros((ring_count, max_stages))
    pred_idx = np.zeros((ring_count, max_stages), dtype=np.intp)
    succ_idx = np.zeros((ring_count, max_stages), dtype=np.intp)
    static_d = np.zeros((ring_count, max_stages))
    offsets = np.zeros((ring_count, max_stages))
    charlie = np.zeros((ring_count, max_stages))
    weights = np.zeros((ring_count, max_stages))
    draft_amp = np.zeros((ring_count, max_stages))
    draft_tau = np.ones((ring_count, max_stages))
    edge_counts = np.zeros(ring_count, dtype=np.intp)
    out_idx = np.zeros(ring_count, dtype=np.intp)

    for row, spec in enumerate(specs):
        stages = spec.stage_count
        state[row, :stages] = spec.initial_state
        # Padded columns point at themselves: state == state -> no token,
        # so they can never fire; no separate active mask is needed.
        pred_idx[row, :stages] = (np.arange(stages) - 1) % stages
        succ_idx[row, :stages] = (np.arange(stages) + 1) % stages
        pred_idx[row, stages:] = np.arange(stages, max_stages)
        succ_idx[row, stages:] = np.arange(stages, max_stages)
        static_d[row, :stages] = spec.static_delays_ps
        offsets[row, :stages] = spec.separation_offsets_ps
        charlie[row, :stages] = spec.charlie_ps
        weights[row, :stages] = spec.supply_weights
        draft_amp[row, :stages] = spec.drafting_amplitudes_ps
        draft_tau[row, :stages] = spec.drafting_time_constants_ps
        edge_counts[row] = spec.edge_count
        out_idx[row] = spec.output_stage

    drafting_active = bool(np.any(draft_amp > 0.0))
    amp_positive = draft_amp > 0.0
    # Per-stage firing budget: stages fire at most one lap apart, so the
    # output's edge budget plus slack bounds every stage; grown on demand.
    # Neighbouring stages' firings interleave, so no stage runs more than
    # L/2 firings ahead of the slowest one when every stage records.
    budget = max_edges + 8 + (max_stages // 2 if all_stages else 0)
    noise = _noise_tensor(specs, budget, max_stages)  # (ring, firing, stage)

    # Flat indices into the raveled (ring, stage) planes — `ndarray.take`
    # on a precomputed flat index plane is the fast path; take_along_axis
    # rebuilds its index grids on every call.
    rows = np.arange(ring_count)
    flat_pred = rows[:, np.newaxis] * max_stages + pred_idx
    flat_succ = rows[:, np.newaxis] * max_stages + succ_idx
    flat_out = rows * max_stages + out_idx
    cols = np.arange(max_stages)
    # noise[r, n, c] lives at flat offset r*budget*L + n*L + c.
    noise_rc = rows[:, np.newaxis] * (budget * max_stages) + cols[np.newaxis, :]

    fire_count = np.zeros((ring_count, max_stages), dtype=np.intp)
    edges = np.zeros((ring_count, max_edges))
    stage_edges = None
    if all_stages:
        # Same layout as the noise tensor: [ring, n, stage] is the stage's
        # n-th firing time.  A ring is done once its slowest real stage
        # has fired edge_count times.
        stage_edges = np.zeros_like(noise)
        real = cols[np.newaxis, :] < np.array([s.stage_count for s in specs])[:, np.newaxis]
    first_values = np.full(ring_count, -1, dtype=np.int8)
    filled = np.zeros(ring_count, dtype=np.intp)
    done = filled >= edge_counts
    active = ~done[:, np.newaxis]

    plane = (ring_count, max_stages)
    f_t = np.empty(plane)
    r_t = np.empty(plane)
    mean_t = np.empty(plane)
    shifted = np.empty(plane)
    delay = np.empty(plane)
    floor_t = np.empty(plane)
    fire_time = np.empty(plane)
    tmp = np.empty(plane)
    z = np.empty(plane)
    nidx = np.empty(plane, dtype=np.intp)
    count_bound = 0  # upper bound on fire_count.max(); tightened lazily

    total_events = 0
    waves = 0
    with span("batch_simulate", family="str", rings=ring_count) as tele:
        # The loop body works on whole (ring, stage) planes: the enabled
        # mask routes updates through masked np.copyto instead of
        # fancy-indexed scatter, keeping every op a contiguous vector pass
        # into preallocated buffers.
        while not done.all():
            s_pred = state.take(flat_pred)
            enabled = state != s_pred
            enabled &= state.take(flat_succ) == state
            enabled &= active
            fired = int(np.count_nonzero(enabled))
            if fired == 0:
                stuck = np.nonzero(~done)[0]
                labels = ", ".join(
                    f"{specs[row].name}[{row}] after {int(filled[row])} edges "
                    f"(wanted {int(edge_counts[row])}; state "
                    f"{''.join(str(int(v)) for v in state[row, : specs[row].stage_count])})"
                    for row in stuck[:4]
                )
                raise RuntimeError(f"STR batch deadlocked: {labels}")

            last_time.take(flat_pred, out=f_t)
            last_time.take(flat_succ, out=r_t)
            np.add(f_t, r_t, out=mean_t)
            mean_t *= 0.5
            np.subtract(f_t, r_t, out=shifted)
            shifted *= 0.5
            shifted -= offsets
            np.hypot(charlie, shifted, out=delay)
            delay += static_d
            if drafting_active:
                np.add(mean_t, delay, out=tmp)
                tmp -= last_time  # elapsed since this stage last fired
                draft_mask = tmp > 0.0
                draft_mask &= amp_positive
                np.maximum(tmp, 0.0, out=tmp)
                np.negative(tmp, out=tmp)
                tmp /= draft_tau
                np.exp(tmp, out=tmp)
                tmp *= draft_amp
                tmp *= draft_mask  # zero the reduction where inactive
                delay -= tmp
            np.maximum(f_t, r_t, out=floor_t)
            if modulation is not None:
                # The event engine samples the modulation at schedule time,
                # which is always max(t_f, t_r) — available vectorized.
                factor = modulation.factor_array(floor_t)
                factor *= weights
                factor += 1.0
                delay *= factor
            if count_bound >= budget:
                count_bound = int(fire_count.max())
                if count_bound >= budget:
                    noise = _grow_noise(noise, specs, max_stages)
                    if stage_edges is not None:
                        grown = np.zeros_like(noise)
                        grown[:, :budget] = stage_edges
                        stage_edges = grown
                    budget = noise.shape[1]
                    noise_rc = rows[:, np.newaxis] * (
                        budget * max_stages
                    ) + cols[np.newaxis, :]
            np.multiply(fire_count, max_stages, out=nidx)
            nidx += noise_rc
            noise.take(nidx, out=z)
            delay += z

            np.add(mean_t, delay, out=fire_time)
            np.add(floor_t, _CAUSALITY_GUARD_PS, out=tmp)
            np.copyto(fire_time, tmp, where=fire_time <= floor_t)

            if stage_edges is not None:
                # Every position writes to the slot of its next firing; a
                # stage that did not fire is overwritten when it does, and
                # slots past edge_count are never read.
                stage_edges.put(nidx, fire_time)
            np.copyto(state, s_pred, where=enabled)
            np.copyto(last_time, fire_time, where=enabled)
            fire_count += enabled
            count_bound += 1
            total_events += fired
            waves += 1

            if stage_edges is not None:
                filled = fire_count.min(axis=1, initial=max_edges, where=real)
                done = filled >= edge_counts
                active = ~done[:, np.newaxis]
                continue
            recording = enabled.take(flat_out)
            if recording.any():
                rec_rows = np.flatnonzero(recording)
                edges[rec_rows, filled[rec_rows]] = last_time[
                    rec_rows, out_idx[rec_rows]
                ]
                fresh = first_values[rec_rows] < 0
                if fresh.any():
                    first_values[rec_rows[fresh]] = state[
                        rec_rows[fresh], out_idx[rec_rows[fresh]]
                    ]
                filled[rec_rows] += 1
                done = filled >= edge_counts
                active = ~done[:, np.newaxis]

        tele.set("events", total_events)
        tele.set("waves", waves)
        registry = default_registry()
        registry.counter("repro.batch.simulations").inc()
        registry.counter("repro.batch.rings").inc(ring_count)
        registry.counter("repro.batch.events").inc(total_events)
        registry.counter("repro.batch.waves").inc(waves)

    if stage_edges is not None:
        stage_traces = _stage_traces(specs, stage_edges)
        return BatchSimulationResult(
            traces=[stage_traces[row][out_idx[row]] for row in range(ring_count)],
            events_processed=total_events,
            waves=waves,
            stage_traces=stage_traces,
        )
    traces = [
        EdgeTrace(
            edges[row, : edge_counts[row]],
            first_value=int(first_values[row]) if first_values[row] >= 0 else 1,
        )
        for row in range(ring_count)
    ]
    return BatchSimulationResult(
        traces=traces, events_processed=total_events, waves=waves
    )


def _grow_noise(
    noise: np.ndarray, specs: Sequence[STRBatchSpec], max_stages: int
) -> np.ndarray:
    """Double the firing budget of the pre-drawn noise tensor.

    ``standard_normal`` fills row-major, so the first ``F`` rows of a
    doubled draw are identical to the original ``F``-row draw — the
    values a ring consumes never depend on the budget, only on its seed.
    """
    return _noise_tensor(specs, noise.shape[1] * 2, max_stages)


__all__ = [
    "BatchSimulationResult",
    "IROBatchSpec",
    "STRBatchSpec",
    "simulate_iro_batch",
    "simulate_str_batch",
]
