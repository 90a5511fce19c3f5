"""Vectorized batch ring-simulation kernel.

The per-event engine (:mod:`repro.simulation.engine`) advances one
transition at a time through a Python heap — faithful, but the pace is
set by the interpreter, not the hardware.  This module advances
whole batches of independent rings with array passes over many firings
at once, which is what the ring campaigns, replica fan-outs and long
all-stage runs need.

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

*Which* stages fire in a wave depends only on the state vector, never
on timing.  The kernel therefore plans the firings before it runs: it
iterates each ring's state symbolically until the state repeats, which
gives a prefix of waves and a cycle that repeats forever (balanced even
rings: no prefix, a 4-wave cycle).  The wave loop then only does the
timing arithmetic on precomputed firing positions, reading its noise
from and writing its fire times to one slice per wave of wave-ordered
buffers.  Rings whose cycles have the same length share one loop.

The STR kernel can also record every stage, not just one output stage
(``all_stages=True``, what :meth:`SelfTimedRing.simulate_phases` reads).

Rings of different lengths batch together: all stages are packed into
one flat vector with per-ring neighbour maps, so a mixed
FIG11/FIG12-style workload runs as one kernel invocation.

Every result depends only on the owning ring's spec and seed — never on
which other rings share the batch — so batch composition is a pure
performance choice.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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
def _ring_plan(spec: STRBatchSpec, row: int) -> Tuple[np.ndarray, int]:
    """One ring's firing plan: ``(fires, prefix)``.

    Which stages fire in a wave depends only on the state vector, never
    on timing, so the wave iteration runs symbolically until a state
    repeats.  ``fires[w]`` is wave ``w``'s firing mask; from wave
    ``prefix`` on the masks repeat with period ``len(fires) - prefix``.
    Firing moves a token without creating or destroying one, so only an
    all-token or all-bubble state, and then from the start, deadlocks.
    """
    state = spec.initial_state
    seen = {state.tobytes(): 0}
    masks = []
    while True:
        pred = np.roll(state, 1)
        enabled = (state != pred) & (np.roll(state, -1) == state)
        if not enabled.any():
            raise RuntimeError(
                f"STR batch deadlocked: {spec.name}[{row}] has no token with a "
                f"bubble ahead (state {''.join(str(int(v)) for v in state)})"
            )
        masks.append(enabled)
        state = np.where(enabled, pred, state)
        prefix = seen.setdefault(state.tobytes(), len(masks))
        if prefix < len(masks):
            return np.array(masks), prefix


class _WavePlan:
    """The firing plan of rings sharing one period, stages side by side.

    ``fires[s]`` is step ``s``'s firing mask over the packed stage
    columns and ``positions[s]`` its firing columns.  Steps from
    ``prefix`` on repeat: wave ``w`` runs step ``w`` while ``w < prefix``,
    then step ``prefix + (w - prefix) % period``.  A run stores its
    firings in wave order.
    """

    def __init__(self, fires: np.ndarray, prefix: int) -> None:
        steps = fires.shape[0]
        self.fires = fires
        self.positions = [np.flatnonzero(mask) for mask in fires]
        self.prefix = prefix
        self.period = steps - prefix
        # Buffer offset of each step's first run, and of a firing within it.
        self.starts = np.concatenate(([0], np.cumsum(fires.sum(axis=1))))
        self.cycle_size = int(self.starts[-1] - self.starts[prefix])
        self.rank = np.cumsum(fires, axis=1) - 1
        # Each column's firing steps in order.  A state that repeats has
        # fired every stage equally often (the ring is a marked graph),
        # so every column fires ``per_cycle >= 1`` times per cycle.
        self.fire_steps = np.sort(
            np.where(fires, np.arange(steps)[:, np.newaxis], steps), axis=0
        )
        self.in_prefix = fires[:prefix].sum(axis=0)
        self.per_cycle = fires[prefix:].sum(axis=0)

    def _locate(self, n, cols):
        """Step and cycle repeat of column ``cols``' ``n``-th firing (from 0)."""
        in_prefix = self.in_prefix[cols]
        per_cycle = self.per_cycle[cols]
        late = n - in_prefix
        repeat = np.where(late < 0, 0, late // per_cycle)
        index = np.where(late < 0, n, in_prefix + late % per_cycle)
        return self.fire_steps[index, cols], repeat

    def wave(self, n, cols) -> np.ndarray:
        """Wave in which column ``cols`` fires for the ``n``-th time."""
        step, repeat = self._locate(n, cols)
        return step + repeat * self.period

    def slot(self, n, cols) -> np.ndarray:
        """Wave-order index of column ``cols``' ``n``-th firing."""
        step, repeat = self._locate(n, cols)
        return self.starts[step] + repeat * self.cycle_size + self.rank[step, cols]

    def firings(self, waves: int) -> np.ndarray:
        """Per-column firing counts over the first ``waves`` waves."""
        if waves <= self.prefix:
            return self.fires[:waves].sum(axis=0)
        repeats, rest = divmod(waves - self.prefix, self.period)
        tail = self.fires[self.prefix : self.prefix + rest].sum(axis=0)
        return self.in_prefix + repeats * self.per_cycle + tail

    def in_wave_order(self, base: np.ndarray, stride: np.ndarray, waves: int) -> np.ndarray:
        """``base[c] + k * stride[c]`` for every firing of the first
        ``waves`` waves (column ``c``'s ``k``-th), in wave order."""
        before = np.cumsum(self.fires, axis=0) - self.fires  # firings before step
        runs = [
            base[pos] + before[step, pos] * stride[pos]
            for step, pos in enumerate(self.positions)
        ]
        head = int(self.starts[self.prefix])
        repeats = max(0, -(-(waves - self.prefix) // self.period))
        order = np.empty(head + repeats * self.cycle_size, dtype=np.intp)
        if head:
            order[:head] = np.concatenate(runs[: self.prefix])
        # Each cycle repeat advances column c by per_cycle[c] firings.
        tiled = order[head:].reshape(repeats, self.cycle_size)
        cycle_cols = np.concatenate(self.positions[self.prefix :])
        np.multiply(
            np.arange(repeats)[:, np.newaxis],
            (self.per_cycle * stride)[cycle_cols],
            out=tiled,
        )
        tiled += np.concatenate(runs[self.prefix :])
        return order[: int(self.firings(waves).sum())]


class _Step(NamedTuple):
    """One plan step: firing columns, their neighbours, parameters, scratch."""

    pos: np.ndarray
    pred: np.ndarray
    succ: np.ndarray
    static: np.ndarray
    offsets: np.ndarray
    charlie: np.ndarray
    weights: np.ndarray
    amp: np.ndarray
    tau: np.ndarray
    amp_positive: np.ndarray
    f: np.ndarray
    r: np.ndarray
    mean: np.ndarray
    shift: np.ndarray
    delay: np.ndarray
    tmp: np.ndarray


def simulate_str_batch(
    specs: Sequence[STRBatchSpec],
    modulation: Optional[DeterministicModulation] = None,
    all_stages: bool = False,
) -> BatchSimulationResult:
    """Advance a batch of self-timed rings wave by wave.

    Each wave fires every enabled stage of every ring at once.  Firing
    times follow the event engine exactly (an enabled stage's inputs are
    frozen until it fires — see the module docstring), so the kernel is
    bit-identical to ``SelfTimedRing.simulate_reference`` for noiseless
    rings and statistically equivalent with jitter.

    Which stages fire in each wave is planned before the run
    (:func:`_ring_plan`): a prefix of waves, then a cycle that repeats.
    Rings with the same cycle length run in one wave loop.

    With ``all_stages=True`` every stage of a ring records its first
    ``edge_count`` firings (``stage_traces``), and the ring runs until
    its slowest stage has them.

    Raises ``RuntimeError`` for a ring that can never fire (an all-token
    or all-bubble state), mirroring the event path.
    """
    specs = list(specs)
    if not specs:
        return BatchSimulationResult(traces=[], events_processed=0)
    traces: list = [None] * len(specs)
    stage_traces: list = [None] * len(specs)
    events = waves = 0
    with span("batch_simulate", family="str", rings=len(specs)) as tele:
        # Replicas share an initial state, and so a plan.
        by_state: Dict[bytes, Tuple[np.ndarray, int]] = {}
        plans = []
        for row, spec in enumerate(specs):
            key = spec.initial_state.tobytes()
            if key not in by_state:
                by_state[key] = _ring_plan(spec, row)
            plans.append(by_state[key])
        groups: Dict[int, List[int]] = {}
        for row, (fires, prefix) in enumerate(plans):
            groups.setdefault(len(fires) - prefix, []).append(row)
        for rows in groups.values():
            group = _simulate_str_group(
                [specs[row] for row in rows],
                [plans[row] for row in rows],
                modulation,
                all_stages,
            )
            for index, row in enumerate(rows):
                traces[row] = group.traces[index]
                if group.stage_traces is not None:
                    stage_traces[row] = group.stage_traces[index]
            events += group.events_processed
            waves += group.waves

        tele.set("events", events)
        tele.set("waves", waves)
        registry = default_registry()
        registry.counter("repro.batch.simulations").inc()
        registry.counter("repro.batch.rings").inc(len(specs))
        registry.counter("repro.batch.events").inc(events)
        registry.counter("repro.batch.waves").inc(waves)
    return BatchSimulationResult(
        traces=traces,
        events_processed=events,
        waves=waves,
        stage_traces=stage_traces if all_stages else None,
    )


def _wave_noise(
    specs: Sequence[STRBatchSpec],
    plan: _WavePlan,
    wave_count: int,
    all_stages: bool,
) -> Optional[np.ndarray]:
    """Pre-drawn jitter in wave order, or ``None`` for a noiseless group.

    A ring draws one ``standard_normal((F, L))`` block from its seed and
    the k-th firing of stage ``s`` takes row ``k``, column ``s``.  Draws
    fill row-major, so the values do not depend on ``F`` — nor on which
    rings share the batch.  All-zero-sigma rings draw nothing.

    ``F`` is never below ``edge_count + 8`` (``+ L // 2`` with
    ``all_stages``): a caller that passes its own ``Generator``
    (``MultiphaseStrTrng``) and draws from it afterwards depends on how
    far the kernel advanced it, and the recorded results use that size.
    """
    if all(np.all(spec.jitter_sigmas_ps == 0.0) for spec in specs):
        return None
    lengths = np.array([spec.stage_count for spec in specs], dtype=np.intp)
    column_counts = np.split(plan.firings(wave_count), np.cumsum(lengths)[:-1])
    rows = [
        max(spec.edge_count + 8 + (spec.stage_count // 2 if all_stages else 0), int(c.max()))
        for spec, c in zip(specs, column_counts)
    ]
    sizes = np.array(rows) * lengths
    bases = np.zeros(len(specs), dtype=np.intp)
    np.cumsum(sizes[:-1], out=bases[1:])
    drawn = np.zeros(int(sizes.sum()))
    for spec, base, size, row_count in zip(specs, bases, sizes, rows):
        if np.all(spec.jitter_sigmas_ps == 0.0):
            continue
        block = drawn[base : base + size].reshape(row_count, spec.stage_count)
        make_rng(spec.seed).standard_normal(out=block)
        block *= spec.jitter_sigmas_ps[np.newaxis, :]
    # Stage s of a ring at ``base`` takes its k-th draw from base + k*L + s.
    stage = np.concatenate([np.arange(n) for n in lengths])
    firsts = np.repeat(bases, lengths) + stage
    return drawn.take(plan.in_wave_order(firsts, np.repeat(lengths, lengths), wave_count))


def _simulate_str_group(
    specs: Sequence[STRBatchSpec],
    ring_plans: Sequence[Tuple[np.ndarray, int]],
    modulation: Optional[DeterministicModulation],
    all_stages: bool,
) -> BatchSimulationResult:
    """One wave loop over rings whose plans share a cycle length.

    All rings' stages are packed into one flat vector (no padding).  The
    plan fixes every step's firing columns, so there is no per-wave
    enabled mask or bookkeeping; each wave reads its noise from, and
    writes its fire times to, a slice of a wave-ordered buffer.  The
    loop runs until the last ring is done; a ring done earlier keeps
    firing, and no trace reads those firings.
    """
    period = len(ring_plans[0][0]) - ring_plans[0][1]
    prefix = max(ring_prefix for _, ring_prefix in ring_plans)
    step_index = np.arange(prefix + period)
    plan = _WavePlan(
        np.hstack(
            [
                fires[
                    np.where(
                        step_index < ring_prefix,
                        step_index,
                        ring_prefix + (step_index - ring_prefix) % period,
                    )
                ]
                for fires, ring_prefix in ring_plans
            ]
        ),
        prefix,
    )
    lengths = np.array([spec.stage_count for spec in specs], dtype=np.intp)
    bases = np.zeros(len(specs), dtype=np.intp)
    np.cumsum(lengths[:-1], out=bases[1:])
    total = int(lengths.sum())
    edge_counts = np.array([spec.edge_count for spec in specs], dtype=np.intp)
    out_cols = bases + np.array([spec.output_stage for spec in specs], dtype=np.intp)

    # A ring is done at its output stage's edge_count-th firing, or with
    # all_stages at its slowest stage's.
    if all_stages:
        last = plan.wave(np.repeat(edge_counts, lengths) - 1, np.arange(total))
    else:
        last = plan.wave(edge_counts - 1, out_cols)
    wave_count = int(last.max()) + 1
    counts = plan.firings(wave_count)
    noise = _wave_noise(specs, plan, wave_count, all_stages)
    fired = np.empty(int(counts.sum()))

    def packed(attr: str) -> np.ndarray:
        return np.concatenate([np.asarray(getattr(s, attr)) for s in specs])

    pred = np.concatenate([base + (np.arange(n) - 1) % n for base, n in zip(bases, lengths)])
    succ = np.concatenate([base + (np.arange(n) + 1) % n for base, n in zip(bases, lengths)])
    static_d = packed("static_delays_ps")
    offsets = packed("separation_offsets_ps")
    charlie = packed("charlie_ps")
    weights = packed("supply_weights")
    draft_amp = packed("drafting_amplitudes_ps")
    draft_tau = packed("drafting_time_constants_ps")
    drafting_active = bool(np.any(draft_amp > 0.0))
    structure = [
        _Step(
            pos=pos,
            pred=pred[pos],
            succ=succ[pos],
            static=static_d[pos],
            offsets=offsets[pos],
            charlie=charlie[pos],
            weights=weights[pos],
            amp=draft_amp[pos],
            tau=draft_tau[pos],
            amp_positive=draft_amp[pos] > 0.0,
            **{name: np.empty(pos.size) for name in ("f", "r", "mean", "shift", "delay", "tmp")},
        )
        for pos in plan.positions
    ]

    last_time = np.zeros(total)
    offset = 0
    for wave in range(wave_count):
        step = structure[wave if wave < prefix else prefix + (wave - prefix) % period]
        end = offset + step.pos.size
        fire_time = fired[offset:end]
        f_t, r_t, mean_t, shifted, delay, tmp = (
            step.f, step.r, step.mean, step.shift, step.delay, step.tmp
        )

        last_time.take(step.pred, out=f_t)
        last_time.take(step.succ, out=r_t)
        np.add(f_t, r_t, out=mean_t)
        mean_t *= 0.5
        np.subtract(f_t, r_t, out=shifted)
        shifted *= 0.5
        shifted -= step.offsets
        np.hypot(step.charlie, shifted, out=delay)
        delay += step.static
        if drafting_active:
            np.add(mean_t, delay, out=tmp)
            tmp -= last_time.take(step.pos)  # elapsed since this stage last fired
            draft_mask = tmp > 0.0
            draft_mask &= step.amp_positive
            np.maximum(tmp, 0.0, out=tmp)
            np.negative(tmp, out=tmp)
            tmp /= step.tau
            np.exp(tmp, out=tmp)
            tmp *= step.amp
            tmp *= draft_mask  # zero the reduction where inactive
            delay -= tmp
        floor_t = np.maximum(f_t, r_t, out=f_t)  # f_t no longer needed
        if modulation is not None:
            # The event engine samples the modulation at schedule time,
            # which is always max(t_f, t_r).
            factor = modulation.factor_array(floor_t)
            factor *= step.weights
            factor += 1.0
            delay *= factor
        if noise is not None:
            delay += noise[offset:end]

        np.add(mean_t, delay, out=fire_time)
        np.add(floor_t, _CAUSALITY_GUARD_PS, out=tmp)
        np.copyto(fire_time, tmp, where=fire_time <= floor_t)
        last_time.put(step.pos, fire_time)
        offset = end

    # Every firing flips a stage's output (it copies a predecessor that
    # differs from it), so a stage's first edge is the opposite of its
    # initial value.
    if not all_stages:
        traces = [
            EdgeTrace(
                fired[plan.slot(np.arange(spec.edge_count), out_col)],
                first_value=1 - int(spec.initial_state[spec.output_stage]),
            )
            for spec, out_col in zip(specs, out_cols)
        ]
        return BatchSimulationResult(
            traces=traces, events_processed=fired.size, waves=wave_count
        )
    del noise  # keeps the stage-major copy within the run's peak memory
    # stage_t[k, column] is that column's k-th fire time.
    stage_t = np.empty((int(counts.max()), total))
    stage_t.put(plan.in_wave_order(np.arange(total), np.full(total, total), wave_count), fired)
    stage_traces = [
        [
            EdgeTrace(stage_t[: spec.edge_count, base + stage], first_value=1 - int(value))
            for stage, value in enumerate(spec.initial_state)
        ]
        for spec, base in zip(specs, bases)
    ]
    traces = [stages[spec.output_stage] for spec, stages in zip(specs, stage_traces)]
    return BatchSimulationResult(
        traces=traces,
        events_processed=fired.size,
        waves=wave_count,
        stage_traces=stage_traces,
    )


__all__ = [
    "BatchSimulationResult",
    "IROBatchSpec",
    "STRBatchSpec",
    "simulate_iro_batch",
    "simulate_str_batch",
]
