"""Property-based batch/event equivalence over random ring populations.

The batch kernel's contract, exercised over randomly drawn lengths,
seeds and jitter magnitudes:

* IRO batches are *bit-identical* to the event engine, always — also
  under a time-varying (sinusoidal) supply modulation;
* STR batches are bit-identical whenever the rings are noiseless — from
  any initial state that can fire, so over every firing plan — and
  statistically equivalent otherwise (same process, different draw
  order — mean period within 1%, period jitter within a factor
  matching the estimator's own sampling spread at the tested sizes).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.charlie import CharlieDiagram, CharlieParameters
from repro.rings.iro import InverterRingOscillator
from repro.rings.str_ring import SelfTimedRing
from repro.rings.tokens import count_tokens
from repro.simulation.batch import (
    IROBatchSpec,
    STRBatchSpec,
    simulate_iro_batch,
    simulate_str_batch,
)
from repro.simulation.noise import SinusoidalModulation


@st.composite
def iro_populations(draw):
    """A small batch of IROs with random lengths, delays and sigmas."""
    ring_count = draw(st.integers(1, 4))
    rings = []
    for index in range(ring_count):
        stages = draw(st.integers(1, 15))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        delays = rng.uniform(100.0, 400.0, size=stages)
        sigma = draw(st.sampled_from([0.0, 0.5, 2.0, 5.0]))
        rings.append(InverterRingOscillator(delays, jitter_sigmas_ps=sigma))
    return rings


@st.composite
def str_rings(draw):
    """One STR with random (valid) geometry and Charlie parameters."""
    stages = draw(st.integers(2, 12)) * 2
    token_choices = [t for t in range(2, stages, 2)]
    tokens = draw(st.sampled_from(token_choices))
    static = draw(st.floats(150.0, 400.0))
    charlie = draw(st.floats(20.0, 150.0))
    diagram = CharlieDiagram(CharlieParameters.symmetric(static, charlie))
    return SelfTimedRing([diagram] * stages, tokens, jitter_sigmas_ps=0.0)


@st.composite
def str_states(draw):
    """A noiseless STR of any length >= 3 from any state that can fire."""
    stages = draw(st.integers(3, 16))
    state = draw(
        st.lists(st.integers(0, 1), min_size=stages, max_size=stages).filter(
            lambda bits: 0 < count_tokens(bits) < len(bits)
        )
    )
    static = draw(st.floats(150.0, 400.0))
    charlie = draw(st.floats(20.0, 150.0))
    diagram = CharlieDiagram(CharlieParameters.symmetric(static, charlie))
    return SelfTimedRing(
        [diagram] * stages, count_tokens(state), jitter_sigmas_ps=0.0, initial_state=state
    )


def full_event_times(ring, edge_count, seed, modulation=None):
    period_count = (edge_count - 1) // 2
    result = ring.simulate_reference(
        period_count, seed=seed, modulation=modulation, warmup_periods=0
    )
    return result.warmup_trace.times_ps[:edge_count]


class TestIROEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(iro_populations(), st.integers(0, 2**31 - 1))
    def test_batch_bit_identical_to_event(self, rings, seed):
        seeds = [seed + index for index in range(len(rings))]
        specs = [
            IROBatchSpec.from_ring(ring, edge_count=21, seed=ring_seed)
            for ring, ring_seed in zip(rings, seeds)
        ]
        batch = simulate_iro_batch(specs)
        for ring, ring_seed, trace in zip(rings, seeds, batch.traces):
            np.testing.assert_array_equal(
                trace.times_ps, full_event_times(ring, 21, ring_seed)
            )

    @settings(max_examples=20, deadline=None)
    @given(
        iro_populations(),
        st.integers(0, 2**31 - 1),
        st.floats(0.001, 0.2),
        st.floats(500.0, 1e6),
        st.floats(0.0, 6.283),
    )
    def test_sinusoidal_modulation_bit_identical_to_event(
        self, rings, seed, amplitude, period_ps, phase
    ):
        modulation = SinusoidalModulation(amplitude, period_ps, phase)
        seeds = [seed + index for index in range(len(rings))]
        specs = [
            IROBatchSpec.from_ring(ring, edge_count=21, seed=ring_seed)
            for ring, ring_seed in zip(rings, seeds)
        ]
        batch = simulate_iro_batch(specs, modulation=modulation)
        for ring, ring_seed, trace in zip(rings, seeds, batch.traces):
            np.testing.assert_array_equal(
                trace.times_ps, full_event_times(ring, 21, ring_seed, modulation)
            )

    @settings(max_examples=20, deadline=None)
    @given(iro_populations())
    def test_period_statistics_preserved(self, rings):
        specs = [
            IROBatchSpec.from_ring(ring, edge_count=41, seed=index)
            for index, ring in enumerate(rings)
        ]
        batch = simulate_iro_batch(specs)
        for ring, trace in zip(rings, batch.traces):
            periods = trace.periods_ps()
            assert periods.size == 20
            assert np.all(periods > 0.0)
            if np.all(ring.jitter_sigmas_ps == 0.0):
                assert trace.mean_period_ps() == pytest.approx(
                    ring.predicted_period_ps(), rel=1e-9
                )


class TestSTREquivalence:
    @settings(max_examples=20, deadline=None)
    @given(str_rings(), st.integers(0, 2**31 - 1))
    def test_noiseless_batch_bit_identical_to_event(self, ring, seed):
        spec = STRBatchSpec.from_ring(ring, edge_count=25, seed=seed)
        batch = simulate_str_batch([spec])
        np.testing.assert_array_equal(
            batch.traces[0].times_ps, full_event_times(ring, 25, seed)
        )

    @settings(max_examples=25, deadline=None)
    @given(str_states(), st.integers(0, 2**31 - 1), st.integers(0, 15))
    def test_any_initial_state_bit_identical_to_event(self, ring, seed, output):
        output %= ring.stage_count
        spec = STRBatchSpec.from_ring(ring, edge_count=25, seed=seed, output_stage=output)
        oracle = ring.simulate_reference(12, seed=seed, warmup_periods=0, output_stage=output)
        batch = simulate_str_batch([spec])
        np.testing.assert_array_equal(
            batch.traces[0].times_ps, oracle.warmup_trace.times_ps
        )
        assert batch.traces[0].first_value == oracle.warmup_trace.first_value

    @settings(max_examples=15, deadline=None)
    @given(str_states(), st.integers(0, 2**31 - 1))
    def test_any_initial_state_all_stages_bit_identical_to_event(self, ring, seed):
        spec = STRBatchSpec.from_ring(ring, edge_count=25, seed=seed)
        oracle = ring.simulate_phases_reference(12, seed=seed, warmup_periods=0)
        batch = simulate_str_batch([spec], all_stages=True)
        for kernel_trace, oracle_trace in zip(batch.stage_traces[0], oracle.stage_traces):
            np.testing.assert_array_equal(kernel_trace.times_ps, oracle_trace.times_ps)

    @settings(max_examples=10, deadline=None)
    @given(str_rings(), st.integers(0, 2**16), st.sampled_from([0.5, 2.0]))
    def test_noisy_batch_statistically_equivalent(self, ring, seed, sigma):
        noisy = SelfTimedRing(
            ring.diagrams, ring.token_count, jitter_sigmas_ps=sigma
        )
        # Pool 4 independent replicas per backend: a single std-of-200-
        # periods realization fluctuates far too much for random Charlie
        # configurations (burst regimes make the period population
        # multimodal), pooling damps the estimator to a testable spread.
        replica_seeds = [seed + replica for replica in range(4)]
        event_periods = np.concatenate(
            [
                noisy.simulate_reference(200, seed=s, warmup_periods=16).trace.periods_ps()
                for s in replica_seeds
            ]
        )
        specs = [
            STRBatchSpec.from_ring(noisy, edge_count=2 * 216 + 1, seed=s)
            for s in replica_seeds
        ]
        batch = simulate_str_batch(specs)
        batch_periods = np.concatenate(
            [trace.skip_edges(32).periods_ps() for trace in batch.traces]
        )
        # Mean period: tight — jitter is zero-mean around the same orbit.
        assert np.mean(batch_periods) == pytest.approx(
            np.mean(event_periods), rel=0.01
        )
        # Jitter: same process, different draw order; the pooled estimate
        # still carries sampling spread, so the bound is documented-loose.
        assert np.std(batch_periods, ddof=1) == pytest.approx(
            np.std(event_periods, ddof=1), rel=0.5
        )


class TestShapeAndDtypeEdgeCases:
    def test_empty_batches(self):
        assert simulate_iro_batch([]).traces == []
        assert simulate_str_batch([]).traces == []

    def test_single_ring_single_stage(self):
        spec = IROBatchSpec(
            stage_delays_ps=[200.0],
            jitter_sigmas_ps=1.0,
            supply_weights=1.0,
            edge_count=9,
            seed=0,
        )
        trace = simulate_iro_batch([spec]).traces[0]
        assert len(trace) == 9
        assert trace.times_ps.dtype == np.float64

    def test_single_edge_request(self):
        iro = IROBatchSpec(
            stage_delays_ps=[200.0, 210.0, 220.0],
            jitter_sigmas_ps=0.0,
            supply_weights=1.0,
            edge_count=1,
        )
        assert len(simulate_iro_batch([iro]).traces[0]) == 1

    @pytest.mark.parametrize("stages", [5, 7, 9])
    def test_odd_str_stage_counts_use_general_kernel(self, stages):
        # Odd rings can't alternate parity classes; their plans have
        # longer cycles and must still match the event engine exactly.
        diagram = CharlieDiagram(CharlieParameters.symmetric(250.0, 100.0))
        ring = SelfTimedRing([diagram] * stages, 4, jitter_sigmas_ps=0.0)
        spec = STRBatchSpec.from_ring(ring, edge_count=21, seed=3)
        batch = simulate_str_batch([spec])
        np.testing.assert_array_equal(
            batch.traces[0].times_ps, full_event_times(ring, 21, 3)
        )

    def test_int_inputs_coerced_to_float(self):
        spec = IROBatchSpec(
            stage_delays_ps=np.array([200, 300], dtype=np.int64),
            jitter_sigmas_ps=0,
            supply_weights=1,
            edge_count=5,
        )
        assert spec.stage_delays_ps.dtype == np.float64
        trace = simulate_iro_batch([spec]).traces[0]
        assert trace.times_ps.dtype == np.float64
