"""The vectorized batch simulation kernel vs the per-event oracle.

The event engine (``repro.simulation.engine``), reached through the
rings' ``simulate_reference`` entry points, is the bit-exact reference;
these tests pin the batch kernel to it the same way
``tests/parallel/test_parallel_identity.py`` pins the process-pool
paths to the serial ones.
"""

import numpy as np
import pytest

from repro.core.charlie import CharlieDiagram, CharlieParameters
from repro.rings.iro import InverterRingOscillator
from repro.rings.str_ring import SelfTimedRing
from repro.simulation.batch import (
    IROBatchSpec,
    STRBatchSpec,
    _ring_plan,
    simulate_iro_batch,
    simulate_str_batch,
)
from repro.simulation.noise import (
    CompositeModulation,
    ConstantModulation,
    RampModulation,
    SinusoidalModulation,
    StepModulation,
)
from repro.telemetry import default_registry


def make_iro(stages=5, sigma=2.0, seed=0):
    rng = np.random.default_rng(seed)
    delays = rng.uniform(150.0, 350.0, size=stages)
    return InverterRingOscillator(delays, jitter_sigmas_ps=sigma)


def make_str(stages=8, tokens=None, sigma=2.0, static=250.0, charlie=100.0, **kwargs):
    tokens = tokens if tokens is not None else stages // 2
    diagram = CharlieDiagram(CharlieParameters.symmetric(static, charlie))
    return SelfTimedRing([diagram] * stages, tokens, jitter_sigmas_ps=sigma, **kwargs)


def event_trace(ring, edge_count, seed, modulation=None):
    """Full (warmup-inclusive) event-engine trace with ``edge_count`` edges."""
    # edge_count = 2 * (period_count + warmup) + 1 with warmup = 0.
    period_count = (edge_count - 1) // 2
    result = ring.simulate_reference(
        period_count, seed=seed, modulation=modulation, warmup_periods=0
    )
    return result.warmup_trace.times_ps[:edge_count]


class TestIROKernel:
    @pytest.mark.parametrize("stages", [1, 3, 5, 9, 16])
    def test_bit_identical_to_event_engine(self, stages):
        ring = make_iro(stages)
        spec = IROBatchSpec.from_ring(ring, edge_count=41, seed=123)
        batch = simulate_iro_batch([spec])
        expected = event_trace(ring, 41, seed=123)
        np.testing.assert_array_equal(batch.traces[0].times_ps, expected)

    def test_constant_modulation_bit_identical(self):
        ring = make_iro(7)
        modulation = ConstantModulation(0.05)
        spec = IROBatchSpec.from_ring(ring, edge_count=31, seed=9)
        batch = simulate_iro_batch([spec], modulation=modulation)
        expected = event_trace(ring, 31, seed=9, modulation=modulation)
        np.testing.assert_array_equal(batch.traces[0].times_ps, expected)

    def test_zero_sigma_consumes_no_randomness(self):
        ring = make_iro(5, sigma=0.0)
        spec_a = IROBatchSpec.from_ring(ring, edge_count=21, seed=1)
        spec_b = IROBatchSpec.from_ring(ring, edge_count=21, seed=99)
        batch = simulate_iro_batch([spec_a, spec_b])
        np.testing.assert_array_equal(
            batch.traces[0].times_ps, batch.traces[1].times_ps
        )

    def test_composition_independent(self):
        ring_a, ring_b = make_iro(5, seed=1), make_iro(9, seed=2)
        spec_a = IROBatchSpec.from_ring(ring_a, edge_count=25, seed=3)
        spec_b = IROBatchSpec.from_ring(ring_b, edge_count=25, seed=4)
        alone = simulate_iro_batch([spec_a]).traces[0].times_ps
        together = simulate_iro_batch([spec_b, spec_a]).traces[1].times_ps
        np.testing.assert_array_equal(alone, together)

    @pytest.mark.parametrize(
        "modulation",
        [
            SinusoidalModulation(0.05, 5000.0),
            StepModulation(3000.0, 0.04),
            RampModulation(1e-6, 500.0),
            CompositeModulation(
                [SinusoidalModulation(0.02, 7000.0, 0.3), RampModulation(2e-7)]
            ),
        ],
        ids=["sine", "step", "ramp", "composite"],
    )
    def test_time_varying_modulation_bit_identical(self, modulation):
        ring = make_iro(5)
        spec = IROBatchSpec.from_ring(ring, edge_count=41, seed=4)
        batch = simulate_iro_batch([spec], modulation=modulation)
        expected = event_trace(ring, 41, seed=4, modulation=modulation)
        np.testing.assert_array_equal(batch.traces[0].times_ps, expected)

    def test_time_varying_modulation_composition_independent(self):
        # Rings of different lengths and edge counts each stay bit-exact.
        modulation = SinusoidalModulation(0.05, 5000.0)
        rings = [make_iro(stages, seed=stages) for stages in (3, 7, 12)]
        specs = [
            IROBatchSpec.from_ring(ring, edge_count=count, seed=stages)
            for ring, count, stages in zip(rings, (21, 9, 15), (3, 7, 12))
        ]
        batch = simulate_iro_batch(specs, modulation=modulation)
        for ring, spec, trace in zip(rings, specs, batch.traces):
            expected = event_trace(ring, spec.edge_count, seed=spec.seed, modulation=modulation)
            np.testing.assert_array_equal(trace.times_ps, expected)

    def test_empty_batch(self):
        result = simulate_iro_batch([])
        assert result.traces == []
        assert result.events_processed == 0

    def test_counters(self):
        specs = [IROBatchSpec.from_ring(make_iro(), edge_count=11, seed=s) for s in (0, 1)]
        simulate_iro_batch(specs)
        registry = default_registry()
        assert registry.counter("repro.batch.simulations").value == 1
        assert registry.counter("repro.batch.rings").value == 2
        assert registry.counter("repro.batch.events").value == 2 * 11 * 5


class TestSTRKernel:
    @pytest.mark.parametrize("stages,tokens", [(4, 2), (8, 4), (16, 6), (24, 12)])
    def test_noiseless_bit_identical_to_event_engine(self, stages, tokens):
        ring = make_str(stages, tokens, sigma=0.0)
        spec = STRBatchSpec.from_ring(ring, edge_count=41, seed=5)
        batch = simulate_str_batch([spec])
        expected = event_trace(ring, 41, seed=5)
        np.testing.assert_array_equal(batch.traces[0].times_ps, expected)

    def test_noiseless_with_modulation_bit_identical(self):
        ring = make_str(8, sigma=0.0)
        modulation = SinusoidalModulation(0.05, 8000.0)
        spec = STRBatchSpec.from_ring(ring, edge_count=31, seed=2)
        batch = simulate_str_batch([spec], modulation=modulation)
        expected = event_trace(ring, 31, seed=2, modulation=modulation)
        np.testing.assert_array_equal(batch.traces[0].times_ps, expected)

    def test_noisy_statistics_match_event_engine(self):
        ring = make_str(16, sigma=2.0)
        result_event = ring.simulate_reference(600, seed=11, warmup_periods=32)
        spec = STRBatchSpec.from_ring(ring, edge_count=2 * 632 + 1, seed=11)
        trace_batch = simulate_str_batch([spec]).traces[0].skip_edges(64)
        # Different draw order => different realization, same process.
        assert trace_batch.mean_period_ps() == pytest.approx(
            result_event.trace.mean_period_ps(), rel=0.01
        )
        assert trace_batch.period_jitter_ps() == pytest.approx(
            result_event.trace.period_jitter_ps(), rel=0.35
        )

    def test_composition_independent(self):
        ring_a, ring_b = make_str(8, sigma=2.0), make_str(16, sigma=1.0)
        spec_a = STRBatchSpec.from_ring(ring_a, edge_count=25, seed=3)
        spec_b = STRBatchSpec.from_ring(ring_b, edge_count=33, seed=4)
        alone = simulate_str_batch([spec_a]).traces[0].times_ps
        together = simulate_str_batch([spec_b, spec_a]).traces[1].times_ps
        np.testing.assert_array_equal(alone, together)

    @pytest.mark.parametrize(
        "shape", [(8, 4, 16, 8), (7, 4, 9, 4)], ids=["parity-kernel", "general-kernel"]
    )
    def test_all_stages_composition_independent(self, shape):
        # Recording every stage keeps each ring's result independent of
        # the rings it shares a batch with, and its output-stage trace
        # equal to the single-stage run's.
        ring = make_str(shape[0], tokens=shape[1], sigma=2.0)
        other = make_str(shape[2], tokens=shape[3], sigma=1.0)
        spec = STRBatchSpec.from_ring(ring, edge_count=25, seed=3, output_stage=2)
        other_spec = STRBatchSpec.from_ring(other, edge_count=13, seed=4)
        alone = simulate_str_batch([spec], all_stages=True)
        together = simulate_str_batch([other_spec, spec], all_stages=True)
        assert [len(t) for t in alone.stage_traces[0]] == [25] * ring.stage_count
        for a, b in zip(alone.stage_traces[0], together.stage_traces[1]):
            np.testing.assert_array_equal(a.times_ps, b.times_ps)
            assert a.first_value == b.first_value
        single = simulate_str_batch([spec]).traces[0]
        np.testing.assert_array_equal(alone.traces[0].times_ps, single.times_ps)
        assert alone.traces[0].first_value == single.first_value

    def test_output_stage_selects_other_node(self):
        ring = make_str(8, sigma=0.0)
        spec0 = STRBatchSpec.from_ring(ring, edge_count=21, seed=0, output_stage=0)
        spec3 = STRBatchSpec.from_ring(ring, edge_count=21, seed=0, output_stage=3)
        batch = simulate_str_batch([spec0, spec3])
        assert not np.array_equal(batch.traces[0].times_ps, batch.traces[1].times_ps)
        # Same ring, same seed: identical period structure either way.
        assert batch.traces[0].mean_period_ps() == pytest.approx(
            batch.traces[1].mean_period_ps(), rel=1e-12
        )

    def test_empty_batch(self):
        result = simulate_str_batch([])
        assert result.traces == []
        assert result.events_processed == 0

    def test_deadlocked_ring_raises(self):
        # All-token state: no stage has a bubble ahead, nothing can fire.
        spec = STRBatchSpec(
            static_delays_ps=np.full(4, 250.0),
            separation_offsets_ps=0.0,
            charlie_ps=100.0,
            jitter_sigmas_ps=0.0,
            supply_weights=1.0,
            drafting_amplitudes_ps=0.0,
            drafting_time_constants_ps=1.0,
            initial_state=np.ones(4, dtype=np.int8),
            edge_count=11,
        )
        with pytest.raises(RuntimeError, match="deadlock"):
            simulate_str_batch([spec])


def clumped_str(stages=8, tokens=4, sigma=2.0):
    """An STR whose tokens start side by side: its plan has a prefix."""
    from repro.rings.tokens import state_from_token_positions

    state = state_from_token_positions(stages, list(range(tokens)))
    return make_str(stages, tokens=tokens, sigma=sigma, initial_state=state)


def raw_str_spec(state, edge_count=11):
    return STRBatchSpec(
        static_delays_ps=np.full(len(state), 250.0),
        separation_offsets_ps=0.0,
        charlie_ps=100.0,
        jitter_sigmas_ps=0.0,
        supply_weights=1.0,
        drafting_amplitudes_ps=0.0,
        drafting_time_constants_ps=1.0,
        initial_state=np.array(state, dtype=np.int8),
        edge_count=edge_count,
        name="probe",
    )


class TestFiringPlan:
    def test_balanced_even_rings_have_period_four(self):
        for stages in (4, 8, 16, 24, 32, 96):
            fires, prefix = _ring_plan(STRBatchSpec.from_ring(make_str(stages), edge_count=11), 0)
            assert prefix == 0
            assert fires.shape == (4, stages)
            # Waves alternate between the even and the odd stages.
            parity = np.arange(stages) % 2
            first = fires[0, 0]
            for wave, mask in enumerate(fires):
                np.testing.assert_array_equal(mask, parity == (wave + (not first)) % 2)

    def test_odd_ring_fires_every_stage_equally_per_cycle(self):
        fires, prefix = _ring_plan(STRBatchSpec.from_ring(make_str(7, tokens=4), edge_count=11), 0)
        per_stage = fires[prefix:].sum(axis=0)
        assert per_stage.min() == per_stage.max() >= 1

    def test_odd_ring_matches_event_engine(self):
        ring = make_str(7, tokens=4, sigma=0.0)
        spec = STRBatchSpec.from_ring(ring, edge_count=31, seed=1)
        batch = simulate_str_batch([spec])
        np.testing.assert_array_equal(batch.traces[0].times_ps, event_trace(ring, 31, seed=1))

    def test_clumped_tokens_have_a_prefix(self):
        ring = clumped_str(sigma=0.0)
        fires, prefix = _ring_plan(STRBatchSpec.from_ring(ring, edge_count=11), 0)
        assert prefix > 0
        spec = STRBatchSpec.from_ring(ring, edge_count=31, seed=1, output_stage=5)
        batch = simulate_str_batch([spec])
        expected = ring.simulate_reference(15, seed=1, warmup_periods=0, output_stage=5)
        np.testing.assert_array_equal(batch.traces[0].times_ps, expected.warmup_trace.times_ps)

    @pytest.mark.parametrize(
        "state", [[0, 1, 0, 1], [1, 1, 1, 1, 1]], ids=["all-token", "all-bubble"]
    )
    def test_deadlocked_states_raise(self, state):
        # The message names the ring (spec name and batch row) and its state.
        pattern = r"deadlocked: probe\[1\].*state " + "".join(map(str, state))
        with pytest.raises(RuntimeError, match=pattern):
            simulate_str_batch([raw_str_spec([0, 1, 1, 0]), raw_str_spec(state)])

    def test_one_loop_per_period(self):
        four = STRBatchSpec.from_ring(make_str(8), edge_count=21)
        other = STRBatchSpec.from_ring(make_str(7, tokens=4), edge_count=21)
        solo = [simulate_str_batch([spec]).waves for spec in (four, other)]
        assert simulate_str_batch([four, four]).waves == solo[0]
        assert simulate_str_batch([four, other]).waves == sum(solo)

    @pytest.mark.parametrize("sigma", [0.0, 2.0])
    def test_mixed_period_batch_matches_solo_runs(self, sigma):
        rings = [
            make_str(8, sigma=sigma),
            make_str(7, tokens=4, sigma=sigma),
            clumped_str(sigma=sigma),
            make_str(12, tokens=4, sigma=sigma),
            make_str(16, sigma=sigma),
        ]
        specs = [
            STRBatchSpec.from_ring(ring, edge_count=21 + 6 * index, seed=index, output_stage=index)
            for index, ring in enumerate(rings)
        ]
        together = simulate_str_batch(specs)
        for spec, trace in zip(specs, together.traces):
            alone = simulate_str_batch([spec]).traces[0]
            np.testing.assert_array_equal(trace.times_ps, alone.times_ps)
            assert trace.first_value == alone.first_value

    def test_all_stages_on_ring_with_prefix(self):
        ring = clumped_str(sigma=0.0)
        spec = STRBatchSpec.from_ring(ring, edge_count=25, seed=2)
        batch = simulate_str_batch([spec], all_stages=True)
        oracle = ring.simulate_phases_reference(12, seed=2, warmup_periods=0)
        for kernel_trace, oracle_trace in zip(batch.stage_traces[0], oracle.stage_traces):
            np.testing.assert_array_equal(kernel_trace.times_ps, oracle_trace.times_ps)
            assert kernel_trace.first_value == oracle_trace.first_value


class TestSpecValidation:
    def test_iro_rejects_nonpositive_delay(self):
        with pytest.raises(ValueError, match="positive"):
            IROBatchSpec(
                stage_delays_ps=[100.0, 0.0, 100.0],
                jitter_sigmas_ps=1.0,
                supply_weights=1.0,
                edge_count=5,
            )

    def test_iro_rejects_bad_edge_count(self):
        with pytest.raises(ValueError, match="edge_count"):
            IROBatchSpec.from_ring(make_iro(), edge_count=0)

    def test_str_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="non-negative"):
            STRBatchSpec.from_ring(make_str(8, sigma=2.0), edge_count=5).__class__(
                static_delays_ps=np.full(4, 250.0),
                separation_offsets_ps=0.0,
                charlie_ps=100.0,
                jitter_sigmas_ps=-1.0,
                supply_weights=1.0,
                drafting_amplitudes_ps=0.0,
                drafting_time_constants_ps=1.0,
                initial_state=np.array([1, 0, 1, 0], dtype=np.int8),
                edge_count=5,
            )

    def test_str_rejects_output_stage_outside_ring(self):
        with pytest.raises(ValueError, match="output stage"):
            STRBatchSpec.from_ring(make_str(8), edge_count=5, output_stage=8)

    def test_str_rejects_wrong_state_length(self):
        with pytest.raises(ValueError, match="length"):
            STRBatchSpec(
                static_delays_ps=np.full(4, 250.0),
                separation_offsets_ps=0.0,
                charlie_ps=100.0,
                jitter_sigmas_ps=0.0,
                supply_weights=1.0,
                drafting_amplitudes_ps=0.0,
                drafting_time_constants_ps=1.0,
                initial_state=np.array([1, 0, 1], dtype=np.int8),
                edge_count=5,
            )


class TestTraceShape:
    def test_requested_edge_counts_and_monotonicity(self):
        iro_spec = IROBatchSpec.from_ring(make_iro(5), edge_count=17, seed=0)
        str_spec = STRBatchSpec.from_ring(make_str(8), edge_count=23, seed=0)
        iro_result = simulate_iro_batch([iro_spec])
        str_result = simulate_str_batch([str_spec])
        assert len(iro_result.traces[0]) == 17
        assert len(str_result.traces[0]) == 23
        for trace in (iro_result.traces[0], str_result.traces[0]):
            times = trace.times_ps
            assert times.dtype == np.float64
            assert np.all(np.diff(times) > 0.0)

    def test_mixed_edge_counts_in_one_batch(self):
        specs = [
            STRBatchSpec.from_ring(make_str(8), edge_count=count, seed=count)
            for count in (5, 31, 12)
        ]
        result = simulate_str_batch(specs)
        assert [len(trace) for trace in result.traces] == [5, 31, 12]
