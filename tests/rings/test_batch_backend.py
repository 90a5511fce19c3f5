"""The batch kernel behind rings, characterization and campaign vs the oracle.

Every production simulation runs on the vectorized kernel of
``repro.simulation.batch``.  The per-event engine stays as the oracle,
reached only through the rings' ``simulate_reference`` /
``simulate_phases_reference`` entry points.  Each consumer must either
match the oracle bit for bit (IRO, noiseless STR) or reproduce its
physics within documented statistical bounds (noisy STR).
"""

import numpy as np
import pytest

from repro.core.campaign import RingSpec, run_campaign
from repro.core.characterization import jitter_versus_length
from repro.core.charlie import CharlieDiagram, CharlieParameters
from repro.fpga.board import BoardBank
from repro.parallel.seeds import spawn_seeds
from repro.rings.iro import InverterRingOscillator
from repro.rings.str_ring import SelfTimedRing
from repro.simulation.noise import ConstantModulation, SinusoidalModulation


def make_iro(stages=5, sigma=2.0):
    rng = np.random.default_rng(42)
    return InverterRingOscillator(
        rng.uniform(150.0, 350.0, size=stages), jitter_sigmas_ps=sigma
    )


def make_str(stages=8, sigma=0.0, tokens=None, static=250.0):
    tokens = tokens if tokens is not None else stages // 2
    diagram = CharlieDiagram(CharlieParameters.symmetric(static, 100.0))
    return SelfTimedRing([diagram] * stages, tokens, jitter_sigmas_ps=sigma)


def make_placed_str(stages=7, tokens=2):
    """A noiseless STR with per-stage timing spread (general wave kernel)."""
    rng = np.random.default_rng(stages)
    diagrams = [
        CharlieDiagram(CharlieParameters.symmetric(static, 100.0))
        for static in rng.uniform(200.0, 300.0, size=stages)
    ]
    return SelfTimedRing(diagrams, tokens, jitter_sigmas_ps=0.0)


class TestRingSimulateBackend:
    def test_iro_batch_backend_bit_identical(self):
        ring = make_iro()
        oracle = ring.simulate_reference(64, seed=7, warmup_periods=8)
        kernel = ring.simulate(64, seed=7, warmup_periods=8)
        np.testing.assert_array_equal(kernel.trace.times_ps, oracle.trace.times_ps)
        np.testing.assert_array_equal(
            kernel.warmup_trace.times_ps, oracle.warmup_trace.times_ps
        )
        assert kernel.period_count == oracle.period_count
        assert kernel.events_processed == oracle.events_processed

    def test_iro_batch_backend_with_constant_modulation(self):
        ring = make_iro()
        modulation = ConstantModulation(0.08)
        oracle = ring.simulate_reference(
            32, seed=3, modulation=modulation, warmup_periods=4
        )
        kernel = ring.simulate(32, seed=3, modulation=modulation, warmup_periods=4)
        np.testing.assert_array_equal(kernel.trace.times_ps, oracle.trace.times_ps)

    def test_iro_time_varying_modulation_exact(self):
        ring = make_iro()
        modulation = SinusoidalModulation(0.05, 5000.0)
        oracle = ring.simulate_reference(
            24, seed=5, modulation=modulation, warmup_periods=4
        )
        kernel = ring.simulate(24, seed=5, modulation=modulation, warmup_periods=4)
        np.testing.assert_array_equal(kernel.trace.times_ps, oracle.trace.times_ps)
        np.testing.assert_array_equal(
            kernel.warmup_trace.times_ps, oracle.warmup_trace.times_ps
        )

    def test_str_noiseless_batch_backend_bit_identical(self):
        ring = make_str()
        oracle = ring.simulate_reference(48, seed=11, warmup_periods=8)
        kernel = ring.simulate(48, seed=11, warmup_periods=8)
        np.testing.assert_array_equal(kernel.trace.times_ps, oracle.trace.times_ps)
        np.testing.assert_array_equal(
            kernel.warmup_trace.times_ps, oracle.warmup_trace.times_ps
        )

    def test_str_noisy_batch_backend_statistically_equivalent(self):
        ring = make_str(16, sigma=2.0)
        oracle = ring.simulate_reference(600, seed=2, warmup_periods=32)
        kernel = ring.simulate(600, seed=2, warmup_periods=32)
        assert kernel.trace.mean_period_ps() == pytest.approx(
            oracle.trace.mean_period_ps(), rel=0.01
        )
        assert kernel.trace.period_jitter_ps() == pytest.approx(
            oracle.trace.period_jitter_ps(), rel=0.35
        )

    @pytest.mark.parametrize("ring_factory", [make_iro, make_str])
    def test_invalid_backend_rejected(self, ring_factory):
        # There is one engine: the old switch is no longer a parameter.
        with pytest.raises(TypeError, match="backend"):
            ring_factory().simulate(8, seed=0, backend="event")


class TestSimulatePhases:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: make_str(8),  # balanced: a 4-wave firing cycle
            lambda: make_str(7, tokens=2),  # odd ring, gcd(L, NT) = 1
            lambda: make_placed_str(9, 4),  # odd ring, per-stage timing
        ],
    )
    def test_noiseless_all_stage_traces_bit_identical(self, factory):
        ring = factory()
        oracle = ring.simulate_phases_reference(12, seed=3, warmup_periods=6)
        kernel = ring.simulate_phases(12, seed=3, warmup_periods=6)
        assert kernel.stage_count == oracle.stage_count == ring.stage_count
        for kernel_trace, oracle_trace in zip(kernel.stage_traces, oracle.stage_traces):
            np.testing.assert_array_equal(kernel_trace.times_ps, oracle_trace.times_ps)
            assert kernel_trace.first_value == oracle_trace.first_value
        np.testing.assert_array_equal(
            kernel.merged_edge_times_ps, oracle.merged_edge_times_ps
        )

    def test_noiseless_with_modulation_bit_identical(self):
        ring = make_placed_str(7, 2)
        modulation = SinusoidalModulation(0.05, 8000.0)
        oracle = ring.simulate_phases_reference(
            8, seed=1, modulation=modulation, warmup_periods=4
        )
        kernel = ring.simulate_phases(8, seed=1, modulation=modulation, warmup_periods=4)
        for kernel_trace, oracle_trace in zip(kernel.stage_traces, oracle.stage_traces):
            np.testing.assert_array_equal(kernel_trace.times_ps, oracle_trace.times_ps)

    def test_every_stage_records_the_same_edge_count(self):
        ring = make_str(7, tokens=2, sigma=2.0)
        result = ring.simulate_phases(10, seed=0, warmup_periods=5)
        assert [len(trace) for trace in result.stage_traces] == [21] * 7

    def test_noisy_statistically_equivalent(self):
        ring = make_str(7, tokens=2, sigma=2.0)
        oracle = ring.simulate_phases_reference(300, seed=2, warmup_periods=32)
        kernel = ring.simulate_phases(300, seed=2, warmup_periods=32)
        for kernel_trace, oracle_trace in zip(kernel.stage_traces, oracle.stage_traces):
            assert kernel_trace.mean_period_ps() == pytest.approx(
                oracle_trace.mean_period_ps(), rel=0.01
            )
            assert kernel_trace.period_jitter_ps() == pytest.approx(
                oracle_trace.period_jitter_ps(), rel=0.35
            )
        assert np.mean(kernel.merged_spacings_ps()) == pytest.approx(
            np.mean(oracle.merged_spacings_ps()), rel=0.01
        )


def _oracle_rows(board, lengths, family, period_count, seed):
    """jitter_versus_length rows rebuilt from the per-event oracle."""
    build = InverterRingOscillator if family == "iro" else SelfTimedRing
    rows = []
    for length, point_seed in zip(lengths, spawn_seeds(seed, len(lengths))):
        ring = build.on_board(board, length)
        trace = ring.simulate_reference(
            period_count, seed=point_seed, warmup_periods=64
        ).trace
        rows.append((ring.stage_count, trace.period_jitter_ps(), trace.mean_period_ps()))
    return rows


class TestJitterVersusLengthBackend:
    def test_iro_batch_rows_bit_identical(self, board):
        lengths = (3, 5, 9)
        oracle = _oracle_rows(board, lengths, "iro", 400, seed=13)
        kernel = jitter_versus_length(board, lengths, "iro", period_count=400, seed=13)
        for (stages, sigma, mean), row in zip(oracle, kernel):
            assert row.stage_count == stages
            assert row.sigma_period_ps == sigma
            assert row.mean_period_ps == mean

    def test_str_batch_rows_statistically_equivalent(self, board):
        lengths = (8, 16)
        oracle = _oracle_rows(board, lengths, "str", 600, seed=17)
        kernel = jitter_versus_length(board, lengths, "str", period_count=600, seed=17)
        for (stages, sigma, mean), row in zip(oracle, kernel):
            assert row.stage_count == stages
            assert row.mean_period_ps == pytest.approx(mean, rel=0.01)
            assert row.sigma_period_ps == pytest.approx(sigma, rel=0.35)

    def test_invalid_backend_rejected(self, board):
        with pytest.raises(TypeError, match="backend"):
            jitter_versus_length(board, (3,), "iro", backend="event")

    def test_generator_seed_rejected(self, board):
        with pytest.raises(TypeError, match="Generator"):
            jitter_versus_length(board, (3,), "iro", seed=np.random.default_rng(0))


class TestCampaignBackend:
    @pytest.fixture(scope="class")
    def bank(self):
        return BoardBank.manufacture(board_count=2, seed=7)

    @staticmethod
    def _on_oracle(monkeypatch):
        for cls in (InverterRingOscillator, SelfTimedRing):
            monkeypatch.setattr(cls, "simulate", cls.simulate_reference)

    def test_iro_rows_bit_identical(self, bank, monkeypatch):
        specs = [RingSpec("iro", 5)]
        kernel = run_campaign(specs, bank=bank, jitter_periods=512, seed=3)
        self._on_oracle(monkeypatch)
        oracle = run_campaign(specs, bank=bank, jitter_periods=512, seed=3)
        assert kernel.to_json() == oracle.to_json()

    def test_str_rows_statistically_equivalent(self, bank, monkeypatch):
        specs = [RingSpec("str", 16)]
        kernel = run_campaign(specs, bank=bank, jitter_periods=768, seed=3)
        self._on_oracle(monkeypatch)
        oracle = run_campaign(specs, bank=bank, jitter_periods=768, seed=3)
        kernel_row, oracle_row = kernel.results[0], oracle.results[0]
        assert kernel_row.nominal_frequency_mhz == oracle_row.nominal_frequency_mhz
        assert kernel_row.period_jitter_ps == pytest.approx(
            oracle_row.period_jitter_ps, rel=0.35
        )

    def test_invalid_backend_rejected(self, bank):
        with pytest.raises(TypeError, match="backend"):
            run_campaign([RingSpec("iro", 5)], bank=bank, backend="event")

    def test_generator_seed_rejected(self, bank):
        with pytest.raises(TypeError, match="Generator"):
            run_campaign([RingSpec("iro", 5)], bank=bank, seed=np.random.default_rng(0))
