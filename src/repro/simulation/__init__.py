"""Simulation substrate.

This subpackage provides the generic machinery the ring models are built
on: the vectorized batch kernel that advances whole populations of
rings at once (:mod:`repro.simulation.batch`, behind every
``simulate``), a heap-based event engine kept as the kernel's test
oracle (:mod:`repro.simulation.engine`), transition records
(:mod:`repro.simulation.events`), edge-trace analysis
(:mod:`repro.simulation.waveform`) and the jitter/noise sources of the
paper's Section IV (:mod:`repro.simulation.noise`).
"""

from repro.simulation.batch import (
    BatchSimulationResult,
    IROBatchSpec,
    STRBatchSpec,
    simulate_iro_batch,
    simulate_str_batch,
)
from repro.simulation.engine import Simulator, SimulationLimits, StopReason
from repro.simulation.events import Transition, Edge
from repro.simulation.noise import (
    GaussianJitter,
    NoNoise,
    NoiseSource,
    DeterministicModulation,
    ConstantModulation,
    SinusoidalModulation,
    StepModulation,
    RampModulation,
    CompositeModulation,
)
from repro.simulation.waveform import EdgeTrace, periods_from_edges, half_periods_from_edges

__all__ = [
    "BatchSimulationResult",
    "IROBatchSpec",
    "STRBatchSpec",
    "simulate_iro_batch",
    "simulate_str_batch",
    "Simulator",
    "SimulationLimits",
    "StopReason",
    "Transition",
    "Edge",
    "NoiseSource",
    "GaussianJitter",
    "NoNoise",
    "DeterministicModulation",
    "ConstantModulation",
    "SinusoidalModulation",
    "StepModulation",
    "RampModulation",
    "CompositeModulation",
    "EdgeTrace",
    "periods_from_edges",
    "half_periods_from_edges",
]
