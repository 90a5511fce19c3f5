"""Multi-phase STR TRNG — the paper's announced follow-up design.

The paper closes with "our future works will focus on exploiting the STR
properties for designing a robust TRNG"; the authors' follow-up (the
very-high-speed STR TRNG) samples *all L stage outputs at once*.  The L
stages of an STR are copies of the same oscillation shifted by one hop
delay each; when ``gcd(L, NT) = 1`` the toggles of all stages interleave
into a uniform comb with tick spacing

    ``delta = T / (2 L)``

(verified by the event-driven model: the noise-free steady state yields
exactly one spacing value).  XOR-ing the L sampled bits is equivalent to
sampling a *virtual oscillator* of period ``T / L`` — the parity flips at
every comb tick — so the sampler needs ``L^2`` times less jitter
accumulation than the elementary single-output TRNG to reach the same
entropy: that is the "very high speed" headline, and it works *because*
the STR period jitter is per-stage, not per-ring (Eq. 5).

Two evaluation paths, mirroring the ring models:

* :class:`MultiphaseStrTrng` — exact: simulation of all stages, bits
  from the merged toggle comb;
* :class:`MultiphaseModel` — fast: the comb's phase performs a random
  walk with the ring's measured diffusion rate; O(1) per bit.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from repro.rings.str_ring import SelfTimedRing
from repro.simulation.noise import SeedLike, make_rng
from repro.stats.accumulation import accumulation_profile
from repro.trng.elementary import predicted_shannon_entropy


def validate_multiphase_configuration(stage_count: int, token_count: int) -> None:
    """The comb is uniform only when ``gcd(L, NT) = 1``.

    With a common divisor g, g stage toggles coincide and the effective
    phase resolution degrades from ``T/(2L)`` to ``g * T/(2L)`` — the
    balanced rings of the characterization experiments (gcd = L/2!) are
    the worst possible choice for multi-phase extraction.
    """
    if math.gcd(stage_count, token_count) != 1:
        raise ValueError(
            f"multi-phase extraction needs gcd(L, NT) = 1; got "
            f"gcd({stage_count}, {token_count}) = "
            f"{math.gcd(stage_count, token_count)} — pick e.g. an odd L "
            "with an even NT near L/2"
        )


@dataclasses.dataclass(frozen=True)
class MultiphaseDesignPoint:
    """Operating point of a multi-phase sampler."""

    period_ps: float
    stage_count: int
    reference_period_ps: float
    diffusion_sigma_ps: float

    @property
    def comb_spacing_ps(self) -> float:
        """Tick spacing of the merged phase comb, ``T / (2L)``."""
        return self.period_ps / (2.0 * self.stage_count)

    @property
    def virtual_period_ps(self) -> float:
        """Period of the XOR parity signal, ``T / L``."""
        return self.period_ps / self.stage_count

    @property
    def q_factor(self) -> float:
        """Quality factor of the virtual oscillator.

        Accumulated timing variance per sample over the *virtual* period
        squared — the multi-phase analogue of the elementary TRNG's Q,
        larger by ``L^2`` at equal reference period.
        """
        periods_per_sample = self.reference_period_ps / self.period_ps
        accumulated_variance = periods_per_sample * self.diffusion_sigma_ps**2
        return accumulated_variance / self.virtual_period_ps**2

    @property
    def entropy_bound(self) -> float:
        return predicted_shannon_entropy(self.q_factor)

    @property
    def speedup_vs_elementary(self) -> float:
        """Reference-period ratio against a single-output sampler at equal Q."""
        return float(self.stage_count**2)


def measure_diffusion_sigma_ps(
    ring: SelfTimedRing, period_count: int = 4096, seed: SeedLike = 0
) -> float:
    """Long-run phase diffusion rate of the ring, in ps per sqrt(period).

    The quantity that actually accumulates between TRNG samples: STR
    periods are anticorrelated, so this sits *below* the single-period
    sigma (see the FIG10 experiment notes).
    """
    result = ring.simulate(period_count, seed=seed)
    profile = accumulation_profile(result.trace.periods_ps())
    return profile.diffusion_sigma_ps


class MultiphaseStrTrng:
    """Exact multi-phase sampler on the simulated STR model.

    Parameters
    ----------
    ring:
        A resolved STR with ``gcd(L, NT) = 1``.
    reference_period_ps:
        Sampling period; must exceed the oscillation period (each sample
        sees at least one full revolution of fresh comb).
    """

    def __init__(self, ring: SelfTimedRing, reference_period_ps: float) -> None:
        validate_multiphase_configuration(ring.stage_count, ring.token_count)
        period = ring.predicted_period_ps()
        if reference_period_ps <= period:
            raise ValueError(
                f"reference period ({reference_period_ps} ps) must exceed "
                f"the oscillation period ({period:.1f} ps)"
            )
        self._ring = ring
        self._reference_period_ps = float(reference_period_ps)

    @property
    def ring(self) -> SelfTimedRing:
        return self._ring

    @property
    def reference_period_ps(self) -> float:
        return self._reference_period_ps

    def design_point(self, diffusion_sigma_ps: Optional[float] = None) -> MultiphaseDesignPoint:
        """Operating point; measures the diffusion rate unless given."""
        if diffusion_sigma_ps is None:
            diffusion_sigma_ps = measure_diffusion_sigma_ps(self._ring)
        return MultiphaseDesignPoint(
            period_ps=self._ring.predicted_period_ps(),
            stage_count=self._ring.stage_count,
            reference_period_ps=self._reference_period_ps,
            diffusion_sigma_ps=diffusion_sigma_ps,
        )

    def generate(
        self,
        bit_count: int,
        seed: SeedLike = None,
        warmup_periods: int = 256,
    ) -> np.ndarray:
        """Generate bits: XOR of all stages, sampled every reference period.

        The XOR output equals the parity of the number of comb ticks
        elapsed, so the bits come straight from a ``searchsorted`` over
        the merged toggle stream.
        """
        if bit_count < 1:
            raise ValueError(f"bit count must be positive, got {bit_count}")
        rng = make_rng(seed)
        period = self._ring.predicted_period_ps()
        periods_needed = int(math.ceil((bit_count + 2) * self._reference_period_ps / period)) + 4
        result = self._ring.simulate_phases(
            periods_needed, seed=rng, warmup_periods=warmup_periods
        )
        comb = result.merged_edge_times_ps
        first_sample = comb[0] + float(rng.uniform(0.0, self._reference_period_ps))
        sample_times = first_sample + self._reference_period_ps * np.arange(bit_count)
        if sample_times[-1] > comb[-1]:
            raise RuntimeError(
                "comb too short for the requested bits; increase periods "
                f"(timeline {comb[-1] - comb[0]:.0f} ps, needed "
                f"{sample_times[-1] - comb[0]:.0f} ps)"
            )
        counts = np.searchsorted(comb, sample_times, side="right")
        return (counts % 2).astype(int)


class MultiphaseModel:
    """Fast phase-walk model of the multi-phase sampler.

    The comb position wanders with the ring's collective diffusion; one
    output bit is the parity of the tick count at the sampling instant.
    """

    def __init__(
        self,
        period_ps: float,
        stage_count: int,
        diffusion_sigma_ps: float,
        reference_period_ps: float,
    ) -> None:
        if period_ps <= 0.0:
            raise ValueError(f"period must be positive, got {period_ps}")
        if stage_count < 3:
            raise ValueError(f"need at least 3 stages, got {stage_count}")
        if diffusion_sigma_ps < 0.0:
            raise ValueError(f"diffusion sigma must be non-negative, got {diffusion_sigma_ps}")
        if reference_period_ps <= period_ps:
            raise ValueError("reference period must exceed the oscillation period")
        self.period_ps = float(period_ps)
        self.stage_count = int(stage_count)
        self.diffusion_sigma_ps = float(diffusion_sigma_ps)
        self.reference_period_ps = float(reference_period_ps)

    @classmethod
    def from_ring(
        cls,
        ring: SelfTimedRing,
        reference_period_ps: float,
        diffusion_sigma_ps: Optional[float] = None,
        seed: SeedLike = 0,
    ) -> "MultiphaseModel":
        validate_multiphase_configuration(ring.stage_count, ring.token_count)
        if diffusion_sigma_ps is None:
            diffusion_sigma_ps = measure_diffusion_sigma_ps(ring, seed=seed)
        return cls(
            period_ps=ring.predicted_period_ps(),
            stage_count=ring.stage_count,
            diffusion_sigma_ps=diffusion_sigma_ps,
            reference_period_ps=reference_period_ps,
        )

    def design_point(self) -> MultiphaseDesignPoint:
        return MultiphaseDesignPoint(
            period_ps=self.period_ps,
            stage_count=self.stage_count,
            reference_period_ps=self.reference_period_ps,
            diffusion_sigma_ps=self.diffusion_sigma_ps,
        )

    def generate(self, bit_count: int, seed: SeedLike = None) -> np.ndarray:
        """O(1)-per-bit generation through the comb phase walk."""
        if bit_count < 1:
            raise ValueError(f"bit count must be positive, got {bit_count}")
        rng = make_rng(seed)
        spacing = self.period_ps / (2.0 * self.stage_count)
        periods_per_sample = self.reference_period_ps / self.period_ps
        wander_sigma = self.diffusion_sigma_ps * math.sqrt(periods_per_sample)
        nominal_times = self.reference_period_ps * np.arange(1, bit_count + 1)
        wander = np.cumsum(rng.normal(0.0, wander_sigma, size=bit_count))
        offset = float(rng.uniform(0.0, 2.0 * spacing))
        counts = np.floor((nominal_times + wander + offset) / spacing).astype(np.int64)
        return (counts % 2).astype(int)


def reference_period_for_multiphase_q(
    period_ps: float,
    stage_count: int,
    diffusion_sigma_ps: float,
    q_target: float,
) -> float:
    """Reference period reaching a target Q with multi-phase extraction.

    ``L^2`` shorter than the elementary sampler's provisioning for the
    same oscillator — the throughput argument of the follow-up design.
    """
    if q_target <= 0.0:
        raise ValueError(f"Q target must be positive, got {q_target}")
    if diffusion_sigma_ps <= 0.0:
        raise ValueError("a jitter-free oscillator cannot reach any Q target")
    virtual_period = period_ps / stage_count
    return q_target * virtual_period**2 * period_ps / diffusion_sigma_ps**2
