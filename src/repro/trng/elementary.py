"""The elementary oscillator-based TRNG.

A jittery ring oscillator is sampled by a (much slower) reference clock;
between two samples the oscillator accumulates phase jitter, and once the
accumulated jitter is comparable to the oscillator period the sampled bit
becomes unpredictable.

The standard entropy model (Baudet et al., and in the paper's reference
[2] lineage) summarizes the operating point in one dimensionless *quality
factor*::

    Q = sigma_acc^2 / T_osc^2,     sigma_acc^2 = N * sigma_p^2

with ``N = T_ref / T_osc`` the oscillator periods elapsed per sample.
The Shannon-entropy lower bound per output bit is then::

    H >= 1 - (4 / (pi^2 * ln 2)) * exp(-4 * pi^2 * Q)

Only the *random* (Gaussian) jitter counts toward ``Q``; deterministic
jitter inflates a naive sigma measurement but contributes no entropy —
the core security argument of the paper's Section IV.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from repro.rings.base import RingOscillator
from repro.simulation.noise import DeterministicModulation, SeedLike, make_rng
from repro.trng.sampler import JitteryClock, sample_clock_at


def quality_factor(
    period_jitter_ps: float, oscillator_period_ps: float, reference_period_ps: float
) -> float:
    """``Q = N sigma_p^2 / T_osc^2`` for the given operating point."""
    if period_jitter_ps < 0.0:
        raise ValueError(f"period jitter must be non-negative, got {period_jitter_ps}")
    if oscillator_period_ps <= 0.0 or reference_period_ps <= 0.0:
        raise ValueError("periods must be positive")
    periods_per_sample = reference_period_ps / oscillator_period_ps
    accumulated_variance = periods_per_sample * period_jitter_ps**2
    return accumulated_variance / oscillator_period_ps**2


def predicted_shannon_entropy(q_factor: float) -> float:
    """Shannon-entropy lower bound per bit for a quality factor ``Q``."""
    if q_factor < 0.0:
        raise ValueError(f"quality factor must be non-negative, got {q_factor}")
    bound = 1.0 - (4.0 / (math.pi**2 * math.log(2.0))) * math.exp(-4.0 * math.pi**2 * q_factor)
    return max(0.0, bound)


@dataclasses.dataclass(frozen=True)
class TrngDesignPoint:
    """Resolved operating point of an elementary TRNG."""

    oscillator_period_ps: float
    reference_period_ps: float
    period_jitter_ps: float

    @property
    def periods_per_sample(self) -> float:
        return self.reference_period_ps / self.oscillator_period_ps

    @property
    def q_factor(self) -> float:
        return quality_factor(
            self.period_jitter_ps, self.oscillator_period_ps, self.reference_period_ps
        )

    @property
    def entropy_bound(self) -> float:
        return predicted_shannon_entropy(self.q_factor)


class ElementaryTrng:
    """Elementary TRNG: a ring oscillator sampled by a reference clock.

    Parameters
    ----------
    ring:
        The entropy source (either ring family).
    reference_period_ps:
        Sampling period of the reference clock.  Must be slower than the
        ring (subsampling), otherwise the construction is meaningless.
    use_simulation:
        ``True`` draws the oscillator timeline from the exact
        simulation (slower); ``False`` (default) from the analytical
        fast path.
    """

    def __init__(
        self,
        ring: RingOscillator,
        reference_period_ps: float,
        use_simulation: bool = False,
    ) -> None:
        oscillator_period = ring.predicted_period_ps()
        if reference_period_ps <= oscillator_period:
            raise ValueError(
                f"reference period ({reference_period_ps} ps) must exceed the "
                f"oscillator period ({oscillator_period:.1f} ps)"
            )
        self._ring = ring
        self._reference_period_ps = float(reference_period_ps)
        self._use_simulation = use_simulation

    @property
    def ring(self) -> RingOscillator:
        return self._ring

    @property
    def reference_period_ps(self) -> float:
        return self._reference_period_ps

    def design_point(self) -> TrngDesignPoint:
        """Analytical operating point of this generator."""
        return TrngDesignPoint(
            oscillator_period_ps=self._ring.predicted_period_ps(),
            reference_period_ps=self._reference_period_ps,
            period_jitter_ps=self._ring.predicted_period_jitter_ps(),
        )

    def predicted_entropy_per_bit(self) -> float:
        """Entropy lower bound at the analytical operating point."""
        return self.design_point().entropy_bound

    # ------------------------------------------------------------------
    # bit generation
    # ------------------------------------------------------------------
    def _oscillator_periods(
        self,
        period_count: int,
        seed: SeedLike,
        modulation: Optional[DeterministicModulation],
    ) -> np.ndarray:
        if self._use_simulation:
            result = self._ring.simulate(period_count, seed=seed, modulation=modulation)
            return result.trace.periods_ps()
        return self._ring.sample_periods(period_count, seed=seed, modulation=modulation)

    def generate(
        self,
        bit_count: int,
        seed: SeedLike = None,
        modulation: Optional[DeterministicModulation] = None,
        phase_dither: bool = True,
    ) -> np.ndarray:
        """Generate ``bit_count`` raw bits.

        ``phase_dither`` randomizes the initial phase between the two
        clocks, modelling the unknown power-up phase of real hardware; a
        dither-free run is useful for deterministic tests.
        """
        if bit_count < 1:
            raise ValueError(f"bit count must be positive, got {bit_count}")
        rng = make_rng(seed)
        nominal_period = self._ring.predicted_period_ps()
        periods_needed = int(
            math.ceil((bit_count + 2) * self._reference_period_ps / nominal_period) + 8
        )
        periods = self._oscillator_periods(periods_needed, rng, modulation)
        clock = JitteryClock(periods)
        first_sample = (
            float(rng.uniform(0.0, self._reference_period_ps)) if phase_dither else 0.5 * nominal_period
        )
        # Guard: the realized timeline may be slightly shorter than the
        # nominal estimate when periods came out long; extend if needed.
        while clock.total_time_ps < first_sample + self._reference_period_ps * bit_count:
            periods = np.concatenate(
                [periods, self._oscillator_periods(periods_needed // 4 + 8, rng, modulation)]
            )
            clock = JitteryClock(periods)
        return sample_clock_at(clock, self._reference_period_ps, bit_count, first_sample)
