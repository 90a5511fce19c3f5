"""Online health tests for TRNG output (AIS-31 / SP 800-90B style).

A deployed TRNG cannot run a statistical battery on every block; it runs
cheap *health tests* continuously and raises an alarm when the source
degrades — exactly the operating-point shifts the paper's robustness
analysis is about.  Two standard tests are implemented:

* **repetition count** — catches a stuck or injection-locked source
  (a run of identical bits longer than chance allows);
* **adaptive proportion** — catches bias drift (too many occurrences of
  one value inside a sliding window).

Cutoffs follow the SP 800-90B construction: for a claimed min-entropy
``H`` per bit, the repetition cutoff is ``1 + ceil(20 / H)`` (false
alarm ~2^-20) and the adaptive-proportion cutoff is the binomial
quantile at the same significance.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Sequence

import numpy as np


@dataclasses.dataclass(frozen=True)
class HealthAlarm:
    """One raised alarm."""

    test_name: str
    position: int
    detail: str


def repetition_count_cutoff(min_entropy_per_bit: float, alpha_exponent: int = 20) -> int:
    """SP 800-90B repetition-count cutoff ``C = 1 + ceil(a / H)``."""
    if not (0.0 < min_entropy_per_bit <= 1.0):
        raise ValueError(f"min-entropy must be in (0, 1], got {min_entropy_per_bit}")
    if alpha_exponent < 1:
        raise ValueError("alpha exponent must be positive")
    return 1 + math.ceil(alpha_exponent / min_entropy_per_bit)


def adaptive_proportion_cutoff(
    min_entropy_per_bit: float, window: int = 512, alpha_exponent: int = 20
) -> int:
    """SP 800-90B adaptive-proportion cutoff (binomial quantile)."""
    from scipy import stats as scipy_stats
    if not (0.0 < min_entropy_per_bit <= 1.0):
        raise ValueError(f"min-entropy must be in (0, 1], got {min_entropy_per_bit}")
    if window < 16:
        raise ValueError(f"window must be at least 16, got {window}")
    p_max = 2.0 ** (-min_entropy_per_bit)
    cutoff = int(scipy_stats.binom.ppf(1.0 - 2.0**-alpha_exponent, window - 1, p_max)) + 1
    return min(cutoff, window)


class HealthMonitor:
    """Streaming health monitor for a binary source.

    Feed bits with :meth:`ingest`; alarms accumulate in
    :attr:`alarms`.  The monitor is stateless across ``reset()`` calls,
    as a hardware implementation would be after an alarm is serviced.
    """

    def __init__(
        self,
        claimed_min_entropy: float = 0.9,
        window: int = 512,
        alpha_exponent: int = 20,
    ) -> None:
        self.claimed_min_entropy = claimed_min_entropy
        self.window = window
        self.repetition_cutoff = repetition_count_cutoff(claimed_min_entropy, alpha_exponent)
        self.proportion_cutoff = adaptive_proportion_cutoff(
            claimed_min_entropy, window, alpha_exponent
        )
        self.reset()

    def reset(self) -> None:
        """Clear all streaming state and alarms."""
        self.alarms: List[HealthAlarm] = []
        self._position = 0
        self._last_bit = -1
        self._run_length = 0
        self._window_reference = -1
        self._window_count = 0
        self._window_position = 0

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    def ingest(self, bits: Sequence[int]) -> List[HealthAlarm]:
        """Process a chunk of bits; return alarms raised by this chunk.

        Vectorized: repetition counting works on the run-length encoding
        of the chunk and adaptive proportion on reshaped window sums, so
        the cost is dominated by a few numpy passes instead of a Python
        loop per bit.  Alarm positions, details and ordering are
        identical to a bit-at-a-time evaluation (within one bit the
        repetition test fires before the proportion test).
        """
        array = np.asarray(bits, dtype=int)
        if array.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if array.size and not np.all((array == 0) | (array == 1)):
            raise ValueError("bits must be 0 or 1")
        if array.size == 0:
            return []
        new_alarms = self._repetition_alarms(array) + self._proportion_alarms(array)
        new_alarms.sort(
            key=lambda alarm: (
                alarm.position,
                0 if alarm.test_name == "repetition_count" else 1,
            )
        )
        self._position += array.size
        self.alarms.extend(new_alarms)
        return new_alarms

    def _repetition_alarms(self, array: np.ndarray) -> List[HealthAlarm]:
        """Run-length-encoded repetition-count test over one chunk.

        Within a maximal run, the hardware counter restarts after every
        alarm, so a run carrying ``prior`` bits from the previous chunk
        alarms every ``cutoff`` counts of the virtual total and leaves
        ``total % cutoff`` on the counter.
        """
        cutoff = self.repetition_cutoff
        base = self._position
        boundaries = np.flatnonzero(array[1:] != array[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        lengths = np.diff(np.concatenate((starts, [array.size])))
        priors = np.zeros(starts.size, dtype=int)
        if int(array[0]) == self._last_bit:
            priors[0] = self._run_length
        totals = lengths + priors
        detail = f"{cutoff} identical bits (cutoff {cutoff})"
        alarms: List[HealthAlarm] = []
        for index in np.flatnonzero(totals >= cutoff):
            start = int(starts[index])
            prior = int(priors[index])
            total = int(totals[index])
            for k in range(1, total // cutoff + 1):
                alarms.append(
                    HealthAlarm(
                        test_name="repetition_count",
                        position=base + start - prior + k * cutoff - 1,
                        detail=detail,
                    )
                )
        remainder = int(totals[-1]) % cutoff
        if remainder == 0:
            # The chunk's last bit raised an alarm: counter restarted.
            self._last_bit = -1
            self._run_length = 0
        else:
            self._last_bit = int(array[-1])
            self._run_length = remainder
        return alarms

    def _proportion_alarms(self, array: np.ndarray) -> List[HealthAlarm]:
        """Tumbling-window adaptive-proportion test over one chunk.

        Completes the partially filled carry window first, then checks
        every full window via one reshape + row sum, and finally starts
        the next carry window from the chunk's tail.
        """
        window = self.window
        cutoff = self.proportion_cutoff
        base = self._position
        alarms: List[HealthAlarm] = []
        offset = 0
        if self._window_position > 0:
            head = array[: window - self._window_position]
            self._window_count += int(np.sum(head == self._window_reference))
            self._window_position += head.size
            if self._window_position < window:
                return alarms
            if self._window_count >= cutoff:
                alarms.append(
                    HealthAlarm(
                        test_name="adaptive_proportion",
                        position=base + head.size - 1,
                        detail=f"{self._window_count}/{window} occurrences "
                        f"of {self._window_reference} (cutoff {cutoff})",
                    )
                )
            self._window_position = 0
            offset = head.size
        remaining = array[offset:]
        full = remaining.size // window
        if full:
            blocks = remaining[: full * window].reshape(full, window)
            references = blocks[:, 0]
            ones = blocks.sum(axis=1)
            counts = np.where(references == 1, ones, window - ones)
            for index in np.flatnonzero(counts >= cutoff):
                alarms.append(
                    HealthAlarm(
                        test_name="adaptive_proportion",
                        position=base + offset + (int(index) + 1) * window - 1,
                        detail=f"{int(counts[index])}/{window} occurrences "
                        f"of {int(references[index])} (cutoff {cutoff})",
                    )
                )
        tail = remaining[full * window :]
        if tail.size:
            self._window_reference = int(tail[0])
            self._window_count = int(np.sum(tail == tail[0]))
            self._window_position = int(tail.size)
        return alarms

    # ------------------------------------------------------------------
    # summary
    # ------------------------------------------------------------------
    @property
    def healthy(self) -> bool:
        return not self.alarms

    def check_block(self, bits: Sequence[int]) -> bool:
        """One-shot convenience: reset, ingest, report health."""
        self.reset()
        self.ingest(bits)
        return self.healthy
