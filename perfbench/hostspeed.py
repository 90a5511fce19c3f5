"""The host reference loop and the normalisation of times to host speed.

The reference host switches between speed phases that last from a tenth
of a second to seconds.  In a slow phase, pure-Python code and numpy
kernels alike run up to 1.5x slower, in CPU time as much as in wall time.
A fixed pure-Python loop follows those phases.  :class:`HostSampler` runs
it from a ``SIGALRM`` interval timer every ``SAMPLE_INTERVAL_S`` while a
workload process works, so the samples fall inside the ops themselves.
Every end-to-end time is then scaled to the speed at which this loop
takes ``REF_NOMINAL_MS``:

    normalised time = (wall time - sample time) * REF_NOMINAL_MS / local reference time

Here the local reference time is the median of the samples taken inside
the interval, or of the ``MIN_SAMPLES`` samples nearest to it when fewer
fall inside.  The time the samples themselves took is left out of every
time, normalised or raw.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Iterations of the reference loop (about 0.5-0.8 ms on the reference host).
REF_LOOP_ITERATIONS = 8_000
#: The reference loop's time in a fast phase of the reference host; times
#: are reported as if the host ran at that speed throughout.
REF_NOMINAL_MS = 0.5
#: Interval of the sampling timer: about 6% of the time goes to samples.
SAMPLE_INTERVAL_S = 0.01
MIN_SAMPLES = 3

#: One reference sample: (start, end) on ``time.perf_counter`` and its ms.
Sample = Tuple[float, float, float]


def ref_loop() -> float:
    """Run the fixed reference loop; return its wall time in ms."""
    start = time.perf_counter()
    total = 0
    for value in range(REF_LOOP_ITERATIONS):
        total += value * value % 7
    return 1000.0 * (time.perf_counter() - start)


class HostSampler:
    """Runs the reference loop from an interval timer and records each sample.

    The handler runs in the main thread between two bytecodes of whatever
    was running, so a sample lies either wholly inside an op or wholly
    outside it.  Inside a long numpy call the signal waits for the call to
    return.
    """

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self._previous: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        start = time.perf_counter()
        milliseconds = ref_loop()
        self.samples.append((start, time.perf_counter(), milliseconds))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def between(self, start: float, end: float) -> List[Sample]:
        """The samples taken within [start, end]."""
        return [sample for sample in self.samples if start <= sample[0] and sample[1] <= end]


class HostSpeed:
    """Local reference times and sample pauses from one process's samples."""

    def __init__(self, samples: Sequence[Sequence[float]]) -> None:
        ordered = sorted(tuple(sample) for sample in samples)
        if not ordered:
            raise ValueError("no reference samples to normalise against")
        self._starts = [start for start, _, _ in ordered]
        self._mids = [0.5 * (start + end) for start, end, _ in ordered]
        self._ms = [ms for _, _, ms in ordered]
        self._paused = [0.0]
        for start, end, _ in ordered:
            self._paused.append(self._paused[-1] + end - start)

    def _inside(self, start: float, end: float) -> Tuple[int, int]:
        """Index range of the samples that start within [start, end]."""
        return bisect.bisect_left(self._starts, start), bisect.bisect_right(self._starts, end)

    def paused_s(self, start: float, end: float) -> float:
        """Seconds the samples took within [start, end]."""
        low, high = self._inside(start, end)
        return self._paused[high] - self._paused[low]

    def local_ms(self, start: float, end: float) -> float:
        low, high = self._inside(start, end)
        if high - low >= MIN_SAMPLES:
            return statistics.median(self._ms[low:high])
        center = 0.5 * (start + end)
        position = bisect.bisect_left(self._mids, center)
        candidates = range(
            max(0, position - MIN_SAMPLES), min(len(self._ms), position + MIN_SAMPLES)
        )
        nearest = sorted(candidates, key=lambda index: abs(self._mids[index] - center))
        return statistics.median(self._ms[index] for index in nearest[:MIN_SAMPLES])

    def busy_s(self, start: float, end: float) -> float:
        """Wall time of [start, end] without the samples in it."""
        return end - start - self.paused_s(start, end)

    def normalised_s(self, start: float, end: float) -> float:
        """Busy time of [start, end] at the nominal host speed."""
        return self.busy_s(start, end) * REF_NOMINAL_MS / self.local_ms(start, end)

    def median_ms(self) -> float:
        return statistics.median(self._ms)


def summarise(record: Dict[str, Any], speed: Optional[HostSpeed] = None) -> Dict[str, Any]:
    """Work rates and op latencies of one pass record, raw (sample time
    left out) and normalised.

    ``work_per_s`` adds up the normalised time of every stretch between
    two ops' ends, so that each stretch is scaled by its own local speed.
    """
    speed = speed or HostSpeed(record["samples"])
    spans = list(zip(record["op_starts"], record["op_ends"]))
    raw = [speed.busy_s(start, end) for start, end in spans]
    latencies = [speed.normalised_s(start, end) for start, end in spans]
    cuts = sorted({record["pass_start"], record["pass_end"]} | {end for _, end in spans})
    cuts = [cut for cut in cuts if record["pass_start"] <= cut <= record["pass_end"]]
    busy = sum(speed.normalised_s(low, high) for low, high in zip(cuts, cuts[1:]))
    raw_busy = speed.busy_s(record["pass_start"], record["pass_end"])
    return {
        "work_per_s": record["units"] / busy if busy > 0 else 0.0,
        "raw_work_per_s": record["units"] / raw_busy if raw_busy > 0 else 0.0,
        "latencies_s": latencies,
        "raw_latencies_s": raw,
        "ref_ms": speed.median_ms(),
    }
