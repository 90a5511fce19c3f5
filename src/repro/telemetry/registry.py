"""Zero-dependency metrics registry with mergeable snapshots.

Three instrument kinds, chosen so that snapshots from independent
processes merge without loss:

* :class:`Counter` — a monotonically increasing integer (sums merge);
* :class:`Gauge` — a last-written float (merge keeps the newer write);
* :class:`Histogram` — counts over *fixed* bucket edges.  The edges are
  part of the instrument's identity: two histograms merge iff their
  edges are identical, which keeps merged campaign metrics
  deterministic regardless of which worker observed which value.

Names follow the ``repro.<layer>.<name>`` convention documented in
``docs/observability.md`` (e.g. ``repro.parallel.cache.hits``,
``repro.batch.events``).

The process-global *default registry* is what instrumented library code
writes to.  Pool workers run their chunk under a fresh registry
(:func:`use_registry`), snapshot it, and ship the snapshot back to the
parent, which folds it into its own registry with
:meth:`MetricsRegistry.merge` — so after a parallel campaign the parent
holds the aggregate of every worker.

Registry operations stay cheap (a dict lookup and an integer add), so
counters are always on; there is additionally a :data:`NOOP_REGISTRY`
whose instruments discard writes, used by the overhead benchmark to
measure an uninstrumented baseline.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Sequence, Tuple

#: Default histogram bucket edges for durations in seconds.  Fixed and
#: shared so worker snapshots always merge; spans sub-millisecond task
#: grains up to minute-scale campaign phases.
DEFAULT_TIME_EDGES_S: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += int(amount)

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


#: Process-wide write sequence shared by every gauge.  Each ``set()``
#: takes the next value, so "last write" is a total order *within* a
#: process and snapshot merges can resolve gauge conflicts by sequence
#: instead of by the (scheduler-dependent) order the merges happen in.
_GAUGE_SEQ = itertools.count(1)


class Gauge:
    """A last-write-wins float metric.

    Every write is stamped with a process-wide monotonic sequence
    number; merges keep the write with the highest ``(seq, value)``
    pair, which makes worker-snapshot merging deterministic regardless
    of completion order (see :meth:`MetricsRegistry.merge`).
    """

    __slots__ = ("name", "value", "seq")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.seq = 0  # 0 = never written

    def set(self, value: float) -> None:
        self.value = float(value)
        self.seq = next(_GAUGE_SEQ)

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Bucketed observations over fixed edges.

    ``counts[i]`` holds observations in ``(edges[i-1], edges[i]]`` with
    the usual open ends: ``counts[0]`` is everything ``<= edges[0]``,
    ``counts[-1]`` everything ``> edges[-1]``.
    """

    __slots__ = ("name", "edges", "counts", "total", "count")

    def __init__(self, name: str, edges: Sequence[float] = DEFAULT_TIME_EDGES_S) -> None:
        if not edges:
            raise ValueError(f"histogram {name} needs at least one bucket edge")
        ordered = tuple(float(edge) for edge in edges)
        if any(b <= a for a, b in zip(ordered, ordered[1:])):
            raise ValueError(f"histogram {name} edges must be strictly increasing")
        self.name = name
        self.edges = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.edges, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.count}, sum={self.total:.6g})"


@dataclasses.dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable, JSON-able state of a registry at one instant.

    Snapshots are the unit of inter-process metric transport: a worker
    snapshots its registry, the parent merges the snapshot.  They are
    also what the CLI serializes into a trace file (a ``metrics``
    record) for ``repro trace summarize``.
    """

    counters: Dict[str, int] = dataclasses.field(default_factory=dict)
    gauges: Dict[str, float] = dataclasses.field(default_factory=dict)
    histograms: Dict[str, Dict[str, Any]] = dataclasses.field(default_factory=dict)
    #: Write-sequence stamps for gauges (see :class:`Gauge`); a gauge
    #: absent from this mapping carries sequence 0.  Hand-built
    #: snapshots may omit it entirely — merge then falls back to the
    #: value itself as the tie-breaker, which is still deterministic.
    gauge_seqs: Dict[str, int] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: {
                    "edges": list(body["edges"]),
                    "counts": list(body["counts"]),
                    "sum": body["sum"],
                    "count": body["count"],
                }
                for name, body in self.histograms.items()
            },
        }
        if self.gauge_seqs:
            payload["gauge_seqs"] = dict(self.gauge_seqs)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MetricsSnapshot":
        return cls(
            counters={str(k): int(v) for k, v in payload.get("counters", {}).items()},
            gauges={str(k): float(v) for k, v in payload.get("gauges", {}).items()},
            histograms={
                str(name): {
                    "edges": [float(e) for e in body["edges"]],
                    "counts": [int(c) for c in body["counts"]],
                    "sum": float(body["sum"]),
                    "count": int(body["count"]),
                }
                for name, body in payload.get("histograms", {}).items()
            },
            gauge_seqs={
                str(k): int(v) for k, v in payload.get("gauge_seqs", {}).items()
            },
        )

    def merged(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """A new snapshot combining this one with ``other``."""
        registry = MetricsRegistry()
        registry.merge(self)
        registry.merge(other)
        return registry.snapshot()


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    An instrument name may only ever be used for one kind; reusing
    ``repro.x.y`` as both a counter and a gauge raises immediately
    rather than silently splitting the series.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # instruments
    # ------------------------------------------------------------------
    def _check_kind(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} is already registered as a {other_kind}"
                )

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_kind(name, "counter")
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_kind(name, "gauge")
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, edges: Sequence[float] = DEFAULT_TIME_EDGES_S
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_kind(name, "histogram")
            instrument = self._histograms[name] = Histogram(name, edges)
        elif instrument.edges != tuple(float(edge) for edge in edges):
            raise ValueError(
                f"histogram {name!r} already registered with different edges"
            )
        return instrument

    # ------------------------------------------------------------------
    # snapshots and merging
    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters={name: c.value for name, c in self._counters.items()},
            gauges={name: g.value for name, g in self._gauges.items()},
            histograms={
                name: {
                    "edges": list(h.edges),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for name, h in self._histograms.items()
            },
            gauge_seqs={
                name: g.seq for name, g in self._gauges.items() if g.seq
            },
        )

    def merge(self, snapshot: MetricsSnapshot) -> None:
        """Fold a snapshot (e.g. from a pool worker) into this registry.

        Counters and histogram bucket counts add; gauges keep the write
        with the highest ``(seq, value)`` pair — "last writer wins", with
        the write sequence stamped at ``set()`` defining *last* and the
        value breaking ties, so merging a set of worker snapshots yields
        the same result in any order.  Histogram edges must match the
        locally registered instrument exactly.
        """
        for name, value in snapshot.counters.items():
            self.counter(name).inc(value)
        for name, value in snapshot.gauges.items():
            seq = int(snapshot.gauge_seqs.get(name, 0))
            existing = self._gauges.get(name)
            if existing is None:
                gauge = self.gauge(name)
                gauge.value = float(value)
                gauge.seq = seq
            elif (seq, float(value)) > (existing.seq, existing.value):
                existing.value = float(value)
                existing.seq = seq
        for name, body in snapshot.histograms.items():
            histogram = self.histogram(name, body["edges"])
            if len(body["counts"]) != len(histogram.counts):
                raise ValueError(
                    f"histogram {name!r} snapshot has {len(body['counts'])} buckets, "
                    f"expected {len(histogram.counts)}"
                )
            for index, count in enumerate(body["counts"]):
                histogram.counts[index] += int(count)
            histogram.total += float(body["sum"])
            histogram.count += int(body["count"])

    def reset(self) -> None:
        """Drop every instrument (tests and fresh CLI sessions)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._histograms)} histograms)"
        )


# ----------------------------------------------------------------------
# no-op instruments (the fully-disabled baseline)
# ----------------------------------------------------------------------
class _NoopCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NoopGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NoopHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NoopMetricsRegistry(MetricsRegistry):
    """A registry whose instruments discard every write.

    Exists so the telemetry overhead benchmark can measure a truly
    uninstrumented baseline (:func:`repro.telemetry.all_disabled`);
    everything else should use a real registry — its cost is a dict
    lookup.
    """

    def __init__(self) -> None:
        super().__init__()
        self._noop_counter = _NoopCounter("noop")
        self._noop_gauge = _NoopGauge("noop")
        self._noop_histogram = _NoopHistogram("noop", (1.0,))

    def counter(self, name: str) -> Counter:
        return self._noop_counter

    def gauge(self, name: str) -> Gauge:
        return self._noop_gauge

    def histogram(
        self, name: str, edges: Sequence[float] = DEFAULT_TIME_EDGES_S
    ) -> Histogram:
        return self._noop_histogram

    def merge(self, snapshot: MetricsSnapshot) -> None:
        pass


#: Shared write-discarding registry for disabled-telemetry baselines.
NOOP_REGISTRY = NoopMetricsRegistry()


# ----------------------------------------------------------------------
# the process-global default registry
# ----------------------------------------------------------------------
_default_registry = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The registry instrumented library code writes to."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Temporarily make ``registry`` the process-global default.

    This is how pool workers isolate a chunk's metrics: run the chunk
    under a fresh registry, snapshot it, ship the snapshot home.
    """
    previous = set_default_registry(registry)
    try:
        yield registry
    finally:
        set_default_registry(previous)
