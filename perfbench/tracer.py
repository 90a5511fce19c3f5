"""In-memory span tracer that wraps the library's public layer functions.

The traced run of the benchmark installs :class:`Tracer` hooks around the
public entry points of every layer (see :func:`install_layer_hooks`), runs the same
fixed work as the untraced run, and derives the per-layer metrics from
the recorded spans.  Nothing in ``src/`` is modified: wrappers replace the
function objects on their defining class or module, and every module of
the ``repro`` package that imported the function by name is rebound too.

A span records its name, wall start/end (``perf_counter``), CPU start/end
(``process_time``), its parent span and the op it belongs to, in flat
``array`` columns so that hundreds of thousands of spans stay small.
Only synchronous functions are wrapped, so spans nest as a stack even
inside the asyncio server.  Self time is a span's duration minus the
time its direct children cover.  The host reference samples that fell
inside a span (see :mod:`hostspeed`) are left out of its duration.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The 17 registered claims, in registry order; one ``verify.claim.<ID>_ms``
#: metric each.
CLAIM_IDS: Tuple[str, ...] = (
    "C1", "C2", "C3", "C4", "C5", "C6", "C7", "EQ3", "EQ4", "EQ5", "GAUSS",
    "EXT-FAILOVER", "EXT-FAILSAFE", "PUF-UNIQ", "PUF-STABLE", "EXT12", "EXT12-VAR",
)

_SELF_TIMES = (
    # (metric stem, span names whose self time it sums)
    ("sim.event", ("sim.event",)),
    ("sim.batch", ("sim.batch",)),
    ("core.characterization", ("core.characterization",)),
    ("measurement", ("measurement",)),
    ("verify.criteria", ("verify.criteria",)),
    ("verify.self", ("verify.run", "verify.claim")),
    ("parallel.seeds.spawn", ("parallel.seeds.spawn",)),
    ("fpga.process.sample", ("fpga.process.sample",)),
    ("puf.kernel", ("puf.kernel",)),
    ("puf.bits", ("puf.bits",)),
    ("puf.score", ("puf.score",)),
    ("puf.auth", ("puf.auth",)),
    ("stats.puf_hamming", ("stats.puf_hamming",)),
)

_PER_CALL_US = (
    ("serve.pool.produce_block_us", "serve.pool.produce_block"),
    ("serve.protocol_us", "serve.protocol.send"),
    ("trng.sample_block_us", "trng.sample_block"),
    ("trng.health.ingest_us", "trng.health.ingest"),
    ("obs.drift.observe_us", "obs.drift.observe"),
)


def _self_time_name(stem: str, cpu: bool) -> str:
    suffix = "cpu_s" if cpu else "s"
    return f"{stem}.{suffix}" if stem == "measurement" else f"{stem}_{suffix}"


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {
        "startup.numpy_ms": "ms",
        "startup.scipy_ms": "ms",
        "startup.repro_ms": "ms",
    }
    for stem, _ in _SELF_TIMES:
        units[_self_time_name(stem, False)] = "s"
        units[_self_time_name(stem, True)] = "s"
    units.update(
        {
            "sim.event_calls": "count",
            "sim.event_events": "count",
            "sim.batch_calls": "count",
            "sim.batch_share": "share",
        }
    )
    for claim_id in CLAIM_IDS:
        units[f"verify.claim.{claim_id}_ms"] = "ms"
    units.update(
        {
            "parallel.run_grid_overhead_ms": "ms",
            "parallel.cache.put_ms": "ms",
            "parallel.cache.bytes_written": "B",
            "fpga.process.sample_share": "share",
            "puf.kernel_bytes": "B_computed",
            "serve.req_32B_p50_ms": "ms",
            "serve.req_4KiB_p50_ms": "ms",
            "serve.req_64KiB_p50_ms": "ms",
            "serve.pool.get_bytes_ms": "ms",
            "serve.pool.blocks_total": "count",
            "serve.pool.gen_per_served_byte": "B/B",
            "serve.server_wait_ms": "ms",
            "telemetry.gauge_sets_per_block": "count",
            "host.ref_loop_ms": "ms",
            "trace.overhead_share": "share",
        }
    )
    for metric, _ in _PER_CALL_US:
        units[metric] = "us"
    return units


class Tracer:
    """Records spans around wrapped functions; see the module docstring."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.tags: List[str] = []
        self._tag_ids: Dict[str, int] = {}
        self.counts: Counter = Counter()
        self.current_op = -1
        self.op_of: Callable[[], int] = lambda: self.current_op
        self.on_send: Callable[[Any, Any], None] = lambda args, kwargs: None
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.clear()

    def clear(self) -> None:
        """Drop every recorded span and count (hooks stay installed)."""
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.c0 = array("d")
        self.c1 = array("d")
        self.count = array("d")
        self.counts.clear()
        self._stack.clear()

    def _intern(self, table: List[str], ids: Dict[str, int], key: str) -> int:
        if key not in ids:
            ids[key] = len(table)
            table.append(key)
        return ids[key]

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def traced(
        self,
        fn: Callable,
        name: str,
        *,
        pre: Optional[Callable] = None,
        post: Optional[Callable] = None,
        tag: Optional[Callable] = None,
        transform: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped in a span.

        ``pre(args, kwargs)`` runs before the clock starts and its value is
        handed to ``post(args, kwargs, result, pre_value)``, whose return
        is stored as the span's count.  ``tag(args, kwargs)`` names a
        sub-key (a claim id); ``transform(args, kwargs)`` may replace the
        call's arguments.
        """
        name_id = self._intern(self.names, self._name_ids, name)
        perf, cpu = time.perf_counter, time.process_time

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            before = pre(args, kwargs) if pre is not None else None
            if transform is not None:
                args, kwargs = transform(args, kwargs)
            index = len(self.t0)
            stack = self._stack
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_of())
            self.tag.append(
                self._intern(self.tags, self._tag_ids, tag(args, kwargs)) if tag else -1
            )
            self.count.append(0.0)
            self.t1.append(0.0)
            self.c1.append(0.0)
            self.c0.append(cpu())
            stack.append(index)
            self.t0.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.t1[index] = perf()
                self.c1[index] = cpu()
                stack.pop()
            if post is not None:
                self.count[index] = float(post(args, kwargs, result, before))
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a call counter and no span (for hot one-liners)."""
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def patch_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def patch_function(self, original: Callable, wrapper: Callable) -> None:
        """Rebind every ``repro`` module attribute that is ``original``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def columns(self) -> Dict[str, Any]:
        import numpy as np

        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "tag": np.frombuffer(self.tag, dtype=np.int32),
            "start": np.frombuffer(self.t0, dtype=np.float64),
            "end": np.frombuffer(self.t1, dtype=np.float64),
            "cpu_start": np.frombuffer(self.c0, dtype=np.float64),
            "cpu_end": np.frombuffer(self.c1, dtype=np.float64),
            "count": np.frombuffer(self.count, dtype=np.float64),
        }

    def write(self, path: str) -> None:
        """Write every span (plus the name/tag tables) as one ``.npz``."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            tags=np.array(self.tags, dtype=str),
            **self.columns(),
        )


# ----------------------------------------------------------------------
# the layer hooks
# ----------------------------------------------------------------------
def _public_functions(module: Any) -> List[Callable]:
    return [
        value
        for attr, value in vars(module).items()
        if inspect.isfunction(value)
        and not attr.startswith("_")
        and value.__module__ == module.__name__
    ]


def _public_methods(cls: type) -> List[str]:
    return [
        attr
        for attr, value in vars(cls).items()
        if inspect.isfunction(value) and not attr.startswith("_")
    ]


def _kernel_bytes(args: Sequence[Any], kwargs: Dict[str, Any], result: Any, _: Any) -> float:
    """Computed, not measured: gathered (device, ring, stage) LUT factors
    plus the (device, ring) output, as float64, plus the noise draws."""
    batch, tables = args[0], args[1]
    devices = len(batch.lut_factors)
    rings, stages = tables.lut_index.shape
    noisy = bool(kwargs.get("measure_periods", 0))
    return 8.0 * (devices * rings * stages + devices * rings * (2 if noisy else 1))


def install_layer_hooks(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports."""
    from repro.fpga import process as fpga_process
    from repro.measurement import __all__ as measurement_names
    import repro.measurement as measurement
    from repro.obs import drift
    from repro.parallel import cache, executor, seeds
    from repro.puf import auth, enrollment, metrics, topology
    from repro.serve import pool, protocol
    from repro.simulation import batch, engine
    from repro.stats import puf as stats_puf
    from repro.telemetry import registry
    from repro.trng import health, supervisor
    from repro.core import characterization
    from repro.verify import claims, criteria, runner

    def function(original: Callable, name: str, **hooks: Any) -> None:
        tracer.patch_function(original, tracer.traced(original, name, **hooks))

    def method(cls: type, attr: str, name: str, **hooks: Any) -> None:
        tracer.patch_method(cls, attr, tracer.traced(cls.__dict__[attr], name, **hooks))

    # simulation / rings
    method(
        engine.Simulator, "run", "sim.event",
        pre=lambda a, k: a[0].events_processed,
        post=lambda a, k, r, before: a[0].events_processed - before,
    )
    for kernel in (batch.simulate_iro_batch, batch.simulate_str_batch):
        function(kernel, "sim.batch", post=lambda a, k, r, _: r.events_processed)

    # core / measurement
    for name in (
        "jitter_versus_length", "measure_period_jitter", "sweep_voltage",
        "measure_family_dispersion",
    ):
        function(getattr(characterization, name), "core.characterization")
    for attr in measurement_names:
        value = getattr(measurement, attr)
        if inspect.isfunction(value):
            function(value, "measurement")
        elif inspect.isclass(value):
            for method_name in _public_methods(value):
                method(value, method_name, "measurement")

    # verify
    function(runner.run_verification, "verify.run")
    method(claims.ClaimSpec, "run", "verify.claim", tag=lambda a, k: a[0].claim_id)
    for value in _public_functions(criteria):
        function(value, "verify.criteria")

    # parallel
    def traced_worker(args: Tuple[Any, ...], kwargs: Dict[str, Any]):
        worker = tracer.traced(args[1], "parallel.worker")
        return (args[0], worker) + tuple(args[2:]), kwargs

    function(executor.run_grid, "parallel.run_grid", transform=traced_worker)
    method(cache.ResultCache, "put", "parallel.cache.put")
    for value in (seeds.spawn_seeds, seeds.spawn_seed_subset):
        function(value, "parallel.seeds.spawn")

    # fpga / puf / stats
    for attr in ("sample_devices", "sample_device_batch"):
        method(fpga_process.ProcessVariation, attr, "fpga.process.sample")
    function(enrollment.population_frequencies, "puf.kernel", post=_kernel_bytes)
    function(topology.derive_response_bits, "puf.bits")
    for value in (enrollment.measure_population, enrollment.enroll_population):
        function(value, "puf.measure")
    for value in (metrics.score_population, metrics.score_uniqueness, metrics.score_reliability):
        function(value, "puf.score")
    function(auth.authentication_report, "puf.auth")
    for value in _public_functions(stats_puf):
        function(value, "stats.puf_hamming")

    # serve / trng / obs / telemetry
    method(pool.TrngPool, "get_bytes", "serve.pool.get_bytes")
    method(pool.TrngPool, "produce_block", "serve.pool.produce_block")
    method(
        protocol.FrameStream, "send", "serve.protocol.send",
        pre=lambda a, k: tracer.on_send(a, k),
    )
    method(supervisor.RingChannel, "sample_block", "trng.sample_block")
    method(health.HealthMonitor, "ingest", "trng.health.ingest")
    method(drift.ChannelDriftMonitor, "observe_block", "obs.drift.observe")
    tracer.patch_method(
        registry.Gauge, "set", tracer.counted(registry.Gauge.__dict__["set"], "gauge.set")
    )


# ----------------------------------------------------------------------
# metrics from spans
# ----------------------------------------------------------------------
def _median(values: Any) -> float:
    import numpy as np

    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(
    tracer: Tracer,
    ops: Dict[str, Any],
    untraced_work_per_s: float,
    traced_work_per_s: float,
) -> Dict[str, float]:
    """Every per-layer metric except ``startup.*`` (measured per start).

    ``ops`` is the traced pass's record (see ``worker.timed_pass``): op
    spans, op kinds, reference samples and the workload's extras.
    """
    import numpy as np

    col = tracer.columns()
    names = {name: index for index, name in enumerate(tracer.names)}
    samples = np.array(sorted(ops["samples"]), dtype=np.float64).reshape(-1, 3)
    paused = np.concatenate(([0.0], np.cumsum(samples[:, 1] - samples[:, 0])))

    def paused_within(start: Any, end: Any) -> Any:
        low = np.searchsorted(samples[:, 0], start, side="left")
        high = np.searchsorted(samples[:, 0], end, side="right")
        return paused[high] - paused[low]

    # A sample runs on the CPU as much as on the clock.
    sampled = paused_within(col["start"], col["end"])
    duration = col["end"] - col["start"] - sampled
    cpu = col["cpu_end"] - col["cpu_start"] - sampled
    has_parent = col["parent"] >= 0
    covered = np.zeros(len(duration))
    covered_cpu = np.zeros(len(duration))
    np.add.at(covered, col["parent"][has_parent], duration[has_parent])
    np.add.at(covered_cpu, col["parent"][has_parent], cpu[has_parent])
    self_wall = duration - covered
    self_cpu = cpu - covered_cpu

    def mask(name: str) -> Any:
        return col["name"] == names.get(name, -2)

    out: Dict[str, float] = {}
    for stem, span_names in _SELF_TIMES:
        selected = np.zeros(len(duration), dtype=bool)
        for name in span_names:
            selected |= mask(name)
        out[_self_time_name(stem, False)] = float(self_wall[selected].sum())
        out[_self_time_name(stem, True)] = float(self_cpu[selected].sum())

    event_events = float(col["count"][mask("sim.event")].sum())
    batch_events = float(col["count"][mask("sim.batch")].sum())
    out["sim.event_calls"] = float(mask("sim.event").sum())
    out["sim.event_events"] = event_events
    out["sim.batch_calls"] = float(mask("sim.batch").sum())
    total_events = event_events + batch_events
    out["sim.batch_share"] = batch_events / total_events if total_events else 0.0

    claim_spans = mask("verify.claim")
    for claim_id in CLAIM_IDS:
        tag_id = tracer._tag_ids.get(claim_id, -2)
        selected = claim_spans & (col["tag"] == tag_id)
        out[f"verify.claim.{claim_id}_ms"] = 1000.0 * _median(duration[selected])

    # run_grid overhead, summed over the run: each call's duration minus
    # its worker calls.  Nested grids sit inside a worker call, so nothing
    # is counted twice.
    workers = mask("parallel.worker")
    worker_time = np.zeros(len(duration))
    np.add.at(worker_time, col["parent"][workers], duration[workers])
    grids = mask("parallel.run_grid")
    out["parallel.run_grid_overhead_ms"] = 1000.0 * float(
        (duration[grids] - worker_time[grids]).sum()
    )
    out["parallel.cache.put_ms"] = 1000.0 * _median(duration[mask("parallel.cache.put")])
    out["parallel.cache.bytes_written"] = float(ops["extras"].get("cache_bytes", 0))

    op_starts = np.asarray(ops["op_starts"], dtype=np.float64)
    op_ends = np.asarray(ops["op_ends"], dtype=np.float64)
    latencies = op_ends - op_starts - paused_within(op_starts, op_ends)
    op_time = float(latencies.sum())
    sample_s = out["fpga.process.sample_s"]
    out["fpga.process.sample_share"] = sample_s / op_time if op_time else 0.0
    out["puf.kernel_bytes"] = float(col["count"][mask("puf.kernel")].sum())

    kinds = np.asarray(ops["kinds"])
    for label, size in (("32B", 32), ("4KiB", 4096), ("64KiB", 65536)):
        out[f"serve.req_{label}_p50_ms"] = 1000.0 * _median(latencies[kinds == size])
    get_bytes = mask("serve.pool.get_bytes")
    out["serve.pool.get_bytes_ms"] = 1000.0 * _median(duration[get_bytes])
    blocks = float(mask("serve.pool.produce_block").sum())
    out["serve.pool.blocks_total"] = blocks
    served = float(ops["extras"].get("bytes_served", 0))
    sampled_bytes = mask("trng.sample_block").sum() * ops["extras"].get("block_bits", 0) / 8
    out["serve.pool.gen_per_served_byte"] = float(sampled_bytes / served) if served else 0.0
    if get_bytes.any() and len(latencies):
        owned = get_bytes & (col["op"] >= 0)
        pool_time = np.bincount(
            col["op"][owned], weights=duration[owned], minlength=len(latencies)
        )[: len(latencies)]
        out["serve.server_wait_ms"] = 1000.0 * _median(latencies - pool_time)
    else:
        out["serve.server_wait_ms"] = 0.0
    for metric, name in _PER_CALL_US:
        out[metric] = 1e6 * _median(duration[mask(name)])
    out["telemetry.gauge_sets_per_block"] = (
        tracer.counts["gauge.set"] / blocks if blocks else 0.0
    )
    out["host.ref_loop_ms"] = _median(samples[:, 2])
    out["trace.overhead_share"] = (
        1.0 - traced_work_per_s / untraced_work_per_s if untraced_work_per_s else 0.0
    )
    return out
