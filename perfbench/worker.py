"""One workload process of the benchmark.

``run.py`` starts this script in a fresh interpreter (with ``-X importtime``)
several times per run.  Each start imports the workload's modules, builds
its state, runs one warm-up op and prints ``READY``; that is the set-up the
``setup_s`` metric times.  A ``--mode setup`` start exits there.  A
``--mode run`` start then does the run's fixed, seeded work and prints one
JSON record of its ops.  A ``--mode trace`` start does the same work twice,
untraced and then under :mod:`tracer` hooks, and adds the per-layer metrics.

The amount of work is a function of ``--seed`` and ``--seconds`` only (see
``work_units``), never of how fast the host is: a faster program finishes
the same work sooner rather than doing more of it, so memory figures such
as ``peak_rss_mb`` compare like with like.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from hostspeed import HostSampler

#: Work per second of ``--seconds``.  At 30 s a run does three claim
#: sweeps, 8 PUF lots or 5,610 requests: 9-31 s of ops at the reference
#: speed of ``hostspeed``, 13-46 s on the reference host (see NOTES.md).
CLAIM_SEEDS_PER_SECOND = 0.1
PUF_LOTS_PER_SECOND = 0.27
SERVE_REQUESTS_PER_SECOND = 187

#: serve_mix request sizes and their weights (90/8/2).
SERVE_SIZES = (32, 4096, 65536)
SERVE_WEIGHTS = (0.90, 0.08, 0.02)
SERVE_CLIENTS = 2

PUF_LOT_DEVICES = 8192
PUF_WARMUP_DEVICES = 1024


def work_units(workload: str, seconds: float) -> int:
    """The fixed amount of work of one run (seeds, lots or requests)."""
    if workload == "claims_quick":
        return max(1, round(seconds * CLAIM_SEEDS_PER_SECOND))
    if workload == "puf_lots":
        return max(1, round(seconds * PUF_LOTS_PER_SECOND))
    return max(SERVE_CLIENTS, round(seconds * SERVE_REQUESTS_PER_SECOND))


def _new_pass_record() -> Dict[str, Any]:
    """An empty pass record; ops are described by parallel lists."""
    return {
        "op_starts": [],
        "op_ends": [],
        "kinds": [],
        "units": 0,
        "attempted": 0,
        "failed": 0,
        "errors": [],
        "extras": {},
    }


def _record_op(record: Dict[str, Any], start: float, kind: int) -> None:
    record["op_starts"].append(start)
    record["op_ends"].append(time.perf_counter())
    record["kinds"].append(kind)


def _directory_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class ClaimsQuick:
    """Every registered claim at the quick tier over a fixed seed list.

    One op is one (claim, seed) check, timed through the progress callback
    of ``run_verification`` with a fresh on-disk ``ResultCache``.
    """

    def __init__(
        self,
        seed: int,
        seconds: float,
        work_dir: Path,
        *,
        claim_ids: Optional[List[str]] = None,
        overrides: Optional[Dict[str, Any]] = None,
    ) -> None:
        from repro.parallel import ResultCache
        from repro.verify import all_claim_ids, run_verification
        from repro.verify.runner import derive_claim_seeds

        self._cache_type = ResultCache
        self._run_verification = run_verification
        self._derive_seeds = derive_claim_seeds
        self.seed = seed
        self.seeds = work_units("claims_quick", seconds)
        self.claim_ids = list(claim_ids or all_claim_ids())
        self.overrides = overrides
        self.work_dir = work_dir
        self._cache_dir: Optional[Path] = None

    def prepare(self) -> None:
        self.close()
        self._cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.work_dir))

    def warm_up(self) -> None:
        warm_dir = Path(tempfile.mkdtemp(prefix="warm-", dir=self.work_dir))
        try:
            report = self._run_verification(
                ["C1"], tier="quick", seeds=1, root_seed=self.seed, jobs=1,
                cache=self._cache_type(warm_dir),
            )
            if len(report.sweeps) != 1:
                raise RuntimeError("warm-up verification returned no sweep")
        finally:
            shutil.rmtree(warm_dir, ignore_errors=True)

    def root_seeds(self) -> List[int]:
        """One root seed per sweep; the sweeps run one after another, so
        each claim's checks are spread over the whole run."""
        return [self.seed * 1000 + index for index in range(self.seeds)]

    def run_pass(self, tracer: Any = None) -> Dict[str, Any]:
        record = _new_pass_record()
        clock = {"last": 0.0}

        def progress(done: int, total: int) -> None:
            if done:
                _record_op(record, clock["last"], 0)
            if tracer is not None:
                tracer.current_op = len(record["op_ends"])
            clock["last"] = time.perf_counter()

        cache = self._cache_type(self._cache_dir)
        for root_seed in self.root_seeds():
            report = self._run_verification(
                self.claim_ids, tier="quick", seeds=1, root_seed=root_seed, jobs=1,
                cache=cache, overrides=self.overrides, progress=progress,
            )
            if [sweep.claim_id for sweep in report.sweeps] != self.claim_ids:
                record["errors"].append("report claims differ from the requested claims")
            for sweep in report.sweeps:
                expected = self._derive_seeds(root_seed, sweep.claim_id, 1)
                if [outcome.seed for outcome in sweep.outcomes] != expected:
                    record["errors"].append(f"{sweep.claim_id}: outcome seeds differ")
                for outcome in sweep.outcomes:
                    if outcome.claim_id != sweep.claim_id:
                        record["errors"].append(f"{sweep.claim_id}: foreign outcome")
                    if outcome.detail.startswith("check raised:"):
                        record["errors"].append(f"{outcome.claim_id}: {outcome.detail}")
                    if not outcome.passed:
                        record["failed"] += 1
                        record["extras"].setdefault("failed_checks", []).append(
                            f"{outcome.claim_id}@{outcome.seed}"
                        )
        tasks = len(self.claim_ids) * self.seeds
        record["attempted"] = record["units"] = len(record["op_ends"])
        entries = len(list(self._cache_dir.rglob("*.json")))
        if record["attempted"] != tasks or entries != tasks:
            record["errors"].append(
                f"{tasks} checks expected, {record['attempted']} timed, "
                f"{entries} cache entries written"
            )
        record["extras"]["cache_bytes"] = _directory_bytes(self._cache_dir)
        return record

    def close(self) -> None:
        if self._cache_dir is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)


class PufLots:
    """Lots of 8192 devices through the three ``repro puf`` actions.

    One op is one lot: enroll plus the all-pairs Hamming distance, score
    over the stress corners, then two nominal measurements and the
    authentication report.  Readout is noisy (256 averaged periods).
    """

    def __init__(self, seed: int, seconds: float, work_dir: Path) -> None:
        import repro.puf as puf
        from repro.fpga.voltage import SupplySpec
        from repro.stats.puf import mean_pairwise_hamming

        self._puf = puf
        self._nominal = SupplySpec
        self._mean_hamming = mean_pairwise_hamming
        self.design = puf.PufDesign(measure_periods=256)
        self.seed = seed
        self.lots = work_units("puf_lots", seconds)
        if puf.CHUNK_DEVICES != PUF_LOT_DEVICES:
            raise RuntimeError(
                f"a lot is one chunk of {PUF_LOT_DEVICES} devices; "
                f"CHUNK_DEVICES is now {puf.CHUNK_DEVICES}"
            )

    def prepare(self) -> None:
        pass

    def _lot(self, devices: int, lot_seed: int) -> List[str]:
        """Run one lot; return the failed output checks."""
        puf, design = self._puf, self.design
        problems: List[str] = []
        shape = (devices, design.response_bits)
        enrollment = puf.enroll_population(devices, design=design, seed=lot_seed, jobs=1)
        inter_hd = self._mean_hamming(enrollment.responses)
        if not 0.45 <= inter_hd <= 0.55:
            problems.append(f"mean inter-device HD {inter_hd:.4f} outside [0.45, 0.55]")
        score = puf.score_population(devices, design=design, seed=lot_seed, jobs=1)
        if not score.reliability:
            problems.append("score has no reliability rows")
        measurement = puf.measure_population(
            devices, design=design, corners=(self._nominal(), self._nominal()),
            seed=lot_seed, jobs=1,
        )
        report = puf.authentication_report(measurement.responses[0], measurement.responses[1])
        if not report.mean_genuine_hd < report.mean_impostor_hd:
            problems.append(
                f"genuine HD {report.mean_genuine_hd:.2f} not below "
                f"impostor HD {report.mean_impostor_hd:.2f}"
            )
        shapes = [enrollment.responses.shape] + [r.shape for r in measurement.responses]
        if any(tuple(found) != shape for found in shapes):
            problems.append(f"response shapes {shapes}, expected {shape}")
        return problems

    def warm_up(self) -> None:
        problems = self._lot(PUF_WARMUP_DEVICES, (self.seed << 20) | 0xFFFFF)
        if problems:
            raise RuntimeError(f"warm-up lot failed: {problems}")

    def run_pass(self, tracer: Any = None) -> Dict[str, Any]:
        record = _new_pass_record()
        for lot in range(self.lots):
            if tracer is not None:
                tracer.current_op = lot
            start = time.perf_counter()
            problems = self._lot(PUF_LOT_DEVICES, (self.seed << 20) | lot)
            _record_op(record, start, 0)
            record["attempted"] += 1
            if problems:
                record["failed"] += 1
                record["errors"].extend(f"lot {lot}: {problem}" for problem in problems)
        record["units"] = PUF_LOT_DEVICES * self.lots
        return record

    def close(self) -> None:
        pass


class ServeMix:
    """Two closed-loop clients against an in-process ``EntropyServer``.

    The pool has four channels (iro 5, iro 7, str 48, str 96) with drift
    monitors attached, as ``repro serve --drift`` does.  Each client sends
    exactly 90% 32 B, 8% 4 KiB and 2% 64 KiB requests in a seeded order;
    one op is one request.
    """

    def __init__(self, seed: int, seconds: float, work_dir: Path) -> None:
        import asyncio
        import contextvars

        from repro.core.campaign import RingSpec
        from repro.serve import (
            EntropyClient, EntropyServer, IntegrityError, PoolConfig, ServerError,
            TrngPool,
        )

        self._asyncio = asyncio
        self._classes = (EntropyClient, EntropyServer, PoolConfig, TrngPool)
        self._client_errors = (ServerError, IntegrityError, ConnectionError, OSError,
                               asyncio.TimeoutError)
        self.specs = [RingSpec("iro", 5), RingSpec("iro", 7), RingSpec("str", 48),
                      RingSpec("str", 96)]
        self.seed = seed
        requests = work_units("serve_mix", seconds)
        # Exactly 90/8/2 per client, in a seeded order: every run serves the
        # same bytes, so seeds change only the interleaving.  Each client's
        # plan is cut into one stretch per 64 KiB request, and every stretch
        # holds its share of 4 KiB requests, shuffled within the stretch.
        # Shuffled over the whole plan, bulk requests clustered by chance,
        # and op_tail_ms followed the seed (see NOTES.md).
        count = requests // SERVE_CLIENTS
        small, medium, bulk = SERVE_SIZES
        bulk_count = max(1, round(count * SERVE_WEIGHTS[2]))
        medium_count = round(count * SERVE_WEIGHTS[1])
        # Stretch k starts at request cuts(count)[k] and holds
        # cuts(medium_count)[k + 1] - cuts(medium_count)[k] 4 KiB requests.
        def cuts(total: int) -> List[int]:
            return [(index * total) // bulk_count for index in range(bulk_count + 1)]

        starts, mediums = cuts(count), cuts(medium_count)
        self.plans = []
        for client in range(SERVE_CLIENTS):
            rng = random.Random(seed * 1_000_003 + client)
            plan: List[int] = []
            for stretch in range(bulk_count):
                part = [bulk] + [medium] * (mediums[stretch + 1] - mediums[stretch])
                part += [small] * (starts[stretch + 1] - starts[stretch] - len(part))
                rng.shuffle(part)
                plan += part
            self.plans.append(plan)
        self.loop = asyncio.new_event_loop()
        self.op = contextvars.ContextVar("perfbench_op", default=-1)
        self.server: Any = None
        self.pool: Any = None
        self.clients: List[Any] = []

    def prepare(self) -> None:
        self.loop.run_until_complete(self._stop())
        client_type, server_type, config_type, pool_type = self._classes
        self.pool = pool_type(self.specs, config=config_type(min_healthy=2), seed=self.seed)
        self.pool.attach_drift_monitors()
        self.server = server_type(self.pool)

        async def start() -> None:
            await self.server.start()
            self.clients = [
                await client_type.connect("127.0.0.1", self.server.port)
                for _ in range(SERVE_CLIENTS)
            ]

        self.loop.run_until_complete(start())

    def warm_up(self) -> None:
        result = self.loop.run_until_complete(self.clients[0].fetch(SERVE_SIZES[1]))
        if len(result.data) != SERVE_SIZES[1]:
            raise RuntimeError("warm-up request came back short")

    def attach(self, tracer: Any) -> None:
        """Let server-side spans find the op they serve.

        A client's REQUEST frame maps its local port to the op; a server
        frame maps the serving task to the same port (the client's peer).
        """
        asyncio = self._asyncio
        pending: Dict[int, int] = {}
        task_port: Dict[Any, int] = {}
        server_frames = {"DATA", "ERROR", "HELLO", "STATS"}

        def on_send(args: Any, kwargs: Any) -> None:
            stream, frame_type = args[0], args[1]
            if getattr(frame_type, "name", "") == "REQUEST":
                pending[stream.writer.get_extra_info("sockname")[1]] = self.op.get()
            elif getattr(frame_type, "name", "") in server_frames:
                task = asyncio.current_task()
                if task not in task_port:
                    task_port[task] = stream.writer.get_extra_info("peername")[1]

        def op_of() -> int:
            op = self.op.get()
            if op >= 0:
                return op
            try:
                task = asyncio.current_task()
            except RuntimeError:  # no running loop: pool built outside a request
                return -1
            return pending.get(task_port.get(task, -1), -1)

        tracer.on_send = on_send
        tracer.op_of = op_of

    async def _client(self, index: int, record: Dict[str, Any], first_op: int) -> None:
        client = self.clients[index]
        for position, size in enumerate(self.plans[index]):
            op = first_op + position
            self.op.set(op)
            start = time.perf_counter()
            try:
                result = await client.fetch(size)
                ok = len(result.data) == size
                if not ok:
                    record["errors"].append(f"op {op}: short grant {len(result.data)}/{size}")
            except self._client_errors as error:
                ok = False
                record["errors"].append(f"op {op}: {type(error).__name__}: {error}")
            end = time.perf_counter()
            record["op_starts"][op] = start
            record["op_ends"][op] = end
            record["attempted"] += 1
            if ok:
                record["units"] += size
            else:
                record["failed"] += 1
        self.op.set(-1)

    def run_pass(self, tracer: Any = None) -> Dict[str, Any]:
        record = _new_pass_record()
        total = sum(len(plan) for plan in self.plans)
        for key in ("op_starts", "op_ends"):
            record[key] = [0.0] * total
        record["kinds"] = [size for plan in self.plans for size in plan]
        offsets = [0, len(self.plans[0])]

        async def drive() -> None:
            await self._asyncio.gather(
                *(self._client(index, record, offsets[index]) for index in range(SERVE_CLIENTS))
            )

        self.loop.run_until_complete(drive())
        unhealthy = self.pool.unhealthy_emitted_blocks()
        if unhealthy:
            record["failed"] = min(record["attempted"], record["failed"] + unhealthy)
            record["errors"].append(f"{unhealthy} unhealthy block(s) emitted")
        record["extras"] = {
            "bytes_served": record["units"],
            "block_bits": self.pool.config.block_bits,
            "ledger_entries": len(self.pool.ledger),
        }
        return record

    async def _stop(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []
        if self.server is not None:
            self.server.request_shutdown()
            await self.server.wait_closed()
            self.server = None

    def close(self) -> None:
        self.loop.run_until_complete(self._stop())
        self.loop.close()


WORKLOADS = {"claims_quick": ClaimsQuick, "serve_mix": ServeMix, "puf_lots": PufLots}


# ----------------------------------------------------------------------
# one process
# ----------------------------------------------------------------------
def timed_pass(
    workload: Any, tracer: Any = None, sampler: Optional[HostSampler] = None
) -> Dict[str, Any]:
    """Run the fixed work once; add its time span and the reference
    samples taken during it (from ``sampler``, or from one of its own)."""
    own = sampler is None
    if own:
        sampler = HostSampler()
        sampler.start()
    try:
        start = time.perf_counter()
        record = workload.run_pass(tracer)
        record["pass_start"], record["pass_end"] = start, time.perf_counter()
    finally:
        if own:
            sampler.stop()
    record["wall_s"] = record["pass_end"] - start
    record["samples"] = sampler.between(start, record["pass_end"])
    return record


def traced_pass(
    workload: Any, out_dir: Path, name: str, sampler: Optional[HostSampler] = None
) -> Dict[str, Any]:
    """The traced twin of a pass: same fixed work, every layer wrapped."""
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install_layer_hooks(tracer)
    if hasattr(workload, "attach"):
        workload.attach(tracer)
    try:
        workload.prepare()
        tracer.clear()
        record = timed_pass(workload, tracer, sampler)
    finally:
        tracer.uninstall()
    tracer.write(str(out_dir / f"trace-{name}.npz"))
    record["tracer"] = tracer
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    # Sampling starts before the workload's imports, so that set-up time
    # is normalised by the host speed during set-up.
    sampler = HostSampler()
    sampler.start()
    work_dir = Path(args.work_dir)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, work_dir)
    workload.prepare()
    workload.warm_up()
    print("READY", flush=True)
    setup_samples = sampler.between(0.0, time.perf_counter())
    record: Dict[str, Any] = {}
    try:
        if args.mode != "setup":
            record = timed_pass(workload, sampler=sampler)
        if args.mode == "trace":
            import tracer as tracing
            from hostspeed import summarise

            traced = traced_pass(workload, work_dir, args.workload, sampler)
            record["layers"] = tracing.layer_metrics(
                traced.pop("tracer"), traced,
                summarise(record)["work_per_s"], summarise(traced)["work_per_s"],
            )
            for key in ("attempted", "failed"):
                record[key] += traced[key]
            record["errors"] += traced["errors"]
    finally:
        sampler.stop()
        workload.close()
    record["setup_samples"] = setup_samples
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
