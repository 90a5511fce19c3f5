"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME ...``.

Run from the root of a checkout.  One run of one workload:

1. starts ``worker.py`` in a fresh interpreter ``SETUP_STARTS`` times, each
   with ``-X importtime``, and times each start from launch to ``READY``
   (imports, construction, one warm-up op) -- ``setup_s`` is their median
   and ``startup.*`` come from the same starts;
2. lets the last start do the run's fixed, seeded work (twice, the second
   time traced, with ``--trace 1``);
3. prints one line per metric, then one JSON object as the last line:
   the end-to-end metrics with ``--trace 0``, the per-layer metrics with
   ``--trace 1``.

End-to-end times are normalised to the host speed measured by the
reference loop sampled inside the ops (see :mod:`hostspeed`); each printed
line gives the raw figure too.  Per-layer times are raw.

It exits 1 when an output check fails (the JSON still says
``"correct": false``) and 2, without a result, when the checkout holds no
``src/repro`` to measure.  ``--workload all`` runs every workload in turn
and prefixes each metric with its workload name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import REF_NOMINAL_MS, SAMPLE_INTERVAL_S, HostSpeed, summarise  # noqa: E402
RUN_DIR = HERE / "_run"
WORKLOADS = ("claims_quick", "serve_mix", "puf_lots")

#: Fresh-interpreter starts per run; the last one also does the work.
SETUP_STARTS = 3
#: A run must end well inside the 180 s a caller allows it.
RUN_DEADLINE_S = 170.0
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
WORK_UNITS = {"claims_quick": "checks", "serve_mix": "bytes", "puf_lots": "devices"}
STARTUP_PACKAGES = ("numpy", "scipy", "repro")


class BenchmarkError(RuntimeError):
    """A start failed, timed out or printed something unreadable."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail(values: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    keeps at least ``TAIL_BEYOND`` samples beyond it (the maximum when
    there are too few samples)."""
    ordered = sorted(values)
    index = len(ordered) - 1
    if len(ordered) > TAIL_BEYOND:
        index -= TAIL_BEYOND
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def importtime_ms(stderr_text: str) -> Dict[str, float]:
    """Self import time per top-level package, from ``-X importtime``."""
    totals = {package: 0.0 for package in STARTUP_PACKAGES}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        package = fields[2].strip().split(".")[0]
        if package in totals:
            totals[package] += int(fields[0]) / 1000.0
    return totals


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------
def _read_first(paths: List[str]) -> str:
    for path in paths:
        try:
            return Path(path).read_text().strip()
        except OSError:
            continue
    return "unavailable"


def environment() -> Dict[str, Any]:
    """Host and toolchain facts recorded with every result."""
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = "unknown (git failed)"
    quota = _read_first(["/sys/fs/cgroup/cpu.max"])
    if quota == "unavailable":
        v1 = [
            _read_first([f"/sys/fs/cgroup/cpu/cpu.cfs_{name}_us"]) for name in ("quota", "period")
        ]
        if "unavailable" not in v1:
            quota = " ".join(v1) + " (cgroup v1 quota period)"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cgroup_cpu_max": quota,
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "git_sha": sha,
        "jobs": 1,
    }


# ----------------------------------------------------------------------
# worker starts
# ----------------------------------------------------------------------
def start_worker(
    workload: str, seed: int, seconds: float, mode: str, work_dir: Path, deadline: float
) -> Tuple[float, Dict[str, float], Optional[Dict[str, Any]]]:
    """One fresh-interpreter start: (setup seconds, startup ms, record)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Let the first start cache bytecode: setup_s then measures imports as
    # a user sees them on every start after the first.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [
        sys.executable, "-X", "importtime", str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--work-dir", str(work_dir),
    ]
    with tempfile.TemporaryFile("w+", dir=work_dir) as stderr:
        started = time.perf_counter()
        # Unbuffered, so that reading the READY line reads nothing beyond it
        # and ``communicate`` gets the rest of the output.
        process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=stderr, bufsize=0
        )
        try:
            readable, _, _ = select.select(
                [process.stdout], [], [], max(1.0, deadline - time.perf_counter())
            )
            if not readable:
                raise subprocess.TimeoutExpired(command, deadline)
            ready_line = process.stdout.readline().decode()
            ready_s = time.perf_counter() - started
            remaining = max(1.0, deadline - time.perf_counter())
            output, _ = process.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            raise BenchmarkError(f"{workload} {mode} start passed the run deadline")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        stderr.seek(0)
        stderr_text = stderr.read()
    if ready_line.strip() != "READY" or process.returncode != 0:
        noise = [line for line in stderr_text.splitlines() if not line.startswith("import time:")]
        raise BenchmarkError(
            f"{workload} {mode} start exited {process.returncode}:\n" + "\n".join(noise[-30:])
        )
    record = json.loads(output.decode().strip().splitlines()[-1])
    return ready_s, importtime_ms(stderr_text), record


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One run of one workload: metrics, counts and the lines to print."""
    RUN_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUN_DIR))
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setups: List[float] = []
    raw_setups: List[float] = []
    startups: List[Dict[str, float]] = []
    try:
        for start in range(SETUP_STARTS):
            last = start == SETUP_STARTS - 1
            mode = ("trace" if trace else "run") if last else "setup"
            ready_s, startup, record = start_worker(
                workload, seed, seconds, mode, work_dir, deadline
            )
            # Only the samples' total time and their speed count here, not
            # where they fell.
            speed = HostSpeed(record["setup_samples"])
            busy_s = ready_s - speed.paused_s(-float("inf"), float("inf"))
            raw_setups.append(busy_s)
            setups.append(busy_s * REF_NOMINAL_MS / speed.median_ms())
            startups.append(startup)
        trace_file = work_dir / f"trace-{workload}.npz"
        if trace_file.exists():
            shutil.move(str(trace_file), str(RUN_DIR / trace_file.name))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    normalised = summarise(record)
    latencies_ms = [1000.0 * value for value in normalised["latencies_s"]]
    raw_ms = [1000.0 * value for value in normalised["raw_latencies_s"]]
    tail_ms, tail_pct, beyond = tail(latencies_ms)
    count = len(latencies_ms)
    unit = WORK_UNITS[workload]
    lines = [
        f"{workload}/setup_s = {statistics.median(setups):.4f} s "
        f"(median of {len(setups)} fresh-interpreter starts; "
        f"raw {statistics.median(raw_setups):.4f} s)",
        f"{workload}/work_per_s = {normalised['work_per_s']:.6g} 1/s "
        f"({unit} per second; {record['units']} {unit} in {record['wall_s']:.2f} s; "
        f"raw {normalised['raw_work_per_s']:.6g})",
        f"{workload}/op_p50_ms = {statistics.median(latencies_ms):.4f} ms "
        f"(n={count}; raw {statistics.median(raw_ms):.4f})",
        f"{workload}/op_tail_ms = {tail_ms:.4f} ms "
        f"(p{tail_pct:.2f}, {beyond} of {count} samples beyond; raw {tail(raw_ms)[0]:.4f})",
        f"{workload}/peak_rss_mb = {record['peak_rss_mb']:.2f} MB (workload process)",
        f"{workload}/fail_share = {record['failed'] / max(record['attempted'], 1):.6f} "
        f"({record['failed']} failed / {record['attempted']} attempted)",
        f"{workload}/host.ref_loop_ms = {normalised['ref_ms']:.3f} ms "
        f"(median of {len(record['samples'])} samples, one every {SAMPLE_INTERVAL_S * 1000:g} ms; "
        f"times above leave the samples out and are normalised to {REF_NOMINAL_MS} ms)",
    ]
    for error in record["errors"][:20]:
        lines.append(f"{workload}: FAILED CHECK: {error}")
    if trace:
        metrics = dict(record["layers"])
        for package in STARTUP_PACKAGES:
            metrics[f"startup.{package}_ms"] = statistics.median(
                startup[package] for startup in startups
            )
        lines.append(
            f"{workload}: trace written to {(RUN_DIR / f'trace-{workload}.npz').relative_to(ROOT)}"
        )
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "work_per_s": normalised["work_per_s"],
            "op_p50_ms": statistics.median(latencies_ms),
            "op_tail_ms": tail_ms,
            "peak_rss_mb": record["peak_rss_mb"],
        }
    return {
        "workload": workload,
        "correct": not record["errors"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
        "lines": lines,
        "extras": record["extras"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="perfbench: end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    if args.trace:
        from tracer import per_layer_units

        units = per_layer_units()
    else:
        units = E2E_UNITS

    env = environment()
    print("env: " + json.dumps(env, sort_keys=True), flush=True)
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in selected:
        try:
            result = measure(workload, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
        results.append(result)
        for line in result["lines"]:
            print(line, flush=True)
        RUN_DIR.mkdir(exist_ok=True)
        record_path = RUN_DIR / f"result-{workload}-trace{args.trace}.json"
        record_path.write_text(json.dumps({"env": env, "seed": args.seed, **result}, indent=1))

    prefix = args.workload == "all"
    summary = {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": {
            (f"{result['workload']}/{name}" if prefix else name): {
                "value": result["metrics"][name],
                "unit": unit,
            }
            for result in results
            for name, unit in units.items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
