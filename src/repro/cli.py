"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    List every reproducible experiment with its title.
``run <ID> [<ID> ...]``
    Run experiments by id and print their reports; exits non-zero if any
    structural check fails.  ``--jobs N`` fans grid-shaped experiments
    (FIG8, TAB2, FIG11, FIG12, EXT10) out over worker processes;
    ``--no-cache`` disables the on-disk result cache.
``campaign``
    Run the full Section V characterization campaign over an arbitrary
    set of ring specs (``iro:5 str:96 ...``), parallel and cached.
``report``
    Print the paper's STR-vs-IRO comparison on a fresh five-board bank.
``calibration``
    Print the fitted device-model constants.
``faults``
    Run a fault scenario against the supervised TRNG runtime and print
    the structured event log (plus the EXT10 coverage matrix with
    ``--matrix``, which honours ``--jobs``/``--no-cache``).
``merge``
    Combine the shard directories written by ``--shard I/N --shard-dir``
    runs (``campaign``, ``verify``, shardable experiments) and reassemble
    the single-host result bit-identically; refuses incomplete or
    overlapping shard sets loudly.
``cache``
    Inspect (``stats``) or empty (``clear``) the on-disk result cache.
``serve``
    Run the entropy-as-a-service daemon: a fault-tolerant pool of
    supervised ring channels streaming health-gated bytes to concurrent
    clients; SIGTERM drains gracefully.  ``--fault`` injects a scenario
    at startup, ``--ready-file`` publishes the bound port for scripts.
    ``--obs-port`` exposes Prometheus-text metrics on a sidecar port,
    ``--obs-log`` appends JSONL snapshots for replay, and ``--drift``
    arms the EWMA/CUSUM early-warning charts per channel.
``serve-load``
    Drive concurrent load against a running ``serve`` daemon and report
    latency percentiles, throughput and frame-integrity violations.
``serve-chaos``
    Run the full in-process chaos drill (brownout + glitch storm under
    8 concurrent clients) and verdict the serving SLO; see
    docs/serving.md.
``dash``
    Live terminal dashboard over a running ``serve`` daemon: scrapes
    the exposition port (``--port``) or tails a JSONL metrics log
    (``--follow``) and renders pool health, per-channel state, SLO
    gauges and drift sparklines.  ``--once`` prints a single frame.
``trace``
    Summarize a JSONL trace written with ``--trace`` into a span-tree
    timing report with event and metric totals.
``verify``
    Run the claims-as-code registry (paper claims C1-C7, Eq. 3-5 fits,
    EXT invariants) across a sweep of derived seeds and report each
    claim's pass rate with a Wilson confidence interval; failures emit
    replay bundles reproducible with ``--replay FILE``.  See
    docs/verification.md.

The ``run``, ``campaign``, ``faults`` and ``verify`` commands accept
``--trace FILE`` (record spans/events/logs to a JSONL file) and
``--metrics`` (print the run's metric totals on exit); see
docs/observability.md.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.experiments import EXPERIMENT_IDS, get_experiment, run_experiment
from repro.experiments.registry import experiment_title


@contextmanager
def _telemetry_session(args: argparse.Namespace) -> Iterator[None]:
    """Honour the ``--trace``/``--metrics`` flags around one command.

    ``--trace FILE`` installs a JSONL sink for the whole command and
    appends one final ``metrics`` record holding the merged registry
    snapshot (pool workers included).  ``--metrics`` prints the same
    totals to stdout.  Commands without the flags run untouched — the
    default sink stays the null sink.
    """
    from repro.telemetry import JsonlSink, default_registry, emit_metrics, use_sink
    from repro.telemetry.summarize import render_metrics

    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    if trace_path is None:
        yield
    else:
        sink = JsonlSink(trace_path)
        try:
            with use_sink(sink):
                yield
                emit_metrics(default_registry().snapshot())
        finally:
            sink.close()
    if want_metrics:
        rendered = render_metrics(default_registry().snapshot())
        if rendered:
            print()
            print(rendered)


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a JSONL telemetry trace (summarize with 'repro trace summarize')",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the run's metric totals on exit",
    )


def _add_shard_flags(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help=f"run only shard I of N of {what} (0-based round-robin); "
        "requires --shard-dir, combine with 'repro merge'",
    )
    parser.add_argument(
        "--shard-dir",
        default=None,
        metavar="DIR",
        help="output directory for this shard's cache and manifest",
    )


def _command_list(_args: argparse.Namespace) -> int:
    for experiment_id in EXPERIMENT_IDS:
        print(f"{experiment_id:6}  {experiment_title(experiment_id)}")
    return 0


def _cli_cache(args: argparse.Namespace):
    """The result cache selected by the CLI flags (None when disabled)."""
    from repro.parallel import default_cache

    if getattr(args, "no_cache", False):
        return None
    return default_cache()


def _parallel_overrides(runner, args: argparse.Namespace) -> Dict[str, Any]:
    """``jobs``/``cache`` keyword overrides, filtered to what ``runner`` accepts.

    Experiments that are not grid-shaped simply don't take the
    parameters; the flags then have no effect rather than erroring.
    """
    parameters = inspect.signature(runner).parameters
    overrides: Dict[str, Any] = {}
    if "jobs" in parameters and args.jobs is not None:
        overrides["jobs"] = args.jobs
    if "cache" in parameters:
        overrides["cache"] = _cli_cache(args)
    return overrides


#: Experiments whose grids can run as shards (id -> shard runner factory).
def _shardable_experiments() -> Dict[str, Any]:
    from repro.experiments.ext12_differential import run_ext12_shard

    return {"EXT12": run_ext12_shard}


def _command_run(args: argparse.Namespace) -> int:
    from repro.parallel import GridStats, ShardError

    try:
        sharding = _parse_shard(args)
    except ShardError as error:
        print(str(error), file=sys.stderr)
        return 2
    if sharding is not None:
        shard, shard_dir = sharding
        shardable = _shardable_experiments()
        ids = [experiment_id.upper() for experiment_id in args.ids]
        if len(ids) != 1 or ids[0] not in shardable:
            print(
                f"--shard runs exactly one shardable experiment "
                f"({', '.join(shardable)}), got {' '.join(ids)}",
                file=sys.stderr,
            )
            return 2
        stats = GridStats()
        try:
            run = shardable[ids[0]](
                shard, shard_dir, jobs=args.jobs or 1, stats=stats
            )
        except ShardError as error:
            print(str(error), file=sys.stderr)
            return 2
        print(
            f"shard {shard.render()} of {ids[0]} complete: "
            f"{run.manifest.shard_task_count} of "
            f"{run.manifest.grid_task_count} grid points -> {run.out_dir}"
        )
        _print_grid_stats(stats, args.json)
        return 0

    failures = []
    for experiment_id in args.ids:
        runner = get_experiment(experiment_id)
        result = run_experiment(experiment_id, **_parallel_overrides(runner, args))
        if args.json:
            print(result.to_json())
        else:
            print()
            print(result.render())
        if not result.all_checks_pass:
            failures.append((result.experiment_id, result.failed_checks))
    if failures:
        print()
        for experiment_id, failed in failures:
            print(f"{experiment_id}: FAILED {failed}", file=sys.stderr)
        return 1
    return 0


def _parse_ring_spec(text: str):
    """Parse a ``kind:stages[:tokens]`` CLI ring spec (e.g. ``str:96``)."""
    from repro.core.campaign import RingSpec

    parts = text.lower().split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"ring spec must look like 'iro:5' or 'str:32:10', got {text!r}"
        )
    try:
        stage_count = int(parts[1])
        token_count = int(parts[2]) if len(parts) == 3 else None
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric field in ring spec {text!r}")
    try:
        return RingSpec(parts[0], stage_count, token_count=token_count)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _parse_shard(args: argparse.Namespace):
    """The validated (shard, out_dir) pair, or None when not sharding.

    Raises ``ShardError`` on a malformed address or a missing
    ``--shard-dir`` — both are user errors that must fail loudly.
    """
    from repro.parallel import ShardError, ShardSpec

    if getattr(args, "shard", None) is None:
        return None
    if getattr(args, "shard_dir", None) is None:
        raise ShardError(
            "--shard requires --shard-dir DIR: each shard writes its cache "
            "and manifest to its own directory, later combined with "
            "'repro merge'"
        )
    return ShardSpec.parse(args.shard), args.shard_dir


def _print_grid_stats(stats, json_mode: bool) -> None:
    """Surface cache-hit counts so resumed runs visibly skip finished work."""
    stream = sys.stderr if json_mode else sys.stdout
    print(f"grid: {stats.render()}", file=stream)


def _command_campaign(args: argparse.Namespace) -> int:
    from repro.core.campaign import RingSpec, run_campaign, run_campaign_shard
    from repro.fpga.board import BoardBank
    from repro.fpga.calibration import TABLE2_TARGETS
    from repro.parallel import GridStats, ShardError

    specs = args.specs or [
        RingSpec(target.kind, target.stage_count) for target in TABLE2_TARGETS
    ]
    progress = None
    if not args.json and sys.stderr.isatty():

        def progress(done: int, total: int) -> None:
            print(f"\r{done}/{total} grid points", end="", file=sys.stderr)
            if done == total:
                print(file=sys.stderr)

    stats = GridStats()
    try:
        sharding = _parse_shard(args)
    except ShardError as error:
        print(str(error), file=sys.stderr)
        return 2
    if sharding is not None:
        shard, shard_dir = sharding
        try:
            run = run_campaign_shard(
                specs,
                shard,
                shard_dir,
                board_count=args.boards,
                bank_seed=args.bank_seed,
                jitter_periods=args.periods,
                seed=args.seed,
                jobs=args.jobs,
                progress=progress,
                stats=stats,
            )
        except ShardError as error:
            print(str(error), file=sys.stderr)
            return 2
        print(
            f"shard {shard.render()} complete: "
            f"{run.manifest.shard_task_count} of "
            f"{run.manifest.grid_task_count} grid points -> {run.out_dir}"
        )
        _print_grid_stats(stats, args.json)
        return 0

    bank = BoardBank.manufacture(board_count=args.boards, seed=args.bank_seed)
    report = run_campaign(
        specs,
        bank=bank,
        jitter_periods=args.periods,
        seed=args.seed,
        jobs=args.jobs,
        cache=_cli_cache(args),
        progress=progress,
        stats=stats,
    )
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    _print_grid_stats(stats, args.json)
    return 0


def _command_merge(args: argparse.Namespace) -> int:
    from repro.parallel import GridStats, ShardError, merge_shards

    try:
        merged = merge_shards(args.dirs, args.out)
    except ShardError as error:
        print(str(error), file=sys.stderr)
        return 2

    workload = merged.workload
    kind = workload.get("workload")
    print(
        f"merged {merged.shard_count} shards "
        f"({merged.entries_absorbed} cache entries, "
        f"{merged.grid_task_count} grid points) -> {merged.out_dir}",
        file=sys.stderr if args.json else sys.stdout,
    )
    stats = GridStats()
    if kind == "campaign":
        from repro.core.campaign import assemble_campaign

        report = assemble_campaign(merged, jobs=args.jobs, stats=stats)
        print(report.to_json() if args.json else report.render())
        _print_grid_stats(stats, args.json)
        return 0
    if kind == "verify":
        from repro.verify.runner import assemble_verification

        report = assemble_verification(merged, jobs=args.jobs, stats=stats)
        if args.json:
            import json as _json

            print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.render())
        _print_grid_stats(stats, args.json)
        return 0 if report.passed else 1
    if kind == "experiment" and workload.get("experiment") == "EXT12":
        from repro.experiments.ext12_differential import assemble_ext12

        result = assemble_ext12(merged, jobs=args.jobs, stats=stats)
        print(result.to_json() if args.json else result.render())
        _print_grid_stats(stats, args.json)
        return 0 if result.all_checks_pass else 1
    print(
        f"don't know how to assemble a {kind!r} workload "
        f"(experiment={workload.get('experiment')!r}); the merged cache at "
        f"{merged.out_dir} is still valid for manual reassembly",
        file=sys.stderr,
    )
    return 2


def _command_cache(args: argparse.Namespace) -> int:
    from repro.parallel import ResultCache

    cache = ResultCache(root=args.dir) if args.dir else ResultCache()
    if args.action == "stats":
        print(cache.stats().render())
    else:
        removed = cache.clear()
        print(f"removed {removed} cache entries from {cache.root}")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.core.comparison import compare_entropy_sources

    report = compare_entropy_sources(
        jitter_method="population",
        jitter_periods=args.periods,
        seed=args.seed,
    )
    print(report.render())
    print()
    print(f"STR more robust to voltage:     {report.str_more_robust_to_voltage}")
    print(f"STR lower device dispersion:    {report.str_lower_dispersion}")
    print(f"STR jitter length-independent:  {report.str_jitter_length_independent}")
    return 0


def _command_report_md(args: argparse.Namespace) -> int:
    from repro.reporting.markdown import write_markdown_report

    ids = [eid.upper() for eid in args.ids] if args.ids else list(EXPERIMENT_IDS)
    results = [run_experiment(eid) for eid in ids]
    byte_count = write_markdown_report(args.output, results)
    print(f"wrote {byte_count} bytes to {args.output}")
    return 0 if all(result.all_checks_pass for result in results) else 1


def _command_faults(args: argparse.Namespace) -> int:
    from repro.core.campaign import RingSpec
    from repro.faults import FaultSchedule, ScheduledFault, demo_schedule, standard_fault
    from repro.trng.supervisor import RecoveryPolicy, SupervisedTrng

    if args.matrix:
        runner = get_experiment("EXT10")
        result = runner(**_parallel_overrides(runner, args))
        print(result.render())
        return 0 if result.all_checks_pass else 1

    if args.fault == "demo":
        scenario = demo_schedule(args.severity, onset_s=args.onset)
    else:
        scenario = FaultSchedule(
            [
                ScheduledFault(
                    standard_fault(args.fault, args.severity), start_s=args.onset
                )
            ],
            name=f"{args.fault}@{args.severity:g}",
        )
    backups = () if args.no_backup else (RingSpec("str", 48),)
    trng = SupervisedTrng(
        RingSpec("iro", 5), policy=RecoveryPolicy(backup_specs=backups)
    )
    result = trng.run(args.bits, scenario=scenario, seed=args.seed)

    print(f"scenario: {scenario.describe()}")
    print(f"primary:  IRO 5C  backups: {', '.join(s.label for s in backups) or 'none'}")
    print()
    print(result.events.render())
    print()
    latency = (
        "-"
        if result.first_alarm_position is None
        else f"{(result.events.first_of_kind('alarm').time_s - args.onset) * 1e3:.1f} ms"
    )
    print(f"final state:       {result.final_state.value}")
    print(f"bits emitted:      {result.bit_count} / {args.bits}")
    print(f"bits sampled:      {result.total_sampled}")
    print(f"detection latency: {latency}")
    return 0


def _command_puf(args: argparse.Namespace) -> int:
    from repro.fpga.voltage import SupplySpec
    from repro.puf import (
        PufDesign,
        authentication_report,
        enroll_population,
        measure_population,
        score_population,
    )
    from repro.stats.puf import mean_pairwise_hamming

    try:
        design = PufDesign(
            ring_count=args.rings,
            stage_count=args.stages,
            topology=args.topology,
            group_size=args.group_size,
            placement_policy=args.placement,
            measure_periods=args.periods,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 1
    jobs = args.jobs if args.jobs is not None else 1

    progress = None
    if sys.stderr.isatty():

        def progress(done: int, total: int) -> None:
            print(f"\r{done}/{total} device chunks", end="", file=sys.stderr)
            if done == total:
                print(file=sys.stderr)

    if args.action == "enroll":
        enrollment = enroll_population(
            args.devices, design=design, seed=args.seed, jobs=jobs, progress=progress
        )
        database_bytes = enrollment.device_count * enrollment.response_bits
        print(f"enrolled {enrollment.device_count} devices: {design.describe()}")
        print(f"mean ring frequency: {enrollment.mean_frequency_mhz:.1f} MHz")
        print(
            f"response database: {enrollment.response_bits} bits/device "
            f"({database_bytes / 1e6:.1f} MB as uint8)"
        )
        print(
            f"mean inter-device HD (exact, all pairs): "
            f"{mean_pairwise_hamming(enrollment.responses):.4f}"
        )
        rate = enrollment.device_count / enrollment.elapsed_s
        print(f"elapsed: {enrollment.elapsed_s:.2f} s ({rate:,.0f} devices/s)")
        return 0

    if args.action == "score":
        score = score_population(
            args.devices, design=design, seed=args.seed, jobs=jobs, progress=progress
        )
        print(score.render())
        return 0

    measurement = measure_population(
        args.devices,
        design=design,
        corners=(SupplySpec(), SupplySpec()),
        seed=args.seed,
        jobs=jobs,
        progress=progress,
    )
    report = authentication_report(measurement.responses[0], measurement.responses[1])
    print(f"design: {design.describe()}")
    print(report.render())
    return 0


def _parse_injections(pairs: Optional[List[str]]) -> Optional[Dict[str, Any]]:
    """``KEY=VALUE`` override pairs -> a params-override mapping.

    Values parse as numbers when they look numeric, strings otherwise;
    the canonical use is ``--inject sigma_g_scale=2.0`` (the seeded
    regression of docs/verification.md).
    """
    if not pairs:
        return None
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise argparse.ArgumentTypeError(
                f"injection must look like KEY=VALUE, got {pair!r}"
            )
        try:
            value: Any = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        overrides[key] = value
    return overrides


def _command_verify(args: argparse.Namespace) -> int:
    from repro.verify import all_claim_ids, get_claim, replay, run_verification

    if args.list:
        for claim_id in all_claim_ids():
            claim = get_claim(claim_id)
            print(f"{claim_id:14} {claim.title} ({claim.paper_ref})")
        return 0

    if args.replay is not None:
        try:
            outcome = replay(args.replay)
        except (FileNotFoundError, ValueError, KeyError) as error:
            print(str(error), file=sys.stderr)
            return 1
        print(f"replay {outcome.claim_id} @ seed {outcome.seed}: "
              f"{'PASS' if outcome.passed else 'FAIL'}")
        print(f"  {outcome.detail}")
        return 0 if outcome.passed else 1

    try:
        overrides = _parse_injections(args.inject)
        # Accept both space- and comma-separated claim lists
        # (``--claims C2 C6`` and ``--claims PUF-UNIQ,PUF-STABLE``).
        claim_ids = (
            [cid.upper() for arg in args.claims for cid in arg.split(",") if cid]
            if args.claims
            else None
        )
        if claim_ids:
            for claim_id in claim_ids:
                get_claim(claim_id)  # fail fast on typos
    except (argparse.ArgumentTypeError, KeyError) as error:
        print(str(error), file=sys.stderr)
        return 1

    progress = None
    if not args.json and sys.stderr.isatty():

        def progress(done: int, total: int) -> None:
            print(f"\r{done}/{total} claim checks", end="", file=sys.stderr)
            if done == total:
                print(file=sys.stderr)

    from repro.parallel import GridStats, ShardError

    try:
        sharding = _parse_shard(args)
    except ShardError as error:
        print(str(error), file=sys.stderr)
        return 2
    if sharding is not None:
        from repro.verify.runner import run_verification_shard

        shard, shard_dir = sharding
        stats = GridStats()
        try:
            run = run_verification_shard(
                shard,
                shard_dir,
                claim_ids,
                tier=args.tier,
                seeds=args.seeds,
                root_seed=args.seed,
                overrides=overrides,
                jobs=args.jobs,
                progress=progress,
                stats=stats,
            )
        except ShardError as error:
            print(str(error), file=sys.stderr)
            return 2
        print(
            f"shard {shard.render()} complete: "
            f"{run.manifest.shard_task_count} of "
            f"{run.manifest.grid_task_count} claim checks -> {run.out_dir}"
        )
        _print_grid_stats(stats, args.json)
        return 0

    report = run_verification(
        claim_ids,
        tier=args.tier,
        seeds=args.seeds,
        root_seed=args.seed,
        jobs=args.jobs,
        cache=_cli_cache(args),
        overrides=overrides,
        bundle_dir=args.bundle_dir,
        progress=progress,
    )
    if args.json:
        import json as _json

        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.passed else 1


def _command_trace(args: argparse.Namespace) -> int:
    from repro.telemetry.summarize import summarize_file

    try:
        summary = summarize_file(args.file)
    except OSError as error:
        print(f"cannot read trace: {error}", file=sys.stderr)
        return 1
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 1
    print(summary.render())
    return 0


def _command_calibration(_args: argparse.Namespace) -> int:
    from repro.fpga.calibration import cyclone_iii_calibration, summarize_calibration

    summary = summarize_calibration(cyclone_iii_calibration())
    width = max(len(key) for key in summary)
    for key, value in summary.items():
        print(f"{key.ljust(width)}  {value:.4g}")
    return 0


def _serve_scenario(args: argparse.Namespace):
    """The fault scenario requested by ``--fault`` (None = run clean)."""
    from repro.faults import FaultSchedule, ScheduledFault, demo_schedule, standard_fault
    from repro.serve.chaos import default_chaos_scenario

    if args.fault == "none":
        return None
    if args.fault == "chaos":
        return default_chaos_scenario(glitch_start_s=args.onset + 0.5)
    if args.fault == "demo":
        return demo_schedule(args.severity, onset_s=args.onset)
    return FaultSchedule(
        [ScheduledFault(standard_fault(args.fault, args.severity), start_s=args.onset)],
        name=f"{args.fault}@{args.severity:g}",
    )


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    from pathlib import Path

    from repro.serve import EntropyServer, PoolConfig, ServerConfig, TrngPool
    from repro.serve.chaos import DEFAULT_POOL_SPECS

    specs = args.channels or list(DEFAULT_POOL_SPECS)
    pool = TrngPool(
        specs, config=PoolConfig(min_healthy=args.min_healthy), seed=args.seed
    )
    if args.drift:
        pool.attach_drift_monitors()
    scenario = _serve_scenario(args)
    sidecar = None
    if args.obs_port is not None or args.obs_log is not None:
        from repro.serve.observability import ObservabilityConfig, ObservabilitySidecar

        sidecar = ObservabilitySidecar(
            ObservabilityConfig(
                host=args.host,
                port=args.obs_port if args.obs_port is not None else 0,
                interval_s=args.obs_interval,
                jsonl_path=args.obs_log,
            )
        )
    server = EntropyServer(
        pool, ServerConfig(host=args.host, port=args.port), observability=sidecar
    )

    async def _serve() -> None:
        await server.start()
        server.install_signal_handlers()
        if scenario is not None:
            pool.inject(scenario)
        if args.ready_file:
            ready = {"host": args.host, "port": server.port}
            if sidecar is not None:
                ready["obs_port"] = sidecar.port
            Path(args.ready_file).write_text(json.dumps(ready))
        obs_note = (
            f", metrics on :{sidecar.port}" if sidecar is not None else ""
        )
        print(
            f"serving {len(pool.channels)} channels on {args.host}:{server.port}"
            f"{obs_note} (SIGTERM to drain)",
            flush=True,
        )
        await server.wait_closed()

    asyncio.run(_serve())
    summary = server.summary()
    unhealthy = pool.unhealthy_emitted_blocks()
    print()
    print(pool.events.render())
    print()
    print(f"requests ok:       {summary['requests_ok']}")
    print(f"requests error:    {summary['requests_error']}")
    print(f"requests shed:     {summary['requests_shed']}")
    print(f"bytes served:      {summary['bytes_served']}")
    print(f"unhealthy emitted: {unhealthy} block(s)")
    if unhealthy:
        print("FAIL: unhealthy bytes were emitted", file=sys.stderr)
        return 1
    return 0


def _command_serve_load(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.loadgen import format_errors, run_load

    report = asyncio.run(
        run_load(
            args.host,
            args.port,
            clients=args.clients,
            requests_per_client=args.requests,
            request_bytes=args.bytes,
            deadline_ms=args.deadline_ms,
        )
    )
    print(report.render())
    problems = format_errors(report)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _command_serve_chaos(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.chaos import run_chaos

    report = asyncio.run(
        run_chaos(
            clients=args.clients,
            requests_per_client=args.requests,
            request_bytes=args.bytes,
            seed=args.seed,
        )
    )
    print(report.render())
    return 0 if report.slo_ok else 1


def _command_dash(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import Dashboard, DashboardError, JsonlSource, ScrapeSource

    if (args.port is None) == (args.follow is None):
        print(
            "dash needs exactly one source: --port (scrape) or --follow FILE (tail)",
            file=sys.stderr,
        )
        return 2
    if args.port is not None:
        source = ScrapeSource(args.host, args.port)
    else:
        source = JsonlSource(args.follow)
    dashboard = Dashboard(source, interval_s=args.interval)
    if args.once:
        try:
            print(dashboard.render_once())
        except DashboardError as error:
            print(f"FAIL: {error}", file=sys.stderr)
            return 1
        return 0
    try:
        dashboard.run(iterations=args.frames)
    except KeyboardInterrupt:
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'STR vs IRO as entropy sources in FPGAs' (DATE 2012)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list reproducible experiments")
    list_parser.set_defaults(handler=_command_list)

    run_parser = subparsers.add_parser("run", help="run experiments by id")
    run_parser.add_argument("ids", nargs="+", metavar="ID", help="experiment ids (e.g. TAB1)")
    run_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON results"
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for grid-shaped experiments (0 = all cores)",
    )
    run_parser.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk result cache"
    )
    _add_shard_flags(run_parser, "the experiment grid")
    _add_telemetry_flags(run_parser)
    run_parser.set_defaults(handler=_command_run)

    campaign_parser = subparsers.add_parser(
        "campaign", help="run the Section V characterization campaign"
    )
    campaign_parser.add_argument(
        "specs",
        nargs="*",
        type=_parse_ring_spec,
        default=None,
        metavar="SPEC",
        help="ring specs as kind:stages[:tokens], e.g. iro:5 str:96 str:32:10 "
        "(default: the Table II grid)",
    )
    campaign_parser.add_argument(
        "--boards", type=int, default=5, help="boards in the manufactured bank"
    )
    campaign_parser.add_argument(
        "--bank-seed", type=int, default=7, help="process-draw seed for the bank"
    )
    campaign_parser.add_argument(
        "--periods", type=int, default=2048, help="jitter periods per ring"
    )
    campaign_parser.add_argument("--seed", type=int, default=0)
    campaign_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the campaign grid (0 = all cores)",
    )
    campaign_parser.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk result cache"
    )
    campaign_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON results"
    )
    _add_shard_flags(campaign_parser, "the campaign grid")
    _add_telemetry_flags(campaign_parser)
    campaign_parser.set_defaults(handler=_command_campaign)

    merge_parser = subparsers.add_parser(
        "merge",
        help="combine shard directories and reassemble the single-host result",
    )
    merge_parser.add_argument(
        "dirs",
        nargs="+",
        metavar="SHARD_DIR",
        help="every shard directory of one grid (all shards required)",
    )
    merge_parser.add_argument(
        "--out", required=True, metavar="DIR", help="merged output directory"
    )
    merge_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for reassembly (normally all cache hits)",
    )
    merge_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON results"
    )
    _add_telemetry_flags(merge_parser)
    merge_parser.set_defaults(handler=_command_merge)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the on-disk result cache"
    )
    cache_parser.add_argument("action", choices=("stats", "clear"))
    cache_parser.add_argument(
        "--dir",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or .repro_cache)",
    )
    cache_parser.set_defaults(handler=_command_cache)

    report_parser = subparsers.add_parser("report", help="STR-vs-IRO comparison report")
    report_parser.add_argument("--periods", type=int, default=2048, help="jitter campaign size")
    report_parser.add_argument("--seed", type=int, default=0)
    report_parser.set_defaults(handler=_command_report)

    calibration_parser = subparsers.add_parser(
        "calibration", help="print the fitted device constants"
    )
    calibration_parser.set_defaults(handler=_command_calibration)

    serve_parser = subparsers.add_parser(
        "serve", help="run the entropy-as-a-service daemon"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=0, help="listen port (0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--ready-file",
        default=None,
        metavar="FILE",
        help="write a JSON {host, port} file once the server is listening",
    )
    serve_parser.add_argument(
        "--channels",
        nargs="*",
        type=_parse_ring_spec,
        default=None,
        metavar="SPEC",
        help="pool channel specs as kind:stages[:tokens] "
        "(default: 3 IRO + 2 STR reference pool)",
    )
    serve_parser.add_argument(
        "--min-healthy",
        type=int,
        default=2,
        help="healthy-channel floor below which the pool browns out",
    )
    serve_parser.add_argument(
        "--fault",
        choices=(
            "none",
            "chaos",
            "demo",
            "stuck",
            "brownout",
            "ripple",
            "temperature",
            "glitch",
        ),
        default="none",
        help="fault scenario to inject at startup (default: none)",
    )
    serve_parser.add_argument(
        "--severity", type=float, default=1.0, help="fault severity in [0, 1]"
    )
    serve_parser.add_argument(
        "--onset", type=float, default=0.25, help="fault onset on the pool clock [s]"
    )
    serve_parser.add_argument("--seed", type=int, default=7)
    serve_parser.add_argument(
        "--obs-port",
        type=int,
        default=None,
        metavar="PORT",
        help="expose Prometheus-text metrics on this sidecar port "
        "(0 = ephemeral; omit to disable the exposition endpoint)",
    )
    serve_parser.add_argument(
        "--obs-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="metrics publish/window tick interval (default: 1s)",
    )
    serve_parser.add_argument(
        "--obs-log",
        default=None,
        metavar="FILE",
        help="append JSONL metrics snapshots for offline replay "
        "(readable by 'repro dash --follow')",
    )
    serve_parser.add_argument(
        "--drift",
        action="store_true",
        help="attach EWMA/CUSUM drift charts to every pool channel "
        "(pre-emptive quarantine on a chart crossing)",
    )
    _add_telemetry_flags(serve_parser)
    serve_parser.set_defaults(handler=_command_serve)

    serve_load_parser = subparsers.add_parser(
        "serve-load", help="drive load against a running entropy server"
    )
    serve_load_parser.add_argument("--host", default="127.0.0.1")
    serve_load_parser.add_argument("--port", type=int, required=True)
    serve_load_parser.add_argument(
        "--clients", type=int, default=4, help="concurrent connections"
    )
    serve_load_parser.add_argument(
        "--requests", type=int, default=16, help="sequential requests per client"
    )
    serve_load_parser.add_argument(
        "--bytes", type=int, default=1024, help="bytes per request"
    )
    serve_load_parser.add_argument(
        "--deadline-ms",
        type=int,
        default=0,
        help="server-side deadline per request (0 = server default)",
    )
    _add_telemetry_flags(serve_load_parser)
    serve_load_parser.set_defaults(handler=_command_serve_load)

    serve_chaos_parser = subparsers.add_parser(
        "serve-chaos",
        help="run the in-process chaos drill and check the serving SLO",
    )
    serve_chaos_parser.add_argument(
        "--clients", type=int, default=8, help="storm-phase concurrent clients"
    )
    serve_chaos_parser.add_argument(
        "--requests", type=int, default=6, help="requests per storm client"
    )
    serve_chaos_parser.add_argument(
        "--bytes", type=int, default=1024, help="bytes per request"
    )
    serve_chaos_parser.add_argument("--seed", type=int, default=1234)
    _add_telemetry_flags(serve_chaos_parser)
    serve_chaos_parser.set_defaults(handler=_command_serve_chaos)

    dash_parser = subparsers.add_parser(
        "dash",
        help="live terminal dashboard for a running entropy server",
        description="Render pool health, per-channel state, SLO gauges and "
        "drift sparklines from a serve daemon's exposition port "
        "(--port) or its JSONL metrics log (--follow).  Keys: q quits, "
        "p pauses.",
    )
    dash_parser.add_argument("--host", default="127.0.0.1")
    dash_parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="exposition sidecar port of the serve daemon (--obs-port)",
    )
    dash_parser.add_argument(
        "--follow",
        default=None,
        metavar="FILE",
        help="tail a JSONL metrics log instead of scraping (--obs-log output)",
    )
    dash_parser.add_argument(
        "--interval", type=float, default=1.0, help="refresh interval [s]"
    )
    dash_parser.add_argument(
        "--frames",
        type=int,
        default=None,
        metavar="N",
        help="stop after N frames (default: run until q / Ctrl-C)",
    )
    dash_parser.add_argument(
        "--once",
        action="store_true",
        help="print a single frame without ANSI clearing and exit",
    )
    dash_parser.set_defaults(handler=_command_dash)

    faults_parser = subparsers.add_parser(
        "faults", help="run a fault scenario against the supervised runtime"
    )
    faults_parser.add_argument(
        "--fault",
        choices=("demo", "stuck", "brownout", "ripple", "temperature", "glitch"),
        default="demo",
        help="fault scenario to inject (default: the composite demo schedule)",
    )
    faults_parser.add_argument(
        "--severity", type=float, default=1.0, help="fault severity in [0, 1]"
    )
    faults_parser.add_argument(
        "--onset", type=float, default=0.25, help="fault onset time [s]"
    )
    faults_parser.add_argument(
        "--bits", type=int, default=10_240, help="bit budget for the supervised run"
    )
    faults_parser.add_argument("--seed", type=int, default=7)
    faults_parser.add_argument(
        "--no-backup", action="store_true", help="drop the STR 48C backup spec"
    )
    faults_parser.add_argument(
        "--matrix",
        action="store_true",
        help="run the full EXT10 campaign and print the coverage matrix",
    )
    faults_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the --matrix campaign (0 = all cores)",
    )
    faults_parser.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk result cache"
    )
    _add_telemetry_flags(faults_parser)
    faults_parser.set_defaults(handler=_command_faults)

    puf_parser = subparsers.add_parser(
        "puf", help="RO-PUF population workloads on the process model"
    )
    puf_parser.add_argument(
        "action",
        choices=("enroll", "score", "auth"),
        help="enroll a population, score uniqueness/reliability, or sweep FAR/FRR",
    )
    puf_parser.add_argument(
        "--devices", type=int, default=10_000, help="population size (default: 10000)"
    )
    puf_parser.add_argument(
        "--rings", type=int, default=32, help="ring oscillators per device"
    )
    puf_parser.add_argument(
        "--stages", type=int, default=3, help="stages per ring oscillator"
    )
    puf_parser.add_argument(
        "--topology",
        choices=("neighbor", "allpairs", "lehmer"),
        default="neighbor",
        help="comparison topology deriving response bits",
    )
    puf_parser.add_argument(
        "--group-size", type=int, default=8, help="rings per Lehmer ordering group"
    )
    puf_parser.add_argument(
        "--placement",
        choices=("aligned", "sequential"),
        default="aligned",
        help="aligned single-LAB rings, or the paper's sequential fill",
    )
    puf_parser.add_argument(
        "--periods",
        type=int,
        default=0,
        help="periods averaged per frequency readout (0 = noiseless)",
    )
    puf_parser.add_argument("--seed", type=int, default=0)
    puf_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes over device chunks (0 = all cores)",
    )
    _add_telemetry_flags(puf_parser)
    puf_parser.set_defaults(handler=_command_puf)

    verify_parser = subparsers.add_parser(
        "verify", help="verify the paper's claims statistically across seeds"
    )
    verify_parser.add_argument(
        "--tier",
        choices=("quick", "full"),
        default="quick",
        help="simulation budget tier (default: quick)",
    )
    verify_parser.add_argument(
        "--seeds", type=int, default=5, metavar="N",
        help="derived seeds per claim (default: 5)",
    )
    verify_parser.add_argument(
        "--seed", type=int, default=0, help="root seed for seed derivation"
    )
    verify_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the claim sweep (0 = all cores)",
    )
    verify_parser.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk result cache"
    )
    verify_parser.add_argument(
        "--claims",
        nargs="+",
        default=None,
        metavar="ID",
        help="verify only these claim ids (default: the full registry)",
    )
    verify_parser.add_argument(
        "--bundle-dir",
        default="verify_failures",
        metavar="DIR",
        help="directory for replay bundles of failing checks",
    )
    verify_parser.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="re-run one recorded failure bundle instead of sweeping",
    )
    verify_parser.add_argument(
        "--inject",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="override a budget parameter in every claim "
        "(e.g. sigma_g_scale=2.0 to inject a jitter regression)",
    )
    verify_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON results"
    )
    verify_parser.add_argument(
        "--list", action="store_true", help="list registered claims and exit"
    )
    _add_shard_flags(verify_parser, "the (claim, seed) grid")
    _add_telemetry_flags(verify_parser)
    verify_parser.set_defaults(handler=_command_verify)

    trace_parser = subparsers.add_parser(
        "trace", help="analyze a JSONL telemetry trace"
    )
    trace_parser.add_argument("action", choices=("summarize",))
    trace_parser.add_argument("file", help="trace file written with --trace")
    trace_parser.set_defaults(handler=_command_trace)

    report_md_parser = subparsers.add_parser(
        "report-md", help="write a markdown reproduction report"
    )
    report_md_parser.add_argument(
        "--output", default="reproduction_report.md", help="output file path"
    )
    report_md_parser.add_argument(
        "--ids",
        nargs="*",
        default=None,
        metavar="ID",
        help="experiment ids to include (default: all)",
    )
    report_md_parser.set_defaults(handler=_command_report_md)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _telemetry_session(args):
        return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
