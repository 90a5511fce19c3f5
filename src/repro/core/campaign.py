"""Full characterization campaigns over arbitrary ring sets.

:mod:`repro.core.comparison` answers the paper's specific question (one
IRO vs one STR).  This module is the general tool a downstream user
reaches for: declare any number of ring configurations, run the whole
Section V measurement program over a board bank, and get one
serializable report — frequencies, voltage robustness, extra-device
dispersion, jitter (single-period and long-run diffusion), and the
implied TRNG provisioning for each ring.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.characterization import measure_family_dispersion, sweep_voltage
from repro.fpga.board import Board, BoardBank
from repro.parallel.cache import ResultCache, _package_version, fingerprint
from repro.parallel.executor import GridStats, GridTask, ProgressCallback, run_grid
from repro.parallel.seeds import spawn_seeds
from repro.parallel.sharding import MergedRun, ShardRun, ShardSpec, run_shard
from repro.rings.iro import InverterRingOscillator
from repro.rings.str_ring import SelfTimedRing
from repro.simulation.noise import SeedLike
from repro.stats.accumulation import accumulation_profile
from repro.telemetry import get_logger, span
from repro.trng.elementary import predicted_shannon_entropy
from repro.trng.phasewalk import reference_period_for_q

_log = get_logger("repro.core.campaign")

#: Periods per jitter-simulation segment in the fanned-out campaign.
#: Segments are the unit of parallelism *within* one ring spec: a long
#: simulation is replaced by independent seed-spawned runs whose
#: period populations are concatenated, so a single slow spec (an STR
#: 96C dominates a TAB2-sized grid ~20:1) no longer bounds the whole
#: campaign's wall-clock.  Serial runs use the same segmentation, which
#: is what keeps ``jobs=N`` bit-identical to ``jobs=1``.
DEFAULT_SEGMENT_PERIODS = 512

#: Warm-up discarded before each segment's jitter statistics.
CAMPAIGN_WARMUP_PERIODS = 256


@dataclasses.dataclass(frozen=True)
class RingSpec:
    """One ring configuration to characterize."""

    kind: str  # "iro" | "str"
    stage_count: int
    token_count: Optional[int] = None  # STR only; None = balanced

    def __post_init__(self) -> None:
        if self.kind not in ("iro", "str"):
            raise ValueError(f"kind must be 'iro' or 'str', got {self.kind!r}")
        if self.stage_count < 3:
            raise ValueError(f"need at least 3 stages, got {self.stage_count}")
        if self.kind == "iro" and self.token_count is not None:
            raise ValueError("token_count only applies to STRs")

    @property
    def label(self) -> str:
        return f"{self.kind.upper()} {self.stage_count}C"

    def build(self, board: Board):
        if self.kind == "iro":
            return InverterRingOscillator.on_board(board, self.stage_count)
        return SelfTimedRing.on_board(
            board, self.stage_count, token_count=self.token_count
        )


@dataclasses.dataclass(frozen=True)
class RingCampaignResult:
    """Everything measured for one ring configuration."""

    label: str
    nominal_frequency_mhz: float
    delta_f: float
    linearity_r2: float
    sigma_rel: float
    board_frequencies_mhz: List[float]
    period_jitter_ps: float
    diffusion_sigma_ps: float
    trng_reference_period_ps: float
    trng_entropy_bound: float

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class CampaignReport:
    """All ring results plus the campaign configuration."""

    results: List[RingCampaignResult]
    voltages_v: List[float]
    board_count: int
    q_target: float

    def result_for(self, label: str) -> RingCampaignResult:
        for result in self.results:
            if result.label == label:
                return result
        raise KeyError(f"no campaign result for {label!r}")

    def render(self) -> str:
        header = (
            "ring",
            "F [MHz]",
            "delta F",
            "sigma_rel",
            "sigma_p [ps]",
            "diffusion [ps]",
            "T_ref(Q) [us]",
            "H bound",
        )
        rows = [header]
        for result in self.results:
            rows.append(
                (
                    result.label,
                    f"{result.nominal_frequency_mhz:.1f}",
                    f"{result.delta_f:.1%}",
                    f"{result.sigma_rel:.2%}",
                    f"{result.period_jitter_ps:.2f}",
                    f"{result.diffusion_sigma_ps:.2f}",
                    f"{result.trng_reference_period_ps / 1e6:.1f}",
                    f"{result.trng_entropy_bound:.4f}",
                )
            )
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
            for row in rows
        ]
        lines.insert(1, "-" * (sum(widths) + 2 * (len(widths) - 1)))
        return "\n".join(lines)

    def to_json(self, indent: Optional[int] = 2) -> str:
        payload = {
            "voltages_v": self.voltages_v,
            "board_count": self.board_count,
            "q_target": self.q_target,
            "results": [result.to_dict() for result in self.results],
        }
        return json.dumps(payload, indent=indent)


def _segment_lengths(total_periods: int, segment_periods: int) -> List[int]:
    """Split a period budget into simulation segments.

    Full segments of ``segment_periods`` plus the remainder; a remainder
    too short to yield a jitter estimate (< 2 periods) is folded into
    the last segment.
    """
    if total_periods < 1:
        raise ValueError(f"need a positive period budget, got {total_periods}")
    if segment_periods < 2:
        raise ValueError(f"segments need at least 2 periods, got {segment_periods}")
    lengths = [segment_periods] * (total_periods // segment_periods)
    remainder = total_periods % segment_periods
    if remainder >= 2:
        lengths.append(remainder)
    elif remainder and lengths:
        lengths[-1] += remainder
    elif remainder:
        lengths.append(remainder + segment_periods)  # unreachable guard
    return lengths or [total_periods]


def _campaign_segment_worker(task: GridTask) -> List[float]:
    """Grid worker: the period population of one simulation segment."""
    payload = task.payload
    trace = payload["ring"].simulate(
        payload["period_count"],
        seed=task.seed,
        warmup_periods=payload["warmup_periods"],
    ).trace
    return [float(period) for period in trace.periods_ps()]


def _campaign_tasks(
    specs: Sequence[RingSpec],
    rings: Sequence[Any],
    lengths: Sequence[int],
    spec_seeds: Sequence[Optional[int]],
) -> List[GridTask]:
    """The campaign's flat segment grid, seeds derived before any split.

    Shared by the single-host path (:func:`run_campaign`) and the shard
    path (:func:`run_campaign_shard`): both build the *whole* grid from
    the same arguments, so a shard owns a subset of exactly the tasks —
    and seeds — the single-host run would have evaluated.
    """
    tasks: List[GridTask] = []
    for spec, ring, spec_seed in zip(specs, rings, spec_seeds):
        segment_seeds = spawn_seeds(spec_seed, len(lengths))
        for segment_index, (length, segment_seed) in enumerate(zip(lengths, segment_seeds)):
            tasks.append(
                GridTask(
                    kind="campaign_jitter_segment",
                    spec={
                        "ring": fingerprint(ring),
                        "label": spec.label,
                        "segment": segment_index,
                        "period_count": length,
                        "warmup_periods": CAMPAIGN_WARMUP_PERIODS,
                    },
                    seed=segment_seed,
                    payload={
                        "ring": ring,
                        "period_count": length,
                        "warmup_periods": CAMPAIGN_WARMUP_PERIODS,
                    },
                )
            )
    return tasks


def _assemble_result(
    spec: RingSpec,
    ring,
    sweep,
    dispersion,
    periods: np.ndarray,
    q_target: float,
) -> RingCampaignResult:
    """Fold one spec's measurements into its campaign row."""
    diffusion = accumulation_profile(periods).diffusion_sigma_ps
    reference = reference_period_for_q(ring.predicted_period_ps(), diffusion, q_target)
    q_reached = q_target  # by construction of the reference period
    return RingCampaignResult(
        label=spec.label,
        nominal_frequency_mhz=ring.predicted_frequency_mhz(),
        delta_f=float(sweep.excursion()),
        linearity_r2=float(sweep.linearity()),
        sigma_rel=float(dispersion.sigma_rel),
        board_frequencies_mhz=[float(f) for f in dispersion.frequencies_mhz],
        period_jitter_ps=float(np.std(periods, ddof=1)),
        diffusion_sigma_ps=float(diffusion),
        trng_reference_period_ps=float(reference),
        trng_entropy_bound=float(predicted_shannon_entropy(q_reached)),
    )


def run_campaign(
    specs: Sequence[RingSpec],
    bank: Optional[BoardBank] = None,
    voltages_v: Sequence[float] = (1.0, 1.2, 1.4),
    jitter_periods: int = 2048,
    q_target: float = 0.2,
    seed: SeedLike = 0,
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    segment_periods: int = DEFAULT_SEGMENT_PERIODS,
    progress: Optional[ProgressCallback] = None,
    stats: Optional[GridStats] = None,
) -> CampaignReport:
    """Characterize every spec over the bank and assemble the report.

    The TRNG provisioning column uses the measured long-run *diffusion*
    rate (not the single-period sigma) — the conservative figure an STR
    designer must use (see docs/theory.md Section 7).

    The jitter simulations — the campaign's entire cost — are cut into
    independent seed-spawned segments (``segment_periods`` each) and
    fanned out over ``jobs`` worker processes, consulting ``cache`` per
    segment.  Any job count produces bit-identical reports because the
    segment list and its seeds depend only on the arguments, never on
    scheduling.  Each segment is one :meth:`~repro.rings.base.RingOscillator.simulate`
    call on the batch kernel; ``seed`` must be an integer root (or
    ``None``) for the fan-out.
    """
    if not specs:
        raise ValueError("need at least one ring spec")
    bank = bank if bank is not None else BoardBank.manufacture(board_count=5, seed=0)
    nominal_board = bank[0]
    with span(
        "campaign", specs=len(specs), jitter_periods=jitter_periods
    ) as tele:
        _log.info(
            "campaign.start",
            specs=[spec.label for spec in specs],
            jitter_periods=jitter_periods,
        )
        rings = [spec.build(nominal_board) for spec in specs]
        spec_seeds = spawn_seeds(seed, len(specs))
        lengths = _segment_lengths(jitter_periods, segment_periods)
        tasks = _campaign_tasks(specs, rings, lengths, spec_seeds)
        tele.set("segments", len(tasks))
        segments = run_grid(
            tasks,
            _campaign_segment_worker,
            jobs=jobs,
            cache=cache,
            progress=progress,
            stats=stats,
        )

        results: List[RingCampaignResult] = []
        for index, (spec, ring) in enumerate(zip(specs, rings)):
            sweep = sweep_voltage(nominal_board, spec.build, voltages_v)
            dispersion = measure_family_dispersion(bank, spec.build)
            own = segments[index * len(lengths) : (index + 1) * len(lengths)]
            periods = np.concatenate([np.asarray(segment, dtype=float) for segment in own])
            results.append(
                _assemble_result(spec, ring, sweep, dispersion, periods, q_target)
            )
        _log.info("campaign.complete", rings=len(results), segments=len(tasks))
        return CampaignReport(
            results=results,
            voltages_v=[float(v) for v in voltages_v],
            board_count=len(bank),
            q_target=q_target,
        )


def campaign_workload(
    specs: Sequence[RingSpec],
    *,
    board_count: int,
    bank_seed: int,
    voltages_v: Sequence[float],
    jitter_periods: int,
    q_target: float,
    seed: int,
    segment_periods: int,
) -> Dict[str, Any]:
    """JSON-able description of a campaign, complete enough to rebuild it.

    Stored in every shard manifest so ``repro merge`` can reconstruct the
    grid and reassemble the final report without re-stating the original
    command line.
    """
    return {
        "workload": "campaign",
        "specs": [
            {
                "kind": spec.kind,
                "stage_count": spec.stage_count,
                "token_count": spec.token_count,
            }
            for spec in specs
        ],
        "board_count": int(board_count),
        "bank_seed": int(bank_seed),
        "voltages_v": [float(v) for v in voltages_v],
        "jitter_periods": int(jitter_periods),
        "q_target": float(q_target),
        "seed": int(seed),
        "segment_periods": int(segment_periods),
    }


def specs_from_workload(workload: Dict[str, Any]) -> List[RingSpec]:
    """Rebuild the ring-spec list from a campaign workload document."""
    return [
        RingSpec(
            kind=str(entry["kind"]),
            stage_count=int(entry["stage_count"]),
            token_count=None if entry.get("token_count") is None else int(entry["token_count"]),
        )
        for entry in workload["specs"]
    ]


def run_campaign_shard(
    specs: Sequence[RingSpec],
    shard: ShardSpec,
    out_dir: Any,
    *,
    board_count: int = 5,
    bank_seed: int = 0,
    voltages_v: Sequence[float] = (1.0, 1.2, 1.4),
    jitter_periods: int = 2048,
    q_target: float = 0.2,
    seed: int = 0,
    segment_periods: int = DEFAULT_SEGMENT_PERIODS,
    jobs: Optional[int] = 1,
    progress: Optional[ProgressCallback] = None,
    stats: Optional[GridStats] = None,
) -> ShardRun:
    """Run one shard of a campaign's segment grid into ``out_dir``.

    Builds exactly the grid :func:`run_campaign` would build from the
    same arguments — seeds fanned out over the *whole* grid before the
    round-robin split — then evaluates only this shard's subset.  The
    output directory is self-contained (result cache + metrics snapshot
    + crash-safe manifest); :func:`repro.parallel.sharding.merge_shards`
    plus :func:`assemble_campaign` turn a complete shard set into a
    report bit-identical to the single-host run.
    """
    if not specs:
        raise ValueError("need at least one ring spec")
    bank = BoardBank.manufacture(board_count=board_count, seed=bank_seed)
    rings = [spec.build(bank[0]) for spec in specs]
    spec_seeds = spawn_seeds(seed, len(specs))
    lengths = _segment_lengths(jitter_periods, segment_periods)
    tasks = _campaign_tasks(specs, rings, lengths, spec_seeds)
    workload = campaign_workload(
        specs,
        board_count=board_count,
        bank_seed=bank_seed,
        voltages_v=voltages_v,
        jitter_periods=jitter_periods,
        q_target=q_target,
        seed=seed,
        segment_periods=segment_periods,
    )
    return run_shard(
        tasks,
        _campaign_segment_worker,
        shard,
        out_dir,
        workload=workload,
        version=_package_version(),
        jobs=jobs,
        progress=progress,
        stats=stats,
    )


def assemble_campaign(
    merged: MergedRun,
    *,
    jobs: Optional[int] = 1,
    progress: Optional[ProgressCallback] = None,
    stats: Optional[GridStats] = None,
) -> CampaignReport:
    """Reassemble the final report from a merged campaign shard set.

    Replays the full grid against the merged cache — every segment is a
    hit (merge validation guarantees completeness), and the remaining
    assembly steps (voltage sweep, dispersion, provisioning) are
    deterministic — so the report, and its ``to_json()`` bytes, are
    identical to what the single-host run produces.
    """
    workload = merged.workload
    if workload.get("workload") != "campaign":
        raise ValueError(
            f"merged run holds a {workload.get('workload')!r} workload, not a campaign"
        )
    specs = specs_from_workload(workload)
    bank = BoardBank.manufacture(
        board_count=int(workload["board_count"]), seed=int(workload["bank_seed"])
    )
    return run_campaign(
        specs,
        bank,
        voltages_v=workload["voltages_v"],
        jitter_periods=int(workload["jitter_periods"]),
        q_target=float(workload["q_target"]),
        seed=int(workload["seed"]),
        jobs=jobs,
        cache=merged.cache,
        segment_periods=int(workload["segment_periods"]),
        progress=progress,
        stats=stats,
    )
