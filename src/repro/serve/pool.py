"""Health-gated TRNG channel pool: failover, backoff, circuit breaker.

A :class:`TrngPool` owns several :class:`~repro.trng.supervisor.RingChannel`
bit sources and turns them into one stream of *health-gated* bytes:

* every sampled block passes through that channel's streaming SP 800-90B
  :class:`~repro.trng.health.HealthMonitor` **before** any of its bytes
  may be buffered — an alarmed block is discarded, always;
* a channel whose block alarms is **quarantined** and the pool fails
  over to the next healthy channel (round-robin);
* quarantined channels are **re-admitted** only after passing a probe
  (``probe_blocks`` clean blocks through a fresh monitor), scheduled by
  bounded exponential backoff with deterministic jitter
  (:class:`~repro.trng.supervisor.BackoffSchedule` — the same schedule
  the supervisor's retry rung uses);
* a channel that flaps (gets quarantined) more than ``max_flaps`` times
  trips a **circuit breaker** and is retired for good;
* when fewer than ``min_healthy`` channels remain the pool reports
  **brownout** — the server degrades to smaller grants, never to
  unhealthy bytes;
* with *no* serviceable channel, :meth:`TrngPool.get_bytes` raises
  :class:`PoolExhaustedError` and the pool clock ticks idle so windowed
  fault scenarios still expire.

Every transition lands in the same structured
:class:`~repro.trng.supervisor.EventLog` the supervisor uses (kinds
``quarantine``, ``readmit``, ``readmit_failed``, ``circuit_open``,
``fault_injected``, ``fault_cleared``), and a :class:`LedgerEntry` per
sampled block records the ground truth the chaos harness asserts on:
zero emitted blocks with alarms.  The ledger keeps only the most recent
:data:`LEDGER_CAPACITY` entries; the count of unhealthy emitted blocks
runs over the pool's whole life.

Faults are injected as :class:`~repro.faults.base.FaultScenario` values
against the pool's deterministic clock (bits sampled x reference
period), exactly like the supervised runtime — so a brownout/glitch
storm drives the pool the same way it drives EXT10, independent of
wall-clock scheduling.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
from typing import Any, Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.faults.base import NOMINAL_EFFECT, FaultEffect, FaultScenario
from repro.fpga.board import Board
from repro.simulation.noise import SeedLike, make_rng
from repro.telemetry import default_registry, emit_event
from repro.trng.health import HealthMonitor
from repro.trng.supervisor import BackoffSchedule, EventLog, RingChannel, SupervisorEvent


class PoolExhaustedError(RuntimeError):
    """No healthy channel could produce a gated block."""


class ChannelState(enum.Enum):
    """Lifecycle of one pool channel."""

    HEALTHY = "healthy"
    QUARANTINED = "quarantined"
    TRIPPED = "tripped"  # circuit breaker open: retired for good


@dataclasses.dataclass(frozen=True)
class PoolConfig:
    """Tuning of the pool's robustness machinery."""

    block_bits: int = 512
    claimed_min_entropy: float = 0.9
    window: int = 512
    q_target: float = 0.2
    probe_blocks: int = 2
    backoff: BackoffSchedule = BackoffSchedule(
        base_blocks=2, factor=2.0, max_blocks=64, jitter=0.25, seed=0
    )
    max_flaps: int = 8
    min_healthy: int = 2

    def __post_init__(self) -> None:
        if self.block_bits < 16:
            raise ValueError(f"block size must be at least 16 bits, got {self.block_bits}")
        if self.block_bits % 8 != 0:
            raise ValueError(f"block size must be a whole byte count, got {self.block_bits}")
        if self.probe_blocks < 1:
            raise ValueError(f"need at least one probe block, got {self.probe_blocks}")
        if self.max_flaps < 1:
            raise ValueError(f"max flaps must be positive, got {self.max_flaps}")
        if self.min_healthy < 1:
            raise ValueError(f"min healthy must be positive, got {self.min_healthy}")


#: Ledger entries a pool keeps (the most recent ones).  One entry per
#: 512-bit block would otherwise grow without bound on a long-running
#: server.
LEDGER_CAPACITY = 4096


@dataclasses.dataclass(frozen=True)
class LedgerEntry:
    """Ground truth for one sampled block (mirrors ``BlockRecord``).

    ``status`` is the channel's *physical* condition during the block —
    which the pool never consults for gating; gating is the health
    tests' job.  Keeping both lets the chaos harness assert the SLO
    honestly: an emitted entry must have ``alarm_count == 0``.
    """

    index: int
    time_s: float
    channel: str
    purpose: str  # "serve" | "probe"
    status: str
    alarm_count: int
    emitted: bool


class PoolChannel:
    """One pool slot: a ring channel plus its supervision state."""

    def __init__(
        self, name: str, spec: Any, board: Board, config: PoolConfig
    ) -> None:
        self.name = name
        self.ring = RingChannel(spec, board, q_target=config.q_target)
        self.monitor = HealthMonitor(
            claimed_min_entropy=config.claimed_min_entropy, window=config.window
        )
        self.state = ChannelState.HEALTHY
        self.flap_count = 0  # times quarantined over the channel's life
        self.backoff_attempt = 0  # consecutive failed re-admission probes
        self.eligible_at_s = 0.0  # pool time of the next re-admission probe
        self.block_period_s = config.block_bits * self.ring.reference_period_ps * 1e-12


class TrngPool:
    """A failover pool of health-gated ring channels (see module docstring).

    Parameters
    ----------
    specs:
        Ring specs (``RingSpec``-alikes); duplicates are fine — channel
        names are suffixed with their slot index.
    board:
        The board every channel resolves on; defaults to nominal.
    config:
        Robustness tuning (:class:`PoolConfig`).
    seed:
        Seed of the pool's single sampling RNG.
    """

    def __init__(
        self,
        specs: Sequence[Any],
        board: Optional[Board] = None,
        config: PoolConfig = PoolConfig(),
        seed: SeedLike = None,
    ) -> None:
        if not specs:
            raise ValueError("a pool needs at least one channel spec")
        self._board = board if board is not None else Board()
        self._config = config
        self._rng = make_rng(seed)
        self.channels: List[PoolChannel] = [
            PoolChannel(
                f"{getattr(spec, 'label', repr(spec))}#{index}",
                spec,
                self._board,
                config,
            )
            for index, spec in enumerate(specs)
        ]
        self.events = EventLog()
        self.ledger: Deque[LedgerEntry] = collections.deque(maxlen=LEDGER_CAPACITY)
        self._ledger_index = 0
        self._unhealthy_emitted = 0
        self._buffer = bytearray()
        self._time_s = 0.0
        self._blocks_sampled = 0
        self._rr_offset = 0
        self._scenario: Optional[FaultScenario] = None
        self._scenario_epoch_s = 0.0
        self.bytes_emitted = 0
        self._idle_tick_s = max(channel.block_period_s for channel in self.channels)
        self._drift_monitors: Dict[str, Any] = {}
        self._drift_quarantine = False
        self._update_gauges()

    # ------------------------------------------------------------------
    # drift plane
    # ------------------------------------------------------------------
    def attach_drift_monitors(
        self,
        statistics: Optional[Sequence[Any]] = None,
        preemptive_quarantine: bool = True,
    ) -> None:
        """Run ``repro.obs`` drift charts over every channel's blocks.

        Each served block (alarmed or not) feeds the channel's
        :class:`~repro.obs.drift.ChannelDriftMonitor`; when
        ``preemptive_quarantine`` is set, a chart crossing quarantines
        the channel through the ordinary ladder *before* the AIS-31
        tests would have tripped — the block that raised the signal is
        discarded, never emitted.  Timestamps ride the pool's
        deterministic clock, so drift drills replay exactly.
        """
        from repro.obs.drift import DEFAULT_STATISTICS, ChannelDriftMonitor

        stats = DEFAULT_STATISTICS if statistics is None else tuple(statistics)
        self._drift_monitors = {
            channel.name: ChannelDriftMonitor(channel.name, stats)
            for channel in self.channels
        }
        self._drift_quarantine = bool(preemptive_quarantine)

    def drift_monitor(self, channel_name: str) -> Optional[Any]:
        """The attached monitor for ``channel_name`` (None when absent)."""
        return self._drift_monitors.get(channel_name)

    def _drift_observe(self, channel: "PoolChannel", bits: Any, alarm_count: int):
        monitor = self._drift_monitors.get(channel.name)
        if monitor is None:
            return []
        return monitor.observe_block(bits, self._time_s, alarm_count)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> PoolConfig:
        return self._config

    @property
    def time_s(self) -> float:
        """The pool's deterministic clock (advances with sampling)."""
        return self._time_s

    def channels_in(self, state: ChannelState) -> List[PoolChannel]:
        return [channel for channel in self.channels if channel.state is state]

    @property
    def healthy_count(self) -> int:
        return len(self.channels_in(ChannelState.HEALTHY))

    @property
    def brownout(self) -> bool:
        """Healthy capacity below the configured floor."""
        return self.healthy_count < self._config.min_healthy

    def unhealthy_emitted_blocks(self) -> int:
        """Emitted blocks that carried alarms — the SLO demands zero.

        Counted over every block the pool ever sampled, not only those
        the bounded ledger still holds.
        """
        return self._unhealthy_emitted

    def status(self) -> Dict[str, Any]:
        """JSON-able pool snapshot (served on STATUS frames)."""
        return {
            "channels": {
                channel.name: {
                    "state": channel.state.value,
                    "flaps": channel.flap_count,
                    "eligible_at_s": channel.eligible_at_s,
                }
                for channel in self.channels
            },
            "healthy": self.healthy_count,
            "quarantined": len(self.channels_in(ChannelState.QUARANTINED)),
            "tripped": len(self.channels_in(ChannelState.TRIPPED)),
            "brownout": self.brownout,
            "bytes_emitted": self.bytes_emitted,
            "blocks_sampled": self._blocks_sampled,
            "unhealthy_emitted_blocks": self.unhealthy_emitted_blocks(),
            "time_s": self._time_s,
            "fault_active": self._scenario is not None,
        }

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def inject(self, scenario: FaultScenario) -> None:
        """Drive the pool with a fault scenario from the current pool time."""
        self._scenario = scenario
        self._scenario_epoch_s = self._time_s
        self._log("fault_injected", detail=scenario.describe())

    def clear_fault(self) -> None:
        if self._scenario is not None:
            self._log("fault_cleared", detail=self._scenario.describe())
        self._scenario = None

    def _effect(self) -> FaultEffect:
        if self._scenario is None:
            return NOMINAL_EFFECT
        return self._scenario.effect_at(self._time_s - self._scenario_epoch_s)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _log(self, kind: str, detail: str = "", state_from: str = "", state_to: str = "") -> None:
        event = SupervisorEvent(
            kind=kind,
            time_s=self._time_s,
            bit_position=self._blocks_sampled * self._config.block_bits,
            state_from=state_from,
            state_to=state_to,
            detail=detail,
        )
        self.events.append(event)
        emit_event(f"serve.pool.{kind}", **event.to_dict())
        registry = default_registry()
        registry.counter("repro.serve.pool.events").inc()
        registry.counter(f"repro.serve.pool.{kind}").inc()

    _CHANNEL_STATE_CODES = {
        ChannelState.HEALTHY: 0.0,
        ChannelState.QUARANTINED: 1.0,
        ChannelState.TRIPPED: 2.0,
    }

    def _update_gauges(self) -> None:
        registry = default_registry()
        registry.gauge("repro.serve.pool.healthy").set(self.healthy_count)
        registry.gauge("repro.serve.pool.quarantined").set(
            len(self.channels_in(ChannelState.QUARANTINED))
        )
        registry.gauge("repro.serve.pool.tripped").set(
            len(self.channels_in(ChannelState.TRIPPED))
        )
        registry.gauge("repro.serve.pool.brownout").set(1.0 if self.brownout else 0.0)
        # Per-channel state/flap gauges: the dashboard's channel panel.
        # Codes: 0 healthy, 1 quarantined, 2 tripped (circuit open).
        for channel in self.channels:
            prefix = f"repro.serve.pool.channel.{channel.name}"
            registry.gauge(f"{prefix}.state").set(
                self._CHANNEL_STATE_CODES[channel.state]
            )
            registry.gauge(f"{prefix}.flaps").set(channel.flap_count)

    def _record(
        self, channel: PoolChannel, purpose: str, status: str, alarms: int, emitted: bool
    ) -> None:
        if emitted and alarms > 0:
            self._unhealthy_emitted += 1
        self.ledger.append(
            LedgerEntry(
                index=self._ledger_index,
                time_s=self._time_s,
                channel=channel.name,
                purpose=purpose,
                status=status,
                alarm_count=alarms,
                emitted=emitted,
            )
        )
        self._ledger_index += 1

    def _sample(self, channel: PoolChannel) -> tuple:
        """Sample one block from ``channel`` under the active effect."""
        effect = self._effect()
        apply_upsets = (not effect.upset_local) or channel is self.channels[0]
        bits, status = channel.ring.sample_block(
            self._config.block_bits, self._rng, effect, apply_upsets=apply_upsets
        )
        self._time_s += channel.block_period_s
        self._blocks_sampled += 1
        return bits, status

    # ------------------------------------------------------------------
    # quarantine / re-admission / circuit breaker
    # ------------------------------------------------------------------
    def _quarantine(self, channel: PoolChannel, reason: str) -> None:
        state_from = channel.state.value
        channel.flap_count += 1
        channel.monitor.reset()
        drift = self._drift_monitors.get(channel.name)
        if drift is not None:
            drift.reset()
        if channel.flap_count > self._config.max_flaps:
            channel.state = ChannelState.TRIPPED
            self._log(
                "circuit_open",
                detail=f"channel={channel.name} flaps={channel.flap_count} "
                f"max={self._config.max_flaps}",
                state_from=state_from,
                state_to=ChannelState.TRIPPED.value,
            )
        else:
            channel.state = ChannelState.QUARANTINED
            channel.backoff_attempt = 0
            wait_blocks = self._config.backoff.blocks(0)
            channel.eligible_at_s = self._time_s + wait_blocks * channel.block_period_s
            self._log(
                "quarantine",
                detail=f"channel={channel.name} reason={reason} "
                f"flap={channel.flap_count} wait_blocks={wait_blocks}",
                state_from=state_from,
                state_to=ChannelState.QUARANTINED.value,
            )
        self._update_gauges()

    def _probe(self, channel: PoolChannel) -> bool:
        """Health-check ``probe_blocks`` fresh blocks; bits are discarded."""
        monitor = HealthMonitor(
            claimed_min_entropy=self._config.claimed_min_entropy,
            window=self._config.window,
        )
        healthy = True
        for _ in range(self._config.probe_blocks):
            bits, status = self._sample(channel)
            alarms = monitor.ingest(bits)
            self._record(channel, "probe", status, len(alarms), False)
            if alarms:
                healthy = False
        return healthy

    def _try_readmit(self) -> None:
        """Probe every quarantined channel whose backoff has expired."""
        for channel in self.channels:
            if channel.state is not ChannelState.QUARANTINED:
                continue
            if self._time_s < channel.eligible_at_s:
                continue
            if self._probe(channel):
                channel.state = ChannelState.HEALTHY
                channel.backoff_attempt = 0
                channel.monitor.reset()
                self._log(
                    "readmit",
                    detail=f"channel={channel.name} flap={channel.flap_count}",
                    state_from=ChannelState.QUARANTINED.value,
                    state_to=ChannelState.HEALTHY.value,
                )
            else:
                channel.backoff_attempt += 1
                wait_blocks = self._config.backoff.blocks(channel.backoff_attempt)
                channel.eligible_at_s = (
                    self._time_s + wait_blocks * channel.block_period_s
                )
                self._log(
                    "readmit_failed",
                    detail=f"channel={channel.name} "
                    f"attempt={channel.backoff_attempt} wait_blocks={wait_blocks}",
                    state_from=ChannelState.QUARANTINED.value,
                    state_to=ChannelState.QUARANTINED.value,
                )
        self._update_gauges()

    # ------------------------------------------------------------------
    # production
    # ------------------------------------------------------------------
    def produce_block(self) -> Optional[np.ndarray]:
        """One health-gated block, or ``None`` when the pool is exhausted.

        Walks the healthy channels round-robin; a channel whose block
        alarms is quarantined on the spot and the walk continues.  On
        full exhaustion the pool clock ticks idle (so windowed fault
        scenarios expire even with nothing to sample) and re-admission
        is re-attempted on the next call.
        """
        self._try_readmit()
        healthy = self.channels_in(ChannelState.HEALTHY)
        for step in range(len(healthy)):
            channel = healthy[(self._rr_offset + step) % len(healthy)]
            bits, status = self._sample(channel)
            alarms = channel.monitor.ingest(bits)
            signals = self._drift_observe(channel, bits, len(alarms))
            if alarms:
                self._record(channel, "serve", status, len(alarms), False)
                tests = ",".join(sorted({alarm.test_name for alarm in alarms}))
                self._quarantine(channel, reason=f"tests={tests} status={status}")
                default_registry().counter("repro.serve.pool.alarms").inc(len(alarms))
                continue
            if signals and self._drift_quarantine:
                # Pre-emptive quarantine: the charts flagged a drift the
                # health tests have not (yet) tripped on.  Discard the
                # block — a drifting channel's bytes are not worth the
                # doubt — and walk on to the next healthy channel.
                self._record(channel, "serve", status, 0, False)
                reasons = ",".join(
                    sorted({f"{s.statistic}/{s.detector}" for s in signals})
                )
                self._quarantine(channel, reason=f"drift:{reasons}")
                default_registry().counter(
                    "repro.serve.pool.drift_quarantines"
                ).inc()
                continue
            self._record(channel, "serve", status, 0, True)
            self._rr_offset = (self._rr_offset + step + 1) % max(len(healthy), 1)
            default_registry().counter("repro.serve.pool.blocks_emitted").inc()
            return bits
        # Exhausted: no healthy channel survived this walk.
        self._time_s += self._idle_tick_s
        default_registry().counter("repro.serve.pool.exhausted").inc()
        return None

    def get_bytes(self, count: int) -> bytes:
        """Return ``count`` health-gated bytes, producing blocks as needed.

        Raises :class:`PoolExhaustedError` when no healthy channel is
        available; bytes already gated stay buffered for the next call.
        """
        if count < 1:
            raise ValueError(f"byte count must be positive, got {count}")
        while len(self._buffer) < count:
            block = self.produce_block()
            if block is None:
                raise PoolExhaustedError(
                    f"no healthy channel (healthy=0, "
                    f"quarantined={len(self.channels_in(ChannelState.QUARANTINED))}, "
                    f"tripped={len(self.channels_in(ChannelState.TRIPPED))})"
                )
            self._buffer.extend(np.packbits(block.astype(np.uint8)).tobytes())
        out = bytes(self._buffer[:count])
        del self._buffer[:count]
        self.bytes_emitted += count
        default_registry().counter("repro.serve.pool.bytes_emitted").inc(count)
        return out
