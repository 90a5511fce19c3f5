"""TrngPool unit tests: gating, failover, backoff, circuit breaker."""

import re

import pytest

from repro.core.campaign import RingSpec
from repro.faults.base import FaultSchedule, ScheduledFault
from repro.faults.library import GlitchBurstFault, StuckStageFault, VoltageBrownoutFault
from repro.serve.pool import (
    LEDGER_CAPACITY,
    ChannelState,
    PoolConfig,
    PoolExhaustedError,
    TrngPool,
)
from repro.trng.supervisor import BackoffSchedule, EventLog

IRO5 = RingSpec("iro", 5)
IRO7 = RingSpec("iro", 7)
STR48 = RingSpec("str", 48)
STR96 = RingSpec("str", 96)


def test_healthy_pool_serves_gated_bytes():
    pool = TrngPool([IRO5, STR48], seed=3)
    data = pool.get_bytes(1024)
    assert len(data) == 1024
    assert pool.bytes_emitted == 1024
    assert pool.unhealthy_emitted_blocks() == 0
    assert pool.healthy_count == 2
    assert not pool.brownout
    # Both channels took serve turns (round-robin).
    served = {e.channel for e in pool.ledger if e.purpose == "serve" and e.emitted}
    assert len(served) == 2


def test_config_validation():
    with pytest.raises(ValueError):
        PoolConfig(block_bits=12)
    with pytest.raises(ValueError):
        PoolConfig(block_bits=100)  # not a whole byte count
    with pytest.raises(ValueError):
        PoolConfig(probe_blocks=0)
    with pytest.raises(ValueError):
        PoolConfig(max_flaps=0)
    with pytest.raises(ValueError):
        PoolConfig(min_healthy=0)
    with pytest.raises(ValueError):
        TrngPool([])


def test_brownout_quarantines_iros_and_fails_over_to_str():
    """The paper's asymmetry as a pool property: a supply brownout
    injection-locks the high-supply-weight IROs, the STRs ride it out."""
    pool = TrngPool([IRO5, IRO7, STR48, STR96], seed=11)
    pool.get_bytes(256)  # clean warmup
    pool.inject(VoltageBrownoutFault(0.95))
    data = pool.get_bytes(4096)
    assert len(data) == 4096
    assert pool.unhealthy_emitted_blocks() == 0
    states = {c.name: c.state for c in pool.channels}
    assert states["IRO 5C#0"] is ChannelState.QUARANTINED
    assert states["IRO 7C#1"] is ChannelState.QUARANTINED
    assert states["STR 48C#2"] is ChannelState.HEALTHY
    assert states["STR 96C#3"] is ChannelState.HEALTHY
    # Post-brownout serving came exclusively from the STRs.
    onset = pool.events.first_of_kind("fault_injected").time_s
    late_served = {
        e.channel
        for e in pool.ledger
        if e.purpose == "serve" and e.emitted and e.time_s > onset + 1.0
    }
    assert late_served <= {"STR 48C#2", "STR 96C#3"}


def test_min_healthy_floor_reports_brownout():
    pool = TrngPool(
        [IRO5, IRO7, STR48], config=PoolConfig(min_healthy=3), seed=11
    )
    assert not pool.brownout
    pool.inject(VoltageBrownoutFault(0.95))
    pool.get_bytes(2048)
    assert pool.brownout  # only the STR is left healthy, floor is 3
    assert pool.healthy_count == 1
    status = pool.status()
    assert status["brownout"] is True
    assert status["unhealthy_emitted_blocks"] == 0


def test_windowed_fault_recovers_via_probed_readmission():
    """A glitch window drains every channel; once it expires the pool
    clock (idle ticks included) lets probes succeed and channels return."""
    pool = TrngPool([IRO5, STR48], seed=5)
    pool.get_bytes(64)
    glitch = GlitchBurstFault(0.9, local=False)
    pool.inject(FaultSchedule([ScheduledFault(glitch, start_s=0.0, stop_s=0.4)]))
    # While the shared glitch is up the whole pool may drain; every
    # exhausted call ticks the pool clock, so the window expires and
    # re-admission probes eventually succeed (the server's patience
    # loop does exactly this retry).
    data = b""
    for _ in range(500):
        try:
            data = pool.get_bytes(4096)
            break
        except PoolExhaustedError:
            continue
    assert len(data) == 4096
    assert pool.events.first_of_kind("quarantine") is not None
    assert pool.events.first_of_kind("readmit") is not None
    assert pool.unhealthy_emitted_blocks() == 0
    assert pool.healthy_count == 2  # everyone came back


def test_exhausted_pool_raises_and_ticks_idle():
    pool = TrngPool([IRO5], seed=1)
    pool.inject(StuckStageFault(1.0))
    before = pool.time_s
    with pytest.raises(PoolExhaustedError):
        pool.get_bytes(64)
    assert pool.channels[0].state is ChannelState.QUARANTINED
    # The clock ticked while exhausted, so windowed scenarios expire.
    assert pool.time_s > before
    mid = pool.time_s
    with pytest.raises(PoolExhaustedError):
        pool.get_bytes(64)
    assert pool.time_s > mid


def test_circuit_breaker_trips_after_max_flaps():
    pool = TrngPool(
        [IRO5, STR48],
        config=PoolConfig(
            max_flaps=2,
            backoff=BackoffSchedule(base_blocks=0),  # immediate re-probe
        ),
        seed=2,
    )
    pool.inject(VoltageBrownoutFault(0.95))  # IRO locks, STR survives
    # Each serve pass quarantines the IRO; with zero backoff it is
    # probed again right away.  A *probe* failure does not count as a
    # flap, so force flaps by re-admitting through a clean gap:
    # instead, drive enough traffic that probes eventually coincide
    # with the per-block stochastic margin — simpler: flap manually.
    iro = pool.channels[0]
    for _ in range(3):
        if iro.state is ChannelState.HEALTHY:
            iro.state = ChannelState.HEALTHY
        pool._quarantine(iro, reason="test")
        iro.state = ChannelState.HEALTHY if iro.state is ChannelState.QUARANTINED else iro.state
    assert iro.state is ChannelState.TRIPPED
    assert iro.flap_count == 3
    kinds = pool.events.kinds()
    assert "circuit_open" in kinds
    # A tripped channel is never probed again.
    pool.clear_fault()
    pool.get_bytes(512)
    assert iro.state is ChannelState.TRIPPED
    assert all(e.channel != iro.name or not e.emitted for e in pool.ledger if e.time_s > 0)


def test_circuit_open_event_records_prior_state():
    pool = TrngPool([IRO5, STR48], config=PoolConfig(max_flaps=1), seed=2)
    iro = pool.channels[0]
    pool._quarantine(iro, reason="first")
    iro.state = ChannelState.HEALTHY
    pool._quarantine(iro, reason="second")
    event = pool.events.first_of_kind("circuit_open")
    assert event is not None
    assert event.state_from == "healthy"
    assert event.state_to == "tripped"
    quarantine = pool.events.first_of_kind("quarantine")
    assert quarantine.state_from == "healthy"
    assert quarantine.state_to == "quarantined"


def test_pool_events_roundtrip_through_eventlog_serialization():
    """Quarantine/readmit/circuit-breaker events survive the EventLog
    JSON round-trip — replay bundles can carry pool histories."""
    pool = TrngPool([IRO5, STR48], config=PoolConfig(max_flaps=1), seed=7)
    pool.get_bytes(64)
    pool.inject(VoltageBrownoutFault(0.95))
    pool.get_bytes(1024)
    iro = pool.channels[0]
    iro.state = ChannelState.HEALTHY
    pool._quarantine(iro, reason="flap to trip")  # second flap -> circuit_open
    kinds = set(pool.events.kinds())
    assert {"fault_injected", "quarantine", "circuit_open"} <= kinds
    restored = EventLog.from_dict(pool.events.to_dict())
    assert restored.kinds() == pool.events.kinds()
    for original, copy in zip(pool.events, restored):
        assert original.to_dict() == copy.to_dict()


def test_backoff_schedule_spaces_readmission_probes():
    """Failed probes push the next attempt out exponentially."""
    pool = TrngPool(
        [IRO5, STR48],
        config=PoolConfig(
            backoff=BackoffSchedule(base_blocks=2, factor=2.0, max_blocks=64)
        ),
        seed=9,
    )
    pool.inject(VoltageBrownoutFault(0.95))
    pool.get_bytes(8192)
    failures = pool.events.of_kind("readmit_failed")
    assert len(failures) >= 2
    waits = []
    for event in failures:
        match = re.search(r"wait_blocks=(\d+)", event.detail)
        assert match is not None, event.detail
        waits.append(int(match.group(1)))
    # Monotone growth until the cap for consecutive attempts.
    assert waits == sorted(waits) or max(waits) == 64
    assert all(w >= 2 for w in waits)


def test_get_bytes_buffers_partial_blocks():
    pool = TrngPool([IRO5], seed=4)
    first = pool.get_bytes(10)
    second = pool.get_bytes(10)
    assert len(first) == len(second) == 10
    assert first != second  # stream advances, no replay
    # One 512-bit block = 64 bytes covers several 10-byte reads.
    assert len([e for e in pool.ledger if e.purpose == "serve"]) == 1


def test_get_bytes_rejects_nonpositive_count():
    pool = TrngPool([IRO5], seed=4)
    with pytest.raises(ValueError):
        pool.get_bytes(0)


def test_ledger_is_bounded_and_counter_matches_untrimmed_scan(monkeypatch):
    """The ledger keeps the newest entries; the unhealthy count keeps all."""
    import repro.serve.pool as pool_module

    def serve_past_capacity():
        pool = TrngPool([IRO5, STR48], config=PoolConfig(block_bits=64), seed=5)
        # Synthetic unhealthy emissions at the very start: the bounded
        # ledger evicts them, the running count must not forget them.
        for _ in range(3):
            pool._record(pool.channels[0], "serve", "glitch", alarms=1, emitted=True)
        pool.inject(GlitchBurstFault(0.6, burst_period_s=0.05, burst_duty=0.5, local=True))
        served = 0
        for _ in range(2000):  # bounded: exhausted calls only tick the clock
            if served >= (LEDGER_CAPACITY + 600) * 8:
                break
            try:
                served += len(pool.get_bytes(1024))
            except PoolExhaustedError:
                pass
        return pool

    bounded = serve_past_capacity()
    monkeypatch.setattr(pool_module, "LEDGER_CAPACITY", None)
    untrimmed = serve_past_capacity()

    assert len(bounded.ledger) == LEDGER_CAPACITY
    assert len(untrimmed.ledger) > LEDGER_CAPACITY
    assert list(bounded.ledger) == list(untrimmed.ledger)[-LEDGER_CAPACITY:]
    assert bounded.ledger[-1].index == len(untrimmed.ledger) - 1
    scan = sum(1 for e in untrimmed.ledger if e.emitted and e.alarm_count > 0)
    assert scan == 3
    assert bounded.unhealthy_emitted_blocks() == scan
    assert bounded.status()["unhealthy_emitted_blocks"] == scan
    # The glitch did trip the health gate on some blocks, none emitted.
    assert any(e.alarm_count > 0 and not e.emitted for e in untrimmed.ledger)
