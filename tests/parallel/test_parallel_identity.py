"""Property: parallel campaign runs are bit-identical to serial ones.

The acceptance contract for the executor layer — for every threaded
driver, ``jobs=N`` must reproduce the ``jobs=1`` reference exactly
(same derived seeds, same workers, same float bits), for both ring
families.
"""

import pytest

from repro.core.campaign import RingSpec, run_campaign
from repro.core.characterization import sweep_voltage
from repro.experiments.ext10_fault_recovery import run as run_ext10
from repro.parallel import ResultCache
from repro.rings.iro import InverterRingOscillator
from repro.rings.str_ring import SelfTimedRing

SPECS = [RingSpec("iro", 3), RingSpec("str", 8)]


def _campaign(jobs, cache=None, seed=5):
    report = run_campaign(
        SPECS,
        voltages_v=(1.0, 1.2, 1.4),
        jitter_periods=192,
        seed=seed,
        jobs=jobs,
        cache=cache,
        segment_periods=64,  # force several segments per ring
    )
    return report.to_json()


class TestCampaignIdentity:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_matches_serial(self, jobs):
        assert _campaign(jobs) == _campaign(1)

    def test_cached_rerun_is_identical(self, tmp_path):
        cache = ResultCache(root=tmp_path, version="1")
        cold = _campaign(2, cache=cache)
        assert cache.stats().entry_count > 0
        warm = _campaign(1, cache=cache)
        assert warm == cold
        assert cache.hits > 0

    def test_different_seeds_differ(self):
        assert _campaign(1, seed=5) != _campaign(1, seed=6)


class TestSweepIdentity:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda b: InverterRingOscillator.on_board(b, 5),
            lambda b: SelfTimedRing.on_board(b, 8),
        ],
        ids=["iro5", "str8"],
    )
    def test_measured_sweep_parallel_matches_serial(self, board, builder):
        kwargs = dict(
            voltages_v=(1.0, 1.2, 1.4), measure=True, period_count=48, seed=3
        )
        serial = sweep_voltage(board, builder, jobs=1, **kwargs)
        parallel = sweep_voltage(board, builder, jobs=2, **kwargs)
        assert list(parallel.frequencies_mhz) == list(serial.frequencies_mhz)


class TestExt10Identity:
    def test_parallel_matches_serial(self):
        serial = run_ext10(jobs=1)
        parallel = run_ext10(jobs=2)
        assert parallel.rows == serial.rows
        assert parallel.checks == serial.checks
