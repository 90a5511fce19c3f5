"""Content-addressed result cache (repro.parallel.cache)."""

import dataclasses
import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.parallel import MISSING, ResultCache, canonical, default_cache, fingerprint
from repro.parallel.cache import ENV_CACHE_DIR


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=tmp_path / "cache", version="1.0.0")


SPEC = {"ring": "iro-5", "voltage_v": 1.2, "period_count": 64}


class TestRoundTrip:
    def test_miss_returns_sentinel(self, cache):
        assert cache.get("sweep_point", SPEC, 1) is MISSING

    def test_put_then_get(self, cache):
        cache.put("sweep_point", SPEC, 1, {"frequency_mhz": 376.5})
        assert cache.get("sweep_point", SPEC, 1) == {"frequency_mhz": 376.5}

    def test_cached_none_is_not_a_miss(self, cache):
        cache.put("sweep_point", SPEC, 1, None)
        assert cache.get("sweep_point", SPEC, 1) is None

    def test_float_round_trip_is_exact(self, cache):
        values = [0.1 + 0.2, 1e-300, np.nextafter(1.0, 2.0), 376.123456789012345]
        cache.put("sweep_point", SPEC, 2, values)
        assert cache.get("sweep_point", SPEC, 2) == values

    def test_hit_and_miss_counters(self, cache):
        cache.get("sweep_point", SPEC, 1)
        cache.put("sweep_point", SPEC, 1, 0)
        cache.get("sweep_point", SPEC, 1)
        assert (cache.hits, cache.misses) == (1, 1)


class TestInvalidation:
    def test_version_bump_misses(self, tmp_path):
        old = ResultCache(root=tmp_path, version="1.0.0")
        old.put("sweep_point", SPEC, 1, 42)
        new = ResultCache(root=tmp_path, version="1.1.0")
        assert new.get("sweep_point", SPEC, 1) is MISSING
        assert old.get("sweep_point", SPEC, 1) == 42

    def test_event_engine_era_entries_miss(self, tmp_path):
        # 1.0.0 results came from the per-event engine; the batch kernel's
        # noisy-STR numbers differ, so those entries must never be served.
        import repro

        assert repro.__version__ != "1.0.0"
        ResultCache(root=tmp_path, version="1.0.0").put(
            "campaign_jitter_segment", SPEC, 1, [1.0, 2.0]
        )
        current = ResultCache(root=tmp_path)
        assert current.version == repro.__version__
        assert current.get("campaign_jitter_segment", SPEC, 1) is MISSING

    def test_spec_change_misses(self, cache):
        cache.put("sweep_point", SPEC, 1, 42)
        changed = dict(SPEC, voltage_v=1.4)
        assert cache.get("sweep_point", changed, 1) is MISSING

    def test_seed_change_misses(self, cache):
        cache.put("sweep_point", SPEC, 1, 42)
        assert cache.get("sweep_point", SPEC, 2) is MISSING

    def test_kind_change_misses(self, cache):
        cache.put("sweep_point", SPEC, 1, 42)
        assert cache.get("dispersion_point", SPEC, 1) is MISSING

    def test_corrupt_entry_is_a_miss(self, cache):
        cache.put("sweep_point", SPEC, 1, 42)
        path = cache._path(cache.key_for("sweep_point", SPEC, 1))
        path.write_text("{ truncated", encoding="utf-8")
        assert cache.get("sweep_point", SPEC, 1) is MISSING


class TestKeying:
    def test_key_is_order_insensitive(self, cache):
        a = cache.key_for("k", {"x": 1, "y": 2}, 0)
        b = cache.key_for("k", {"y": 2, "x": 1}, 0)
        assert a == b

    def test_key_is_sharded_path(self, cache):
        key = cache.key_for("k", SPEC, 0)
        path = cache._path(key)
        assert path.parent.name == key[:2]
        assert path.suffix == ".json"

    def test_canonical_handles_numpy(self):
        value = canonical({"a": np.float64(1.5), "b": np.arange(3)})
        assert json.dumps(value)
        assert value == {"a": 1.5, "b": [0, 1, 2]}

    def test_canonical_tags_dataclasses(self):
        @dataclasses.dataclass
        class Point:
            x: int

        value = canonical(Point(3))
        assert value["__dataclass__"] == "TestKeying.test_canonical_tags_dataclasses.<locals>.Point"
        assert value["x"] == 3

    def test_canonical_falls_back_to_fingerprint(self):
        value = canonical(object())
        assert set(value) == {"__fingerprint__"}

    def test_fingerprint_distinguishes_content(self):
        assert fingerprint((1, 2, 3)) != fingerprint((1, 2, 4))
        assert fingerprint((1, 2, 3)) == fingerprint((1, 2, 3))


class TestKeyStability:
    """Regression: key hashing must be invariant to representation.

    A spec is *content*; how the caller spelled that content — dict
    insertion order, numpy scalar vs python number, array vs list —
    must not change the key, or caches go cold (or worse, collide)
    across refactors.
    """

    def test_nested_dict_ordering_is_invariant(self, cache):
        a = {"outer": {"x": 1, "y": {"p": 2.0, "q": 3}}, "z": 4}
        b = {"z": 4, "outer": {"y": {"q": 3, "p": 2.0}, "x": 1}}
        assert cache.key_for("k", a, 0) == cache.key_for("k", b, 0)

    def test_numpy_float_equals_python_float(self, cache):
        a = {"voltage_v": np.float64(1.2), "margin": np.float32(0.5)}
        b = {"voltage_v": 1.2, "margin": 0.5}
        assert cache.key_for("k", a, 0) == cache.key_for("k", b, 0)

    def test_numpy_int_equals_python_int(self, cache):
        assert cache.key_for("k", {"n": np.int64(96)}, 0) == cache.key_for(
            "k", {"n": 96}, 0
        )

    def test_numpy_bool_equals_python_bool(self, cache):
        assert cache.key_for("k", {"flag": np.bool_(True)}, 0) == cache.key_for(
            "k", {"flag": True}, 0
        )

    def test_array_equals_list_equals_tuple(self, cache):
        reference = cache.key_for("k", {"lengths": [3, 9, 25]}, 0)
        assert cache.key_for("k", {"lengths": (3, 9, 25)}, 0) == reference
        assert cache.key_for("k", {"lengths": np.array([3, 9, 25])}, 0) == reference

    def test_numpy_seed_equals_python_seed(self, cache):
        # SeedSequence.generate_state yields numpy uint32/uint64 — those
        # seeds must address the same entry as their int() values.
        assert cache.key_for("k", SPEC, np.uint32(7)) == cache.key_for("k", SPEC, 7)
        assert cache.key_for("k", SPEC, np.int64(7)) == cache.key_for("k", SPEC, 7)

    def test_numpy_seed_round_trips_through_the_cache(self, cache):
        cache.put("k", SPEC, np.int64(11), {"value": 1})
        assert cache.get("k", SPEC, 11) == {"value": 1}

    def test_distinct_content_still_distinct(self, cache):
        # The invariance above must never collapse genuinely different specs.
        assert cache.key_for("k", {"n": 96}, 0) != cache.key_for("k", {"n": 95}, 0)
        assert cache.key_for("k", {"n": 96.0}, 0) != cache.key_for("k", {"n": "96"}, 0)


class TestMaintenance:
    def test_stats_counts_entries(self, cache):
        for seed in range(5):
            cache.put("k", SPEC, seed, seed)
        stats = cache.stats()
        assert stats.entry_count == 5
        assert stats.total_bytes > 0
        assert "entries:        5" in stats.render()

    def test_clear_removes_everything(self, cache):
        for seed in range(5):
            cache.put("k", SPEC, seed, seed)
        assert cache.clear() == 5
        assert cache.stats().entry_count == 0
        assert cache.get("k", SPEC, 0) is MISSING

    def test_stats_on_empty_root(self, tmp_path):
        cache = ResultCache(root=tmp_path / "never_created")
        assert cache.stats().entry_count == 0
        assert cache.clear() == 0

    def test_default_cache_honors_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "from_env"))
        assert default_cache().root == tmp_path / "from_env"


def _hammer_same_key(root, barrier, rounds):
    """Worker: all processes write the *same* key, same content."""
    cache = ResultCache(root=root, version="1.0.0")
    barrier.wait()
    for _ in range(rounds):
        cache.put("sweep_point", SPEC, 1, {"frequency_mhz": 376.5})


def _hammer_own_keys(root, barrier, worker_id, per_worker):
    """Worker: each process writes its own seed range."""
    cache = ResultCache(root=root, version="1.0.0")
    barrier.wait()
    for i in range(per_worker):
        seed = worker_id * per_worker + i
        cache.put("sweep_point", SPEC, seed, {"worker": worker_id, "seed": seed})


class TestConcurrency:
    """`.repro_cache` shared by concurrent multi-process writers."""

    WORKERS = 4

    def _spawn(self, target, args_for):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(self.WORKERS)
        processes = [
            ctx.Process(target=target, args=args_for(barrier, worker_id))
            for worker_id in range(self.WORKERS)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
        assert all(process.exitcode == 0 for process in processes)

    def test_concurrent_writers_same_key(self, tmp_path):
        root = tmp_path / "cache"
        self._spawn(
            _hammer_same_key, lambda barrier, _: (root, barrier, 25)
        )
        cache = ResultCache(root=root, version="1.0.0")
        assert cache.get("sweep_point", SPEC, 1) == {"frequency_mhz": 376.5}
        assert cache.stats().entry_count == 1
        # No orphaned temporaries survived the stampede.
        assert not list(root.rglob("*.tmp"))

    def test_concurrent_writers_distinct_keys(self, tmp_path):
        root = tmp_path / "cache"
        per_worker = 16
        self._spawn(
            _hammer_own_keys,
            lambda barrier, worker_id: (root, barrier, worker_id, per_worker),
        )
        cache = ResultCache(root=root, version="1.0.0")
        total = self.WORKERS * per_worker
        assert cache.stats().entry_count == total
        for seed in range(total):
            result = cache.get("sweep_point", SPEC, seed)
            assert result == {"worker": seed // per_worker, "seed": seed}
        assert not list(root.rglob("*.tmp"))

    def test_torn_entry_variants_all_count_as_miss(self, cache):
        cache.put("sweep_point", SPEC, 1, 42)
        path = cache._path(cache.key_for("sweep_point", SPEC, 1))
        for torn in (b"", b'{"kind": "sweep_po', b"\xde\xad\xbe\xef", b"[1, 2]"):
            path.write_bytes(torn)
            assert cache.get("sweep_point", SPEC, 1) is MISSING
        # A valid document missing its result field is torn too.
        path.write_text('{"kind": "sweep_point"}', encoding="utf-8")
        assert cache.get("sweep_point", SPEC, 1) is MISSING
        # And the slot is rewritable after any of that.
        cache.put("sweep_point", SPEC, 1, 43)
        assert cache.get("sweep_point", SPEC, 1) == 43

    def test_put_retries_after_losing_race_to_clear(self, cache, monkeypatch):
        """A clear() sweeping the shard between write and rename: the
        writer recreates the shard and lands the entry on its retry."""
        real_replace = os.replace
        calls = {"n": 0}

        def flaky_replace(src, dst):
            calls["n"] += 1
            if calls["n"] == 1:
                os.unlink(src)  # the concurrent clear() took our tmp too
                raise FileNotFoundError(src)
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", flaky_replace)
        cache.put("sweep_point", SPEC, 1, {"ok": True})
        assert calls["n"] == 2
        assert cache.get("sweep_point", SPEC, 1) == {"ok": True}

    def test_put_gives_up_cleanly_when_clear_keeps_winning(self, cache, monkeypatch):
        def always_gone(src, dst):
            raise FileNotFoundError(src)

        monkeypatch.setattr(os, "replace", always_gone)
        with pytest.raises(FileNotFoundError):
            cache.put("sweep_point", SPEC, 1, 42)
        # The failed writer left no temporary droppings behind.
        assert not list(cache.root.rglob("*.tmp"))

    def test_rename_over_pinned_destination_counts_as_written(
        self, cache, monkeypatch
    ):
        """Windows-style rename-over-open: same content is already
        published by the other writer, so put() succeeds quietly."""
        cache.put("sweep_point", SPEC, 1, 42)  # the "other writer"

        def pinned(src, dst):
            raise PermissionError(dst)

        monkeypatch.setattr(os, "replace", pinned)
        cache.put("sweep_point", SPEC, 1, 42)  # must not raise
        assert not list(cache.root.rglob("*.tmp"))
        monkeypatch.undo()
        assert cache.get("sweep_point", SPEC, 1) == 42

    def test_clear_sweeps_orphaned_tmp_files(self, cache):
        cache.put("sweep_point", SPEC, 1, 42)
        shard = cache._path(cache.key_for("sweep_point", SPEC, 1)).parent
        orphan = shard / ".deadbeef.crashed.tmp"
        orphan.write_text("partial", encoding="utf-8")
        assert cache.clear() == 1  # tmp files are not entries
        assert not orphan.exists()
        assert not shard.exists()  # emptied shards are removed too
