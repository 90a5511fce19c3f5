"""Grid executor: serial reference, pool fan-out, cache, fallback."""

import numpy as np
import pytest

from repro.parallel import GridTask, ResultCache, resolve_jobs, run_grid


def _square_worker(task):
    """Module-level (hence picklable) worker: seed squared plus an offset."""
    return task.seed * task.seed + task.payload


def _rng_worker(task):
    """Worker that actually draws from the task's seeded generator."""
    rng = np.random.default_rng(task.seed)
    return float(rng.standard_normal(task.payload).sum())


def _tasks(count, payload=0):
    return [
        GridTask(kind="unit", spec={"i": i}, seed=i, payload=payload)
        for i in range(count)
    ]


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_none_and_zero_mean_all_cores(self):
        import os

        usable = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        assert resolve_jobs(None) == usable
        assert resolve_jobs(0) == usable

    def test_none_respects_the_affinity_set(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_jobs(None) == 3
        assert resolve_jobs(0) == 3

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        import os

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_jobs(None) == 6

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestRunGrid:
    def test_serial_results_in_task_order(self):
        results = run_grid(_tasks(6, payload=1), _square_worker, jobs=1)
        assert results == [i * i + 1 for i in range(6)]

    def test_empty_grid(self):
        assert run_grid([], _square_worker, jobs=4) == []

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_matches_serial(self, jobs):
        tasks = _tasks(9, payload=256)
        serial = run_grid(tasks, _rng_worker, jobs=1)
        parallel = run_grid(tasks, _rng_worker, jobs=jobs)
        assert parallel == serial  # bit-identical floats

    def test_unpicklable_worker_falls_back_to_serial(self):
        offset = 7
        results = run_grid(
            _tasks(4), lambda task: task.seed + offset, jobs=4
        )
        assert results == [7, 8, 9, 10]

    def test_chunk_size_override(self):
        results = run_grid(_tasks(10), _square_worker, jobs=2, chunk_size=3)
        assert results == [i * i for i in range(10)]

    def test_bad_chunk_size_raises(self):
        with pytest.raises(ValueError):
            run_grid(_tasks(4), _square_worker, jobs=2, chunk_size=0)

    def test_progress_reaches_total(self):
        calls = []
        run_grid(_tasks(5), _square_worker, jobs=1, progress=lambda d, t: calls.append((d, t)))
        assert calls[-1] == (5, 5)
        assert all(t == 5 for _, t in calls)
        assert [d for d, _ in calls] == sorted(d for d, _ in calls)


class TestExecutorCache:
    def test_results_are_written_back(self, tmp_path):
        cache = ResultCache(root=tmp_path, version="1")
        run_grid(_tasks(4), _square_worker, jobs=1, cache=cache)
        assert cache.stats().entry_count == 4

    def test_warm_run_skips_worker(self, tmp_path):
        cache = ResultCache(root=tmp_path, version="1")
        tasks = _tasks(4, payload=3)
        cold = run_grid(tasks, _square_worker, jobs=1, cache=cache)
        warm = run_grid(tasks, _square_worker, jobs=1, cache=cache)
        assert warm == cold
        assert cache.hits == 4

    def test_hits_reported_up_front_in_progress(self, tmp_path):
        cache = ResultCache(root=tmp_path, version="1")
        tasks = _tasks(4)
        run_grid(tasks[:2], _square_worker, jobs=1, cache=cache)
        calls = []
        run_grid(tasks, _square_worker, jobs=1, cache=cache,
                 progress=lambda d, t: calls.append((d, t)))
        assert calls[0] == (2, 4)
        assert calls[-1] == (4, 4)

    def test_partial_cache_only_computes_misses(self, tmp_path):
        cache = ResultCache(root=tmp_path, version="1")
        tasks = _tasks(6)
        run_grid(tasks[:3], _square_worker, jobs=1, cache=cache)
        poisoned = dict(
            zip([t.seed for t in tasks[:3]], ["a", "b", "c"])
        )
        for task in tasks[:3]:
            cache.put(task.kind, task.spec, task.seed, poisoned[task.seed])
        results = run_grid(tasks, _square_worker, jobs=1, cache=cache)
        # cached entries win verbatim; only the other three were computed
        assert results == ["a", "b", "c", 9, 16, 25]

    def test_parallel_run_populates_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path, version="1")
        tasks = _tasks(8, payload=64)
        parallel = run_grid(tasks, _rng_worker, jobs=2, cache=cache)
        assert cache.stats().entry_count == 8
        warm = run_grid(tasks, _rng_worker, jobs=1, cache=cache)
        assert warm == parallel
