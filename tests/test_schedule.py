"""Cost-aware sweep scheduling (repro.pipeline.build)."""

import numpy as np

from repro.experiments import DatasetSpec
from repro.pipeline import (
    DatasetBuildStats,
    MeasurementCache,
    choose_strategy,
    estimate_kernel_work,
    measure_suite,
)
from repro.pipeline.build import POOL_SPAWN_WORK
from repro.tsvc import get_kernel

SPEC = DatasetSpec("armv8-neon", "llv")


def cpu_count(monkeypatch, n):
    import repro.pipeline.build as build_mod

    monkeypatch.setattr(build_mod.os, "cpu_count", lambda: n)


class TestChooseStrategy:
    def test_single_worker_is_serial(self, monkeypatch):
        cpu_count(monkeypatch, 8)
        d = choose_strategy([1e9] * 100, workers=1)
        assert d.strategy == "serial" and d.workers == 1

    def test_single_task_is_serial(self, monkeypatch):
        cpu_count(monkeypatch, 8)
        d = choose_strategy([1e9], workers=8)
        assert d.strategy == "serial"

    def test_one_cpu_host_is_serial(self, monkeypatch):
        """The regression this satellite fixes: a pool on a 1-CPU host
        only adds spawn and pickle overhead."""
        cpu_count(monkeypatch, 1)
        d = choose_strategy([1e9] * 100, workers=4)
        assert d.strategy == "serial"
        assert d.reason == "cpu_count is 1"

    def test_small_work_stays_serial(self, monkeypatch):
        cpu_count(monkeypatch, 8)
        d = choose_strategy([10.0] * 100, workers=4)
        assert d.strategy == "serial"
        assert "below pool overhead" in d.reason

    def test_serial_reason_prints_the_savings_it_compares(self, monkeypatch):
        """The rule weighs savings, total·(1−1/workers), against the
        spawn overhead; the reason must print that number, not the
        total (541000 here, which exceeds the overhead)."""
        cpu_count(monkeypatch, 8)
        d = choose_strategy([54100.0] * 10, workers=2)
        assert d.strategy == "serial" and d.estimated_work == 541000.0
        assert "savings 270500" in d.reason
        assert "below pool overhead 500000" in d.reason

    def test_large_work_uses_pool(self, monkeypatch):
        cpu_count(monkeypatch, 8)
        work = [POOL_SPAWN_WORK] * 64
        d = choose_strategy(work, workers=4)
        assert d.strategy == "pool" and d.workers == 4
        assert 1 <= d.chunksize <= len(work) // d.workers
        assert d.estimated_work == sum(work)

    def test_faults_force_pool_despite_small_work(self, monkeypatch):
        """Injected faults must land in real worker processes."""
        cpu_count(monkeypatch, 1)
        d = choose_strategy([10.0] * 8, workers=4, faults_active=True)
        assert d.strategy == "pool"
        assert d.reason == "fault plan active"

    def test_timeout_forces_pool(self, monkeypatch):
        """Only a worker process can be killed mid-kernel."""
        cpu_count(monkeypatch, 1)
        d = choose_strategy([10.0] * 8, workers=2, timeout=5.0)
        assert d.strategy == "pool"
        assert d.reason == "per-kernel timeout set"

    def test_faults_respect_explicit_serial(self, monkeypatch):
        """An explicit workers=1 request is never overridden."""
        cpu_count(monkeypatch, 8)
        d = choose_strategy([10.0] * 8, workers=1, faults_active=True)
        assert d.strategy == "serial" and d.workers == 1

    def test_workers_capped_at_tasks(self, monkeypatch):
        cpu_count(monkeypatch, 16)
        d = choose_strategy([1e9] * 3, workers=16, timeout=1.0)
        assert d.workers <= 3


def test_estimate_guarded_costs_more():
    """Guard-probability estimation dominates a kernel's measurement
    cost; the estimate must reflect it."""
    plain = get_kernel("s000")
    guarded = get_kernel("s253")
    assert estimate_kernel_work(guarded) > estimate_kernel_work(plain)
    assert estimate_kernel_work(plain) > 0


class TestBuildStats:
    def test_sweep_records_decision(self, tmp_path):
        stats = DatasetBuildStats()
        cache = MeasurementCache(root=tmp_path, enabled=False)
        samples, failures = measure_suite(
            SPEC, workers=2, cache=cache, stats=stats
        )
        assert stats.total_kernels == len(samples) + len(failures)
        assert stats.cached == 0
        assert stats.measured == stats.total_kernels
        assert stats.strategy in ("serial", "pool")
        assert stats.reason
        assert stats.estimated_work > 0

    def test_fully_cached_sweep_is_none(self, tmp_path):
        cache = MeasurementCache(root=tmp_path)
        measure_suite(SPEC, workers=1, cache=cache)
        stats = DatasetBuildStats()
        measure_suite(SPEC, workers=1, cache=cache, stats=stats)
        assert stats.strategy == "none"
        assert stats.cached == stats.total_kernels
        assert stats.measured == 0

    def test_scheduling_does_not_change_results(self, tmp_path, monkeypatch):
        """The decision affects time, never values: forcing the pool via
        a fault-free timeout must stay bit-identical to serial."""
        cache = MeasurementCache(root=tmp_path, enabled=False)
        serial, sf = measure_suite(SPEC, workers=1, cache=cache)
        stats = DatasetBuildStats()
        pooled, pf = measure_suite(
            SPEC, workers=2, cache=cache, timeout=300.0, stats=stats
        )
        assert stats.strategy == "pool"
        assert sf == pf
        assert [s.name for s in serial] == [s.name for s in pooled]
        for a, b in zip(serial, pooled):
            assert a.measured_speedup == b.measured_speedup
            assert np.array_equal(a.vector_features, b.vector_features)
