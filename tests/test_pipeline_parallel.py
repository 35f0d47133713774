"""Parallel dataset construction (repro.pipeline.build)."""

import numpy as np
import pytest

from repro.experiments import DatasetSpec
from repro.pipeline import MeasurementCache, measure_suite, resolve_workers

SPEC = DatasetSpec("armv8-neon", "llv")


def no_cache(tmp_path):
    return MeasurementCache(root=tmp_path, enabled=False)


def assert_samples_identical(left, right):
    assert [s.name for s in left] == [s.name for s in right]
    for a, b in zip(left, right):
        assert a.vf == b.vf
        assert a.category == b.category
        assert a.target == b.target
        assert a.vector_bound == b.vector_bound
        # Bit-identity, not approximate equality: the per-kernel RNG
        # seeding makes measurement order irrelevant.
        assert a.measured_speedup == b.measured_speedup
        assert a.measured_scalar_cpi == b.measured_scalar_cpi
        assert a.measured_vector_cpi == b.measured_vector_cpi
        assert np.array_equal(a.scalar_features, b.scalar_features)
        assert np.array_equal(a.vector_features, b.vector_features)
        assert np.array_equal(a.lowered_features, b.lowered_features)


def test_parallel_equals_serial_bit_identical(tmp_path):
    """The suite-wide determinism property behind the whole pipeline."""
    serial, serial_fail = measure_suite(SPEC, workers=1, cache=no_cache(tmp_path))
    parallel, parallel_fail = measure_suite(SPEC, workers=2, cache=no_cache(tmp_path))
    assert serial_fail == parallel_fail
    assert_samples_identical(serial, parallel)


def test_cached_build_equals_fresh_build(tmp_path):
    cache = MeasurementCache(root=tmp_path)
    fresh, fresh_fail = measure_suite(SPEC, workers=1, cache=cache)
    cached, cached_fail = measure_suite(SPEC, workers=1, cache=cache)
    assert fresh_fail == cached_fail
    assert_samples_identical(fresh, cached)


def test_results_ordered_by_suite_registration(tmp_path):
    from repro.tsvc import kernel_names

    samples, failures = measure_suite(SPEC, workers=2, cache=no_cache(tmp_path))
    order = {name: i for i, name in enumerate(kernel_names())}
    sample_pos = [order[s.name] for s in samples]
    failure_pos = [order[n] for n, _ in failures]
    assert sample_pos == sorted(sample_pos)
    assert failure_pos == sorted(failure_pos)
    assert len(samples) + len(failures) == len(order)


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers(4) == 4
    assert resolve_workers(0) == 1  # floor at serial
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert resolve_workers() == 3
    assert resolve_workers(2) == 2  # explicit beats env


@pytest.mark.parametrize("bad", ["not-a-number", "0", "-2", "2.5"])
def test_resolve_workers_invalid_env_raises(monkeypatch, bad):
    monkeypatch.setenv("REPRO_WORKERS", bad)
    with pytest.raises(ValueError, match="REPRO_WORKERS"):
        resolve_workers()
    # An explicit count never consults the env var.
    assert resolve_workers(2) == 2


@pytest.mark.parametrize("bad", ["three", "0", "-1", "2.5"])
def test_invalid_max_attempts_env_names_the_variable(tmp_path, monkeypatch, bad):
    monkeypatch.setenv("REPRO_MAX_ATTEMPTS", bad)
    with pytest.raises(ValueError, match="REPRO_MAX_ATTEMPTS"):
        measure_suite(SPEC, cache=no_cache(tmp_path), kernels=[])


def test_resolve_max_attempts_env(monkeypatch):
    from repro.pipeline.build import resolve_max_attempts

    monkeypatch.delenv("REPRO_MAX_ATTEMPTS", raising=False)
    assert resolve_max_attempts() == 3
    monkeypatch.setenv("REPRO_MAX_ATTEMPTS", "5")
    assert resolve_max_attempts() == 5
    monkeypatch.setenv("REPRO_MAX_ATTEMPTS", "three")
    assert resolve_max_attempts(2) == 2  # explicit never reads the env


def test_workers_capped_at_pending_kernels(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers(16, pending=3) == 3
    assert resolve_workers(2, pending=100) == 2
    assert resolve_workers(16, pending=0) == 1


def test_spec_workers_flow_through(tmp_path):
    spec = DatasetSpec("armv8-neon", "llv", workers=2)
    samples, _ = measure_suite(spec, cache=no_cache(tmp_path))
    baseline, _ = measure_suite(SPEC, workers=1, cache=no_cache(tmp_path))
    assert_samples_identical(samples, baseline)


def test_unknown_target_raises_before_any_work(tmp_path):
    with pytest.raises(KeyError):
        measure_suite(
            DatasetSpec("not-a-target", "llv"), cache=no_cache(tmp_path)
        )
