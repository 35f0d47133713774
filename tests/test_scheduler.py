"""Suite scheduler and engine-memo tests."""

import numpy as np
import pytest

from repro.costmodel import RatedSpeedupModel, SpeedupModel, clear_matrix_cache
from repro.dse import clear_dse_cache
from repro.experiments import (
    ARM_LLV,
    X86_SLP,
    build_dataset,
    clear_dataset_memo,
    clear_engine_cache,
    engine_cache_info,
    fit_cached,
    loocv_cached,
    run_suite,
)
from repro.experiments.scheduler import (
    SPEC_REQUIREMENTS,
    default_jobs,
    normalize_ids,
    required_specs,
)
from repro.experiments.registry import EXPERIMENTS, EXPLICIT_ONLY
from repro.fitting import LeastSquares, NonNegativeLeastSquares

#: A cheap cross-section: ARM drivers, an x86 driver, a shared-fit
#: driver (E2) — enough to exercise ordering, sharing, and parallelism
#: without paying for the full suite in every test.
FAST_IDS = ["E1", "E2", "E3", "E9"]


def _clear_memos():
    clear_dataset_memo()
    clear_matrix_cache()
    clear_engine_cache()
    clear_dse_cache()


@pytest.fixture(autouse=True)
def _fresh_engine():
    clear_engine_cache()
    yield
    clear_engine_cache()


class TestNormalizeIds:
    def test_all_is_registry_order(self):
        default = [e for e in EXPERIMENTS if e not in EXPLICIT_ONLY]
        assert normalize_ids(None) == default
        assert normalize_ids(["all"]) == default

    def test_explicit_only_runs_when_named(self):
        assert "E13" in EXPLICIT_ONLY
        assert "E13" not in normalize_ids(["all"])
        assert normalize_ids(["E13"]) == ["E13"]

    def test_dedupe_and_registry_order(self):
        assert normalize_ids(["e9", "E1", "E9", "e1"]) == ["E1", "E9"]

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            normalize_ids(["E42"])

    def test_every_registered_experiment_has_spec_requirements(self):
        assert set(SPEC_REQUIREMENTS) == set(EXPERIMENTS)

    def test_required_specs(self):
        assert required_specs(["E1", "E3"]) == [ARM_LLV]
        assert required_specs(["E9"]) == [X86_SLP]
        assert required_specs(["E1", "E12"]) == [ARM_LLV, X86_SLP]

    def test_default_jobs_bounded_by_tasks(self):
        assert default_jobs(1) == 1
        assert 1 <= default_jobs(12) <= 12


class TestRunSuite:
    def test_results_in_registry_order(self):
        run = run_suite(FAST_IDS, parallel=True)
        assert [r.id for r in run.results] == FAST_IDS

    def test_parallel_serial_tables_identical(self):
        par = run_suite(FAST_IDS, parallel=True, jobs=4)
        clear_engine_cache()
        ser = run_suite(FAST_IDS, parallel=False)
        assert par.tables_text() == ser.tables_text()

    def test_engine_tables_match_seed_path(self):
        """The shared memos must not change a paper experiment's table.

        The reference is the per-driver path: each experiment run
        alone, after every memo (dataset, matrix, engine, DSE) is
        cleared, so nothing it reads was computed for another driver.
        Both sides read datasets from the warm persistent cache, so
        the sweep-schedule notes agree too.
        """
        ids = normalize_ids(["all"])
        for spec in required_specs(ids):
            build_dataset(spec)
        _clear_memos()
        shared = run_suite(ids, parallel=True)
        alone = []
        for eid in ids:
            _clear_memos()
            alone.extend(run_suite([eid], parallel=False).tables_text())
        assert shared.tables_text() == alone

    def test_wall_times_recorded(self):
        run = run_suite(["E1", "E2"], parallel=False)
        assert set(run.wall_by_id) == {"E1", "E2"}
        assert all(w >= 0.0 for w in run.wall_by_id.values())
        assert run.total_s >= run.drivers_s
        assert run.mode == "serial" and run.jobs == 1

    def test_single_experiment_runs_serial(self):
        run = run_suite(["E1"], parallel=True)
        assert run.mode == "serial"


class TestEngineMemo:
    def test_fit_cached_shares_the_fitted_instance(self):
        samples = build_dataset(ARM_LLV).samples
        a = fit_cached(SpeedupModel(NonNegativeLeastSquares()), samples)
        b = fit_cached(SpeedupModel(NonNegativeLeastSquares()), samples)
        assert a is b
        info = engine_cache_info()
        assert info["hits"] >= 1

    def test_loocv_cached_returns_equal_copies(self):
        samples = build_dataset(ARM_LLV).samples[:30]

        def factory():
            return RatedSpeedupModel(LeastSquares())

        p1 = loocv_cached(factory, samples)
        p2 = loocv_cached(factory, samples)
        assert p1 is not p2  # callers own their vector
        np.testing.assert_array_equal(p1, p2)
        p1[0] = -1.0  # mutating a copy must not poison the memo
        np.testing.assert_array_equal(loocv_cached(factory, samples), p2)

    def test_memo_keys_on_dataset_content(self):
        samples = build_dataset(ARM_LLV).samples[:20]
        jittered = [s.with_speedup(s.measured_speedup * 1.01) for s in samples]

        def factory():
            return RatedSpeedupModel(LeastSquares())

        base = loocv_cached(factory, samples)
        other = loocv_cached(factory, jittered)
        assert not np.array_equal(base, other)
