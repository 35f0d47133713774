"""Micro-benchmarks of the pipeline stages themselves.

These are not paper figures; they track the library's own performance:
suite construction, vectorization, lowering, timing analysis, the
functional executors, fitting, and full dataset builds.
"""

import pytest

from repro.codegen import lower_scalar, lower_vector
from repro.costmodel import RatedSpeedupModel, SpeedupModel
from repro.fitting import LeastSquares, LinearSVR, NonNegativeLeastSquares
from repro.sim import analyze_stream, make_buffers, measure_kernel, run_scalar, run_vector
from repro.targets import ARMV8_NEON
from repro.tsvc import Dims, all_kernels, get_kernel
from repro.validation import loocv_predictions
from repro.vectorize import vectorize_loop

SMALL = Dims(n=240, n2=16)


def test_bench_construct_suite(benchmark):
    """Construct + verify all 151 TSVC kernels (fresh dims defeat the cache)."""
    counter = [0]

    def build_suite():
        counter[0] += 8
        dims = Dims(n=960 + counter[0], n2=16)
        return sum(1 for _ in all_kernels(dims))

    n = benchmark(build_suite)
    assert n == 151


def test_bench_vectorize_suite(benchmark):
    kernels = list(all_kernels())

    def sweep():
        return sum(
            1
            for k in kernels
            if not hasattr(vectorize_loop(k, ARMV8_NEON), "reason")
        )

    ok = benchmark(sweep)
    assert ok > 75


def test_bench_lower_and_time(benchmark):
    kern = get_kernel("vbor")
    plan = vectorize_loop(kern, ARMV8_NEON)

    def lower():
        s = lower_scalar(kern, ARMV8_NEON)
        v = lower_vector(plan, ARMV8_NEON)
        return analyze_stream(s, ARMV8_NEON).total, analyze_stream(v, ARMV8_NEON).total

    sc, vc = benchmark(lower)
    assert sc > vc > 0


def test_bench_measure_kernel(benchmark):
    kern = get_kernel("s273")  # guarded: includes prob estimation

    def measure():
        return measure_kernel(kern, ARMV8_NEON).speedup

    speedup = benchmark(measure)
    assert speedup > 1.0


def test_bench_scalar_executor(benchmark):
    kern = get_kernel("s000", SMALL)

    def run():
        bufs = make_buffers(kern, seed=0)
        run_scalar(kern, bufs)
        return bufs["a"][0]

    benchmark(run)


def test_bench_vector_executor(benchmark):
    kern = get_kernel("s000", SMALL)
    plan = vectorize_loop(kern, ARMV8_NEON)

    def run():
        bufs = make_buffers(kern, seed=0)
        run_vector(plan, bufs)
        return bufs["a"][0]

    benchmark(run)


@pytest.mark.parametrize(
    "reg_cls", [LeastSquares, NonNegativeLeastSquares, LinearSVR]
)
def test_bench_fitting(benchmark, arm_dataset, reg_cls):
    samples = arm_dataset.samples

    def fit():
        return SpeedupModel(reg_cls()).fit(samples).weights.sum()

    benchmark(fit)


def test_bench_loocv(benchmark, arm_dataset):
    samples = arm_dataset.samples

    def loocv():
        return loocv_predictions(
            lambda: RatedSpeedupModel(NonNegativeLeastSquares()), samples
        )

    preds = benchmark(loocv)
    assert len(preds) == len(samples)


def test_bench_loocv_l2_fast_path(benchmark, arm_dataset):
    """Hat-matrix LOOCV: one factorization instead of N refits."""
    samples = arm_dataset.samples

    def loocv():
        return loocv_predictions(
            lambda: RatedSpeedupModel(LeastSquares()), samples
        )

    preds = benchmark(loocv)
    assert len(preds) == len(samples)


def test_bench_fingerprint(benchmark):
    from repro.pipeline import measurement_fingerprint

    kern = get_kernel("s273")

    def fingerprint():
        return measurement_fingerprint(kern, "armv8-neon", "llv", 0.02, 0)

    fp = benchmark(fingerprint)
    assert len(fp) == 64


def test_bench_cache_roundtrip(benchmark, arm_dataset, tmp_path_factory):
    from repro.pipeline import MeasurementCache, measurement_fingerprint

    cache = MeasurementCache(root=tmp_path_factory.mktemp("micro-cache"))
    kern = get_kernel("s000")
    fp = measurement_fingerprint(kern, "armv8-neon", "llv", 0.02, 0)
    payload = (arm_dataset.samples[0], None)

    def roundtrip():
        cache.put(fp, payload)
        return cache.get(fp)

    sample, reason = benchmark(roundtrip)
    assert reason is None and sample.name == "s000"
