"""Pipeline perf smoke: times the measurement pipeline end to end and
emits a ``BENCH_pipeline.json`` artifact for cross-PR trajectory
tracking.

    PYTHONPATH=src python benchmarks/smoke_pipeline.py [--out PATH]
        [--workers N] [--repeat K] [--pytest-bench]

Measured (best of ``--repeat`` runs, full ARM+x86 suite sweep):

* ``cold_serial_s``    — uncached build, one process;
* ``cold_parallel_s``  — uncached build, ``--workers`` processes;
* ``warm_cache_s``     — rebuild served from the persistent cache;
* ``resilience``       — supervised pool vs the raw executor on the
  warm (fully cached) path — the supervision layer must cost <5%
  there — plus the cold serial comparison for reference;
* ``executor_compile`` — full-suite ``run_scalar`` sweep through the
  tree-walking interpreter vs the kernel compiler (cold: includes every
  build + self-check; warm: cached closures).  The cold compiled sweep
  must beat the interpreter by ≥5×;
* ``loocv_refit_s`` / ``loocv_fast_s`` — L2 LOOCV, refit loop vs
  hat-matrix fast path, on the ARM dataset;
* ``loocv_nnls``       — NNLS LOOCV, cold Lawson–Hanson refit loop vs
  the active-set warm-start path, on the ARM dataset.

``--pytest-bench`` additionally runs the two pytest-benchmark files
(``bench_pipeline_micro.py``, ``bench_dataset_build.py``) and embeds
their stats under ``pytest_benchmarks``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.costmodel import RatedSpeedupModel, SpeedupModel  # noqa: E402
from repro.experiments import ARM_LLV, X86_SLP, build_dataset  # noqa: E402
from repro.fitting import LeastSquares, NonNegativeLeastSquares  # noqa: E402
from repro.pipeline import (  # noqa: E402
    DatasetBuildStats,
    MeasurementCache,
    measure_suite,
)
from repro.sim import (  # noqa: E402
    clear_compile_cache,
    compile_summary,
    make_buffers,
    run_scalar_compiled,
    run_scalar_interpreted,
)
from repro.tsvc import all_kernels  # noqa: E402
from repro.validation import loocv_predictions  # noqa: E402

BOTH_SPECS = (ARM_LLV, X86_SLP)

#: Inner-trip truncation for the executor sweep — the hot-path shape
#: (guard-probability estimation runs the same truncated trips).
SWEEP_ITERS = 512


def best_of(repeat: int, fn) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def sweep_both(
    workers: int,
    cache: MeasurementCache,
    supervise: bool = True,
    stats: DatasetBuildStats | None = None,
) -> int:
    total = 0
    for spec in BOTH_SPECS:
        samples, failures = measure_suite(
            spec,
            workers=workers,
            cache=cache,
            supervise=supervise,
            stats=stats,
        )
        total += len(samples) + len(failures)
    return total


def executor_sweep(runner) -> None:
    """One full-suite scalar execution through ``runner``."""
    for kernel in all_kernels():
        bufs = make_buffers(kernel, seed=0)
        runner(kernel, bufs, None, SWEEP_ITERS)


def executor_compile_bench(repeat: int) -> tuple[dict, bool]:
    """Interpreter vs kernel-compiler sweep."""
    interp_s = best_of(repeat, lambda: executor_sweep(run_scalar_interpreted))
    clear_compile_cache()
    t0 = time.perf_counter()
    executor_sweep(run_scalar_compiled)  # pays every build + self-check
    compile_cold_s = time.perf_counter() - t0
    compile_warm_s = best_of(repeat, lambda: executor_sweep(run_scalar_compiled))
    csum = compile_summary()
    section = {
        "sweep_iters": SWEEP_ITERS,
        "interpreted_s": round(interp_s, 4),
        "compiled_cold_s": round(compile_cold_s, 4),
        "compiled_warm_s": round(compile_warm_s, 4),
        "cold_speedup": round(interp_s / compile_cold_s, 2),
        "warm_speedup": round(interp_s / compile_warm_s, 2),
        "kernels_vector": csum["kernels_vector"],
        "kernels_scalar": csum["kernels_scalar"],
        "kernels_demoted": csum["kernels_demoted"],
        "kernels_refused": csum["kernels_refused"],
    }
    # The kernel compiler must beat the interpreter ≥5× even when it
    # pays every build and self-check (cold), with nothing refused.
    ok = section["cold_speedup"] >= 5.0 and section["kernels_refused"] == 0
    return section, ok


def run_pytest_benchmarks() -> dict:
    """Run the two bench files and return pytest-benchmark's stats."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "pytest_bench.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{REPO_ROOT / 'src'}:{env.get('PYTHONPATH', '')}"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                "benchmarks/bench_pipeline_micro.py",
                "benchmarks/bench_dataset_build.py",
                "--benchmark-only",
                f"--benchmark-json={out}",
                "-q",
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0 or not out.exists():
            return {"error": (proc.stdout + proc.stderr)[-2000:]}
        data = json.loads(out.read_text())
    return {
        b["name"]: {
            "mean_s": b["stats"]["mean"],
            "min_s": b["stats"]["min"],
            "rounds": b["stats"]["rounds"],
        }
        for b in data.get("benchmarks", [])
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_pipeline.json"))
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--pytest-bench",
        action="store_true",
        help="also run the pytest-benchmark files (slower)",
    )
    args = parser.parse_args(argv)

    # Executor sweep: interpreter vs the kernel compiler.
    compile_section, compile_ok = executor_compile_bench(args.repeat)

    with tempfile.TemporaryDirectory() as tmp:
        off = MeasurementCache(root=Path(tmp) / "off", enabled=False)
        build_stats = DatasetBuildStats()
        cold_serial = best_of(
            args.repeat, lambda: sweep_both(1, off, stats=build_stats)
        )
        parallel_stats = DatasetBuildStats()
        cold_parallel = best_of(
            args.repeat,
            lambda: sweep_both(args.workers, off, stats=parallel_stats),
        )

        warm = MeasurementCache(root=Path(tmp) / "warm")
        sweep_both(1, warm)  # prime (also pays the one-time prepass)
        warm_cache = best_of(args.repeat, lambda: sweep_both(1, warm))

        # Supervision layer pricing: the fault-tolerant supervisor vs
        # the raw executor, on the warm (all-cached) hot path and on a
        # cold serial build for reference.
        warm_sup = best_of(
            args.repeat, lambda: sweep_both(1, warm, supervise=True)
        )
        warm_raw = best_of(
            args.repeat, lambda: sweep_both(1, warm, supervise=False)
        )
        cold_sup = best_of(
            args.repeat, lambda: sweep_both(1, off, supervise=True)
        )
        cold_raw = best_of(
            args.repeat, lambda: sweep_both(1, off, supervise=False)
        )

    samples = build_dataset(ARM_LLV).samples
    factory = lambda: RatedSpeedupModel(LeastSquares())  # noqa: E731
    loocv_predictions(factory, samples)  # numpy warmup
    fast_s = best_of(args.repeat, lambda: loocv_predictions(factory, samples))
    refit_s = best_of(
        args.repeat, lambda: loocv_predictions(factory, samples, fast=False)
    )
    agree = float(
        np.nanmax(
            np.abs(
                loocv_predictions(factory, samples)
                - loocv_predictions(factory, samples, fast=False)
            )
        )
    )

    # NNLS LOOCV: cold Lawson–Hanson refit loop vs the active-set
    # warm-start path.  Predictions may legitimately differ where the
    # rank-deficient optimum is non-unique; the fold *coverage* (which
    # folds produced a finite prediction) must be identical.
    nnls_factory = lambda: SpeedupModel(NonNegativeLeastSquares())  # noqa: E731
    nnls_warm = loocv_predictions(nnls_factory, samples)
    nnls_cold = loocv_predictions(nnls_factory, samples, fast=False)
    nnls_warm_s = best_of(
        args.repeat, lambda: loocv_predictions(nnls_factory, samples)
    )
    nnls_refit_s = best_of(
        args.repeat,
        lambda: loocv_predictions(nnls_factory, samples, fast=False),
    )
    nnls_coverage_equal = bool(
        np.array_equal(np.isfinite(nnls_warm), np.isfinite(nnls_cold))
    )

    report = {
        "schema": 1,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "config": {"workers": args.workers, "repeat": args.repeat},
        "dataset_build": {
            "cold_serial_s": round(cold_serial, 4),
            "cold_parallel_s": round(cold_parallel, 4),
            "warm_cache_s": round(warm_cache, 4),
            "parallel_speedup": round(cold_serial / cold_parallel, 2),
            "warm_speedup": round(cold_serial / warm_cache, 2),
            # How the cost-aware scheduler ran the parallel sweep — a
            # deliberate serial fallback (1-CPU host, work below pool
            # overhead) is recorded, not hidden in a <1 "speedup".
            "parallel_strategy": parallel_stats.strategy,
            "parallel_reason": parallel_stats.reason,
            "estimated_work": round(parallel_stats.estimated_work, 1),
        },
        "executor_compile": compile_section,
        "resilience": {
            "warm_supervised_s": round(warm_sup, 4),
            "warm_raw_s": round(warm_raw, 4),
            "warm_overhead_pct": round(
                100.0 * (warm_sup - warm_raw) / warm_raw, 2
            ),
            "cold_serial_supervised_s": round(cold_sup, 4),
            "cold_serial_raw_s": round(cold_raw, 4),
            "cold_overhead_pct": round(
                100.0 * (cold_sup - cold_raw) / cold_raw, 2
            ),
        },
        "loocv_l2": {
            "refit_loop_s": round(refit_s, 5),
            "fast_path_s": round(fast_s, 5),
            "fast_speedup": round(refit_s / fast_s, 2),
            "max_abs_difference": agree,
        },
        "loocv_nnls": {
            "refit_loop_s": round(nnls_refit_s, 5),
            "warm_start_s": round(nnls_warm_s, 5),
            "warm_speedup": round(nnls_refit_s / nnls_warm_s, 2),
            "coverage_identical": nnls_coverage_equal,
        },
    }
    if args.pytest_bench:
        report["pytest_benchmarks"] = run_pytest_benchmarks()

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {out}")

    ok = report["loocv_l2"]["max_abs_difference"] < 1e-8
    warm_ok = report["dataset_build"]["warm_speedup"] >= 1.0
    # The supervised pool's bookkeeping (retry queue, journal hooks,
    # deadline checks) must stay off the warm path: <5% over the raw
    # executor, with the same timer-noise floor.
    resilience_ok = (warm_sup - warm_raw) < max(0.05 * warm_raw, 0.002)
    # The parallel sweep is either a genuine win or a deliberate,
    # recorded serial fallback — never a silent slowdown.
    parallel_ok = (
        report["dataset_build"]["parallel_speedup"] >= 1.0
        or report["dataset_build"]["parallel_strategy"] == "serial"
    )
    # The matrix-cached refit loop narrowed the gap (both paths are
    # single-digit milliseconds now), so the warm path must win up to
    # a 2 ms timer-noise floor rather than by a strict ratio.
    nnls_ok = report["loocv_nnls"]["coverage_identical"] and (
        nnls_warm_s < nnls_refit_s + 0.002
    )
    if not (
        ok
        and warm_ok
        and resilience_ok
        and parallel_ok
        and compile_ok
        and nnls_ok
    ):
        print(
            "SMOKE FAILURE: fast LOOCV disagrees, warm build regressed, "
            "the supervised pool costs >5% over the raw executor, the "
            "parallel sweep silently lost to serial, the kernel "
            "compiler missed its 5x cold-sweep bar, or warm-start NNLS "
            "LOOCV regressed"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
