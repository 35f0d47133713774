"""The workloads: what runs, in which cache state, and its metrics.

Each workload launches the program to completion as many times as fit
in the run's seconds and reports medians.  Every launch is a fresh
process with private cache roots.  The gated times are adjusted for the
host's speed during the launch (``common.HostSpeed``): each is divided
by the launch's slowdown, so it reads in seconds on the idle host.  The
raw walls and the slowdowns are in the result's details.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import checks
from common import (
    STATE_DIR,
    WORKERS,
    Dirs,
    Launch,
    count_files,
    nproc,
    paper_argv,
    repro_settings,
    run_program,
    warm_dir,
    warm_state,
)

#: Generator seeds of the corpus-cold workload; ``--seed`` picks one,
#: and each has its expected sample digest in ``expected/corpus.json``.
#: None of them is the corpus CLI's default training seed (0) or E13's
#: eval seed (1).
CORPUS_SEEDS = (11, 12, 13, 14, 15, 16, 17, 18)
CORPUS_SIZE = 1500
CORPUS_SHARDS = 8

#: Kernel cells of the paper command: 151 suite kernels x 2 specs.
PAPER_CELLS = 302

#: Suite kernels the advise-batch chaos gate fits on and requests.
ADVISE_BATCH_KERNELS = 64
#: Request passes of one advise-batch launch: clean, then with an
#: empty fault plan.
ADVISE_PASSES = 2

#: Set-up samples per batch run (full launches plus set-up probes).
SETUP_SAMPLES = 3


def serve_workers() -> int:
    return min(2, nproc())


def corpus_argv(gen_seed: int) -> list:
    return [
        "corpus", "--size", str(CORPUS_SIZE), "--seed", str(gen_seed),
        "--spec", "arm", "--shards", str(CORPUS_SHARDS),
        "--workers", str(WORKERS),
    ]


def hd(values: list, q: float) -> float:
    """Harrell-Davis estimate of quantile ``q``: a Beta-weighted mean of
    all order statistics.  On a few launches, or on latencies where a
    fixed request mix leaves gaps between heavy kernels and the rest,
    it varies far less from run to run than the one or two samples a
    plain quantile interpolates."""
    from scipy.special import betainc

    s = sorted(values)
    n = len(s)
    if n == 1:
        return s[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(s))


@dataclass
class Result:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}


# ---------------------------------------------------------------------------
# Batch workloads
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    hook: str
    argv: Callable[[int], list]
    prepare: Callable[[Dirs, Optional[str]], None]
    check: Callable[[Launch, Dirs, int, dict], list]
    #: Operations per launch: kernel cells, or advise requests.
    cells: int
    #: The warm state's directory, prepared on first use.
    warm: Optional[Callable[[], str]] = None
    checkpoint: bool = False
    #: The operations are requests, timed one by one in the launch;
    #: otherwise one launch is the operation.
    per_request: bool = False


def _copy_warm(dirs: Dirs, warm: str, parts) -> None:
    for part, key in parts:
        dst = dirs.env[key]
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(os.path.join(warm, part), dst)


def _prepare_warm(dirs, warm):
    _copy_warm(dirs, warm, [("cache", "REPRO_CACHE_DIR"), ("native", "REPRO_NATIVE_CACHE_DIR")])


def _prepare_edit(dirs, warm):
    _copy_warm(dirs, warm, [("native", "REPRO_NATIVE_CACHE_DIR")])


def _prepare_cold(dirs, warm):
    pass


def _cache(launch: Launch) -> dict:
    return launch.report["counters"]["cache"]


def _check_paper_warm(launch, dirs, gen_seed, before):
    c = _cache(launch)
    errors = checks.check_paper(launch.stdout)
    if c["misses"] or not c["hits"]:
        errors.append(f"paper-warm state: expected every cell a cache hit, got {c}")
    return errors


def _check_paper_edit(launch, dirs, gen_seed, before):
    c = _cache(launch)
    errors = checks.check_paper(launch.stdout)
    if c["hits"]:
        errors.append(f"paper-edit state: expected zero cache hits, got {c}")
    built = count_files(dirs.env["REPRO_NATIVE_CACHE_DIR"], ".so") - before["so"]
    if built:
        errors.append(f"paper-edit state: expected zero .so builds, got {built}")
    return errors


def _check_corpus(launch, dirs, gen_seed, before):
    c = _cache(launch)
    errors = checks.check_corpus(launch.report["corpus"] or {}, gen_seed)
    if c["hits"]:
        errors.append(f"corpus-cold state: expected zero cache hits, got {c}")
    return errors


def _check_advise_batch(launch, dirs, gen_seed, before):
    errors = checks.check_verdicts(launch.report["passes"], ADVISE_PASSES)
    want = f"serve-chaos gate PASSED: {ADVISE_BATCH_KERNELS} requests"
    if want not in launch.stdout:
        errors.append(f"advise-batch: expected {want!r}\n{launch.stdout[-2000:]}")
    return errors


def advise_batch_argv(seed: int) -> list:
    return [
        "serve-chaos", "--faults", "", "--kernels", str(ADVISE_BATCH_KERNELS),
        "--workers", str(serve_workers()), "--timeout", "10",
    ]


def _run_advise_batch(dirs: Dirs) -> None:
    launch = run_program(dirs, "chaos", advise_batch_argv(0))
    if launch.status != 0:
        raise RuntimeError("warm-up run of serve-chaos failed:\n" + launch.stdout[-2000:])


def _advise_warm() -> str:
    """Caches left by one run of the advise-batch command."""
    return warm_dir("advise", _run_advise_batch)


def _requests(launch: Launch) -> list:
    return [r for p in launch.report.get("passes", []) for r in p["requests"]]


BATCH = {
    "paper-edit": Batch("paper", lambda s: paper_argv(), _prepare_edit, _check_paper_edit, PAPER_CELLS, warm_state),
    "paper-warm": Batch("paper", lambda s: paper_argv(), _prepare_warm, _check_paper_warm, PAPER_CELLS, warm_state),
    "corpus-cold": Batch("corpus", corpus_argv, _prepare_cold, _check_corpus, CORPUS_SIZE, None, True),
    "advise-batch": Batch(
        "chaos", advise_batch_argv, _prepare_edit, _check_advise_batch,
        ADVISE_PASSES * ADVISE_BATCH_KERNELS, _advise_warm, per_request=True,
    ),
}


def run_batch(name: str, seed: int, seconds: float, trace: bool) -> Result:
    wl = BATCH[name]
    gen_seed = CORPUS_SEEDS[seed % len(CORPUS_SEEDS)]
    warm = wl.warm() if wl.warm else None
    res = Result()
    res.details["gen_seed"] = gen_seed if name == "corpus-cold" else None
    plain: list = []
    traced: list = []
    setups: list = []
    durations: list = []
    settings = None
    t_end = time.monotonic() + seconds
    while True:
        use_trace = trace and len(traced) < len(plain)
        dirs = Dirs.make(checkpoint=wl.checkpoint)
        try:
            t0 = time.monotonic()
            wl.prepare(dirs, warm)
            before = {"so": count_files(dirs.env["REPRO_NATIVE_CACHE_DIR"], ".so")}
            launch = run_program(dirs, wl.hook, wl.argv(gen_seed), trace=use_trace)
            settings = settings or repro_settings(dirs)
            if launch.report:
                res.details["blas_threads"] = launch.report["blas_threads"]
            cells = wl.cells
            res.attempted += cells
            if launch.status != 0 or not launch.report:
                res.failed += cells
                res.errors.append(
                    f"{name}: exit {launch.status}\n{launch.stderr[-2000:]}"
                )
            else:
                quarantined = (launch.report.get("corpus") or {}).get("quarantined", [])
                res.failed += len(quarantined)
                res.failed += sum(1 for r in _requests(launch) if r["status"] != 200)
                res.errors.extend(wl.check(launch, dirs, gen_seed, before))
                if use_trace:
                    traced.append(launch)
                    _save_trace(dirs, name, seed, len(traced))
                else:
                    plain.append(launch)
                    setups.append(launch.setup_s / launch.slowdown)
            durations.append(time.monotonic() - t0)
        finally:
            dirs.remove()
        if res.errors:
            break
        if trace and (not plain or not traced):
            continue
        if time.monotonic() + statistics.median(durations) > t_end:
            break
    res.details["repro_env"] = settings
    res.details["launches"] = {"untraced": len(plain), "traced": len(traced)}
    res.correct = not res.errors
    if not plain:
        return res
    while not trace and not res.errors and len(setups) < SETUP_SAMPLES:
        dirs = Dirs.make(checkpoint=wl.checkpoint)
        try:
            wl.prepare(dirs, warm)
            probe = run_program(dirs, wl.hook + ":setup", wl.argv(gen_seed))
            if probe.setup_s is None:
                res.errors.append(f"{name}: set-up probe failed\n{probe.stderr[-2000:]}")
                res.correct = False
                break
            setups.append(probe.setup_s / probe.slowdown)
        finally:
            dirs.remove()
    res.details["walls_s"] = [l.wall_s for l in plain]
    res.details["slowdowns"] = [l.slowdown for l in plain]
    walls = [l.wall_s / l.slowdown for l in plain]
    wall = statistics.median(walls)
    if trace:
        _layer_metrics(res, traced, plain)
        return res
    res.metric("setup_s", statistics.median(setups), "s")
    res.metric("wall_s", wall, "s")
    res.metric("peak_rss_mb", statistics.median(l.rss_mb for l in plain), "MB")
    if wl.per_request:
        requests = [(r, l.slowdown) for l in plain for r in _requests(l)]
        latencies = [r["latency_s"] / slowdown for r, slowdown in requests]
        answered = sum(1 for r, _ in requests if r["status"] == 200)
        goodput = answered / sum(latencies)
    else:
        latencies, goodput = walls, wl.cells / wall
    res.metric("latency_p50_ms", hd(latencies, 0.5) * 1e3, "ms")
    res.metric("latency_tail_ms", hd(latencies, 0.95) * 1e3, "ms")
    res.metric("goodput_per_s", goodput, "1/s")
    res.details["setups_s"] = setups
    return res


# ---------------------------------------------------------------------------
# Per-layer metrics from traced launches
# ---------------------------------------------------------------------------

#: (metric, span name) — self seconds of the layer's spans.
TIME_METRICS = [
    ("repro.import_s", "repro.import"),
    ("frontend.parse_s", "frontend.parse"),
    ("analysis.prepass_s", "analysis.prepass"),
    ("vectorize.s", "vectorize"),
    ("codegen.lower_s", "codegen.lower"),
    ("codegen.interleave_s", "codegen.interleave"),
    ("sim.guard_s", "sim.guard"),
    ("sim.native_build_s", "sim.native_build"),
    ("sim.timing_s", "sim.timing"),
    ("costmodel.featurize_s", "costmodel.featurize"),
    ("fitting.fit_s", "fitting.fit"),
    ("validation.loocv_s", "validation.loocv"),
    *[(f"experiments.E{i}_s", f"experiments.E{i}") for i in range(1, 13)],
    ("pipeline.cache_get_s", "pipeline.cache_get"),
    ("pipeline.cache_put_s", "pipeline.cache_put"),
    ("pipeline.fingerprint_s", "pipeline.fingerprint"),
    ("pipeline.supervise_self_s", "pipeline.supervise"),
    ("gen.generate_s", "gen.generate"),
    ("dse.oracle_s", "dse.oracle"),
    ("serve.advise_s", "serve.advise"),
]

#: Counters reported as they are (per launch).
COUNT_METRICS = [
    "frontend.parse_calls",
    "analysis.prepass_calls",
    "vectorize.calls",
    "vectorize.plan_points",
    "codegen.lower_calls",
    "codegen.minstrs",
    "codegen.interleave_calls",
    "sim.guard_calls",
    "sim.guard_tier.native",
    "sim.guard_tier.numpy",
    "sim.guard_tier.interp",
    "sim.native_so_built",
    "sim.timing_calls",
    "costmodel.featurize_calls",
    "fitting.fit_calls.l2",
    "fitting.fit_calls.nnls",
    "fitting.fit_calls.svr",
    "validation.loocv_calls",
    "pipeline.cache_put_bytes",
    "pipeline.retries",
    "pipeline.quarantined",
    "gen.generate_calls",
    "dse.points_scored",
]

#: Every per-layer metric name and unit, in report order.
LAYER_UNITS = {
    **{m: "s" for m, _ in TIME_METRICS},
    **{m: "count" for m in COUNT_METRICS},
    "pipeline.cache_put_bytes": "bytes",
    "vectorize.refused_share": "ratio",
    "costmodel.matrix_hit_ratio": "ratio",
    "pipeline.cache_hit_ratio": "ratio",
    "serve.queue_wait_ms": "ms",
    "serve.rejected": "count",
    "failed_share": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead_pct": "%",
    "host.slowdown": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_values(reports: list) -> dict:
    """Mean per-layer values over traced launch reports."""
    n = len(reports)
    self_s: dict = {}
    counters: dict = {}
    for rep in reports:
        for k, v in rep["trace"]["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v / n
        for k, v in rep["trace"]["counters"].items():
            counters[k] = counters.get(k, 0.0) + v / n
    out = {m: self_s.get(span, 0.0) for m, span in TIME_METRICS}
    out.update({m: counters.get(m, 0.0) for m in COUNT_METRICS})
    out["vectorize.refused_share"] = _ratio(counters.get("vectorize.refused", 0), counters.get("vectorize.calls", 0))
    out["pipeline.cache_hit_ratio"] = _ratio(counters.get("pipeline.cache_hits", 0), counters.get("pipeline.cache_gets", 0))
    hits = sum(r["counters"]["matrix"]["hits"] for r in reports)
    misses = sum(r["counters"]["matrix"]["misses"] for r in reports)
    out["costmodel.matrix_hit_ratio"] = _ratio(hits, hits + misses)
    out["_attributed_s"] = sum(
        v for k, v in self_s.items() if k != "launcher.main"
    )
    return out


def _rejected(health: dict) -> int:
    return health["rejected_queue_full"] + health["rejected_deadline"]


def _layer_metrics(res: Result, traced: list, plain: list) -> None:
    """Per-launch layer figures, in raw seconds; a metric whose layer
    the workload does not run reads 0.  ``host.slowdown`` is the median
    slowdown of the run's launches, to read the raw seconds by."""
    reports = [l.report for l in traced]
    values = _layer_values(reports)
    waits = [w for rep in reports for w in rep["trace"]["queue_wait_s"]]
    values["serve.queue_wait_ms"] = statistics.fmean(waits) * 1e3 if waits else 0.0
    values["serve.rejected"] = statistics.fmean(
        sum(_rejected(p["health"]) for p in rep["passes"]) for rep in reports
    )
    wall_traced = statistics.median(l.wall_s for l in traced)
    values["trace.unattributed_s"] = wall_traced - values.pop("_attributed_s")
    adjusted_traced = statistics.median(l.wall_s / l.slowdown for l in traced)
    adjusted_plain = statistics.median(l.wall_s / l.slowdown for l in plain)
    values["trace.overhead_pct"] = 100.0 * (adjusted_traced - adjusted_plain) / adjusted_plain
    values["host.slowdown"] = statistics.median(l.slowdown for l in traced + plain)
    values["failed_share"] = _ratio(res.failed, res.attempted)
    for m, unit in LAYER_UNITS.items():
        res.metric(m, values.get(m, 0.0), unit)


def _save_trace(dirs: Dirs, name: str, seed: int, k: int) -> None:
    src = dirs.path("launch.trace.json")
    if os.path.exists(src):
        out = os.path.join(STATE_DIR, "traces")
        os.makedirs(out, exist_ok=True)
        shutil.copy(src, os.path.join(out, f"{name}-seed{seed}-{k}.trace.json"))
