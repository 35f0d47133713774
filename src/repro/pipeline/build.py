"""The measurement sweep: suite × spec → samples, parallel and cached.

``measure_suite`` is the one hot path every experiment, bench, and
example funnels through.  It layers three accelerations over the naive
loop while keeping its results bit-identical:

1. **persistent cache** — each kernel's result is looked up by content
   fingerprint before any work is dispatched (see :mod:`.cache`);
2. **process parallelism** — cache misses are sharded across a
   ``ProcessPoolExecutor``; workers receive kernel *names* and rebuild
   from the registry, so nothing unpicklable crosses the boundary;
3. **determinism** — per-kernel measurement noise is seeded from
   ``crc32(kernel.name)`` independently of sweep order, so serial,
   parallel, and cached builds all produce the same floats.

Worker count resolution order: explicit argument > ``spec.workers`` >
``configure(workers=…)`` > ``REPRO_WORKERS`` env > ``os.cpu_count()``;
the resolved count is then capped at the number of pending (uncached)
kernels so no idle process is ever spawned.

Since PR 3 the parallel path runs under the supervisor in
:mod:`.resilience`: per-kernel deadlines, bounded retries, crash
isolation, quarantine, and checkpoint/resume.  ``supervise=False``
selects the raw, unsupervised executor (used by the perf smoke to
price the supervision layer).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from ..analysis.framework.diagnostics import Severity
from ..analysis.framework.lint import lint_kernel
from ..analysis.framework.passmanager import default_manager
from ..costmodel.base import Sample, sample_from_measurement
from ..ir.verify import VerificationError, verify_kernel
from ..sim.measure import measure_kernel
from ..targets.registry import get_target
from ..tsvc.suite import all_kernels, get_kernel
from ..vectorize.plan import VectorizationFailure
from . import faultinject
from .cache import MISS, MeasurementCache, default_cache
from .faultinject import FaultPlan
from .fingerprint import measurement_fingerprint
from .resilience import (
    CheckpointJournal,
    FailureReport,
    RetryPolicy,
    SweepError,
    default_checkpoint_dir,
    journal_key,
    run_supervised,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..experiments.dataset import DatasetSpec


@dataclass
class PipelineConfig:
    """Process-wide overrides, settable from the CLI (``--workers`` …)."""

    workers: Optional[int] = None
    cache_dir: Optional[str] = None
    cache_enabled: Optional[bool] = None
    timeout: Optional[float] = None
    max_attempts: Optional[int] = None
    checkpoint_dir: Optional[str] = None
    resume: Optional[bool] = None


_CONFIG = PipelineConfig()


def configure(
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    cache_enabled: Optional[bool] = None,
    timeout: Optional[float] = None,
    max_attempts: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    resume: Optional[bool] = None,
) -> PipelineConfig:
    """Set process-wide pipeline defaults; ``None`` leaves a field alone."""
    from .cache import set_default_cache

    if workers is not None:
        _CONFIG.workers = workers
    if timeout is not None:
        _CONFIG.timeout = timeout
    if max_attempts is not None:
        _CONFIG.max_attempts = max_attempts
    if checkpoint_dir is not None:
        _CONFIG.checkpoint_dir = checkpoint_dir
    if resume is not None:
        _CONFIG.resume = resume
    if cache_dir is not None or cache_enabled is not None:
        if cache_dir is not None:
            _CONFIG.cache_dir = cache_dir
        if cache_enabled is not None:
            _CONFIG.cache_enabled = cache_enabled
        cache = default_cache()
        set_default_cache(
            MeasurementCache(
                root=_CONFIG.cache_dir or cache.root,
                enabled=(
                    _CONFIG.cache_enabled
                    if _CONFIG.cache_enabled is not None
                    else cache.enabled
                ),
            )
        )
    return _CONFIG


def resolve_workers(
    explicit: Optional[int] = None, *, pending: Optional[int] = None
) -> int:
    """Worker-count policy; always at least 1.

    A malformed ``REPRO_WORKERS`` (non-integer or <= 0) raises a
    ``ValueError`` naming the variable instead of surfacing as a
    confusing failure deep in the pool build.  ``pending`` (when
    given) caps the count at the number of kernels actually waiting,
    so a 64-worker request over 3 cache misses spawns 3 processes.
    """
    workers: Optional[int] = None
    for candidate in (explicit, _CONFIG.workers):
        if candidate is not None:
            workers = max(1, int(candidate))
            break
    if workers is None:
        workers = _positive_int_env("REPRO_WORKERS") or os.cpu_count() or 1
    if pending is not None:
        workers = min(workers, max(1, pending))
    return workers


def resolve_max_attempts(explicit: Optional[int] = None) -> int:
    """Attempts per kernel: explicit > ``configure`` > 3."""
    for candidate in (explicit, _CONFIG.max_attempts):
        if candidate is not None:
            return candidate
    return 3


def _positive_int_env(name: str, *, many: bool = False):
    """The positive integer in ``$name``, or ``None`` when unset/blank.

    ``many=True`` reads a comma- or space-separated list of them into a
    tuple instead.  Anything else raises a ``ValueError`` naming the
    variable instead of surfacing as a confusing failure deep in a pool
    or retry loop.
    """
    env = os.environ.get(name)
    if env is None or not env.strip():
        return None
    tokens = env.replace(",", " ").split() if many else [env]
    try:
        values = tuple(int(tok) for tok in tokens)
        if values and all(v > 0 for v in values):
            return values if many else values[0]
    except ValueError:
        pass
    kind = "a list of positive integers" if many else "a positive integer"
    raise ValueError(f"{name} must be {kind}, got {env!r}")


def resolve_timeout(explicit: Optional[float] = None) -> Optional[float]:
    """Per-kernel deadline: explicit > ``configure`` > none."""
    for candidate in (explicit, _CONFIG.timeout):
        if candidate is not None:
            return float(candidate) if candidate > 0 else None
    return None


# ---------------------------------------------------------------------------
# Cost-aware scheduling
# ---------------------------------------------------------------------------

#: Rough cost of spawning one pool worker (interpreter start + package
#: import + pickle round-trips), in the same abstract work units as
#: :func:`estimate_kernel_work` (~microseconds of serial time).
POOL_SPAWN_WORK = 250_000.0
#: Minimum work a pool chunk should carry to amortize per-task IPC.
CHUNK_MIN_WORK = 20_000.0


@dataclass
class DatasetBuildStats:
    """How one ``measure_suite`` sweep was actually scheduled.

    Filled in place when callers pass ``stats=`` — the BENCH artifact
    and dataset reports use it to distinguish a genuine parallel win
    from a deliberate, logged serial fallback.
    """

    total_kernels: int = 0
    cached: int = 0
    measured: int = 0
    strategy: str = "none"  # "pool" | "serial" | "none" (fully cached)
    workers: int = 1
    chunksize: int = 1
    estimated_work: float = 0.0
    reason: str = ""
    supervised: bool = True
    #: Executor-tier counts observed during this sweep (main process
    #: only — pool workers compile in their own address space):
    #: ``{"vector": …, "scalar": …, "demoted": …, "interpreted": …}``.
    #: Empty when nothing was measured in-process.
    tiers: dict = field(default_factory=dict)


#: compile_summary keys folded into :attr:`DatasetBuildStats.tiers`
#: (summary key -> tier label).
_TIER_KEYS = {
    "kernels_vector": "vector",
    "kernels_scalar": "scalar",
    "kernels_demoted": "demoted",
    "kernels_refused": "interpreted",
}


def _tier_snapshot() -> dict:
    """Current process-wide compile-tier counters."""
    from ..sim.compile import compile_summary

    s = compile_summary()
    return {label: int(s[key]) for key, label in _TIER_KEYS.items()}


@dataclass(frozen=True)
class ScheduleDecision:
    strategy: str  # "pool" | "serial"
    workers: int
    chunksize: int
    estimated_work: float
    reason: str


def estimate_kernel_work(kernel, *, sweep_points: int = 1) -> float:
    """Estimated cost of one cache-miss measurement, in ~µs of serial time.

    The analytic timing model is near-constant; the dominant variable
    cost is guard-probability estimation, which executes the kernel for
    up to ``GUARD_SAMPLE_ITERS`` inner iterations through the kernel
    compiler.

    ``sweep_points`` models a DSE-style plan sweep over the kernel:
    beyond the first (already-counted) measurement, each extra plan
    point pays a unroll/vectorize/lower/analyze pass but *not* another
    guard-probability run (that is memoized per kernel).  Without this
    term ``choose_strategy`` prices a 30-point sweep like a single
    measurement and keeps 1-CPU hosts on phantom pools — or multi-CPU
    hosts on serial loops — for DSE measurement batches.
    """
    from ..ir.stmt import IfBlock
    from ..sim.measure import GUARD_SAMPLE_ITERS

    stmts = max(1, sum(1 for _ in kernel.stmts()))
    work = 2000.0 + 50.0 * stmts
    if any(isinstance(s, IfBlock) for s in kernel.stmts()):
        inner = min(kernel.inner.trip, GUARD_SAMPLE_ITERS)
        outer = (
            1
            if kernel.depth == 1
            else min(kernel.loops[0].trip, max(1, GUARD_SAMPLE_ITERS // 4))
        )
        # One-time compile + self-check, then a cheap compiled run.
        work += 5000.0 + 0.02 * stmts * inner * outer
    if sweep_points > 1:
        work += (sweep_points - 1) * (400.0 + 30.0 * stmts)
    return work


def choose_strategy(
    work: list[float],
    workers: int,
    *,
    faults_active: bool = False,
    timeout: Optional[float] = None,
) -> ScheduleDecision:
    """Serial vs process pool, so the parallel path is never slower.

    A pool only pays off when the work it can take off the main process
    exceeds what spawning the workers costs — never true on a 1-CPU
    host, and rarely true for a compiled-executor sweep.  Two features
    force the pool regardless: an active fault plan (injected faults
    must land in real worker processes) and a per-kernel timeout (only
    a worker process can be killed mid-kernel).
    """
    total = float(sum(work))
    tasks = len(work)
    workers = min(workers, max(1, tasks))
    if faults_active or timeout is not None:
        reason = (
            "fault plan active" if faults_active else "per-kernel timeout set"
        )
        if workers > 1 and tasks > 1:
            return ScheduleDecision("pool", workers, 1, total, reason)
        return ScheduleDecision("serial", 1, 1, total, reason)
    if workers <= 1 or tasks <= 1:
        return ScheduleDecision("serial", 1, 1, total, "single worker or task")
    if (os.cpu_count() or 1) == 1:
        return ScheduleDecision("serial", 1, 1, total, "cpu_count is 1")
    # Pool wins iff spawn overhead < work taken off the main process.
    savings = total * (1.0 - 1.0 / workers)
    overhead = POOL_SPAWN_WORK * workers
    if overhead >= savings:
        return ScheduleDecision(
            "serial",
            1,
            1,
            total,
            f"estimated savings {savings:.0f} of {total:.0f} work "
            f"below pool overhead {overhead:.0f}",
        )
    mean = total / tasks
    chunk = max(
        tasks // (4 * workers),
        int(CHUNK_MIN_WORK / mean) if mean > 0 else 1,
        1,
    )
    chunk = min(chunk, max(1, tasks // workers))
    return ScheduleDecision(
        "pool", workers, chunk, total, "estimated work amortizes pool spawn"
    )


#: Kernels that already passed verify+lint, pinned by identity so the
#: check runs once per kernel object per process (warm rebuilds pay a
#: set lookup, nothing more).
_PREPASS_SEEN: dict[int, object] = {}


def static_prepass(kernels) -> None:
    """Verify + lint + range-check every kernel before measurement.

    Structural problems and lint *errors* are fatal — a malformed
    kernel must never reach the measurement cache.  A kernel the
    abstract interpreter classifies ``proven-unsafe`` — an unguarded
    access whose exact static index range leaves the wrap-legal window,
    so a full run must fault — is rejected here too, before any
    executor tier gets to segfault on it.  Results are memoized (per kernel object, with
    the framework's analysis results shared) so repeated sweeps over
    the cached suite stay cheap.
    """
    from ..analysis.framework.ranges import prove_safe

    am = default_manager()
    for kern in kernels:
        if _PREPASS_SEEN.get(id(kern)) is kern:
            continue
        verify_kernel(kern)
        errors = [
            r for r in lint_kernel(kern, am) if r.severity is Severity.ERROR
        ]
        if errors:
            raise VerificationError(
                "; ".join(r.message for r in errors), kern.name
            )
        safety = prove_safe(kern, am)
        if safety.classification == "proven-unsafe":
            raise VerificationError(
                "range analysis proves an out-of-bounds access: "
                + "; ".join(safety.reasons),
                kern.name,
            )
        _PREPASS_SEEN[id(kern)] = kern


#: What one kernel's sweep cell resolves to: the model-facing sample,
#: or the reason vectorization was refused.
Payload = tuple[Optional[Sample], Optional[str]]


def _measure_named(
    name: str,
    target_name: str,
    vectorizer: str,
    jitter: float,
    seed: int,
    attempt: int = 0,
    plan: Optional[FaultPlan] = None,
) -> Payload:
    """Measure one kernel looked up by name (process-pool entry point).

    ``attempt``/``plan`` feed the fault-injection harness: any
    scheduled crash/hang/transient fires here, before the measurement,
    exactly where a real worker failure would land.
    """
    faultinject.perturb(plan, name, attempt)
    result = measure_kernel(
        get_kernel(name),
        get_target(target_name),
        vectorizer=vectorizer,
        jitter=jitter,
        seed=seed,
    )
    if isinstance(result, VectorizationFailure):
        return None, result.reason
    return sample_from_measurement(result), None


def _worker(args: tuple) -> tuple[str, Payload]:
    name, target_name, vectorizer, jitter, seed = args
    return name, _measure_named(name, target_name, vectorizer, jitter, seed)


def _supervised_worker(task: tuple) -> tuple[str, Payload]:
    """Supervised-pool entry point: ``((args…), attempt, plan)``."""
    (name, target_name, vectorizer, jitter, seed), attempt, plan = task
    return name, _measure_named(
        name, target_name, vectorizer, jitter, seed, attempt, plan
    )


def measure_suite(
    spec: "DatasetSpec",
    *,
    workers: Optional[int] = None,
    cache: Optional[MeasurementCache] = None,
    timeout: Optional[float] = None,
    max_attempts: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    partial: bool = False,
    resume: Optional[bool] = None,
    checkpoint_dir=None,
    supervise: bool = True,
    faults: Union[FaultPlan, str, None] = None,
    stats: Optional[DatasetBuildStats] = None,
    kernels=None,
    journal_tag: str = "",
):
    """Sweep a kernel set (default: the whole TSVC suite) for one spec.

    Returns ``(samples, failures)`` in input order — independent of
    worker count, cache state, and any faults the supervisor absorbed.
    ``kernels`` overrides the sweep set (e.g. a generated-corpus shard);
    every kernel must be rebuildable by name through
    :func:`repro.tsvc.get_kernel`, because pool workers and checkpoint
    journals re-resolve kernels that way.  ``journal_tag`` namespaces
    the checkpoint journal (shards of one corpus must not share a
    journal file).  The verify+lint+range gate (:func:`static_prepass`)
    always runs before the cache is consulted.

    Fault tolerance (see :mod:`.resilience`): each uncached kernel
    gets ``timeout`` seconds per attempt and up to
    ``max_attempts`` tries (or a full ``retry`` policy); a kernel that
    exhausts them is *quarantined*.  With ``partial=True`` the sweep
    returns ``(samples, failures, report)`` — the surviving payloads
    plus the structured :class:`FailureReport` — instead of raising
    :class:`SweepError`.  When a checkpoint directory is active
    (``checkpoint_dir`` / ``configure(checkpoint_dir=…)`` /
    ``REPRO_CHECKPOINT_DIR``), completed payloads stream into a
    journal and ``resume=True`` replays it, re-measuring only the
    kernels the interrupted sweep never finished.  ``faults`` injects
    deterministic chaos (a :class:`FaultPlan` or its string spec;
    default: none).

    Scheduling is cost-aware: per-kernel work estimates decide between
    a serial sweep and a process pool (and its chunk size) so the
    parallel path is never slower than serial.  Pass a
    :class:`DatasetBuildStats` as ``stats`` to receive the decision.
    """
    get_target(spec.target)  # validate the spec before any work
    if cache is None:
        cache = default_cache()
    workers = resolve_workers(workers if workers is not None else spec.workers)
    timeout = resolve_timeout(timeout)
    if retry is None:
        retry = RetryPolicy(max_attempts=resolve_max_attempts(max_attempts))
    if isinstance(faults, str):
        faults = faultinject.parse_faults(faults)
    if resume is None:
        resume = bool(_CONFIG.resume)

    kernels = list(all_kernels()) if kernels is None else list(kernels)
    static_prepass(kernels)
    results: dict[str, Payload] = {}
    pending: list[str] = []
    fingerprints: dict[str, str] = {}
    for kern in kernels:
        fp = measurement_fingerprint(
            kern, spec.target, spec.vectorizer, spec.jitter, spec.seed
        )
        fingerprints[kern.name] = fp
        payload = cache.get(fp)
        if payload is MISS:
            pending.append(kern.name)
        else:
            results[kern.name] = payload

    journal = _resolve_journal(spec, checkpoint_dir, tag=journal_tag)
    if journal is not None:
        if resume:
            restored = journal.load(valid=set(fingerprints.values()))
            by_fp = {fingerprints[n]: n for n in pending}
            for fp, payload in restored.items():
                name = by_fp.get(fp)
                if name is not None:
                    results[name] = payload
                    cache.put(fp, payload)
            pending = [n for n in pending if n not in results]
        else:
            journal.discard()  # a fresh sweep starts a fresh journal

    report = FailureReport()
    if stats is not None:
        stats.total_kernels = len(kernels)
        stats.cached = len(results)
        stats.measured = len(pending)
        stats.supervised = supervise
        stats.strategy, stats.workers, stats.chunksize = "none", 1, 1
        tiers_before = _tier_snapshot()
    if pending:
        workers = resolve_workers(workers, pending=len(pending))
        by_name = {k.name: k for k in kernels}
        faults_active = faults is not None and any(
            float(r) > 0 for r in faults.rates.values()
        )
        decision = choose_strategy(
            [estimate_kernel_work(by_name[n]) for n in pending],
            workers,
            faults_active=faults_active,
            timeout=timeout,
        )
        workers = decision.workers
        if stats is not None:
            stats.strategy = decision.strategy
            stats.workers = decision.workers
            stats.chunksize = decision.chunksize
            stats.estimated_work = decision.estimated_work
            stats.reason = decision.reason

        def on_complete(name: str, payload: Payload) -> None:
            results[name] = payload
            cache.put(fingerprints[name], payload)
            faultinject.maybe_corrupt_cache(
                faults, cache, fingerprints[name], name
            )
            if journal is not None:
                journal.append(fingerprints[name], name, payload)

        if supervise:
            tasks = {
                name: (name, spec.target, spec.vectorizer, spec.jitter, spec.seed)
                for name in pending
            }
            report = run_supervised(
                tasks,
                _supervised_worker,
                workers=workers,
                policy=retry,
                timeout=timeout,
                plan=faults,
                on_complete=on_complete,
            )
        else:
            for name, payload in _run_pending(
                spec, pending, workers, decision.chunksize
            ):
                on_complete(name, payload)

    if stats is not None:
        after = _tier_snapshot()
        stats.tiers = {
            k: after[k] - tiers_before[k] for k in after if after[k] != tiers_before[k]
        }

    if report.quarantined and not partial:
        raise SweepError(report)
    if journal is not None and not report.quarantined:
        journal.discard()  # complete: nothing left to resume

    samples: list[Sample] = []
    failures: list[tuple[str, str]] = []
    for kern in kernels:
        if kern.name not in results:  # quarantined
            continue
        sample, reason = results[kern.name]
        if sample is None:
            failures.append((kern.name, reason))
        else:
            samples.append(sample)
    if partial:
        return samples, failures, report
    return samples, failures


def _resolve_journal(
    spec: "DatasetSpec", checkpoint_dir, tag: str = ""
) -> Optional[CheckpointJournal]:
    """The sweep's journal, or ``None`` when checkpointing is off."""
    directory = checkpoint_dir or _CONFIG.checkpoint_dir
    if directory is None and os.environ.get("REPRO_CHECKPOINT_DIR"):
        directory = default_checkpoint_dir()
    if directory is None:
        return None
    from .fingerprint import code_digest

    parts = [
        code_digest(), spec.target, spec.vectorizer, spec.jitter, spec.seed
    ]
    if tag:
        # Extra namespace for corpus shards; the untagged key is
        # unchanged so existing suite journals stay resumable.
        parts.append(tag)
    key = journal_key(*parts)
    return CheckpointJournal.for_sweep(directory, key)


def _run_pending(
    spec: "DatasetSpec", names: list[str], workers: int, chunksize: int = 1
):
    """Yield ``(name, payload)`` for every uncached kernel."""
    args = [
        (name, spec.target, spec.vectorizer, spec.jitter, spec.seed)
        for name in names
    ]
    if workers > 1 and len(names) > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunk = max(1, chunksize)
                yield from pool.map(_worker, args, chunksize=chunk)
            return
        except (OSError, PermissionError, ImportError):
            # Sandboxes that forbid multiprocessing primitives fall back
            # to the serial path rather than failing the build.
            pass
    for a in args:
        yield _worker(a)
