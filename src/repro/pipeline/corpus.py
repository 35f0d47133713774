"""Sharded, resumable sweeps over arbitrary kernel corpora.

``measure_suite`` sweeps one kernel set in one process tree;
``measure_corpus`` scales that to generated corpora an order of
magnitude larger than the TSVC suite by partitioning the corpus into
contiguous *shards* and sweeping them one after another, each shard a
full ``measure_suite`` run with its own supervised pool, retry budget,
and checkpoint journal (namespaced per shard, so an interrupted corpus
sweep resumes mid-shard without replaying finished shards).

Bit-identity with a serial sweep is a theorem, not an aspiration:
per-kernel measurements depend only on ``(kernel name, spec)`` — noise
is seeded from ``crc32(name)``, never from worker count or arrival
order — and shards are contiguous blocks of the input order, so
concatenating shard outputs reproduces the serial output exactly.  The
chaos harness (``repro.experiments chaos --corpus``) and the corpus
bench gate both assert this.

With ``stream_dir`` set, each finished shard's payload is pickled to
disk and dropped from memory; the merge phase streams the shard files
back in order.  Peak memory is then one shard, not the corpus — the
point of sharding a 1,500+ kernel sweep.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .build import DatasetBuildStats, measure_suite
from .cache import MeasurementCache
from .faultinject import FaultPlan
from .resilience import FailureReport, RetryPolicy

__all__ = ["CorpusResult", "measure_corpus", "partition_names"]


@dataclass
class CorpusResult:
    """One ``measure_corpus`` invocation: merged payloads + per-shard
    scheduling stats."""

    samples: list
    failures: list
    report: FailureReport
    shards: int
    shard_stats: list[DatasetBuildStats] = field(default_factory=list)

    @property
    def quarantined_names(self) -> list[str]:
        return self.report.names()


def partition_names(names: Sequence[str], shards: int) -> list[list[str]]:
    """Contiguous near-even blocks, preserving input order.

    Contiguity (rather than striding) is what lets the merge phase
    stream shard payloads back in order: shard k's outputs are exactly
    positions ``[lo_k, hi_k)`` of the serial sweep.
    """
    names = list(names)
    shards = max(1, min(int(shards), max(1, len(names))))
    base, extra = divmod(len(names), shards)
    blocks, lo = [], 0
    for k in range(shards):
        hi = lo + base + (1 if k < extra else 0)
        blocks.append(names[lo:hi])
        lo = hi
    return [b for b in blocks if b]


def _corpus_digest(names: Sequence[str]) -> str:
    return hashlib.sha256("\0".join(names).encode()).hexdigest()[:12]


def _merge_report(into: FailureReport, part: FailureReport) -> None:
    into.quarantined.extend(part.quarantined)
    into.retries += part.retries
    into.pool_rebuilds += part.pool_rebuilds
    into.degraded_to_serial = into.degraded_to_serial or part.degraded_to_serial


def measure_corpus(
    names: Sequence[str],
    spec,
    *,
    shards: int = 1,
    workers: Optional[int] = None,
    cache: Optional[MeasurementCache] = None,
    timeout: Optional[float] = None,
    max_attempts: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    supervise: bool = True,
    faults: Union[FaultPlan, str, None] = None,
    stream_dir: Optional[str] = None,
    checkpoint_dir=None,
    resume: Optional[bool] = None,
) -> CorpusResult:
    """Sweep ``names`` (suite and/or generated kernels) for ``spec``.

    Every name must resolve through :func:`repro.tsvc.get_kernel` —
    suite names directly, generated ``gx…`` names via the corpus
    generator.  Shards always run with ``partial=True`` semantics:
    quarantines are collected into the merged :class:`FailureReport`
    rather than aborting remaining shards.
    """
    from ..tsvc import get_kernel

    names = list(names)
    blocks = partition_names(names, shards)
    digest = _corpus_digest(names)
    report = FailureReport()
    shard_stats: list[DatasetBuildStats] = []
    all_samples: list = []
    all_failures: list = []
    shard_files: list[str] = []
    if stream_dir:
        os.makedirs(stream_dir, exist_ok=True)

    for k, block in enumerate(blocks):
        kernels = [get_kernel(n) for n in block]
        stats = DatasetBuildStats()
        samples, failures, part = measure_suite(
            spec,
            workers=workers,
            cache=cache,
            timeout=timeout,
            max_attempts=max_attempts,
            retry=retry,
            partial=True,
            resume=resume,
            checkpoint_dir=checkpoint_dir,
            supervise=supervise,
            faults=faults,
            stats=stats,
            kernels=kernels,
            journal_tag=f"corpus:{digest}:{k + 1}/{len(blocks)}",
        )
        shard_stats.append(stats)
        _merge_report(report, part)
        if stream_dir:
            path = os.path.join(
                stream_dir, f"shard-{k:04d}-of-{len(blocks):04d}.pkl"
            )
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "wb") as fh:
                pickle.dump((samples, failures), fh)
            os.replace(tmp, path)
            shard_files.append(path)
            del samples, failures, kernels  # peak memory = one shard
        else:
            all_samples.extend(samples)
            all_failures.extend(failures)

    if stream_dir:
        # Stream the shard payloads back in corpus order; contiguity of
        # the blocks makes this concatenation the serial-sweep order.
        for path in shard_files:
            with open(path, "rb") as fh:
                samples, failures = pickle.load(fh)
            all_samples.extend(samples)
            all_failures.extend(failures)

    return CorpusResult(
        samples=all_samples,
        failures=all_failures,
        report=report,
        shards=len(blocks),
        shard_stats=shard_stats,
    )
