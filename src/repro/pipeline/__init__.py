"""Measurement pipeline: parallel suite sweeps over a persistent cache.

The package the experiment layer builds datasets through — see
DESIGN.md §"Measurement pipeline" for the architecture and
``python -m repro.experiments --help`` for the runtime knobs.
"""

from .build import (
    DatasetBuildStats,
    PipelineConfig,
    ScheduleDecision,
    choose_strategy,
    configure,
    estimate_kernel_work,
    measure_suite,
    resolve_timeout,
    resolve_workers,
)
from .corpus import (
    CorpusResult,
    measure_corpus,
    partition_names,
)
from .faultinject import (
    FaultPlan,
    InjectedCrash,
    InjectedFault,
    parse_faults,
)
from .resilience import (
    CheckpointJournal,
    FailureReport,
    KernelFailure,
    RetryPolicy,
    SweepError,
    default_checkpoint_dir,
    pipeline_diagnostics,
    run_supervised,
)
from .cache import (
    MISS,
    CacheStats,
    MeasurementCache,
    default_cache,
    default_cache_dir,
    set_default_cache,
)
from .fingerprint import (
    PIPELINE_SCHEMA_VERSION,
    code_digest,
    measurement_fingerprint,
)

__all__ = [
    "DatasetBuildStats",
    "PipelineConfig",
    "ScheduleDecision",
    "choose_strategy",
    "estimate_kernel_work",
    "configure",
    "measure_suite",
    "resolve_timeout",
    "resolve_workers",
    "CorpusResult",
    "measure_corpus",
    "partition_names",
    "FaultPlan",
    "InjectedCrash",
    "InjectedFault",
    "parse_faults",
    "CheckpointJournal",
    "FailureReport",
    "KernelFailure",
    "RetryPolicy",
    "SweepError",
    "default_checkpoint_dir",
    "pipeline_diagnostics",
    "run_supervised",
    "MISS",
    "CacheStats",
    "MeasurementCache",
    "default_cache",
    "default_cache_dir",
    "set_default_cache",
    "PIPELINE_SCHEMA_VERSION",
    "code_digest",
    "measurement_fingerprint",
]
