"""Dataset construction: the suite × target measurement sweep.

Every experiment consumes the same kind of dataset the paper built:
for each TSVC kernel, force-vectorize (LLV on ARM, unroll+SLP on x86),
measure scalar and vector time, and extract the block features.
Kernels that cannot be vectorized are recorded with their reason and
excluded from modelling, as in the paper.

The sweep itself runs through :mod:`repro.pipeline` — sharded across
worker processes and layered over the persistent measurement cache —
with an in-memory memo on top so repeated ``build_dataset`` calls in
one process return the same object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..costmodel.base import Sample
from ..memo import Memo
from ..pipeline.build import DatasetBuildStats, measure_suite
from ..pipeline.resilience import FailureReport

#: Default measurement jitter (σ of the multiplicative noise); roughly
#: the run-to-run variation of a quiesced hardware measurement.
DEFAULT_JITTER = 0.02


@dataclass(frozen=True)
class DatasetSpec:
    target: str = "armv8-neon"
    vectorizer: str = "llv"
    jitter: float = DEFAULT_JITTER
    seed: int = 0
    #: Measurement processes (None → ``REPRO_WORKERS`` env, else
    #: ``os.cpu_count()``).  Not part of the measurement identity:
    #: any worker count produces bit-identical samples.
    workers: Optional[int] = None

    @property
    def label(self) -> str:
        return f"{self.target}/{self.vectorizer}"

    @property
    def identity(self) -> tuple:
        """The fields that decide the measured values."""
        return (self.target, self.vectorizer, self.jitter, self.seed)


#: The two configurations the paper evaluates.
ARM_LLV = DatasetSpec("armv8-neon", "llv")
X86_SLP = DatasetSpec("x86-avx2", "slp")


@dataclass
class Dataset:
    spec: DatasetSpec
    samples: list[Sample]
    failures: list[tuple[str, str]] = field(default_factory=list)
    #: Kernels the fault-tolerant sweep gave up on (see
    #: ``repro.pipeline.resilience``).  Empty on a healthy run; a
    #: partial dataset is still fully usable — every consumer works
    #: from ``samples`` — but reports must surface the gap.
    quarantined: FailureReport = field(default_factory=FailureReport)
    #: How the sweep was scheduled (serial vs pool, and why) — filled
    #: by ``measure_suite``; a fully cached build reads ``"none"``.
    build_stats: DatasetBuildStats = field(default_factory=DatasetBuildStats)
    _by_name: dict[str, Sample] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        for s in self.samples:
            if s.name in self._by_name:
                raise ValueError(
                    f"duplicate kernel {s.name!r} in dataset {self.spec.label}"
                )
            self._by_name[s.name] = s

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def measured(self) -> np.ndarray:
        return np.array([s.measured_speedup for s in self.samples])

    def names(self) -> list[str]:
        return [s.name for s in self.samples]

    def sample(self, name: str) -> Sample:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"kernel {name!r} not in dataset {self.spec.label}"
            ) from None

    def summary(self) -> str:
        sp = self.measured
        text = (
            f"{self.spec.label}: {len(self.samples)} vectorized, "
            f"{len(self.failures)} not vectorizable; measured speedup "
            f"min {sp.min():.2f} / median {np.median(sp):.2f} / "
            f"max {sp.max():.2f}"
        )
        if self.quarantined:
            text += (
                f" [{len(self.quarantined)} kernels quarantined: "
                f"{', '.join(self.quarantined.names())}]"
            )
        return text


#: In-memory memo, keyed by measurement identity (worker count and
#: cache state cannot change the values, so they are not in the key).
_MEMO = Memo()


def build_dataset(spec: Optional[DatasetSpec] = None, **kwargs) -> Dataset:
    """Build (or fetch the cached) dataset for a measurement spec.

    Thread-safe: each measurement identity is built exactly once per
    process; concurrent callers (the suite scheduler runs drivers on
    an executor) share one sweep and receive the same ``Dataset``
    object.
    """
    if spec is None:
        spec = DatasetSpec(**kwargs)
    elif kwargs:
        raise TypeError("pass either a spec or keyword overrides, not both")

    def build() -> Dataset:
        # partial=True: a kernel the resilient sweep had to quarantine
        # shrinks the dataset (and is reported) instead of killing the
        # experiment that asked for it.
        stats = DatasetBuildStats()
        samples, failures, report = measure_suite(
            spec, partial=True, stats=stats
        )
        return Dataset(spec, samples, failures, report, stats)

    return _MEMO.get(spec.identity, build)


def clear_dataset_memo() -> None:
    """Drop the in-process memo (persistent cache entries survive)."""
    _MEMO.clear()
