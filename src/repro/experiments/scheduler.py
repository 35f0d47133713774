"""Suite scheduler: one fast invocation for E1–E12.

``run_suite`` is what ``python -m repro.experiments all`` executes:

1. **Pre-build phase** — every unique :class:`DatasetSpec` the selected
   experiments need is built exactly once (the dataset memo makes the
   build shared; doing it up front keeps the measurement sweeps — which
   parallelize internally across worker processes — out of the driver
   executor).
2. **Driver phase** — the drivers run on a bounded thread executor.
   They are measurement-free after the pre-build (pure linear algebra
   over the shared matrix bundles plus the engine memo), so threads are
   the right tool: the heavy numpy/scipy kernels drop the GIL, and on a
   single-CPU host the scheduler degrades to the serial order with no
   pool overhead.

Per-experiment wall time is recorded on each result (``wall_s``) and in
the returned :class:`SuiteRun`; the report tables themselves stay
bit-identical between serial and parallel runs, and to each driver run
alone from cleared memos — the tier-1 tests assert both.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .base import ExperimentResult
from .dataset import ARM_LLV, X86_SLP, DatasetSpec, build_dataset
from .registry import EXPERIMENTS, EXPLICIT_ONLY

#: Datasets each driver needs, used by the pre-build phase.  E7
#: measures two extra kernel variants on top of the ARM dataset; E12
#: consumes both targets.
SPEC_REQUIREMENTS: dict[str, tuple[DatasetSpec, ...]] = {
    "E1": (ARM_LLV,),
    "E2": (ARM_LLV,),
    "E3": (ARM_LLV,),
    "E4": (ARM_LLV,),
    "E5": (ARM_LLV,),
    "E6": (ARM_LLV,),
    "E7": (ARM_LLV,),
    "E8": (ARM_LLV,),
    "E9": (X86_SLP,),
    "E10": (X86_SLP,),
    "E11": (X86_SLP,),
    "E12": (ARM_LLV, X86_SLP),
    # E13 sweeps its own generated corpora through measure_corpus; it
    # deliberately bypasses the suite dataset memo, so nothing to
    # pre-build here.
    "E13": (),
    # E14 fits its cost oracle on the ARM dataset before searching.
    "E14": (ARM_LLV,),
}


@dataclass
class SuiteRun:
    """One ``run_suite`` invocation: ordered results plus timings."""

    results: list[ExperimentResult]
    mode: str  # "parallel" | "serial"
    jobs: int
    build_s: float
    drivers_s: float
    total_s: float
    wall_by_id: dict[str, float] = field(default_factory=dict)

    def tables_text(self) -> list[str]:
        """The rendered report tables (no scatters) — the strings the
        serial/parallel bit-identity gate compares."""
        return [r.to_text(include_scatter=False) for r in self.results]


def normalize_ids(ids: Optional[Sequence[str]] = None) -> list[str]:
    """Validate and order experiment ids (registry order, deduped).

    ``all`` (and the empty default) excludes explicit-only experiments
    — E13's corpus sweep runs only when named, so the E1–E12 bench and
    parity gates keep their workload.
    """
    if not ids or any(i.lower() == "all" for i in ids):
        return [eid for eid in EXPERIMENTS if eid not in EXPLICIT_ONLY]
    wanted = []
    for i in ids:
        key = i.upper()
        if key not in EXPERIMENTS:
            raise KeyError(
                f"unknown experiment {i!r}; known: {', '.join(EXPERIMENTS)}"
            )
        if key not in wanted:
            wanted.append(key)
    return [eid for eid in EXPERIMENTS if eid in wanted]


def required_specs(ids: Sequence[str]) -> list[DatasetSpec]:
    """Unique dataset specs the given experiments consume, in order."""
    specs: list[DatasetSpec] = []
    for eid in ids:
        for spec in SPEC_REQUIREMENTS.get(eid, ()):
            if spec not in specs:
                specs.append(spec)
    return specs


def default_jobs(n_tasks: int) -> int:
    """Bounded executor width: enough threads to overlap the suite's
    independent drivers, never more than there are tasks."""
    cpus = os.cpu_count() or 1
    return max(1, min(n_tasks, max(2, cpus)))


def run_suite(
    ids: Optional[Sequence[str]] = None,
    *,
    parallel: bool = True,
    jobs: Optional[int] = None,
) -> SuiteRun:
    """Run the selected experiments through the engine (see module doc)."""
    ids = normalize_ids(ids)
    t_start = time.perf_counter()
    for spec in required_specs(ids):
        build_dataset(spec)
    build_s = time.perf_counter() - t_start

    def _run(eid: str) -> ExperimentResult:
        t0 = time.perf_counter()
        result = EXPERIMENTS[eid][1]()
        result.wall_s = time.perf_counter() - t0
        return result

    t_drivers = time.perf_counter()
    n_jobs = 1
    if parallel and len(ids) > 1:
        n_jobs = jobs if jobs and jobs > 0 else default_jobs(len(ids))
    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(_run, ids))
    else:
        results = [_run(eid) for eid in ids]
    now = time.perf_counter()
    return SuiteRun(
        results=results,
        mode="parallel" if n_jobs > 1 else "serial",
        jobs=n_jobs,
        build_s=build_s,
        drivers_s=now - t_drivers,
        total_s=now - t_start,
        wall_by_id={r.id: r.wall_s for r in results},
    )
