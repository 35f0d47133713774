"""Static-analysis framework: pass manager, dataflow, races, lint.

The subsystem behind ``python -m repro.experiments analyze`` and the
explanation layer of the vectorizer: registered analysis passes run
over a :class:`~repro.ir.kernel.LoopKernel` through an
:class:`AnalysisManager` (result caching + dependency-aware
invalidation), and decisions surface as LLVM-style structured remarks
through :class:`Diagnostics`.

The sanitizer (:mod:`.sanitizer`) is imported lazily by its consumers
to keep this package free of executor dependencies.
"""

from .diagnostics import Diagnostics, Remark, Severity
from .lint import LintPass, lint_kernel
from .passmanager import (
    PASS_REGISTRY,
    AnalysisManager,
    AnalysisPass,
    default_manager,
    register_pass,
    reset_default_manager,
)
from .passes import (
    ENTRY_DEF,
    AccessPass,
    DefUse,
    DefUsePass,
    DependencePass,
    Liveness,
    LivenessPass,
    LoopInvariance,
    LoopInvariantPass,
    ReachingDefs,
    ReachingDefsPass,
    ScalarClassPass,
    stmt_list,
)
from .racedetector import (
    DependenceVector,
    Direction,
    Race,
    RacePass,
    RaceReport,
    analyze_races,
)
from .ranges import (
    AccessBounds,
    BoundsCheckPass,
    BoundsInfo,
    GuardRangeInfo,
    GuardRangePass,
    RangesResult,
    SafetyReport,
    ValueRangePass,
    crosscheck_kernel,
    prove_safe,
)

__all__ = [
    "AccessBounds",
    "BoundsCheckPass",
    "BoundsInfo",
    "GuardRangeInfo",
    "GuardRangePass",
    "RangesResult",
    "SafetyReport",
    "ValueRangePass",
    "crosscheck_kernel",
    "prove_safe",
    "Diagnostics",
    "Remark",
    "Severity",
    "LintPass",
    "lint_kernel",
    "PASS_REGISTRY",
    "AnalysisManager",
    "AnalysisPass",
    "default_manager",
    "register_pass",
    "reset_default_manager",
    "ENTRY_DEF",
    "AccessPass",
    "DefUse",
    "DefUsePass",
    "DependencePass",
    "Liveness",
    "LivenessPass",
    "LoopInvariance",
    "LoopInvariantPass",
    "ReachingDefs",
    "ReachingDefsPass",
    "ScalarClassPass",
    "stmt_list",
    "DependenceVector",
    "Direction",
    "Race",
    "RacePass",
    "RaceReport",
    "analyze_races",
]
