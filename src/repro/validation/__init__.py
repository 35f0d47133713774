"""Validation: metrics, LOOCV/k-fold, and decision-policy evaluation."""

from .metrics import (
    BENEFIT_THRESHOLD,
    Confusion,
    EvalReport,
    confusion,
    evaluate,
    mae,
    pearson,
    rmse,
    spearman,
)
from .loocv import (
    fast_loocv_eligible,
    kfold_predictions,
    loocv_predictions,
    warm_nnls_eligible,
    warm_svr_eligible,
)
from .decisions import (
    PolicyOutcome,
    always_cycles,
    never_cycles,
    oracle_cycles,
    policy_cycles,
)

__all__ = [
    "BENEFIT_THRESHOLD",
    "Confusion",
    "EvalReport",
    "confusion",
    "evaluate",
    "mae",
    "pearson",
    "rmse",
    "spearman",
    "kfold_predictions",
    "loocv_predictions",
    "fast_loocv_eligible",
    "warm_nnls_eligible",
    "warm_svr_eligible",
    "PolicyOutcome",
    "always_cycles",
    "never_cycles",
    "oracle_cycles",
    "policy_cycles",
]
