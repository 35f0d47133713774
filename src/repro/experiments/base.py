"""Experiment scaffolding: results, the model zoo, and the engine memo.

The *engine memo* is the fitting-side analogue of the dataset memo:
E1–E12 share fitted models and LOOCV sweeps.  The suite fits, e.g.,
rated-NNLS on the ARM dataset in four different drivers (E4, E5, E6,
E7); with the memo the first caller pays and the rest reuse the
fitted model.  Keys are (dataset fingerprint, model name), so any
change to the sample list rebuilds.  The memo is a
:class:`~repro.memo.Memo`: concurrent drivers asking for the same
(dataset, model) pair share one computation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..costmodel.base import Sample, predict_all
from ..costmodel.linear import LinearCostModel
from ..costmodel.llvm_like import LLVMLikeCostModel
from ..costmodel.matrix import samples_fingerprint
from ..costmodel.rated import RatedSpeedupModel
from ..costmodel.speedup import SpeedupModel
from ..fitting import LeastSquares, LinearSVR, NonNegativeLeastSquares
from ..memo import Memo
from ..validation.loocv import loocv_predictions
from ..validation.metrics import EvalReport, evaluate
from .reporting import ascii_table, text_scatter


@dataclass
class ExperimentResult:
    """What one paper figure reproduces to.

    ``rows`` is the table the figure's caption would carry (one row per
    model/series); ``series`` holds the raw predicted/measured arrays
    so benches and EXPERIMENTS.md can recompute anything; ``notes``
    records interpretation and divergences.
    """

    id: str
    title: str
    rows: list[dict] = field(default_factory=list)
    #: additional (title, rows) tables with their own column schema
    tables: list[tuple[str, list[dict]]] = field(default_factory=list)
    series: dict[str, np.ndarray] = field(default_factory=dict)
    scatters: dict[str, str] = field(default_factory=dict)
    notes: str = ""
    #: Driver wall time, filled by the suite scheduler.  Deliberately
    #: not rendered by ``to_text`` — report tables must stay
    #: bit-identical across serial/parallel/cached runs.
    wall_s: float = 0.0

    def to_text(self, include_scatter: bool = True) -> str:
        parts = [f"== {self.id}: {self.title} =="]
        if self.rows:
            parts.append(ascii_table(self.rows))
        for table_title, table_rows in self.tables:
            parts.append(ascii_table(table_rows, title=table_title))
        if include_scatter:
            for label, scatter in self.scatters.items():
                parts.append(scatter if not label else f"[{label}]\n{scatter}")
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n\n".join(parts)

    def row_for(self, model: str) -> dict:
        for r in self.rows:
            if r.get("model") == model:
                return r
        raise KeyError(f"no row for model {model!r} in {self.id}")


# -- the model zoo -----------------------------------------------------------


def make_baseline() -> LLVMLikeCostModel:
    return LLVMLikeCostModel()


def make_cost_model(method: str) -> LinearCostModel:
    return LinearCostModel(_regressor(method))


def make_speedup_model(method: str) -> SpeedupModel:
    return SpeedupModel(_regressor(method))


def make_rated_model(method: str) -> RatedSpeedupModel:
    return RatedSpeedupModel(_regressor(method))


def _regressor(method: str):
    key = method.lower()
    if key == "l2":
        return LeastSquares()
    if key == "nnls":
        return NonNegativeLeastSquares()
    if key == "svr":
        return LinearSVR()
    raise ValueError(f"unknown fitting method {method!r}")


# -- the engine memo ---------------------------------------------------------

_ENGINE = Memo()


def clear_engine_cache() -> None:
    """Drop every memoized fit/LOOCV result (datasets survive)."""
    _ENGINE.clear()


def engine_cache_info() -> dict:
    return _ENGINE.info()


def fit_cached(model, samples: Sequence[Sample]):
    """Fit ``model`` on ``samples`` — or return the already-fitted
    model another driver produced for the same (dataset, model name).

    The returned instance may not be the one passed in; fitted models
    are immutable after ``fit`` in this codebase, so sharing is safe.
    """
    key = ("fit", samples_fingerprint(samples), model.name)
    return _ENGINE.get(key, lambda: model.fit(samples))


def loocv_cached(
    factory: Callable[[], object],
    samples: Sequence[Sample],
    stats: Optional[dict] = None,
) -> np.ndarray:
    """LOOCV predictions, deduped like :func:`fit_cached`.

    ``stats`` receives the fast-path accounting (e.g. the SVR warm
    certificate) whether the sweep was computed or replayed from the
    memo.  The returned array is a private copy.
    """
    probe = factory()
    key = ("loocv", samples_fingerprint(samples), probe.name)

    def compute() -> tuple[np.ndarray, dict]:
        st: dict = {}
        preds = loocv_predictions(factory, samples, stats=st)
        return preds, st

    preds, st = _ENGINE.get(key, compute)
    if stats is not None:
        stats.update(st)
    return preds.copy()


def fit_and_report(
    model,
    samples: Sequence[Sample],
    measured: np.ndarray,
    fit: bool = True,
) -> tuple[EvalReport, np.ndarray]:
    """Fit on the full set and evaluate in-sample (the slides' setup
    for the non-LOOCV figures).  Fit, predictions and report are all
    served from the engine memo when another driver already asked for
    the same (dataset, model, targets) triple."""
    measured = np.asarray(measured, dtype=np.float64)
    key = (
        "report",
        samples_fingerprint(samples),
        model.name,
        fit,
        hashlib.sha1(measured.tobytes()).hexdigest(),
    )

    def compute() -> tuple[EvalReport, np.ndarray]:
        fitted = fit_cached(model, samples) if fit else model
        preds = predict_all(fitted, samples)
        return evaluate(fitted.name, preds, measured), preds

    report, preds = _ENGINE.get(key, compute)
    return report, preds.copy()


def scatter_for(
    result: ExperimentResult,
    label: str,
    preds: np.ndarray,
    measured: np.ndarray,
    vf: Optional[int] = None,
) -> None:
    result.series[f"{label}.predicted"] = np.asarray(preds)
    result.series.setdefault("measured", np.asarray(measured))
    result.scatters[label] = text_scatter(
        preds, measured, title=f"{label}: estimated vs measured speedup"
    )
