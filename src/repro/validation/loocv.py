"""Leave-one-out cross validation (paper slides 11 and 16).

Each kernel is predicted by a model fitted on all *other* kernels —
the honest estimate of how the fitted cost model generalizes to loops
it has never seen, which is how a compiler would actually use it.

For the linear L2 (ridge) speedup models the N refits collapse to one
factorization through the hat-matrix identity

    ŷ₋ᵢ(xᵢ) = (ŷᵢ − hᵢᵢ yᵢ) / (1 − hᵢᵢ),

where ``h`` is the diagonal of the smoother X(XᵀX + λI)⁻¹Xᵀ.

NNLS folds get a cheaper loop of their own: each deleted-row problem is
warm-started from the full fit's active set (one restricted ``lstsq``
plus a KKT certificate, see :func:`repro.fitting.nnls.nnls_warm_start`)
and only the folds whose certificate fails pay for a cold Lawson–Hanson
solve.

SVR folds are warm-started from a polished full fit and certified via
strong convexity (see :func:`repro.fitting.svr.svr_warm_loocv`); folds
whose certificate fails are refit cold, so every prediction is still a
true per-fold optimum.

The refit loop remains the generic fallback for custom models and for
rows no fast path can certify.  For the built-in speedup-model family
it deletes rows from the shared cached feature matrix (one boolean
mask per fold) instead of rebuilding O(N²) sample sublists.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..costmodel.base import EPS, FittedModel, Sample
from ..costmodel.speedup import SpeedupModel
from ..fitting.base import FitError, check_Xy
from ..fitting.l2 import LeastSquares
from ..fitting.nnls import NonNegativeLeastSquares, nnls_warm_start
from ..fitting.svr import LinearSVR, svr_warm_loocv

ModelFactory = Callable[[], FittedModel]

#: Rows whose leverage is this close to 1 are refitted naively — the
#: identity divides by (1 − h) and the deleted design may drop rank.
LEVERAGE_TOL = 1e-8


def loocv_predictions(
    factory: ModelFactory,
    samples: Sequence[Sample],
    *,
    fast: bool = True,
    stats: Optional[dict] = None,
) -> np.ndarray:
    """Out-of-fold speedup prediction for every sample.

    A fold whose fit fails (degenerate feature matrix after removing
    the held-out kernel) predicts NaN; callers decide how to count it.
    ``fast=False`` forces the refit loop even for eligible models
    (used by the cross-check tests and benches).  When ``stats`` is a
    dict, fast-path accounting (e.g. the SVR certificate acceptance
    under ``"svr_warm"``) is recorded into it.
    """
    samples = list(samples)
    if fast and len(samples) >= 2:
        probe = factory()
        preds = None
        if fast_loocv_eligible(probe):
            preds = _fast_l2_predictions(probe, samples)
        elif warm_nnls_eligible(probe):
            preds = _warm_nnls_predictions(probe, samples)
        elif warm_svr_eligible(probe):
            preds = _warm_svr_predictions(probe, samples, stats)
        if preds is not None:
            bad = np.nonzero(~np.isfinite(preds))[0]
            if bad.size:
                refit = _refit_predictions(factory, samples, indices=bad)
                preds[bad] = refit[bad]
            return preds
    return _refit_predictions(factory, samples)


def fast_loocv_eligible(model: FittedModel) -> bool:
    """The hat-matrix path handles exactly the L2 speedup models."""
    return isinstance(model, SpeedupModel) and type(model.regressor) is LeastSquares


def warm_nnls_eligible(model: FittedModel) -> bool:
    """The warm-start path handles exactly the NNLS speedup models."""
    return (
        isinstance(model, SpeedupModel)
        and type(model.regressor) is NonNegativeLeastSquares
    )


def warm_svr_eligible(model: FittedModel) -> bool:
    """The SVR warm path: unbounded linear SVR speedup models."""
    return (
        isinstance(model, SpeedupModel)
        and type(model.regressor) is LinearSVR
        and not model.regressor.nonneg
    )


def _clip_like_predict(
    model: SpeedupModel, raw: np.ndarray, samples: Sequence[Sample]
) -> np.ndarray:
    """Re-apply ``predict_speedup``'s clipping to finite entries so the
    fast paths agree with the refit loop exactly."""
    ok = np.isfinite(raw)
    if model.clip_to_vf:
        vf = np.array([float(smp.vf) for smp in samples])
        raw[ok] = np.clip(raw[ok], EPS, vf[ok])
    else:
        raw[ok] = np.maximum(raw[ok], EPS)
    return raw


def _refit_predictions(
    factory: ModelFactory,
    samples: list[Sample],
    indices: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The fallback loop: refit once per held-out sample (or index).

    Built-in speedup models refit on row-masked views of the cached
    feature matrix; anything else gets the generic sample-list loop
    (still masked, so no O(N²) list concatenation either way).
    """
    preds = np.full(len(samples), np.nan)
    held = (
        np.arange(len(samples))
        if indices is None
        else np.asarray(indices, dtype=np.intp)
    )
    if len(samples) >= 2:
        probe = factory()
        if isinstance(probe, SpeedupModel):
            return _matrix_refit_predictions(factory, samples, held, preds)
    arr = np.empty(len(samples), dtype=object)
    arr[:] = samples
    mask = np.ones(len(samples), dtype=bool)
    for i in held:
        mask[i] = False
        train = list(arr[mask])
        mask[i] = True
        model = factory()
        try:
            model.fit(train)
            preds[i] = model.predict_speedup(samples[i])
        except (FitError, FloatingPointError):
            continue
    return preds


def _matrix_refit_predictions(
    factory: ModelFactory,
    samples: list[Sample],
    held: np.ndarray,
    preds: np.ndarray,
) -> np.ndarray:
    """Per-fold refits for speedup models, one row-mask per fold.

    The design matrix is materialized once (from the shared bundle for
    registered featurizers); each fold fits the regressor on ``X`` with
    the held-out row deleted — the same rows, values and clipping as
    ``model.fit(train); model.predict_speedup(samples[i])``.
    """
    probe = factory()
    X, y = probe.training_data(samples)
    mask = np.ones(len(samples), dtype=bool)
    for i in held:
        model = factory()
        mask[i] = False
        try:
            model.regressor.fit(X[mask], y[mask])
        except (FitError, FloatingPointError):
            continue
        finally:
            mask[i] = True
        raw = float(model.regressor.predict(X[i][None, :])[0])
        if model.clip_to_vf:
            preds[i] = float(np.clip(raw, EPS, float(samples[i].vf)))
        else:
            preds[i] = max(raw, EPS)
    return preds


def _fast_l2_predictions(
    model: SpeedupModel, samples: list[Sample]
) -> Optional[np.ndarray]:
    """All N out-of-fold predictions from a single SVD, or None.

    Matches ``numpy.linalg.lstsq(rcond=None)``'s singular-value cutoff
    for the λ=0 case so the fast path reproduces the refit loop's
    pseudo-inverse behavior; rows it cannot certify (leverage ≈ 1) are
    left NaN for the caller to refit naively.
    """
    try:
        X, y = check_Xy(*model.training_data(samples))
    except FitError:
        return None
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    ridge = float(getattr(model.regressor, "ridge", 0.0))
    if ridge > 0.0:
        d = s**2 / (s**2 + ridge)
    else:
        tol = np.finfo(X.dtype).eps * max(X.shape) * (s[0] if s.size else 0.0)
        d = (s > tol).astype(np.float64)
    Ud = U * d
    yhat = Ud @ (U.T @ y)
    h = np.einsum("ij,ij->i", Ud, U)
    denom = 1.0 - h
    raw = np.full(len(samples), np.nan)
    ok = np.abs(denom) > LEVERAGE_TOL
    raw[ok] = (yhat[ok] - h[ok] * y[ok]) / denom[ok]
    raw[~ok] = np.nan
    return _clip_like_predict(model, raw, samples)


def _warm_nnls_predictions(
    model: SpeedupModel, samples: list[Sample]
) -> Optional[np.ndarray]:
    """Out-of-fold NNLS predictions warm-started from the full fit.

    One cold Lawson–Hanson solve fixes the active-set guess; every fold
    then costs a single restricted ``lstsq`` plus a KKT certificate.
    Folds whose certificate fails (the deleted row *did* change the
    active set) are left NaN for the caller's cold-refit fallback, so
    every prediction comes from a true per-fold NNLS optimum.  On
    rank-deficient designs the optimum need not be unique: warm and
    cold solvers can return different minimizers of identical residual
    norm, so equivalence checks must compare objectives, not weights.
    """
    try:
        X, y = check_Xy(*model.training_data(samples))
    except FitError:
        return None
    full = NonNegativeLeastSquares()
    try:
        full.fit(X, y)
    except FitError:
        return None
    support = full.support_
    n = len(samples)
    raw = np.full(n, np.nan)
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        mask[i] = False
        w = nnls_warm_start(X[mask], y[mask], support, validate=False)
        mask[i] = True
        if w is not None:
            raw[i] = float(X[i] @ w)
    return _clip_like_predict(model, raw, samples)


def _warm_svr_predictions(
    model: SpeedupModel, samples: list[Sample], stats: Optional[dict] = None
) -> Optional[np.ndarray]:
    """Out-of-fold SVR predictions via warm-started fold solves.

    Thin wrapper over :func:`repro.fitting.svr.svr_warm_loocv`; folds
    the certificate rejects stay NaN for the caller's cold fallback.
    Certificate accounting lands in ``stats["svr_warm"]``.
    """
    try:
        X, y = check_Xy(*model.training_data(samples))
    except FitError:
        return None
    out = svr_warm_loocv(model.regressor, X, y)
    if out is None:
        return None
    raw, warm_stats = out
    if stats is not None:
        stats["svr_warm"] = warm_stats
    return _clip_like_predict(model, raw, samples)


def kfold_predictions(
    factory: ModelFactory,
    samples: Sequence[Sample],
    k: int = 10,
    seed: int = 0,
) -> np.ndarray:
    """k-fold variant; cheaper than naive LOOCV, same contract."""
    samples = list(samples)
    n = len(samples)
    if k < 2 or k > n:
        raise ValueError(f"k={k} invalid for {n} samples")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    preds = np.full(n, np.nan)
    folds = np.array_split(order, k)
    probe = factory()
    if isinstance(probe, SpeedupModel):
        X, y = probe.training_data(samples)
        for fold in folds:
            model = factory()
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            try:
                model.regressor.fit(X[mask], y[mask])
            except (FitError, FloatingPointError):
                continue
            for j in fold:
                raw = float(model.regressor.predict(X[j][None, :])[0])
                if model.clip_to_vf:
                    preds[j] = float(np.clip(raw, EPS, float(samples[j].vf)))
                else:
                    preds[j] = max(raw, EPS)
        return preds
    arr = np.empty(n, dtype=object)
    arr[:] = samples
    for fold in folds:
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        model = factory()
        try:
            model.fit(list(arr[mask]))
        except (FitError, FloatingPointError):
            continue
        for j in fold:
            preds[j] = model.predict_speedup(samples[j])
    return preds
