"""Warm-started SVR LOOCV: certificate contract and fold parity."""

import numpy as np
import pytest

import repro.fitting.svr as svr_mod
from repro.costmodel import RatedSpeedupModel, SpeedupModel
from repro.experiments import ARM_LLV, X86_SLP, build_dataset
from repro.fitting import LinearSVR
from repro.fitting.svr import (
    CERT_REL_GAP,
    SVRWarmStats,
    svr_fold_objective,
    svr_warm_loocv,
)
from repro.validation import loocv_predictions
from repro.validation.loocv import warm_svr_eligible


def toy_Xy(n=40, d=6, seed=0, noise=0.05):
    """A well-posed linear regression problem with mild noise."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 4.0, size=(n, d))
    w = rng.uniform(0.1, 1.0, size=d)
    y = X @ w + noise * rng.standard_normal(n)
    return X, y


def cold_fold_coefs(svr_proto, X, y):
    """The per-fold coefficients a cold refit loop produces."""
    n = X.shape[0]
    coefs = []
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        mask[i] = False
        cold = LinearSVR(
            C=svr_proto.C,
            epsilon=svr_proto.epsilon,
            nonneg=svr_proto.nonneg,
            smoothing=svr_proto.smoothing,
            max_iter=svr_proto.max_iter,
        ).fit(X[mask], y[mask])
        mask[i] = True
        coefs.append(cold.coef_)
    return coefs


class TestCertificateContract:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("target", ["speedup", "cost"])
    def test_warm_matches_cold_within_certificate_bound(self, seed, target):
        """Fold for fold, the warm prediction must sit within the
        distance the certificate permits from the cold refit's.

        Strong convexity (Hessian ⪰ I) gives ‖w − w*‖ ≤ √(2·gap) for
        any point within ``gap`` of the optimum in objective value.
        Warm and cold each certify against gap = CERT_REL_GAP·(1+|f|),
        so their scaled coefficients are ≤ 2·√(2·gap) apart, and the
        held-out prediction differs by at most that times the scaled
        row norm, times the fold's y_scale.  This is the *exact*
        contract — no hand-tuned tolerance.
        """
        X, y = toy_Xy(n=30, seed=seed)
        if target == "cost":
            y = 10.0 * y  # cost-scale targets exercise the y_scale path
        svr = LinearSVR()
        out = svr_warm_loocv(svr, X, y)
        assert out is not None
        raw, stats = out
        assert stats.folds == 30
        assert stats.accepted >= 0.8 * stats.folds
        cold = cold_fold_coefs(svr, X, y)
        mask = np.ones(30, dtype=bool)
        checked = 0
        for i in range(30):
            if not np.isfinite(raw[i]):
                continue  # rejected folds are the caller's cold path
            mask[i] = False
            Xi, yi = X[mask], y[mask]
            mask[i] = True
            f_cold = svr_fold_objective(svr, Xi, yi, cold[i])
            assert np.isfinite(f_cold)
            gap = CERT_REL_GAP * (1.0 + abs(f_cold))
            _, _, cs_i, ysc_i, _ = svr._prepare(Xi, yi)
            row_norm = float(np.linalg.norm(X[i] / cs_i))
            allowed = 2.0 * np.sqrt(2.0 * gap) * row_norm * ysc_i
            cold_pred = float(X[i] @ cold[i])
            assert abs(raw[i] - cold_pred) <= allowed + 1e-9
            checked += 1
        assert checked == stats.accepted

    def test_nonneg_is_outside_the_warm_contract(self):
        X, y = toy_Xy(n=20)
        assert svr_warm_loocv(LinearSVR(nonneg=True), X, y) is None

    def test_tiny_problems_are_outside_the_warm_contract(self):
        X, y = toy_Xy(n=2)
        assert svr_warm_loocv(LinearSVR(), X, y) is None

    def test_stats_str(self):
        stats = SVRWarmStats(folds=10, accepted=8)
        assert stats.rejected == 2
        assert stats.acceptance == pytest.approx(0.8)
        assert "8/10" in str(stats)


class TestSuiteDatasets:
    """The acceptance-rate gate on the real suite datasets."""

    @pytest.mark.parametrize("spec", [ARM_LLV, X86_SLP], ids=["arm", "x86"])
    def test_acceptance_at_least_80_percent(self, spec):
        ds = build_dataset(spec)
        model = RatedSpeedupModel(LinearSVR())
        X, y = model.training_data(ds.samples)
        out = svr_warm_loocv(model.regressor, np.asarray(X), np.asarray(y))
        assert out is not None
        raw, stats = out
        assert stats.folds == len(ds.samples)
        assert stats.acceptance >= 0.8
        # Accepted folds must have produced finite raw predictions.
        assert np.isfinite(raw).sum() == stats.accepted


class TestLOOCVIntegration:
    def test_eligibility_dispatch(self):
        assert warm_svr_eligible(RatedSpeedupModel(LinearSVR()))
        assert warm_svr_eligible(SpeedupModel(LinearSVR()))
        assert not warm_svr_eligible(SpeedupModel(LinearSVR(nonneg=True)))

    def test_warm_and_cold_loocv_agree(self):
        ds = build_dataset(ARM_LLV)
        samples = ds.samples[:40]

        def factory():
            return RatedSpeedupModel(LinearSVR())

        stats = {}
        warm = loocv_predictions(factory, samples, stats=stats)
        cold = loocv_predictions(factory, samples, fast=False)
        assert "svr_warm" in stats
        assert np.isfinite(warm).all() and np.isfinite(cold).all()
        # Objective-level equivalence: both paths sit within the
        # certificate gap of the same strongly-convex optimum, so
        # predictions agree to ~sqrt(gap), far tighter than any
        # reported table digit.
        np.testing.assert_allclose(warm, cold, atol=5e-3)

    def test_forced_certificate_failure_falls_back_cold(self, monkeypatch):
        """With an impossible certificate every fold is rejected; the
        LOOCV harness must refit those folds cold and still return a
        full, finite prediction vector that matches the cold path."""
        ds = build_dataset(ARM_LLV)
        samples = ds.samples[:25]

        def factory():
            return RatedSpeedupModel(LinearSVR())

        monkeypatch.setattr(svr_mod, "CERT_REL_GAP", 0.0)
        stats = {}
        preds = loocv_predictions(factory, samples, stats=stats)
        warm_stats = stats["svr_warm"]
        assert warm_stats.accepted == 0
        assert np.isfinite(preds).all()
        cold = loocv_predictions(factory, samples, fast=False)
        np.testing.assert_array_equal(preds, cold)


class TestReentrancy:
    def test_fit_does_not_mutate_epsilon(self):
        """The scaled tube width is threaded through ``_objective``
        explicitly; ``fit`` must never write ``self.epsilon``."""
        X, y = toy_Xy(n=20)
        svr = LinearSVR(epsilon=0.25)
        svr.fit(X, 100.0 * y)  # y_scale > 1 → scaled eps != epsilon
        assert svr.epsilon == 0.25

    def test_shared_instance_fits_are_order_independent(self):
        """Two datasets fitted through one instance give the same
        coefficients as through fresh instances (no state leaks)."""
        Xa, ya = toy_Xy(n=20, seed=0)
        Xb, yb = toy_Xy(n=20, seed=1)
        yb = 50.0 * yb
        shared = LinearSVR()
        ca = shared.fit(Xa, ya).coef_.copy()
        cb = shared.fit(Xb, yb).coef_.copy()
        np.testing.assert_array_equal(ca, LinearSVR().fit(Xa, ya).coef_)
        np.testing.assert_array_equal(cb, LinearSVR().fit(Xb, yb).coef_)

    def test_warm_loocv_leaves_instance_unfitted_state_alone(self):
        X, y = toy_Xy(n=15)
        svr = LinearSVR(epsilon=0.1)
        svr_warm_loocv(svr, X, y)
        assert svr.epsilon == 0.1
        assert svr._coef is None  # the sweep never calls fit()
