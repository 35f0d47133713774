"""Feature-matrix cache tests: parity, fingerprinting, invalidation."""

import numpy as np
import pytest

from repro.costmodel import (
    LLVMLikeCostModel,
    LinearCostModel,
    RatedSpeedupModel,
    SpeedupModel,
    clear_matrix_cache,
    design_matrix,
    get_bundle,
    matrix_cache_info,
    predict_all,
    samples_fingerprint,
)
from repro.costmodel.extended import extended_features
from repro.costmodel.rated import rated_features, rated_with_vf
from repro.costmodel.speedup import count_features, vector_count_features
from repro.costmodel.matrix import target_vector
from repro.fitting import LeastSquares

from tests.test_costmodel import feat, mk_sample


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_matrix_cache()
    yield
    clear_matrix_cache()


def toy_samples(n=10, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        counts = {
            k: float(rng.integers(1, 5)) for k in ("load", "add", "mul", "store")
        }
        out.append(
            mk_sample(
                name=f"s{i:03d}",
                scalar=feat(load=2, add=1, store=1),
                vector=feat(**counts),
                speedup=float(rng.uniform(0.5, 3.5)),
                scpi=float(rng.uniform(1.0, 4.0)),
                vcpi=float(rng.uniform(1.0, 4.0)),
            )
        )
    return out


REGISTERED = [
    count_features,
    vector_count_features,
    rated_features,
    rated_with_vf,
    extended_features,
]


class TestBatchParity:
    """Batch builders must match the per-sample loop row for row."""

    @pytest.mark.parametrize("fn", REGISTERED, ids=lambda f: f.__name__)
    def test_design_matrix_matches_loop(self, fn):
        samples = toy_samples()
        looped = np.stack([fn(s) for s in samples])
        clear_matrix_cache()
        fresh = design_matrix(samples, fn)
        cached = design_matrix(samples, fn)
        assert cached is fresh  # the second call is served by the bundle
        assert np.array_equal(fresh, looped)

    def test_target_speedup_matches_loop(self):
        samples = toy_samples()
        assert np.array_equal(
            target_vector(samples, "speedup"),
            np.array([s.measured_speedup for s in samples]),
        )

    def test_target_implied_cost_matches_seed_formula(self):
        samples = toy_samples()
        model = LinearCostModel(LeastSquares())
        _, y = model.training_data(samples)
        expected = np.array([model.implied_vector_cost(s) for s in samples])
        np.testing.assert_allclose(y, expected, rtol=1e-12)

    def test_unknown_target_kind(self):
        with pytest.raises(KeyError):
            target_vector(toy_samples(3), "nope")

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: SpeedupModel(LeastSquares()),
            lambda: RatedSpeedupModel(LeastSquares()),
            lambda: LinearCostModel(LeastSquares()),
        ],
        ids=["speedup", "rated", "linear-cost"],
    )
    def test_predict_all_batch_matches_per_sample(self, factory):
        samples = toy_samples(12)
        model = factory().fit(samples)
        batch = predict_all(model, samples)
        looped = np.array([model.predict_speedup(s) for s in samples])
        np.testing.assert_allclose(batch, looped, rtol=0, atol=1e-12)

    def test_predict_all_static_model(self):
        samples = toy_samples(8)
        model = LLVMLikeCostModel()
        batch = predict_all(model, samples)
        looped = np.array([model.predict_speedup(s) for s in samples])
        np.testing.assert_allclose(batch, looped, rtol=0, atol=1e-12)


class TestFingerprint:
    def test_stable_for_equal_content(self):
        assert samples_fingerprint(toy_samples()) == samples_fingerprint(
            toy_samples()
        )

    def test_changes_on_speedup(self):
        samples = toy_samples()
        bumped = [samples[0].with_speedup(9.9)] + samples[1:]
        assert samples_fingerprint(samples) != samples_fingerprint(bumped)

    def test_changes_on_features(self):
        samples = toy_samples()
        other = toy_samples()
        other[3] = mk_sample(
            name=other[3].name, vector=feat(div=7), speedup=other[3].measured_speedup
        )
        assert samples_fingerprint(samples) != samples_fingerprint(other)

    def test_changes_on_order_and_length(self):
        samples = toy_samples()
        assert samples_fingerprint(samples) != samples_fingerprint(samples[::-1])
        assert samples_fingerprint(samples) != samples_fingerprint(samples[:-1])


class TestInvalidation:
    def test_same_content_shares_one_bundle(self):
        a = get_bundle(toy_samples())
        b = get_bundle(toy_samples())
        assert a is b
        assert matrix_cache_info()["hits"] >= 1

    def test_mutated_dataset_rebuilds(self):
        samples = toy_samples()
        before = get_bundle(samples)
        jittered = [s.with_speedup(s.measured_speedup * 1.01) for s in samples]
        after = get_bundle(jittered)
        assert after is not before
        assert after.fingerprint != before.fingerprint
        assert not np.array_equal(after.measured, before.measured)

    def test_derived_matrices_follow_the_rebuild(self):
        samples = toy_samples()
        x_before = design_matrix(samples, rated_features)
        mutated = list(samples)
        mutated[0] = mk_sample(
            name=samples[0].name,
            vector=feat(load=9, div=9),
            speedup=samples[0].measured_speedup,
        )
        x_after = design_matrix(mutated, rated_features)
        assert not np.array_equal(x_before[0], x_after[0])
        np.testing.assert_array_equal(x_before[1:], x_after[1:])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            get_bundle([])


class TestCacheControl:
    def test_clear_drops_bundles(self):
        get_bundle(toy_samples())
        assert matrix_cache_info()["bundles"] == 1
        clear_matrix_cache()
        info = matrix_cache_info()
        assert info["bundles"] == 0 and info["hits"] == 0

    def test_shared_arrays_are_readonly(self):
        samples = toy_samples()
        bundle = get_bundle(samples)
        with pytest.raises(ValueError):
            bundle.measured[0] = 0.0
        X = design_matrix(samples, rated_features)
        with pytest.raises(ValueError):
            X[0, 0] = 1.0

    def test_unregistered_featurizer_not_cached(self):
        samples = toy_samples()

        def custom(s):
            return s.vector_features * 2.0

        X = design_matrix(samples, custom)
        assert np.array_equal(X, np.stack([custom(s) for s in samples]))
        assert X.flags.writeable  # per-call stack, caller owns it
        assert matrix_cache_info()["bundles"] == 0
