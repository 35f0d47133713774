"""Plan-space DSE engine tests (repro.dse + repro.vectorize.plan).

The contract under test, layer by layer:

* **Enumeration** — every emitted :class:`PlanPoint` is legal: it
  materializes into a real vectorization plan (or is the scalar
  point), the scalar point comes first, and the natural-VF default
  leads the vector points.
* **Oracle batching** — one batched predict over the candidate set is
  bit-identical to scoring each pseudo-sample individually.
* **Drivers** — deterministic under a seed (bandit and hill-climb
  replay exactly), and the ``verified`` driver can never do worse
  than the natural-VF default (its shortlist always contains it).
* **Memoization** — warm searches return the cached object; bumping
  the model (refit on different data → new weights) changes the model
  fingerprint and invalidates every dependent search.
* **Chaos** — injected faults drain deterministically and a faulted
  search returns the bit-identical result of an unfaulted one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen.interleave import interleave_stream
from repro.costmodel.speedup import SpeedupModel
from repro.dse import (
    clear_dse_cache,
    dse_cache_info,
    model_fingerprint,
    search_kernel,
)
from repro.dse import oracle, points as points_mod, search
from repro.fitting.nnls import NonNegativeLeastSquares
from repro.pipeline.faultinject import parse_faults
from repro.serve.chaos import suite_payloads
from repro.targets import ARMV8_NEON
from repro.tsvc import all_kernels
from repro.vectorize.plan import (
    PlanPoint,
    default_plan_point,
    enumerate_plan_points,
    is_plan,
    scalar_point,
)

from tests.helpers import SMALL

SUITE = list(all_kernels(dims=SMALL))


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_dse_cache()
    yield
    clear_dse_cache()


@pytest.fixture(scope="module")
def model():
    samples = [s for _, _, s in suite_payloads(12)]
    return SpeedupModel(NonNegativeLeastSquares()).fit(samples)


@pytest.fixture(scope="module")
def bumped_model():
    """Same family, different fit → different weights → new version."""
    samples = [s for _, _, s in suite_payloads(8)]
    return SpeedupModel(NonNegativeLeastSquares()).fit(samples)


# -- plan-space enumeration ---------------------------------------------------


def test_planpoint_validation():
    with pytest.raises(ValueError):
        # vector points need vf >= 2
        PlanPoint(vf=1, interleave=1, unroll=1, strategy="llv", target="t")
    with pytest.raises(ValueError):
        PlanPoint(vf=4, interleave=1, unroll=1, strategy="bogus", target="t")
    with pytest.raises(ValueError):
        # scalar carries no vector knobs
        PlanPoint(vf=1, interleave=2, unroll=1, strategy="scalar", target="t")
    p = scalar_point(ARMV8_NEON)
    assert p.is_scalar and p.label() == "scalar"


@pytest.mark.parametrize("kernel", SUITE[:24], ids=lambda k: k.name)
def test_enumeration_emits_only_legal_points(kernel):
    """Every emitted vector point materializes into a real plan —
    enumeration prunes by legality, it does not re-walk dependences
    per point and it never emits a point the vectorizer rejects."""
    points = enumerate_plan_points(kernel, ARMV8_NEON)
    assert points[0].is_scalar, "scalar point must come first"
    assert len(set(points)) == len(points), "duplicate plan points"
    bases: dict = {}
    for point in points[1:]:
        result = points_mod.materialize_point(
            kernel, ARMV8_NEON, point, bases=bases
        )
        assert is_plan(result), (
            f"{kernel.name}: emitted point {point.label()} does not "
            f"materialize: {getattr(result, 'reason', result)}"
        )


def test_default_leads_vector_points():
    for kernel in SUITE[:16]:
        points = enumerate_plan_points(kernel, ARMV8_NEON)
        vector = [p for p in points if not p.is_scalar]
        if not vector:
            continue
        default = default_plan_point(kernel, ARMV8_NEON)
        assert vector[0] == default
        assert default.interleave == 1 and default.unroll == 1


# -- the interleave transform -------------------------------------------------


def test_interleave_stream_shape():
    from repro.codegen.vector_gen import lower_vector
    from repro.vectorize import vectorize_loop

    kernel = next(k for k in SUITE if k.name == "s000")
    plan = vectorize_loop(kernel, ARMV8_NEON)
    stream = lower_vector(plan, ARMV8_NEON)
    ic2 = interleave_stream(stream, 2)
    assert ic2.iters == stream.iters // 2
    assert ic2.elems_per_iter == stream.elems_per_iter * 2
    assert len(ic2.body) == 2 * len(stream.body)
    assert ic2.name.endswith(".ic2")
    # ids must stay unique after replication
    ids = [ins.id for ins in ic2.all_instrs()]
    assert len(ids) == len(set(ids))
    with pytest.raises(ValueError):
        interleave_stream(stream, 7)  # does not divide iters


# -- batched oracle -----------------------------------------------------------


def test_batched_scores_match_per_point_predict(model):
    """One batched predict == per-sample predicts, bit for bit."""
    kernel = SUITE[0]
    points = enumerate_plan_points(kernel, ARMV8_NEON)
    scores = oracle.score_points(kernel, ARMV8_NEON, points, model)
    samples, indices = oracle.candidate_samples(kernel, ARMV8_NEON, points)
    assert len(samples) == len(points) - 1  # all vector points scored
    for sample, i in zip(samples, indices):
        assert scores[i] == model.predict_speedup(sample)
    for i, p in enumerate(points):
        if p.is_scalar:
            assert scores[i] == 1.0


def test_pick_best_margin_anchors_to_default():
    target = ARMV8_NEON.name
    points = [
        scalar_point(ARMV8_NEON),
        PlanPoint(vf=4, interleave=1, unroll=1, strategy="llv", target=target),
        PlanPoint(vf=4, interleave=2, unroll=1, strategy="llv", target=target),
    ]
    # epsilon above the anchor: stay at the default
    i, best, _ = oracle.pick_best(points, [1.0, 2.0, 2.0000001])
    assert i == 1 and best == points[1]
    # clearly above the margin: deviate
    i, best, _ = oracle.pick_best(points, [1.0, 2.0, 2.5])
    assert i == 2


# -- drivers ------------------------------------------------------------------


def test_drivers_deterministic_under_seed(model):
    kernel = SUITE[1]
    for driver in search.DRIVERS:
        a = search_kernel(kernel, ARMV8_NEON, model, driver=driver, seed=3)
        clear_dse_cache()
        b = search_kernel(kernel, ARMV8_NEON, model, driver=driver, seed=3)
        assert a.to_dict() == b.to_dict(), driver


def test_verified_never_below_default(model):
    """The deployment arm's measured speedup ≥ the natural-VF default
    on every kernel — by construction (the default is shortlisted)."""
    for kernel in SUITE[:12]:
        res = search_kernel(kernel, ARMV8_NEON, model, driver="verified")
        meas = points_mod.measure_points(kernel, ARMV8_NEON, res.points)
        d_idx = oracle.default_index(res.points)
        default_speedup = meas[d_idx].speedup if meas[d_idx].ok else 0.0
        assert res.scores[res.best_index] >= default_speedup, kernel.name
        assert res.evaluations <= 1 + search.VERIFY_SHORTLIST


def test_hill_climb_neighbors_single_coordinate():
    target = ARMV8_NEON.name
    points = [
        scalar_point(ARMV8_NEON),
        PlanPoint(vf=4, interleave=1, unroll=1, strategy="llv", target=target),
        PlanPoint(vf=8, interleave=1, unroll=1, strategy="llv", target=target),
        PlanPoint(vf=8, interleave=2, unroll=1, strategy="llv", target=target),
    ]
    n1 = search._neighbors(points, 1)
    assert 0 in n1 and 2 in n1 and 3 not in n1  # two coords differ
    assert search._neighbors(points, 0) == [1, 2, 3]  # scalar reaches all


# -- memoization --------------------------------------------------------------


def test_memo_hits_and_model_bump_invalidates(model, bumped_model):
    kernel = SUITE[2]
    a = search_kernel(kernel, ARMV8_NEON, model)
    before = dse_cache_info()
    b = search_kernel(kernel, ARMV8_NEON, model)
    after = dse_cache_info()
    assert b is a, "warm search must return the memoized object"
    assert after["hits"] == before["hits"] + 1

    assert model_fingerprint(model) != model_fingerprint(bumped_model)
    c = search_kernel(kernel, ARMV8_NEON, bumped_model)
    assert c is not a
    assert dse_cache_info()["misses"] == after["misses"] + 1


# -- chaos --------------------------------------------------------------------

@pytest.mark.parametrize("driver", ["exhaustive", "verified"])
def test_faulted_search_bit_identical(model, driver):
    kernel = SUITE[4]
    clean = search_kernel(kernel, ARMV8_NEON, model, driver=driver)
    clear_dse_cache()
    plan = parse_faults("crash:0.5", seed=11)
    faulted = search_kernel(
        kernel, ARMV8_NEON, model, driver=driver, faults=plan
    )
    assert faulted.to_dict() == clean.to_dict()
