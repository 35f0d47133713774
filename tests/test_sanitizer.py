"""Vector-safety sanitizer: dynamic cross-check of dependence claims."""

import dataclasses

import pytest

from repro.analysis.framework.sanitizer import (
    SanitizerError,
    check_dependence_claims,
    check_plan,
)
from repro.sim.executor import make_buffers, run_vector
from repro.targets import ARMV8_NEON
from repro.tsvc import get_kernel
from repro.vectorize import is_plan, vectorize_loop

from tests.helpers import build


def forward_dep_kernel():
    def body(k):
        a, b, c = k.arrays("a", "b", "c")
        i = k.loop(64)
        a[i] = b[i] + 1.0   # S0: store a[i]
        c[i] = a[i - 1]     # S1: load a[i-1] -> flow dep, distance 1, fwd

    return build("fwd1", body)


def plan_of(kern, vf=None):
    plan = vectorize_loop(kern, ARMV8_NEON, vf=vf)
    assert is_plan(plan), f"expected a plan, got {plan}"
    return plan


def forge_distance(dep_info, delta=1):
    """Shift every finite nonzero claimed distance by ``delta``."""
    forged = tuple(
        dataclasses.replace(d, distance=d.distance + delta)
        if d.distance not in (None, 0)
        else d
        for d in dep_info.dependences
    )
    return dataclasses.replace(dep_info, dependences=forged)


class TestTruthfulClaims:
    def test_clean_builder_kernel(self):
        kern = forward_dep_kernel()
        plan = plan_of(kern)
        check_plan(plan, make_buffers(kern))  # must not raise

    @pytest.mark.parametrize(
        "name", ["s000", "s112", "s1119", "s4113", "s423", "s352"]
    )
    def test_suite_kernels_clean(self, name):
        kern = get_kernel(name)
        plan = vectorize_loop(kern, ARMV8_NEON)
        if not is_plan(plan):
            pytest.skip(f"{name} not vectorizable")
        check_plan(plan, make_buffers(kern))


class TestForgedClaims:
    def test_wrong_distance_is_caught(self):
        kern = forward_dep_kernel()
        plan = plan_of(kern)
        forged = forge_distance(plan.dep_info)
        with pytest.raises(SanitizerError, match="violates static claim"):
            check_dependence_claims(kern, forged, plan.vf, make_buffers(kern))

    def test_dropped_claim_is_caught(self):
        # Claiming "never aliases" for accesses that do conflict.
        kern = forward_dep_kernel()
        plan = plan_of(kern)
        empty = dataclasses.replace(plan.dep_info, dependences=())
        with pytest.raises(SanitizerError, match="never alias"):
            check_dependence_claims(kern, empty, plan.vf, make_buffers(kern))

    def test_error_names_the_pair(self):
        kern = forward_dep_kernel()
        plan = plan_of(kern)
        forged = forge_distance(plan.dep_info)
        with pytest.raises(SanitizerError) as err:
            check_dependence_claims(kern, forged, plan.vf, make_buffers(kern))
        msg = str(err.value)
        assert "fwd1" in msg
        assert "'a'" in msg
        assert "S0" in msg and "S1" in msg


class TestExecutorIntegration:
    def test_run_vector_sanitize_flag(self):
        kern = forward_dep_kernel()
        plan = plan_of(kern)
        bufs = make_buffers(kern)
        run_vector(plan, bufs, sanitize=True)  # truthful: runs fine

    def test_run_vector_rejects_forged_plan_before_mutation(self):
        kern = forward_dep_kernel()
        plan = plan_of(kern)
        forged_plan = dataclasses.replace(
            plan, dep_info=forge_distance(plan.dep_info)
        )
        bufs = make_buffers(kern)
        baseline = {n: a.copy() for n, a in bufs.items()}
        with pytest.raises(SanitizerError):
            run_vector(forged_plan, bufs, sanitize=True)
        for name, arr in bufs.items():
            assert (arr == baseline[name]).all(), "buffers must be untouched"

    def test_off_by_default(self):
        kern = forward_dep_kernel()
        plan = plan_of(kern)
        forged_plan = dataclasses.replace(
            plan, dep_info=forge_distance(plan.dep_info)
        )
        run_vector(forged_plan, make_buffers(kern))  # no check unless asked
