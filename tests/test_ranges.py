"""Value-range abstract interpretation tests (analysis + consumers).

Three layers of confidence, mirroring the soundness argument:

* unit tests of the interval lattice (truncating integer division,
  f32 endpoint padding, NaN propagation, widening termination);
* property tests against the concrete interpreter: every scalar value
  a real execution produces must lie inside the static fixpoint
  interval — the analysis quantifies over all iterations, so a single
  counterexample is a soundness bug, not noise;
* consumer tests: the bounds/guard passes, ``prove_safe``, the
  static/dynamic cross-check, the measurement prepass gate, and the
  compiled tier's guard folding — checked bit-identical against the
  unoptimized path.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.framework.passmanager import AnalysisManager
from repro.analysis.framework.ranges import (
    BoundsCheckPass,
    GuardRangePass,
    crosscheck_kernel,
    prove_safe,
)
from repro.analysis.ranges import (
    INT_BOUNDS,
    MAX_ROUNDS,
    Interval,
    _binop_interval,
    analyze_ranges,
)
from repro.ir import DType
from repro.ir.expr import BinOpKind
from repro.ir.verify import VerificationError
from repro.pipeline.build import static_prepass
from repro.sim import compile as simcompile
from repro.sim.compile import bit_identical, clear_compile_cache, get_compiled
from repro.sim.executor import make_buffers, run_scalar_interpreted
from repro.tsvc import all_kernels

from tests.helpers import SMALL, build

SUITE = list(all_kernels(dims=SMALL))


@pytest.fixture(autouse=True)
def _clean_tier_state():
    clear_compile_cache()
    yield
    clear_compile_cache()


# ---------------------------------------------------------------------------
# Interval lattice units
# ---------------------------------------------------------------------------


class TestInterval:
    def test_int_div_truncates_toward_zero(self):
        # C casts the true divide back with truncation: -7/2 == -3.
        out = _binop_interval(
            BinOpKind.DIV, Interval.exact(-7), Interval.exact(2), DType.I32
        )
        assert (out.lo, out.hi) == (-3, -3)

    def test_div_by_interval_containing_zero_is_top(self):
        out = _binop_interval(
            BinOpKind.DIV, Interval.exact(1), Interval(-1, 1), DType.I32
        )
        assert (out.lo, out.hi) == INT_BOUNDS[DType.I32]

    def test_f32_arithmetic_pads_endpoints(self):
        a, b = Interval.exact(1.0), Interval.exact(1e-8)
        out = _binop_interval(BinOpKind.ADD, a, b, DType.F32)
        concrete = float(np.float32(1.0) + np.float32(1e-8))
        assert out.contains(concrete)
        assert out.lo < 1.0 + 1e-8 < out.hi

    def test_nan_carries_through_minmax(self):
        nan = Interval(0.0, 1.0, maybe_nan=True)
        out = _binop_interval(BinOpKind.MIN, nan, Interval.exact(0.5), DType.F32)
        assert out.maybe_nan
        assert not out.definitely_true()

    def test_compare_never_definite_under_nan(self):
        assert Interval(2.0, 3.0, maybe_nan=True).definitely_true() is False

    def test_exact_nan_is_top_with_nan_bit(self):
        out = Interval.exact(float("nan"))
        assert out.maybe_nan and math.isinf(out.lo) and math.isinf(out.hi)

    def test_wrapping_add_clamps_to_dtype(self):
        big = Interval.exact(2**31 - 1)
        out = _binop_interval(BinOpKind.ADD, big, Interval.exact(1), DType.I32)
        assert (out.lo, out.hi) == INT_BOUNDS[DType.I32]


class TestWidening:
    def test_loop_carried_growth_terminates(self):
        def body(k):
            a = k.array("a", extents=(64,))
            s = k.scalar("s", DType.I32, init=0)
            i = k.loop(64)
            s.set(s + 1)
            a[i] = a[i] * 1.0

        kern = build("widen_probe", body, default_len=64)
        r = analyze_ranges(kern, assume_inits=True)
        assert r.rounds <= MAX_ROUNDS
        assert "s" in r.widened
        # Widened to the dtype extreme, still containing every concrete
        # value the 64 iterations can produce.
        assert r.entry["s"].contains(64)

    def test_stable_scalar_not_widened(self):
        def body(k):
            a = k.array("a", extents=(64,))
            t = k.scalar("t", DType.F32, init=2.0)
            i = k.loop(64)
            a[i] = a[i] * t

        kern = build("stable_probe", body, default_len=64)
        r = analyze_ranges(kern, assume_inits=True)
        assert r.widened == ()
        assert r.entry["t"].is_constant


# ---------------------------------------------------------------------------
# Soundness property: static intervals contain concrete scalar values
# ---------------------------------------------------------------------------


class TestSoundnessVsInterpreter:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_final_scalars_inside_harness_fixpoint(self, seed):
        """The harness fixpoint is loop-invariant, so the scalar env
        after a full concrete run must lie inside it — on every suite
        kernel, for multiple buffer seeds."""
        for kern in SUITE:
            ranges = analyze_ranges(kern, assume_inits=True)
            bufs = make_buffers(kern, seed=seed)
            result = run_scalar_interpreted(kern, bufs)
            for name, value in result.scalars.items():
                v = float(np.asarray(value))
                assert ranges.entry[name].contains(v), (
                    f"{kern.name}: scalar {name!r} = {v} escapes static "
                    f"interval {ranges.entry[name]} (seed {seed})"
                )

    def test_pure_fixpoint_contains_harness_fixpoint(self):
        """Dropping the init assumption can only widen intervals."""
        for kern in SUITE[::7]:
            har = analyze_ranges(kern, assume_inits=True)
            pure = analyze_ranges(kern, assume_inits=False)
            for name, hi in har.entry.items():
                pi = pure.entry[name]
                assert pi.lo <= hi.lo and hi.hi <= pi.hi, (
                    f"{kern.name}: pure interval {pi} for {name!r} "
                    f"tighter than harness interval {hi}"
                )


# ---------------------------------------------------------------------------
# Bounds pass, prove_safe, cross-check
# ---------------------------------------------------------------------------


class TestBoundsAndSafety:
    def test_suite_gather_proof_rate(self):
        am = AnalysisManager()
        total = proven = 0
        for kern in SUITE:
            b = am.get(BoundsCheckPass, kern)
            total += b.gathers_total
            proven += b.gathers_proven
        assert total > 0
        assert proven / total >= 0.6, f"only {proven}/{total} gathers proven"

    def test_suite_all_proven_safe(self):
        am = AnalysisManager()
        for kern in SUITE:
            report = prove_safe(kern, am)
            assert report.classification == "proven-safe", (
                f"{kern.name}: {report.classification}: {report.reasons}"
            )

    def test_crosscheck_suite_no_contradictions(self):
        am = AnalysisManager()
        out = []
        for kern in SUITE:
            out += crosscheck_kernel(kern, seed=0, manager=am)
        assert out == [], out

    def test_unguarded_oob_is_proven_unsafe(self):
        def body(k):
            a = k.array("a", extents=(64,))
            i = k.loop(64)
            a[i + 32] = a[i]

        kern = build("oob_probe", body, default_len=64)
        report = prove_safe(kern, AnalysisManager())
        assert report.classification == "proven-unsafe"
        assert any("unguarded" in r for r in report.reasons)

    def test_guarded_oob_is_unknown(self):
        def body(k):
            a = k.array("a", extents=(64,))
            b = k.array("b", extents=(64,))
            i = k.loop(64)
            with k.if_(b[i] > 0.5):
                a[i + 32] = a[i]

        kern = build("guarded_oob_probe", body, default_len=64)
        report = prove_safe(kern, AnalysisManager())
        assert report.classification == "unknown"

    def test_prepass_rejects_proven_unsafe(self):
        def body(k):
            a = k.array("a", extents=(64,))
            i = k.loop(64)
            a[i + 32] = a[i]

        kern = build("oob_prepass_probe", body, default_len=64)
        with pytest.raises(VerificationError, match="out-of-bounds"):
            static_prepass([kern])


# ---------------------------------------------------------------------------
# Guard folding in the compiled tiers
# ---------------------------------------------------------------------------


def _fold_probe():
    def body(k):
        a = k.array("a", extents=(64,))
        b = k.array("b", extents=(64,))
        i = k.loop(64)
        with k.if_(i < 100):  # provably always taken
            a[i] = b[i] + 1.0
        with k.if_(i > 200):  # provably never taken
            a[i] = b[i] - 1.0

    return build("fold_probe", body, default_len=64)


class TestGuardFolding:
    def test_guard_range_pass_verdicts(self):
        kern = _fold_probe()
        info = AnalysisManager().get(GuardRangePass, kern)
        assert info.verdicts == {0: True, 2: False}
        stmts = [s for s in kern.stmts()]
        assert info.fold_of(stmts[0]) is True
        assert info.fold_of(stmts[2]) is False

    def test_init_contingent_guard_never_folds(self):
        def body(k):
            a = k.array("a", extents=(64,))
            t = k.scalar("t", DType.F32, init=1.0)
            i = k.loop(64)
            with k.if_(t > 0.0):  # true for the init, not for any caller
                a[i] = a[i] + 1.0

        kern = build("init_guard_probe", body, default_len=64)
        info = AnalysisManager().get(GuardRangePass, kern)
        assert info.verdicts == {}
        assert info.init_verdicts == {0: True}
        assert info.fold_of(next(iter(kern.stmts()))) is None

    def test_folded_source_differs_but_results_bit_identical(self):
        """Straight-line codegen folds both guards to literals — neither
        comparison is left in the source — and stays bit-identical to
        the unfolded interpreter."""
        kern = _fold_probe()
        clear_compile_cache()
        ck = get_compiled(kern, "scalar")
        assert "if True:" in ck.source and "if False:" in ck.source
        assert "_clt(" not in ck.source and "_cgt(" not in ck.source
        bufs = make_buffers(kern, seed=3)
        got = simcompile._execute(ck, kern, bufs, None, None)
        ref_bufs = make_buffers(kern, seed=3)
        ref = run_scalar_interpreted(kern, ref_bufs)
        assert bit_identical(ref, ref_bufs, got, bufs)
        # Folding must keep the guard-statistics bookkeeping intact.
        assert got.guard_probs == {0: 1.0, 1: 0.0}

    def test_vector_tier_folds_and_matches(self):
        """The NumPy whole-loop closure folds the same guards (neither
        comparison is evaluated) and stays bit-identical to the
        unfolded interpreter."""
        kern = _fold_probe()
        clear_compile_cache()
        ck = get_compiled(kern, "vector")
        assert "_clt(" not in ck.source and "_cgt(" not in ck.source
        bufs = make_buffers(kern, seed=5)
        got = simcompile._execute(ck, kern, bufs, None, None)
        ref_bufs = make_buffers(kern, seed=5)
        ref = run_scalar_interpreted(kern, ref_bufs)
        assert bit_identical(ref, ref_bufs, got, bufs)
        assert got.guard_probs == ref.guard_probs == {0: 1.0, 1: 0.0}

    def test_shift_count_proven_in_width(self):
        def body(k):
            a = k.array("a", dtype=DType.I32, extents=(64,))
            b = k.array("b", dtype=DType.I32, extents=(64,))
            i = k.loop(64)
            a[i] = b[i] >> 2

        kern = build("shift_probe", body, default_len=64)
        info = AnalysisManager().get(GuardRangePass, kern)
        assert info.shift_total == 1 and info.shifts_proven == 1
