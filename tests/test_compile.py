"""Kernel-compilation layer tests (repro.sim.compile).

The contract is *bit-identity* with the tree-walking interpreter —
buffer bytes, scalar dtypes and bits, guard probabilities, iteration
counts — across the whole TSVC suite, both codegen modes, and multiple
buffer seeds.  The interpreter stays the semantic oracle; the compiled
paths must never be observably different.
"""

import numpy as np
import pytest

from repro.analysis.framework.passmanager import default_manager
from repro.ir import fsqrt
from repro.sim import (
    CompileError,
    bit_identical,
    clear_compile_cache,
    clear_guard_prob_memo,
    compile_stats,
    compile_summary,
    estimate_guard_probs,
    get_compiled,
    kernel_fingerprint,
    make_buffers,
    run_scalar,
    run_scalar_compiled,
    run_scalar_interpreted,
)
from repro.sim import executor, ufuncs
from repro.sim.compile import _execute
from repro.tsvc import all_kernels

from tests.helpers import SMALL, build

SUITE = list(all_kernels(dims=SMALL))


def both_runs(kernel, seed, mode=None, iters=None):
    """(interpreter result+bufs, compiled result+bufs) on equal inputs."""
    ref_bufs = make_buffers(kernel, seed=seed)
    got_bufs = {k: v.copy() for k, v in ref_bufs.items()}
    ref = run_scalar_interpreted(kernel, ref_bufs, None, iters)
    if mode is None:
        got = run_scalar_compiled(kernel, got_bufs, None, iters)
    else:
        got = _execute(
            get_compiled(kernel, mode), kernel, got_bufs, None, iters
        )
    return ref, ref_bufs, got, got_bufs


# -- suite-wide bit-identity (the acceptance property) -----------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_suite_bit_identity_auto(seed):
    """Every TSVC kernel compiles (vector or scalar) and its full-trip
    execution is indistinguishable from the interpreter's."""
    mismatched, refused = [], []
    for kernel in SUITE:
        try:
            ref, ref_bufs, got, got_bufs = both_runs(kernel, seed)
        except CompileError:
            refused.append(kernel.name)
            continue
        if not bit_identical(ref, ref_bufs, got, got_bufs):
            mismatched.append(kernel.name)
    assert mismatched == []
    assert refused == []


@pytest.mark.parametrize("seed", [0, 1])
def test_suite_bit_identity_forced_scalar(seed):
    """Straight-line scalar codegen alone must also match, even for
    kernels the auto path would run as vector closures."""
    mismatched = []
    for kernel in SUITE:
        ref, ref_bufs, got, got_bufs = both_runs(kernel, seed, mode="scalar")
        if not bit_identical(ref, ref_bufs, got, got_bufs):
            mismatched.append(kernel.name)
    assert mismatched == []


def test_suite_forced_vector_where_eligible():
    """Forcing the whole-loop closure on every kernel that accepts it
    must match the interpreter; most of the suite must be eligible."""
    vector, mismatched = 0, []
    for kernel in SUITE:
        try:
            ck = get_compiled(kernel, "vector")
        except CompileError:
            continue
        vector += 1
        ref_bufs = make_buffers(kernel, seed=0)
        got_bufs = {k: v.copy() for k, v in ref_bufs.items()}
        ref = run_scalar_interpreted(kernel, ref_bufs)
        got = _execute(ck, kernel, got_bufs, None, None)
        if not bit_identical(ref, ref_bufs, got, got_bufs):
            mismatched.append(kernel.name)
    assert mismatched == []
    assert vector >= 50, f"only {vector} kernels vector-eligible"


def test_truncated_trips_bit_identity():
    """max_inner_iters must truncate both paths identically — including
    an odd count that divides nothing evenly."""
    mismatched = []
    for kernel in SUITE:
        try:
            ref, ref_bufs, got, got_bufs = both_runs(kernel, 0, iters=17)
        except CompileError:
            continue
        if not bit_identical(ref, ref_bufs, got, got_bufs):
            mismatched.append(kernel.name)
    assert mismatched == []


def test_guard_prob_estimates_match_interpreter(monkeypatch):
    """estimate_guard_probs routes through run_scalar; toggling the
    compiler off must not change a single probability."""
    guarded = [k for k in SUITE if k.name in ("s253", "s258", "s271", "s161")]
    assert guarded
    compiled = {}
    for kernel in guarded:
        clear_guard_prob_memo()
        compiled[kernel.name] = estimate_guard_probs(kernel)
    monkeypatch.setenv("REPRO_COMPILE", "0")
    for kernel in guarded:
        clear_guard_prob_memo()
        assert estimate_guard_probs(kernel) == compiled[kernel.name]


# -- routing and the REPRO_COMPILE switch ------------------------------------


def test_run_scalar_uses_compiled_path_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_COMPILE", raising=False)
    kernel = SUITE[0]
    before = compile_stats().runs_compiled
    run_scalar(kernel, make_buffers(kernel, seed=0))
    assert compile_stats().runs_compiled == before + 1


def test_disable_env_restores_interpreter(monkeypatch):
    """REPRO_COMPILE=0 must leave the compiler untouched and still
    produce the interpreter's exact results."""
    kernel = SUITE[0]
    monkeypatch.setenv("REPRO_COMPILE", "0")
    before = compile_stats().runs_compiled
    bufs = make_buffers(kernel, seed=0)
    got = run_scalar(kernel, bufs)
    assert compile_stats().runs_compiled == before
    ref_bufs = make_buffers(kernel, seed=0)
    ref = run_scalar_interpreted(kernel, ref_bufs)
    assert bit_identical(ref, ref_bufs, got, bufs)


# -- fingerprint-keyed caching -----------------------------------------------


def small_kernel(name="ck", scale=2.0):
    def body(k):
        a = k.array("a", extents=(64,))
        b = k.array("b", extents=(64,))
        i = k.loop(64)
        a[i] = b[i] * scale

    return build(name, body)


def test_fingerprint_stable_across_objects():
    """Two builds of the same source share one fingerprint, so the
    second get_compiled is a cache hit, not a rebuild."""
    clear_compile_cache()
    k1, k2 = small_kernel(), small_kernel()
    assert k1 is not k2
    assert kernel_fingerprint(k1) == kernel_fingerprint(k2)
    get_compiled(k1)
    hits = compile_stats().cache_hits
    assert get_compiled(k2) is get_compiled(k1)
    assert compile_stats().cache_hits > hits


def test_fingerprint_invalidation_on_mutation():
    """A semantically different kernel — same name, one constant changed
    — must map to a different fingerprint and a fresh build."""
    clear_compile_cache()
    base, mutated = small_kernel(scale=2.0), small_kernel(scale=3.0)
    assert kernel_fingerprint(base) != kernel_fingerprint(mutated)
    ck_base = get_compiled(base)
    misses = compile_stats().cache_misses
    ck_mut = get_compiled(mutated)
    assert compile_stats().cache_misses > misses
    assert ck_base is not ck_mut
    # And each compiled form computes its own kernel's semantics.
    bufs_b = make_buffers(base, seed=0)
    bufs_m = {k: v.copy() for k, v in bufs_b.items()}
    _execute(ck_base, base, bufs_b, None, None)
    _execute(ck_mut, mutated, bufs_m, None, None)
    assert not np.array_equal(bufs_b["a"], bufs_m["a"])


def test_clear_cache_forces_rebuild():
    clear_compile_cache()
    kernel = small_kernel()
    get_compiled(kernel)
    misses = compile_stats().cache_misses
    clear_compile_cache()
    get_compiled(kernel)
    assert compile_stats().cache_misses > misses


def test_compile_summary_shape():
    summary = compile_summary()
    for key in (
        "enabled",
        "kernels_vector",
        "kernels_scalar",
        "kernels_demoted",
        "kernels_refused",
        "cache_hits",
        "cache_misses",
        "runs_compiled",
        "runs_vector",
        "cached_fns",
    ):
        assert key in summary


# -- shared ufunc tables and the sqrt domain guard ---------------------------


def test_ufunc_tables_are_shared():
    """Interpreter and compiler must dispatch through the *same* op
    tables — a semantic fix in one path cannot silently miss the other."""
    assert executor._BINOPS is ufuncs.BINOPS
    assert executor._UNOPS is ufuncs.UNOPS
    assert executor._CMPS is ufuncs.CMPS


def test_sqrt_guard_emits_remark():
    """A sqrt over negative inputs must execute as sqrt(|x|) (the C
    reference links -ffast-math) *and* leave a diagnostics remark."""

    def body(k):
        a = k.array("a", extents=(64,))
        b = k.array("b", extents=(64,))
        i = k.loop(64)
        a[i] = fsqrt(b[i])

    kernel = build("sqrtneg", body)
    bufs = make_buffers(kernel, seed=0)
    assert (bufs["b"] < 0).any()  # make_buffers spans [-1, 1]
    expected = np.sqrt(np.abs(bufs["b"])).astype(np.float32)
    run_scalar(kernel, bufs)
    np.testing.assert_array_equal(bufs["a"], expected)
    remarks = default_manager().diagnostics.remarks(
        kernel="sqrtneg", pass_name="executor"
    )
    assert any("sqrt domain guard fired" in r.message for r in remarks)


def test_sweep_stats_record_tiers(tmp_path):
    """A measured sweep records which compiled tiers its kernels took."""
    from repro.experiments import DatasetSpec
    from repro.pipeline import MeasurementCache, measure_suite
    from repro.pipeline.build import DatasetBuildStats
    from repro.sim import clear_compile_cache, compile_enabled

    clear_compile_cache()
    stats = DatasetBuildStats()
    samples, _failures = measure_suite(
        DatasetSpec("armv8-neon", "llv"),
        workers=1,
        cache=MeasurementCache(root=tmp_path / "off", enabled=False),
        stats=stats,
    )
    assert samples
    assert stats.strategy == "serial"
    if compile_enabled():
        assert stats.tiers.get("vector", 0) + stats.tiers.get("scalar", 0) > 0
        assert set(stats.tiers) <= {"vector", "scalar", "demoted", "interpreted"}
    else:
        assert stats.tiers == {}
