"""Advisor request path: verdicts, fallbacks, breaker, bit-identity."""

import numpy as np
import pytest

from repro.costmodel.speedup import SpeedupModel
from repro.fitting.nnls import NonNegativeLeastSquares
from repro.serve import (
    Advisor,
    InvalidRequest,
    ModelRegistry,
    canonical_verdict,
    entry_from_model,
    verdict_core,
)

SAXPY = """
kernel saxpy {
    f32 a[256], b[256];
    f32 alpha = 2.0;
    for (i = 0; i < 256; i++) {
        a[i] = a[i] + alpha * b[i];
    }
}
"""

ZERO_TRIP = """
kernel empty {
    f32 a[16];
    for (i = 0; i < 0; i++) {
        a[i] = 1.0;
    }
}
"""

GUARDED = """
kernel guarded {
    f32 a[128], b[128];
    for (i = 0; i < 128; i++) {
        if (b[i] > 0.0) { a[i] = b[i]; } else { a[i] = 0.0 - b[i]; }
    }
}
"""


@pytest.fixture
def advisor(tmp_path):
    return Advisor(ModelRegistry(tmp_path / "registry"))


def publish_model(advisor):
    """Fit a model on real measured kernels and publish it."""
    from repro.serve.chaos import bootstrap_registry, suite_payloads

    selected = suite_payloads(10)
    return bootstrap_registry(
        advisor.registry,
        [s for _, _, s in selected],
        target="armv8-neon",
        vectorizer="llv",
    )


def test_static_fallback_when_no_model(advisor):
    resp = advisor.advise({"kernel": SAXPY})
    assert resp["kernel"] == "saxpy"
    assert resp["target"] == "armv8-neon"
    assert resp["model"] == "llvm-static"
    assert resp["predicted_speedup"] == resp["reference_speedup"]
    assert isinstance(resp["vectorized"], bool)
    assert any("no fitted model" in d for d in resp["degraded"])
    serve_remarks = [r for r in resp["remarks"] if r["pass"] == "serve"]
    assert len(serve_remarks) == 1
    assert serve_remarks[0]["flag"] == "-Rpass-missed"


def test_published_model_answers_with_its_version(advisor):
    entry = publish_model(advisor)
    resp = advisor.advise({"kernel": SAXPY})
    assert resp["model"] == entry.version
    assert resp["predicted_speedup"] > 0
    assert not any("no fitted model" in d for d in resp["degraded"])


def test_ir_envelope_matches_dsl_form(advisor):
    from repro.frontend import parse_kernel
    from repro.ir.printer import kernel_to_source

    kern = parse_kernel(SAXPY)
    body = "\n".join(
        ln
        for ln in kernel_to_source(kern).splitlines()
        if not ln.startswith("//")
    )
    via_ir = advisor.advise({"ir": {"name": "saxpy", "body": body}})
    via_dsl = advisor.advise({"kernel": SAXPY})
    assert canonical_verdict(via_ir) == canonical_verdict(via_dsl)


@pytest.mark.parametrize(
    "payload, match",
    [
        ({}, "needs a 'kernel'"),
        ({"kernel": "kernel x { not valid }"}, "does not parse"),
        ({"kernel": 42}, "DSL source"),
        ({"ir": {"name": "x"}}, "'ir' must be"),
        ({"ir": {"name": "bad name", "body": ""}}, "identifier"),
        ({"kernel": SAXPY, "target": "vax"}, "unknown target"),
        ({"kernel": SAXPY, "vectorizer": "magic"}, "unknown vectorizer"),
        ({"kernel": SAXPY, "vf": "wide"}, "integer"),
        ({"kernel": SAXPY, "vf": 1}, r"\[2, 64\]"),
        ({"kernel": SAXPY, "vf": 4.7}, "JSON integer, got 4.7"),
        ({"kernel": SAXPY, "vf": True}, "JSON integer, got True"),
        ({"kernel": ZERO_TRIP}, r"line 4: loop trip count must be >= 1, got 0"),
    ],
)
def test_invalid_requests_raise_invalid_request(advisor, payload, match):
    with pytest.raises(InvalidRequest, match=match):
        advisor.advise(payload)


def test_client_errors_do_not_move_breakers(advisor):
    for _ in range(5):
        with pytest.raises(InvalidRequest):
            advisor.advise({"kernel": "kernel x { not valid }"})
    assert advisor.prepass_breaker.state == "closed"


def test_verdict_is_deterministic(advisor):
    a = advisor.advise({"kernel": GUARDED})
    b = advisor.advise({"kernel": GUARDED})
    assert canonical_verdict(a) == canonical_verdict(b)


def test_guard_probs_run_on_compiled_tier_bit_identical(advisor):
    from repro.frontend import parse_kernel
    from repro.sim import (
        GUARD_SAMPLE_ITERS,
        compile_summary,
        make_buffers,
        run_scalar_interpreted,
    )

    publish_model(advisor)
    before = compile_summary()["runs_compiled"]
    resp = advisor.advise({"kernel": GUARDED})
    assert compile_summary()["runs_compiled"] > before
    assert resp["degraded"] == []
    assert not [r for r in resp["remarks"] if r["pass"] == "serve"]

    kern = parse_kernel(GUARDED)
    got = advisor._guard_probs(kern)
    ref = run_scalar_interpreted(
        kern, make_buffers(kern, seed=0), max_inner_iters=GUARD_SAMPLE_ITERS
    ).guard_probs
    assert got and list(got) == list(ref)
    for k in ref:
        assert np.float64(got[k]).tobytes() == np.float64(ref[k]).tobytes()


def test_prepass_breaker_open_skips_analysis_with_remark(advisor):
    advisor.prepass_breaker.force_open()
    resp = advisor.advise({"kernel": SAXPY})
    assert any("prepass skipped" in d for d in resp["degraded"])
    serve_remarks = [r for r in resp["remarks"] if r["pass"] == "serve"]
    assert len(serve_remarks) == 1


def test_prepass_internal_fault_counts_against_breaker(advisor, monkeypatch):
    import repro.serve.advisor as advisor_mod

    def boom(kernel):
        raise RuntimeError("analysis exploded")

    monkeypatch.setattr(advisor_mod, "verify_kernel", boom)
    resp = advisor.advise({"kernel": SAXPY})
    assert any("prepass faulted" in d for d in resp["degraded"])
    assert advisor.prepass_breaker.stats()["consecutive_failures"] == 1


def test_unvectorizable_kernel_gets_failure_verdict(advisor):
    # A loop-carried recurrence at distance 1 defeats the vectorizer.
    src = """
    kernel recur {
        f32 a[257];
        for (i = 0; i < 256; i++) {
            a[i + 1] = a[i] + 1.0;
        }
    }
    """
    resp = advisor.advise({"kernel": src})
    assert resp["vectorized"] is False
    assert resp["predicted_speedup"] is None
    assert resp["reason"]
    assert any(
        r["pass"] == "loop-vectorize" and r["flag"] == "-Rpass-missed"
        for r in resp["remarks"]
    )


def test_verdict_core_fields(advisor):
    resp = advisor.advise({"kernel": SAXPY})
    core = verdict_core(resp)
    assert set(core) == {
        "kernel",
        "target",
        "vectorizer",
        "vf",
        "vectorized",
        "predicted_speedup",
        "reference_speedup",
        "model",
    }
    # Metadata stays out of the parity surface.
    assert "remarks" not in core and "degraded" not in core


def test_health_reports_breakers_registry_and_counters(advisor):
    advisor.advise({"kernel": SAXPY})
    health = advisor.health()
    assert health["status"] == "ok"
    names = {b["name"] for b in health["breakers"]}
    assert names == {"prepass"}
    assert health["advisor"]["requests"] == 1
    assert health["advisor"]["verdicts"] == 1
