"""Service-level chaos gate, in miniature: the CI job's properties."""

from repro.serve.chaos import (
    DEFAULT_FAULT_SPEC,
    check_rollback,
    run_gate,
    suite_payloads,
)


def test_chaos_gate_small_run(tmp_path):
    """Faults fire, retries drain them, and all three gates hold."""
    report = run_gate(
        kernels=8,
        timeout=2.0,
        workers=2,
        registry_root=tmp_path / "registry",
        faults=(
            "slow_handler:0.25,worker_crash:0.25,corrupt_registry:0.2"
        ),
        seed=0,
        hang_s=0.4,
    )
    assert report["ok"], report
    assert report["lost_requests"] == []
    assert report["deadline_overruns"] == []
    assert report["verdict_mismatches"] == []
    assert report["faults_injected"] >= 1  # the schedule actually fired
    assert report["rollback"]["ok"]


def test_default_fault_spec_parses():
    from repro.pipeline.faultinject import parse_faults

    plan = parse_faults(DEFAULT_FAULT_SPEC, seed=0)
    assert set(plan.rates) == {
        "slow_handler",
        "worker_crash",
        "corrupt_registry",
    }


def test_suite_payloads_roundtrip_and_fit_samples():
    selected = suite_payloads(4)
    assert len(selected) == 4
    for name, payload, sample in selected:
        assert payload["ir"]["name"] == name
        assert sample.name == name
        assert sample.vf >= 2


def test_check_rollback_reports_missing_model(tmp_path):
    from repro.serve import ModelRegistry

    out = check_rollback(
        ModelRegistry(tmp_path), target="armv8-neon", vectorizer="llv"
    )
    assert out["ok"] is False
