"""Degraded-mode matrix: every combination answers, none ever raises.

The grid crosses the two availability dimensions of the advisor —
model published × range proofs enabled — and asserts that every cell
(a) returns a verdict, (b) emits exactly one consolidated
``-Rpass-missed=serve`` remark when anything is degraded and none when
healthy, and (c) produces the same verdict bits as every other cell
with the same model availability:
degradation is allowed to slow or annotate an answer, never to change
it.
"""

import itertools

import pytest

from repro.serve import Advisor, ModelRegistry, canonical_verdict

GUARDED = """
kernel guarded {
    f32 a[128], b[128];
    for (i = 0; i < 128; i++) {
        if (b[i] > 0.0) { a[i] = b[i]; } else { a[i] = 0.0 - b[i]; }
    }
}
"""


@pytest.fixture(scope="module")
def fitted_entry():
    """One fitted entry, shared by every model-present cell."""
    from repro.fitting.nnls import NonNegativeLeastSquares
    from repro.costmodel.speedup import SpeedupModel
    from repro.serve import entry_from_model
    from repro.serve.chaos import suite_payloads

    selected = suite_payloads(10)
    samples = [s for _, _, s in selected]
    model = SpeedupModel(NonNegativeLeastSquares()).fit(samples)
    return entry_from_model(
        model, samples, target="armv8-neon", vectorizer="llv"
    )


GRID = list(itertools.product([True, False], repeat=2))


@pytest.mark.parametrize("with_model, ranges_on", GRID)
def test_degraded_cell_returns_verdict_with_one_remark(
    tmp_path, monkeypatch, fitted_entry, with_model, ranges_on
):
    monkeypatch.setenv("REPRO_RANGES", "1" if ranges_on else "0")

    registry = ModelRegistry(tmp_path / "registry")
    if with_model:
        registry.publish(fitted_entry)
    advisor = Advisor(registry)

    resp = advisor.advise({"kernel": GUARDED})  # must never raise

    assert isinstance(resp["vectorized"], bool)
    assert resp["predicted_speedup"] is not None
    assert resp["model"] == (
        fitted_entry.version if with_model else "llvm-static"
    )

    # The advisory plan field rides along exactly when a model is
    # published: availability degradations never strip it, and it
    # never adds a degraded clause (asserted via the counts below).
    if with_model:
        assert resp["plan"] is not None
        assert resp["plan"]["label"]
        assert resp["plan"]["predicted_speedup"] > 0
        assert resp["plan"]["n_points"] >= 1
    else:
        assert resp["plan"] is None

    anything_degraded = not with_model or not ranges_on
    serve_remarks = [r for r in resp["remarks"] if r["pass"] == "serve"]
    assert len(serve_remarks) == (1 if anything_degraded else 0)
    if anything_degraded:
        assert serve_remarks[0]["flag"] == "-Rpass-missed"
        assert serve_remarks[0]["severity"] == "warning"
        # The remark's clause count matches the degraded dimensions.
        expected_clauses = sum((not with_model, not ranges_on))
        assert len(resp["degraded"]) == expected_clauses
        assert serve_remarks[0]["args"]["degraded"] == str(expected_clauses)


@pytest.mark.parametrize("with_model", [True, False])
def test_verdict_bits_invariant_across_degradations(
    tmp_path, monkeypatch, fitted_entry, with_model
):
    """Both availability cells of one model group agree bit-for-bit."""
    cores = set()
    for ranges_on in (True, False):
        monkeypatch.setenv("REPRO_RANGES", "1" if ranges_on else "0")
        registry = ModelRegistry(tmp_path / f"reg-{ranges_on}")
        if with_model:
            registry.publish(fitted_entry)
        advisor = Advisor(registry)
        cores.add(canonical_verdict(advisor.advise({"kernel": GUARDED})))
    assert len(cores) == 1


def test_plan_hint_gated_by_prepass_breaker(tmp_path, fitted_entry):
    """The new cell: an open *prepass* breaker strips the advisory
    plan (its enumeration leans on the prepass analyses) but leaves
    the verdict core bit-identical to the healthy cell."""
    from repro.serve import canonical_verdict

    registry = ModelRegistry(tmp_path / "reg-closed")
    registry.publish(fitted_entry)
    healthy = Advisor(registry).advise({"kernel": GUARDED})
    assert healthy["plan"] is not None

    registry2 = ModelRegistry(tmp_path / "reg-open")
    registry2.publish(fitted_entry)
    tripped = Advisor(registry2)
    tripped.prepass_breaker.force_open()
    resp = tripped.advise({"kernel": GUARDED})
    assert resp["plan"] is None
    assert "analysis prepass skipped (breaker open)" in resp["degraded"]
    assert canonical_verdict(resp) == canonical_verdict(healthy)
