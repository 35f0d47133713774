"""Service-level chaos gate: prove robustness instead of claiming it.

The harness runs one request set twice through a real advisor + worker
pool — once clean, once under a deterministic
:class:`~repro.pipeline.faultinject.FaultPlan` firing request-scoped
faults (slow handler, worker crash, corrupted registry entry) — and
asserts the service's three load-bearing promises:

* **no request lost** — every request, retried through
  ``pipeline.resilience.RetryPolicy`` on 429/503, ends in a verdict;
* **no deadline overrun** — every individual attempt (including the
  rejected ones) is answered within the request deadline plus a small
  scheduling grace;
* **bit-identical verdicts** — the canonical verdict cores under
  chaos equal the clean run's, float for float: degradation may slow
  an answer or annotate it, never change it.

It also gates the registry's rollback story directly: a poisoned
candidate must be rejected with the last-good version still serving,
and a corrupted-then-reloaded active entry must heal back to the
last-good weights.

Faults are scheduled by ``sha256(seed:kind:request_id:attempt)``, so a
run is exactly reproducible from ``--faults`` and ``--seed`` — the CI
job pins one schedule forever.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from ..costmodel.base import Sample, sample_from_measurement
from ..fitting.nnls import NonNegativeLeastSquares
from ..ir.printer import kernel_to_source
from ..pipeline.faultinject import FaultPlan, parse_faults
from ..pipeline.resilience import RetryPolicy
from ..sim.measure import measure_kernel
from ..targets.registry import get_target
from ..tsvc import get_kernel, kernel_names
from ..vectorize.plan import VectorizationFailure
from .advisor import Advisor, canonical_verdict, kernel_from_payload
from .registry import ModelEntry, ModelRegistry, RegistryError, entry_from_model
from .workers import WorkerPool

#: Scheduling slack added to the deadline before an attempt counts as
#: an overrun (supervisor tick + GIL scheduling, not service logic).
DEADLINE_GRACE_S = 0.75

#: The pinned CI schedule: every serve fault kind at a rate that fires
#: several times across a ~24-request run yet drains under retries.
DEFAULT_FAULT_SPEC = "slow_handler:0.08,worker_crash:0.08,corrupt_registry:0.06"


def suite_payloads(
    count: int, *, target: str = "armv8-neon", vectorizer: str = "llv"
) -> list[tuple[str, dict, Sample]]:
    """``(request_id, payload, fitting sample)`` per serveable kernel.

    Walks the TSVC suite in name order and keeps the first ``count``
    kernels that (a) vectorize on the target — the others answer with
    a failure verdict, which is fine for serving but useless for
    fitting — and (b) survive the printer → IR-envelope → parser
    round-trip the service's ``ir`` request form uses.
    """
    tgt = get_target(target)
    out: list[tuple[str, dict, Sample]] = []
    for name in sorted(kernel_names()):
        if len(out) >= count:
            break
        kernel = get_kernel(name)
        measured = measure_kernel(
            kernel, tgt, vectorizer=vectorizer, jitter=0.0, seed=0
        )
        if isinstance(measured, VectorizationFailure):
            continue
        body = "\n".join(
            ln
            for ln in kernel_to_source(kernel).splitlines()
            if not ln.startswith("//")
        )
        payload = {
            "ir": {"name": name, "body": body},
            "target": target,
            "vectorizer": vectorizer,
        }
        try:
            kernel_from_payload(payload)
        except Exception:
            continue
        out.append((name, payload, sample_from_measurement(measured)))
    return out


def bootstrap_registry(
    registry: ModelRegistry,
    samples: Sequence[Sample],
    *,
    target: str,
    vectorizer: str,
) -> ModelEntry:
    """Fit an NNLS speedup model on ``samples`` and publish it."""
    from ..costmodel.speedup import SpeedupModel

    model = SpeedupModel(NonNegativeLeastSquares()).fit(list(samples))
    entry = entry_from_model(
        model, list(samples), target=target, vectorizer=vectorizer
    )
    return registry.publish(entry)


def run_requests(
    pool: WorkerPool,
    requests: Sequence[tuple[str, dict]],
    *,
    policy: Optional[RetryPolicy] = None,
) -> list[dict]:
    """Drive every request to a final answer through retries.

    Each element of the result records the final status/body, the
    attempt count, and the worst single-attempt latency (which the
    gate checks against the deadline).
    """
    policy = policy or RetryPolicy(max_attempts=10, base_delay=0.02, cap=0.5)
    results = []
    for request_id, payload in requests:
        attempts = 0
        worst = 0.0
        status, body = 500, {"error": "never attempted"}
        for attempt in range(policy.max_attempts):
            attempts = attempt + 1
            t0 = time.monotonic()
            status, body = pool.submit(
                dict(payload), request_id=request_id, attempt=attempt
            )
            worst = max(worst, time.monotonic() - t0)
            if status not in (429, 503):
                break
            time.sleep(policy.delay(request_id, attempt))
        results.append(
            {
                "request_id": request_id,
                "status": status,
                "attempts": attempts,
                "worst_attempt_s": round(worst, 4),
                "body": body,
            }
        )
    return results


def check_rollback(
    registry: ModelRegistry, *, target: str, vectorizer: str
) -> dict:
    """Gate the registry's two rollback stories in place.

    (1) A poisoned candidate (non-finite weights) must be rejected at
    the validation gate with the active version untouched.  (2) A
    corrupted on-disk active entry followed by a hot-reload must heal
    back to the last-good weights, bit for bit.
    """
    before = registry.current(target, vectorizer)
    if before is None:
        return {"ok": False, "reason": "no active model to protect"}
    poisoned = replace(
        before,
        version="poisoned" + before.version[:8],
        weights=tuple([float("nan")] + list(before.weights[1:])),
    )
    rejected = False
    try:
        registry.publish(poisoned)
    except RegistryError:
        rejected = True
    kept = registry.current(target, vectorizer)
    gate_ok = (
        rejected
        and kept is not None
        and kept.version == before.version
        and kept.weights == before.weights
    )

    # Corrupt the active entry's bytes on disk, then hot-reload.
    path, _ = registry._entry_paths(before.model_key, before.version)
    with open(path, "r+b") as fh:
        fh.write(b"\x00POISON\x00")
    registry.reload()
    healed = registry.current(target, vectorizer)
    heal_ok = (
        healed is not None
        and healed.version == before.version
        and healed.weights == before.weights
    )
    return {
        "ok": bool(gate_ok and heal_ok),
        "poisoned_publish_rejected": rejected,
        "active_version_kept": gate_ok,
        "corruption_healed": heal_ok,
        "heals": registry.stats.heals,
        "evictions": registry.stats.corrupt_evictions,
    }


def run_gate(
    *,
    kernels: int = 24,
    target: str = "armv8-neon",
    vectorizer: str = "llv",
    faults: str = DEFAULT_FAULT_SPEC,
    seed: int = 0,
    timeout: float = 5.0,
    workers: int = 4,
    registry_root=None,
    hang_s: float = 0.4,
) -> dict:
    """The full chaos gate; returns a report with ``report["ok"]``."""
    selected = suite_payloads(kernels, target=target, vectorizer=vectorizer)
    requests = [(name, payload) for name, payload, _ in selected]
    samples = [sample for _, _, sample in selected]

    registry = ModelRegistry(registry_root)
    entry = bootstrap_registry(
        registry, samples, target=target, vectorizer=vectorizer
    )

    # Clean pass: same pool shape, no fault plan.
    clean_pool = WorkerPool(
        Advisor(registry),
        workers=workers,
        timeout=timeout,
    ).start()
    try:
        clean = run_requests(clean_pool, requests)
    finally:
        clean_pool.stop()

    # Chaos pass: fresh advisor over the same registry, faults armed.
    # slow_handler sleeps longer than the deadline so an injected
    # slowdown is indistinguishable from a hang.
    plan = parse_faults(faults, seed=seed, hang_seconds=max(hang_s, timeout * 1.5))
    chaos_pool = WorkerPool(
        Advisor(registry),
        workers=workers,
        timeout=timeout,
        fault_plan=plan,
    ).start()
    try:
        chaotic = run_requests(chaos_pool, requests)
    finally:
        chaos_stats = chaos_pool.health()
        chaos_pool.stop()

    lost = [r["request_id"] for r in chaotic if r["status"] != 200]
    overruns = [
        r["request_id"]
        for r in clean + chaotic
        if r["worst_attempt_s"] > timeout + DEADLINE_GRACE_S
    ]
    mismatches = []
    by_id = {r["request_id"]: r for r in clean}
    for r in chaotic:
        base = by_id.get(r["request_id"])
        if base is None or base["status"] != 200 or r["status"] != 200:
            continue
        if canonical_verdict(r["body"]) != canonical_verdict(base["body"]):
            mismatches.append(r["request_id"])

    rollback = check_rollback(registry, target=target, vectorizer=vectorizer)

    report = {
        "requests": len(requests),
        "model_version": entry.version,
        "fault_spec": faults,
        "seed": seed,
        "timeout_s": timeout,
        "lost_requests": lost,
        "deadline_overruns": overruns,
        "verdict_mismatches": mismatches,
        "chaos_retries": sum(r["attempts"] - 1 for r in chaotic),
        "faults_injected": chaos_stats.get("faults_injected", 0),
        "workers_replaced": chaos_stats.get("workers_replaced", 0),
        "rollback": rollback,
        "ok": not lost
        and not overruns
        and not mismatches
        and rollback["ok"],
    }
    return report


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments serve-chaos",
        description="Deterministic chaos gate for the advisor service.",
    )
    parser.add_argument("--kernels", type=int, default=24)
    parser.add_argument("--target", default="armv8-neon")
    parser.add_argument("--vectorizer", default="llv")
    parser.add_argument("--faults", default=DEFAULT_FAULT_SPEC)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=5.0)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--registry", default=None, help="registry root (default: cache dir)"
    )
    parser.add_argument("--json", default=None, help="write the report here")
    args = parser.parse_args(argv)

    report = run_gate(
        kernels=args.kernels,
        target=args.target,
        vectorizer=args.vectorizer,
        faults=args.faults,
        seed=args.seed,
        timeout=args.timeout,
        workers=args.workers,
        registry_root=args.registry,
    )
    text = json.dumps(report, indent=2)
    print(text)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    if report["ok"]:
        print(
            f"serve-chaos gate PASSED: {report['requests']} requests, "
            f"{report['faults_injected']} faults injected, "
            f"{report['chaos_retries']} retries, 0 lost, 0 overruns, "
            "verdicts bit-identical"
        )
        return 0
    print("serve-chaos gate FAILED")
    return 1
