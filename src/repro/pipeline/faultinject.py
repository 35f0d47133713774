"""Deterministic fault injection for the measurement pipeline.

The chaos half of the resilience story: a :class:`FaultPlan` decides —
from a seeded hash, never a live RNG — whether a given (kernel,
attempt) cell suffers a worker crash, a hang, a transient exception,
or a corrupted cache write.  Determinism is the point: a fault either
fires or it doesn't for a given seed, so chaos tests can assert that
retries drain every injected failure and the surviving samples are
*bit-identical* to a fault-free sweep.

Configuration mirrors the rest of the pipeline:

* ``REPRO_FAULTS=crash:0.1,hang:0.05,corrupt_cache:0.1,flaky_exc:0.1``
  — per-fault firing rates in ``[0, 1]``;
* ``REPRO_FAULTS_SEED`` — plan seed (default 0);
* ``REPRO_FAULTS_HANG_S`` — how long an injected hang sleeps
  (default 30 s; set well above the supervisor's ``--timeout``).

Faults that need a sacrificial process (``crash`` hard-exits, ``hang``
sleeps) only fire inside pool workers (:func:`mark_worker` is the pool
initializer); in-process they degrade to a retryable
:class:`InjectedCrash` / no-op so a serial sweep can never kill or
stall the interpreter that supervises it.

``python -m repro.pipeline.faultinject --faults crash:0.05,flaky_exc:0.1``
runs the chaos self-check CI uses: a clean serial sweep and a faulted
supervised sweep, asserting zero quarantined kernels and bit-identical
samples.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cache import MeasurementCache

#: Fault kinds a plan may carry; anything else in ``REPRO_FAULTS`` is
#: a configuration error, not a silently-ignored typo.
FAULT_KINDS = ("crash", "hang", "corrupt_cache", "flaky_exc")

#: Request-scoped fault kinds for the advisor service: a handler that
#: sleeps past its deadline, a worker thread that dies mid-request, and
#: a registry entry whose bytes rot on disk.  Scheduled by the same
#: ``sha256(seed:kind:request:attempt)`` draw as the sweep faults, so a
#: service chaos run is exactly reproducible.  ``repro.serve`` applies
#: them; ``REPRO_SERVE_FAULTS`` configures them.
SERVE_FAULT_KINDS = ("slow_handler", "worker_crash", "corrupt_registry")

#: Every kind any plan may carry.
ALL_FAULT_KINDS = FAULT_KINDS + SERVE_FAULT_KINDS

#: Exit code an injected crash dies with — distinguishable from a real
#: segfault's negative signal status in worker post-mortems.
CRASH_EXIT_CODE = 113


class InjectedFault(RuntimeError):
    """A transient, injected failure; retrying must make it go away."""


class InjectedCrash(InjectedFault):
    """In-process stand-in for a worker crash (serial sweeps only)."""


class InjectedWorkerCrash(InjectedFault):
    """A service worker thread dying mid-request (see ``repro.serve``).

    Unlike :class:`InjectedCrash` this never kills a process: threads
    share the interpreter, so the service supervisor converts it into a
    retryable rejection and replaces the worker.
    """


_IN_WORKER = False


def mark_worker() -> None:
    """Pool-worker initializer: allow process-killing faults here."""
    global _IN_WORKER
    _IN_WORKER = True


@dataclass(frozen=True)
class FaultPlan:
    """Seeded per-(kernel, attempt) fault schedule.

    ``decide`` draws a uniform in ``[0, 1)`` from
    ``sha256(seed:kind:kernel:attempt)`` — the same cell always gives
    the same verdict, and a retry (``attempt + 1``) gets a fresh,
    independent draw, so any fault with rate < 1 drains under retries.
    """

    rates: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        for kind, rate in self.rates.items():
            if kind not in ALL_FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; expected one of "
                    f"{', '.join(ALL_FAULT_KINDS)}"
                )
            if not 0.0 <= float(rate) <= 1.0:
                raise ValueError(
                    f"fault rate for {kind!r} must be in [0, 1], got {rate!r}"
                )

    def rate(self, kind: str) -> float:
        return float(self.rates.get(kind, 0.0))

    def decide(self, kind: str, kernel: str, attempt: int) -> bool:
        """Does ``kind`` fire for this (kernel, attempt) cell?"""
        rate = self.rate(kind)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        text = f"{self.seed}:{kind}:{kernel}:{attempt}"
        digest = hashlib.sha256(text.encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / 2**64
        return draw < rate

    def spec(self) -> str:
        """The ``REPRO_FAULTS``-style string this plan round-trips to."""
        return ",".join(f"{k}:{self.rates[k]:g}" for k in sorted(self.rates))


def parse_faults(
    spec: str, *, seed: int = 0, hang_seconds: float = 30.0
) -> Optional[FaultPlan]:
    """Parse ``"crash:0.1,hang:0.05"`` into a :class:`FaultPlan`.

    An empty/whitespace spec means "no faults" (``None``); malformed
    entries raise ``ValueError`` naming the offending piece.
    """
    spec = (spec or "").strip()
    if not spec:
        return None
    rates: dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        kind, sep, value = part.partition(":")
        if not sep:
            raise ValueError(
                f"malformed fault spec {part!r}: expected 'kind:rate'"
            )
        try:
            rates[kind.strip()] = float(value)
        except ValueError:
            raise ValueError(
                f"malformed fault rate in {part!r}: {value!r} is not a number"
            ) from None
    if not rates:
        return None
    return FaultPlan(rates=rates, seed=seed, hang_seconds=hang_seconds)


def plan_from_env() -> Optional[FaultPlan]:
    """The plan ``REPRO_FAULTS``/``REPRO_FAULTS_SEED`` describes, if any."""
    spec = os.environ.get("REPRO_FAULTS", "")
    if not spec.strip():
        return None
    seed = int(os.environ.get("REPRO_FAULTS_SEED", "0"))
    hang = float(os.environ.get("REPRO_FAULTS_HANG_S", "30"))
    return parse_faults(spec, seed=seed, hang_seconds=hang)


def serve_plan_from_env() -> Optional[FaultPlan]:
    """The request-scoped plan ``REPRO_SERVE_FAULTS`` describes, if any.

    Kept separate from :func:`plan_from_env` so a chaos run can fault
    the serving layer without also faulting the measurement sweeps it
    may trigger underneath (and vice versa).  ``REPRO_SERVE_FAULTS_SEED``
    seeds it; the hang duration doubles as the ``slow_handler`` sleep
    (``REPRO_SERVE_FAULTS_HANG_S``, default 30 s — set it above the
    service deadline so an injected slowdown is indistinguishable from
    a real hang).
    """
    spec = os.environ.get("REPRO_SERVE_FAULTS", "")
    if not spec.strip():
        return None
    seed = int(os.environ.get("REPRO_SERVE_FAULTS_SEED", "0"))
    hang = float(os.environ.get("REPRO_SERVE_FAULTS_HANG_S", "30"))
    return parse_faults(spec, seed=seed, hang_seconds=hang)


def perturb(plan: Optional[FaultPlan], kernel: str, attempt: int) -> None:
    """Fire any scheduled pre-measurement fault for this cell.

    Called at the top of ``_measure_named`` so the injected failure
    lands exactly where a real one would: inside the worker, before
    the payload exists.
    """
    if plan is None:
        return
    if plan.decide("crash", kernel, attempt):
        if _IN_WORKER:
            os._exit(CRASH_EXIT_CODE)  # simulate a segfault: no cleanup
        raise InjectedCrash(
            f"injected crash in {kernel} (attempt {attempt})"
        )
    if plan.decide("hang", kernel, attempt) and _IN_WORKER:
        time.sleep(plan.hang_seconds)
    if plan.decide("flaky_exc", kernel, attempt):
        raise InjectedFault(
            f"injected transient failure in {kernel} (attempt {attempt})"
        )


def maybe_corrupt_cache(
    plan: Optional[FaultPlan],
    cache: "MeasurementCache",
    fingerprint: str,
    kernel: str,
) -> None:
    """Truncate the just-written cache entry if the plan says so.

    Runs in the supervisor right after ``cache.put`` — the torn entry
    must be *detected and re-measured* by the next sweep, never served.
    """
    if plan is None or not plan.decide("corrupt_cache", kernel, 0):
        return
    path = cache._path(fingerprint)
    try:
        size = path.stat().st_size
        with open(path, "r+b") as f:
            f.truncate(max(1, size // 2))
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Chaos self-check CLI (the CI `chaos` job)
# ---------------------------------------------------------------------------


def _samples_equal(left, right) -> bool:
    import numpy as np

    if [s.name for s in left] != [s.name for s in right]:
        return False
    for a, b in zip(left, right):
        if (
            a.measured_speedup != b.measured_speedup
            or a.measured_scalar_cpi != b.measured_scalar_cpi
            or a.measured_vector_cpi != b.measured_vector_cpi
            or not np.array_equal(a.scalar_features, b.scalar_features)
            or not np.array_equal(a.vector_features, b.vector_features)
            or not np.array_equal(a.lowered_features, b.lowered_features)
        ):
            return False
    return True


def main(argv: Optional[list[str]] = None) -> int:
    """Chaos parity check: faulted sweep ≡ clean sweep, nothing lost."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.pipeline.faultinject",
        description="Prove a faulted sweep converges to the clean sweep.",
    )
    parser.add_argument(
        "--faults",
        default="crash:0.05,flaky_exc:0.1",
        help="REPRO_FAULTS-style spec to inject (default: %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-kernel deadline; defaults to 5s when hangs are injected",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=5, dest="max_attempts"
    )
    parser.add_argument(
        "--specs",
        default="both",
        choices=("arm", "x86", "both"),
        help="which dataset specs to sweep (default: both)",
    )
    parser.add_argument(
        "--corpus",
        type=int,
        default=0,
        metavar="N",
        help="also chaos-test a generated corpus of N kernels (suite + "
        "synthetic) through the sharded sweep (default: suite only)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=3,
        help="shard count for the faulted --corpus sweep (default: 3)",
    )
    parser.add_argument(
        "--gen-seed",
        type=int,
        default=0,
        dest="gen_seed",
        help="generator seed for the --corpus kernels (default: 0)",
    )
    args = parser.parse_args(argv)

    # Imported lazily: build imports resilience imports this module.
    from ..experiments.dataset import ARM_LLV, X86_SLP
    from .build import measure_suite
    from .cache import MeasurementCache
    from .resilience import RetryPolicy

    plan = parse_faults(args.faults, seed=args.seed, hang_seconds=6.0)
    timeout = args.timeout
    if timeout is None and plan is not None and plan.rate("hang") > 0:
        timeout = 5.0
    policy = RetryPolicy(max_attempts=args.max_attempts, base_delay=0.01)
    specs = {
        "arm": (ARM_LLV,),
        "x86": (X86_SLP,),
        "both": (ARM_LLV, X86_SLP),
    }[args.specs]

    no_cache = MeasurementCache(root="/nonexistent", enabled=False)
    failures = 0
    for spec in specs:
        clean, clean_fail = measure_suite(
            spec, workers=1, cache=no_cache, supervise=False
        )
        chaotic, chaos_fail, report = measure_suite(
            spec,
            workers=args.workers,
            cache=no_cache,
            timeout=timeout,
            retry=policy,
            faults=plan,
            partial=True,
        )
        parity = _samples_equal(clean, chaotic) and clean_fail == chaos_fail
        ok = parity and not report.quarantined
        print(
            f"[chaos] {spec.label}: {len(chaotic)} samples, "
            f"{len(chaos_fail)} not vectorizable, "
            f"{len(report)} quarantined, "
            f"parity={'ok' if parity else 'MISMATCH'}"
        )
        if report.quarantined:
            print(report.summary())
        if not ok:
            failures += 1

        if args.corpus > 0:
            # The generated-corpus leg: a faulted *sharded* sweep over
            # suite + synthetic kernels must converge bit-identically
            # to a clean serial sweep of the same names.
            from ..experiments.corpus import corpus_kernel_names
            from .corpus import measure_corpus

            names = corpus_kernel_names(args.corpus, seed=args.gen_seed)
            clean_res = measure_corpus(
                names,
                spec,
                shards=1,
                workers=1,
                cache=no_cache,
                supervise=False,
            )
            chaos_res = measure_corpus(
                names,
                spec,
                shards=args.shards,
                workers=args.workers,
                cache=no_cache,
                timeout=timeout,
                retry=policy,
                faults=plan,
            )
            c_parity = (
                _samples_equal(clean_res.samples, chaos_res.samples)
                and clean_res.failures == chaos_res.failures
            )
            c_ok = c_parity and not chaos_res.quarantined_names
            print(
                f"[chaos] {spec.label} corpus({len(names)}, "
                f"{chaos_res.shards} shards): "
                f"{len(chaos_res.samples)} samples, "
                f"{len(chaos_res.failures)} not vectorizable, "
                f"{len(chaos_res.quarantined_names)} quarantined, "
                f"parity={'ok' if c_parity else 'MISMATCH'}"
            )
            if chaos_res.quarantined_names:
                print(chaos_res.report.summary())
            if not c_ok:
                failures += 1
    if failures:
        print(f"[chaos] FAILED for {failures} spec(s)")
        return 1
    print("[chaos] faulted sweeps converged to clean results")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    import sys

    sys.exit(main())
