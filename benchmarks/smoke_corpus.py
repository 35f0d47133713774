"""Corpus perf smoke: gates the sharded sweep orchestrator and emits
``BENCH_corpus.json``.

    PYTHONPATH=src python benchmarks/smoke_corpus.py [--out PATH]
        [--size N] [--shards K]

Corpus kernels come from the property-based generator, so the bench
scales to any ``--size`` without touching the suite:

* ``sharding``     — ``measure_corpus`` with ``--shards`` shards vs a
  serial single-shard sweep of the same names:
  bit-identical samples, identical failures, zero quarantines.
  **Gated**.

Exit status 1 when any gate fails, so CI can consume it directly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments import ARM_LLV  # noqa: E402
from repro.experiments.corpus import corpus_kernel_names  # noqa: E402
from repro.pipeline import MeasurementCache, measure_corpus  # noqa: E402
from repro.pipeline.faultinject import _samples_equal  # noqa: E402


def nocache() -> MeasurementCache:
    return MeasurementCache(root="/nonexistent", enabled=False)


def bench_sharding(size: int, shards: int) -> dict:
    """Sharded sweep ≡ serial sweep, bit for bit."""
    names = corpus_kernel_names(size)
    t0 = time.perf_counter()
    serial = measure_corpus(
        names, ARM_LLV, shards=1, workers=1,
        supervise=False, cache=nocache(),
    )
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    sharded = measure_corpus(names, ARM_LLV, shards=shards, cache=nocache())
    sharded_s = time.perf_counter() - t0
    identical = (
        _samples_equal(serial.samples, sharded.samples)
        and serial.failures == sharded.failures
    )
    return {
        "kernels": len(names),
        "shards": sharded.shards,
        "serial_s": round(serial_s, 3),
        "sharded_s": round(sharded_s, 3),
        "samples": len(sharded.samples),
        "quarantined": sharded.quarantined_names,
        "gate_bit_identical": identical,
        "gate_no_quarantine": not sharded.quarantined_names,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_corpus.json")
    parser.add_argument(
        "--size",
        type=int,
        default=200,
        help="corpus size for the sharding sweep (default: 200)",
    )
    parser.add_argument("--shards", type=int, default=4)
    args = parser.parse_args(argv)

    payload = {
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "sharding": bench_sharding(args.size, args.shards),
    }

    failures = []
    for section, results in payload.items():
        if not isinstance(results, dict):
            continue
        for key, value in results.items():
            if key.startswith("gate_") and not value:
                failures.append(f"{section}.{key}")
    payload["gates_passed"] = not failures
    if failures:
        payload["gate_failures"] = failures

    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"[bench written to {args.out}]")
    if failures:
        print(f"FAIL: {', '.join(failures)}")
        return 1
    print("[corpus gates passed]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
