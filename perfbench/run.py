"""The repository's benchmark: user workflows, timed from process start.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md``): ``paper-edit``, ``paper-warm``,
``corpus-cold`` and ``advise-batch``.  With ``--trace 0`` the last line
of standard output is a JSON object carrying every end-to-end metric;
with ``--trace 1`` it carries every per-layer metric from a separate
traced launch (and the tracing overhead against an untraced one).  The
outputs are checked against ``perfbench/expected/``; a mismatch or a
wrong cache state prints ``"correct": false`` and exits 1.  The full
result, with the settings snapshot, is also written under
``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import STATE_DIR, program_present, settings_snapshot, stop_children  # noqa: E402

WORKLOADS = ("paper-edit", "paper-warm", "corpus-cold", "advise-batch")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print("error: the program sources (src/repro) are not in this checkout",
              file=sys.stderr)
        return 2

    import workloads

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    try:
        res = workloads.run_batch(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()

    snapshot = settings_snapshot(
        args.seed,
        res.details.pop("repro_env", None) or {},
        {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "serve_workers": workloads.serve_workers(),
            "blas_threads": res.details.pop("blas_threads", None),
        },
    )
    full = {
        "settings": snapshot,
        "details": res.details,
        "errors": res.errors,
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": res.metrics,
    }
    out_dir = os.path.join(STATE_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(full, fh, indent=1, default=str)
    for err in res.errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print("settings: " + json.dumps(snapshot, sort_keys=True))
    print("details: " + json.dumps(res.details, sort_keys=True, default=str))
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": res.metrics,
    }))
    return 0 if res.correct and res.metrics else 1


if __name__ == "__main__":
    sys.exit(main())
