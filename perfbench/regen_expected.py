"""Regenerate the expected outputs in ``perfbench/expected/``.

    python3 perfbench/regen_expected.py [paper] [corpus] [advise]

(no argument: all three).  Run it from the repository root on a
commit whose outputs are known good; every file it writes is what
later runs are checked against.  The advise verdicts come from one
launch of the advise-batch command; both of its request passes must
answer alike.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from common import EXPECTED_DIR, Dirs, paper_argv, run_program  # noqa: E402
from workloads import (  # noqa: E402
    ADVISE_PASSES,
    CORPUS_SEEDS,
    advise_batch_argv,
    corpus_argv,
)


def _write(name: str, data) -> None:
    path = os.path.join(EXPECTED_DIR, name)
    with open(path, "w") as fh:
        if isinstance(data, str):
            fh.write(data)
        else:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"wrote {path}")


def regen_paper() -> None:
    dirs = Dirs.make()
    try:
        launch = run_program(dirs, "paper", paper_argv())
        if launch.status != 0:
            raise SystemExit(launch.stderr)
        _write(checks.PAPER_FILE, checks.normalize_paper(launch.stdout))
    finally:
        dirs.remove()


def regen_corpus() -> None:
    out = {}
    for gen_seed in CORPUS_SEEDS:
        dirs = Dirs.make(checkpoint=True)
        try:
            launch = run_program(dirs, "corpus", corpus_argv(gen_seed))
            if launch.status != 0 or not launch.report:
                raise SystemExit(launch.stdout + launch.stderr)
            out[str(gen_seed)] = launch.report["corpus"]
            print(f"corpus seed {gen_seed}: {launch.report['corpus']['sample_digest']}")
        finally:
            dirs.remove()
    _write(checks.CORPUS_FILE, out)


def regen_advise() -> None:
    dirs = Dirs.make()
    try:
        launch = run_program(dirs, "chaos", advise_batch_argv(0))
    finally:
        dirs.remove()
    passes = (launch.report or {}).get("passes") or []
    if launch.status != 0 or len(passes) != ADVISE_PASSES:
        raise SystemExit(launch.stdout[-4000:] + launch.stderr[-4000:])
    verdicts = [{r["request_id"]: r["verdict"] for r in p["requests"]} for p in passes]
    if any(v != verdicts[0] for v in verdicts) or None in verdicts[0].values():
        raise SystemExit("advise: the request passes did not answer alike")
    _write(checks.VERDICTS_FILE, verdicts[0])


def main(argv: list) -> int:
    parts = argv or ["paper", "corpus", "advise"]
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for part in parts:
        {"paper": regen_paper, "corpus": regen_corpus, "advise": regen_advise}[part]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
