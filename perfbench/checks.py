"""Output checks against the expected outputs in ``expected/``.

* ``paper_tables.txt`` — the E1–E12 report text of ``all --no-scatter``
  with the run-dependent parts removed: the ``[E* completed in …]`` and
  ``[suite: …]`` timing lines, and the cache-state clause of the
  dataset notes (``Sweep schedule: …``), which legitimately differs
  between a cold and a warm run (the cache state is asserted from
  counters instead).
* ``corpus.json`` — per generator seed, the corpus sample digest
  (``repro.costmodel.matrix.samples_fingerprint``), the refused
  kernels and the quarantine list.
* ``advise_verdicts.json`` — per request id of the advise-batch
  workload, the expected ``canonical_verdict`` of its answer.

Regenerate all three with ``python3 perfbench/regen_expected.py``.
"""

from __future__ import annotations

import json
import os
import re

from common import EXPECTED_DIR

PAPER_FILE = "paper_tables.txt"
CORPUS_FILE = "corpus.json"
VERDICTS_FILE = "advise_verdicts.json"

_TIMING_LINE = re.compile(r"^\[(E\d+ completed in |suite: )")
_SCHEDULE = re.compile(r"Sweep schedule: .*?\.(?= [A-Z]|$)")


def normalize_paper(text: str) -> str:
    lines = []
    for line in text.splitlines():
        if _TIMING_LINE.match(line):
            continue
        lines.append(_SCHEDULE.sub("Sweep schedule: <cache state>.", line).rstrip())
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"


def load(name: str, directory: str = EXPECTED_DIR):
    with open(os.path.join(directory, name)) as fh:
        return fh.read() if name.endswith(".txt") else json.load(fh)


def check_paper(stdout: str, directory: str = EXPECTED_DIR) -> list[str]:
    """Mismatch descriptions (empty when the tables match)."""
    got = normalize_paper(stdout).splitlines()
    want = load(PAPER_FILE, directory).splitlines()
    if got == want:
        return []
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return [f"paper table line {i + 1}: expected {w!r}, got {g!r}"]
    return [f"paper tables: expected {len(want)} lines, got {len(got)}"]


def check_corpus(digest: dict, gen_seed: int, directory: str = EXPECTED_DIR) -> list[str]:
    want = load(CORPUS_FILE, directory).get(str(gen_seed))
    if want is None:
        return [f"no expected corpus output for generator seed {gen_seed}"]
    return [
        f"corpus {key}: expected {want[key]!r}, got {digest.get(key)!r}"
        for key in want
        if digest.get(key) != want[key]
    ]


def check_verdicts(passes: list, n_passes: int, directory: str = EXPECTED_DIR) -> list[str]:
    """``passes``: the launcher's captured request passes, each a list
    of requests with their final status and canonical verdict.  Every
    pass must answer every expected request with its expected verdict."""
    want = load(VERDICTS_FILE, directory)
    if len(passes) != n_passes:
        return [f"advise: expected {n_passes} request passes, got {len(passes)}"]
    errors = []
    for k, p in enumerate(passes):
        got = {r["request_id"]: r for r in p["requests"]}
        if sorted(got) != sorted(want):
            errors.append(f"advise pass {k}: expected requests {sorted(want)}, got {sorted(got)}")
            continue
        for rid, verdict in sorted(want.items()):
            r = got[rid]
            if r["status"] != 200 or r["verdict"] != verdict:
                errors.append(
                    f"advise pass {k}, {rid}: expected 200 {verdict}, "
                    f"got {r['status']} {r['verdict']}"
                )
    return errors
