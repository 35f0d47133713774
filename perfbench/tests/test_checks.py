"""The output checks pass on the committed expectations and fail when
any expected value changes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import checks  # noqa: E402
import common  # noqa: E402
import workloads  # noqa: E402
from common import EXPECTED_DIR  # noqa: E402


@pytest.fixture
def expected(tmp_path):
    """A private copy of ``expected/`` the test may edit."""
    dst = tmp_path / "expected"
    shutil.copytree(EXPECTED_DIR, dst)
    return dst


def _program_stdout() -> str:
    """What ``all --no-scatter`` prints, rebuilt from the expected text
    plus the run-dependent lines the check must ignore."""
    text = checks.load(checks.PAPER_FILE)
    text = text.replace(
        "Sweep schedule: <cache state>.",
        "Sweep schedule: 151 measured / 0 cached, serial — single worker "
        "or task; tiers native=23, 1.03s native builds.",
        1,
    ).replace("Sweep schedule: <cache state>.", "Sweep schedule: fully cached "
              "(no measurement scheduled).")
    return text + "[E1 completed in 0.3s]\n\n[suite: 12 experiments in 1.0s]\n"


def test_paper_check_passes_on_program_output(expected):
    assert checks.check_paper(_program_stdout(), str(expected)) == []


def test_paper_check_fails_on_changed_expected_value(expected):
    path = expected / checks.PAPER_FILE
    text = path.read_text()
    assert "0.532" in text
    path.write_text(text.replace("0.532", "0.533", 1))
    errors = checks.check_paper(_program_stdout(), str(expected))
    assert errors and "0.533" in errors[0]


def test_paper_check_fails_on_missing_line(expected):
    path = expected / checks.PAPER_FILE
    path.write_text(path.read_text() + "extra line\n")
    assert checks.check_paper(_program_stdout(), str(expected))


def _corpus_output(gen_seed: int) -> dict:
    return dict(checks.load(checks.CORPUS_FILE)[str(gen_seed)])


def test_corpus_check_passes_and_fails_on_changed_digest(expected):
    out = _corpus_output(11)
    assert checks.check_corpus(out, 11, str(expected)) == []
    path = expected / checks.CORPUS_FILE
    data = json.loads(path.read_text())
    data["11"]["sample_digest"] = "0" * 40
    path.write_text(json.dumps(data))
    errors = checks.check_corpus(out, 11, str(expected))
    assert errors and "sample_digest" in errors[0]


def test_corpus_check_fails_on_quarantine(expected):
    out = _corpus_output(12)
    out["quarantined"] = ["gx12_00003_control-flow"]
    assert checks.check_corpus(out, 12, str(expected))


def _passes(n: int = 2) -> list:
    """What the launcher captures from a correct advise-batch launch."""
    want = checks.load(checks.VERDICTS_FILE)
    requests = [
        {"request_id": rid, "status": 200, "attempts": 1, "latency_s": 0.01, "verdict": v}
        for rid, v in sorted(want.items())
    ]
    return [{"requests": [dict(r) for r in requests], "health": {}} for _ in range(n)]


def test_verdict_check_passes_on_program_output(expected):
    assert checks.check_verdicts(_passes(), 2, str(expected)) == []


def test_verdict_check_fails_on_changed_expected_verdict(expected):
    path = expected / checks.VERDICTS_FILE
    data = json.loads(path.read_text())
    rid = sorted(data)[0]
    verdict = json.loads(data[rid])
    data[rid] = json.dumps(dict(verdict, vectorized=not verdict["vectorized"]), sort_keys=True)
    path.write_text(json.dumps(data))
    errors = checks.check_verdicts(_passes(), 2, str(expected))
    assert len(errors) == 2 and rid in errors[0]


def test_verdict_check_fails_on_failed_or_missing_request(expected):
    passes = _passes()
    passes[1]["requests"][3]["status"] = 503
    assert checks.check_verdicts(passes, 2, str(expected))
    passes = _passes()
    passes[0]["requests"].pop()
    assert checks.check_verdicts(passes, 2, str(expected))
    assert checks.check_verdicts(_passes(1), 2, str(expected))


def test_every_corpus_seed_has_expected_output():
    data = checks.load(checks.CORPUS_FILE)
    assert sorted(int(k) for k in data) == sorted(workloads.CORPUS_SEEDS)
    assert all(v["quarantined"] == [] for v in data.values())


def test_harrell_davis_quantiles():
    values = list(range(1, 102))
    assert workloads.hd(values, 0.5) == pytest.approx(51.0)
    assert 90 < workloads.hd(values, 0.95) < 100
    assert workloads.hd([7.0], 0.95) == 7.0


def test_host_speed_samples_while_the_caller_waits():
    with common.HostSpeed() as speed:
        time.sleep(0.3)
    assert len(speed.samples) >= 3
    assert all(s > 0 for s in speed.samples)
    assert speed.slowdown() == statistics.median(speed.samples) / common.SPEED_SAMPLE_IDLE_S
