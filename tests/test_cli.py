"""CLI tests for ``python -m repro.experiments``."""

import pytest

from repro.experiments.__main__ import main


def test_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for eid in ("E1", "E11"):
        assert eid in out


def test_run_single(capsys):
    assert main(["E2", "--no-scatter"]) == 0
    out = capsys.readouterr().out
    assert "E2" in out
    assert "measured speedup" in out
    assert "completed in" in out


def test_run_multiple(capsys):
    assert main(["E1", "E9", "--no-scatter"]) == 0
    out = capsys.readouterr().out
    assert "E1" in out and "E9" in out


def test_scatter_included_by_default(capsys):
    assert main(["E1"]) == 0
    out = capsys.readouterr().out
    assert "predicted ^" in out  # the text scatter's axis header


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        main(["E42"])


def test_serial_flag(capsys):
    assert main(["E1", "E2", "--serial", "--no-scatter"]) == 0
    out = capsys.readouterr().out
    assert "suite: 2 experiments" in out
    assert "(serial, 1 job(s)" in out


def test_jobs_flag(capsys):
    assert main(["E1", "E2", "--jobs", "2", "--no-scatter"]) == 0
    out = capsys.readouterr().out
    assert "suite: 2 experiments" in out
    assert "2 job(s)" in out


def test_parallel_and_serial_tables_identical(capsys):
    assert main(["E1", "E3", "--no-scatter"]) == 0
    parallel_out = capsys.readouterr().out
    assert main(["E1", "E3", "--serial", "--no-scatter"]) == 0
    serial_out = capsys.readouterr().out

    def tables(text):
        # Strip the timing lines; the tables themselves must match.
        return [
            line
            for line in text.splitlines()
            if not (line.startswith("[") and "completed in" in line)
            and not line.startswith("[suite:")
        ]

    assert tables(parallel_out) == tables(serial_out)


def test_list_includes_e12(capsys):
    assert main(["--list"]) == 0
    assert "E12" in capsys.readouterr().out
