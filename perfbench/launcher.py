"""Fresh-process launcher: run one program entry point, report counters.

    python3 perfbench/launcher.py OUT.json TRACE HOOK -- ARGV...

Calls ``repro.experiments.__main__.main(ARGV)`` — the same function
``python -m repro.experiments ARGV`` runs — and writes OUT.json when it
returns.  HOOK names the workflow's first pipeline call, whose start
time ends the set-up phase: ``paper`` (the suite scheduler's
``run_suite``), ``corpus`` (the corpus CLI's ``measure_corpus``, whose
result is also digested for the output check) or ``chaos`` (the
``serve-chaos`` CLI's ``run_gate``, whose request passes are also
captured: each request's latency and ``canonical_verdict``, and the
worker pool's health after each pass).  A ``:setup`` suffix
(``paper:setup``) makes the launch a set-up probe that exits at the
first call.  With TRACE=1 every layer wrapper in :mod:`tracer` is
installed before ``repro`` is imported, and the spans are written as
Chrome trace-event JSON next to OUT.json.

Times are ``time.monotonic()`` readings, comparable across processes
on one host, so the parent can subtract its spawn time.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402

_STATE: dict = {"first_call": None, "corpus": None, "setup_only": None, "passes": []}

#: HOOK -> (caller module, attribute) of the workflow's first call.
FIRST_CALL = {
    "paper": ("repro.experiments.scheduler", "run_suite"),
    "corpus": ("repro.experiments.corpus", "measure_corpus"),
    "chaos": ("repro.serve.chaos", "run_gate"),
}


def _first_call(fn, capture: bool):
    def wrapper(*args, **kwargs):
        if _STATE["first_call"] is None:
            _STATE["first_call"] = time.monotonic()
            if _STATE["setup_only"]:
                # A set-up probe: report the first call and stop here.
                with open(_STATE["setup_only"], "w") as fh:
                    json.dump({"status": 0, "first_call": _STATE["first_call"]}, fh)
                os._exit(0)
        result = fn(*args, **kwargs)
        if capture:
            _STATE["corpus"] = _corpus_digest(result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _corpus_digest(result) -> dict:
    from repro.costmodel.matrix import samples_fingerprint

    return {
        "samples": len(result.samples),
        "sample_digest": samples_fingerprint(result.samples),
        "not_vectorizable": sorted(n for n, _ in result.failures),
        "quarantined": sorted(result.quarantined_names),
    }


def _each_request(fn):
    """``run_requests`` called one request at a time, so each request is
    timed from admission to its final answer, retries included.  The
    function keeps no state between requests, so the answers are the
    same; the pool's health is read after each pass, before it stops."""

    def wrapper(pool, requests, **kwargs):
        results, timed = [], []
        for request in requests:
            t0 = time.perf_counter()
            results.extend(fn(pool, [request], **kwargs))
            timed.append(time.perf_counter() - t0)
        _STATE["passes"].append(
            {"results": results, "latency_s": timed, "health": pool.health()}
        )
        return results

    wrapper.__wrapped__ = fn
    return wrapper


def _passes() -> list:
    """The captured request passes, with each answer's canonical verdict."""
    if not _STATE["passes"]:
        return []
    from repro.serve.advisor import canonical_verdict

    out = []
    for p in _STATE["passes"]:
        requests = [
            {
                "request_id": r["request_id"],
                "status": r["status"],
                "attempts": r["attempts"],
                "latency_s": lat,
                "verdict": canonical_verdict(r["body"]) if r["status"] == 200 else None,
            }
            for r, lat in zip(p["results"], p["latency_s"])
        ]
        out.append({"requests": requests, "health": p["health"]})
    return out


def _blas_threads() -> dict:
    """Threads of every OpenBLAS the process loaded, as it reports them."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return out
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
        ):
            if hasattr(lib, symbol):
                out[os.path.basename(path)] = getattr(lib, symbol)()
                break
    return out


def _program_counters() -> dict:
    """Public counters the program keeps, read after ``main`` returns."""
    from repro.costmodel.matrix import matrix_cache_info
    from repro.pipeline import default_cache
    from repro.sim import compile_summary

    return {
        "cache": default_cache().stats.as_dict(),
        "compile": compile_summary(),
        "matrix": matrix_cache_info(),
    }


def main(argv: list[str]) -> int:
    t_launch = time.monotonic()
    out_path, trace, hook = argv[0], argv[1] == "1", argv[2]
    if hook.endswith(":setup"):
        hook = hook[: -len(":setup")]
        _STATE["setup_only"] = out_path
    program_argv = argv[argv.index("--") + 1:]
    if trace:
        tracer.install()
    if hook in FIRST_CALL:
        module, attr = FIRST_CALL[hook]
        hooks = [
            lambda mod: setattr(
                mod, attr, _first_call(getattr(mod, attr), hook == "corpus")
            )
        ]
        if hook == "chaos":
            hooks.append(
                lambda mod: setattr(
                    mod, "run_requests", _each_request(mod.run_requests)
                )
            )
        tracer.on_import({module: hooks})
    t0 = time.perf_counter()
    with tracer.span("launcher.main"):
        with tracer.span("repro.import"):
            from repro.experiments.__main__ import main as program_main
        status = program_main(program_argv)
    report = {
        "status": status,
        "t_launch": t_launch,
        "first_call": _STATE["first_call"],
        "corpus": _STATE["corpus"],
        "passes": _passes(),
        "counters": _program_counters(),
        "blas_threads": _blas_threads(),
    }
    if trace:
        snap = tracer.snapshot()
        report["trace"] = {
            "self_s": tracer.self_times(snap["spans"]),
            "counters": snap["counters"],
            "root_s": time.perf_counter() - t0,
            "queue_wait_s": _request_spans(snap["spans"]),
        }
        tracer.write_chrome(
            os.path.splitext(out_path)[0] + ".trace.json",
            snap["spans"],
            os.getpid(),
            t0,
        )
    with open(out_path, "w") as fh:
        json.dump(report, fh)
    return status


def _request_spans(spans) -> list:
    """Queue wait (admission to worker pickup) of every request attempt,
    in seconds.  Request ids repeat across passes, so each
    ``serve.handle`` span is paired with the latest ``serve.submit`` of
    its id that started before it."""
    submits: dict = {}
    handles = []
    for sid, parent, name, t0, t1, tid, attrs in spans:
        if name == "serve.submit":
            submits.setdefault(attrs["request_id"], []).append(t0)
        elif name == "serve.handle":
            handles.append((attrs["request_id"], t0))
    waits = []
    for rid, h0 in handles:
        starts = [t for t in submits.get(rid, ()) if t <= h0]
        if starts:
            waits.append(h0 - max(starts))
    return waits


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
