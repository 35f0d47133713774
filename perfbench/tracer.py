"""Out-of-program spans: wrap the bindings each layer's callers use.

Modules import functions by name (``from ..codegen.scalar_gen import
lower_scalar``), so wrapping the defining module would miss every
caller that bound the name first.  Each :data:`WRAPS` entry therefore
names the *caller's* module and attribute (``repro.sim.measure`` /
``lower_scalar``); methods are wrapped on their class, which every
caller shares.  Wrappers are installed by a post-import hook, so the
program imports exactly what it would import untraced, in the same
order, and each binding is patched the moment its module finishes
executing.

A span is ``(id, parent, name, t0, t1, thread, attrs)``.  Spans are
kept in memory and written once, at exit, as Chrome trace-event JSON
(viewable in Perfetto).  Counters are bumped at the same boundaries.
"""

from __future__ import annotations

import importlib.abc
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

_SPANS: list = []
_COUNTERS: dict = defaultdict(float)
_IDS = itertools.count(1)
_LOCAL = threading.local()
_LOCK = threading.Lock()


def _stack() -> list:
    st = getattr(_LOCAL, "stack", None)
    if st is None:
        st = _LOCAL.stack = []
    return st


def bump(name: str, by: float = 1.0) -> None:
    with _LOCK:
        _COUNTERS[name] += by


class span:
    """Context manager recording one span on the current thread."""

    __slots__ = ("name", "attrs", "sid", "parent", "t0")

    def __init__(self, name: str, **attrs):
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        st = _stack()
        self.parent = st[-1] if st else 0
        self.sid = next(_IDS)
        st.append(self.sid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        _stack().pop()
        _SPANS.append(
            (self.sid, self.parent, self.name, self.t0, t1,
             threading.get_ident(), self.attrs)
        )
        return False


def _wrap(fn, name: str, count=None, attrs=None):
    """``fn`` inside a span; ``count(args, kwargs, result)`` -> counters."""

    def wrapper(*args, **kwargs):
        with span(name, **(attrs(args, kwargs) if attrs else {})):
            result = fn(*args, **kwargs)
        if count is not None:
            for key, value in count(args, kwargs, result).items():
                bump(key, value)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


# ---------------------------------------------------------------------------
# Counters computed from arguments and results
# ---------------------------------------------------------------------------


def _calls(key):
    return lambda a, k, r: {key: 1}


def _vectorize(a, k, r):
    from repro.vectorize.plan import VectorizationFailure

    return {
        "vectorize.calls": 1,
        "vectorize.refused": isinstance(r, VectorizationFailure),
    }


def _minstrs(r) -> int:
    return len(r.body) + len(r.prologue) + len(r.epilogue)


def _lower(a, k, r):
    return {"codegen.lower_calls": 1, "codegen.minstrs": _minstrs(r)}


def _cache_get(a, k, r):
    from repro.pipeline.cache import MISS

    return {"pipeline.cache_gets": 1, "pipeline.cache_hits": r is not MISS}


def _cache_put(a, k, r):
    import pickle

    payload = a[2] if len(a) > 2 else k.get("payload")
    return {
        "pipeline.cache_puts": 1,
        "pipeline.cache_put_bytes": len(pickle.dumps(payload)),
    }


def _supervise(a, k, r):
    return {
        "pipeline.retries": r.retries,
        "pipeline.quarantined": len(r.quarantined),
    }


def _points(a, k, r):
    return {"vectorize.plan_points": len(r)}


def _scored(a, k, r):
    points = a[2] if len(a) > 2 else k.get("points", ())
    return {"dse.points_scored": len(points)}


def _request_attrs(a, k):
    return {"request_id": k.get("request_id", "")}


def _ticket_attrs(a, k):
    return {"request_id": a[1].request_id}


def _guard_run(fn):
    """The guard-probability execution, tagged with the tier that ran it.

    The tier is read from the kernel compiler's public run counters
    around the call: a native run bumps ``runs_native``, a NumPy /
    codegen run only ``runs_compiled``, an interpreted run neither.
    """
    from repro.sim import compile_summary

    def wrapper(*args, **kwargs):
        before = compile_summary()
        with span("sim.guard"):
            result = fn(*args, **kwargs)
        after = compile_summary()
        if after["runs_native"] > before["runs_native"]:
            tier = "native"
        elif after["runs_compiled"] > before["runs_compiled"]:
            tier = "numpy"
        else:
            tier = "interp"
        bump("sim.guard_calls")
        bump(f"sim.guard_tier.{tier}")
        return result

    wrapper.__wrapped__ = fn
    return wrapper


#: ``(caller module, attribute or Class.method, span name, counter fn)``.
#: A ``None`` span name with a factory in the counter slot means the
#: factory builds the whole wrapper (used where the counter needs state
#: from before the call).
WRAPS = [
    ("repro.pipeline.build", "static_prepass", "analysis.prepass", _calls("analysis.prepass_calls")),
    ("repro.serve.advisor", "Advisor._prepass", "analysis.prepass", _calls("analysis.prepass_calls")),
    ("repro.serve.advisor", "parse_kernel", "frontend.parse", _calls("frontend.parse_calls")),
    ("repro.sim.measure", "vectorize_loop", "vectorize", _vectorize),
    ("repro.vectorize.slp", "slp_vectorize", "vectorize", _vectorize),
    ("repro.dse.points", "vectorize_loop", "vectorize", _vectorize),
    ("repro.dse.points", "slp_vectorize", "vectorize", _vectorize),
    ("repro.vectorize.plan", "enumerate_plan_points", "vectorize", _points),
    ("repro.sim.measure", "lower_scalar", "codegen.lower", _lower),
    ("repro.sim.measure", "lower_vector", "codegen.lower", _lower),
    ("repro.codegen.slp_gen", "lower_slp", "codegen.lower", _lower),
    ("repro.dse.points", "lower_scalar", "codegen.lower", _lower),
    ("repro.dse.points", "lower_vector", "codegen.lower", _lower),
    ("repro.dse.points", "lower_slp", "codegen.lower", _lower),
    ("repro.dse.points", "interleave_stream", "codegen.interleave", _calls("codegen.interleave_calls")),
    ("repro.sim.measure", "run_scalar", None, _guard_run),
    # One .so per call: a batch installs one artifact for its members.
    ("repro.sim.native", "_build_artifact", "sim.native_build", _calls("sim.native_so_built")),
    ("repro.sim.native", "_build_batch", "sim.native_build", _calls("sim.native_so_built")),
    ("repro.sim.measure", "analyze_stream", "sim.timing", _calls("sim.timing_calls")),
    ("repro.dse.points", "analyze_stream", "sim.timing", _calls("sim.timing_calls")),
    ("repro.costmodel.base", "feature_vector", "costmodel.featurize", _calls("costmodel.featurize_calls")),
    ("repro.costmodel.matrix", "_build_bundle", "costmodel.featurize", _calls("costmodel.featurize_calls")),
    ("repro.fitting.l2", "LeastSquares.fit", "fitting.fit", _calls("fitting.fit_calls.l2")),
    ("repro.fitting.nnls", "NonNegativeLeastSquares.fit", "fitting.fit", _calls("fitting.fit_calls.nnls")),
    ("repro.fitting.svr", "LinearSVR.fit", "fitting.fit", _calls("fitting.fit_calls.svr")),
    ("repro.experiments.base", "loocv_predictions", "validation.loocv", _calls("validation.loocv_calls")),
    ("repro.pipeline.build", "MeasurementCache.get", "pipeline.cache_get", _cache_get),
    ("repro.pipeline.cache", "MeasurementCache.put", "pipeline.cache_put", _cache_put),
    ("repro.pipeline.build", "measurement_fingerprint", "pipeline.fingerprint", None),
    ("repro.pipeline.build", "run_supervised", "pipeline.supervise", _supervise),
    ("repro.gen", "generate_kernel", "gen.generate", _calls("gen.generate_calls")),
    ("repro.dse.oracle", "score_points_entry", "dse.oracle", _scored),
    ("repro.serve.advisor", "Advisor.advise", "serve.advise", _calls("serve.advise_calls")),
]

#: Spans carrying request ids: admission-to-answer and worker pickup.
REQUEST_WRAPS = [
    ("repro.serve.workers", "WorkerPool.submit", "serve.submit", _request_attrs),
    ("repro.serve.workers", "WorkerPool._handle", "serve.handle", _ticket_attrs),
]


def _patch(module, attr: str, make) -> None:
    owner = module
    name = attr
    if "." in attr:
        cls_name, name = attr.split(".", 1)
        owner = getattr(module, cls_name)
    fn = getattr(owner, name)
    if getattr(fn, "_perfbench", False):
        return
    wrapped = make(fn)
    wrapped._perfbench = True
    setattr(owner, name, wrapped)


class _PostImportHooks(importlib.abc.MetaPathFinder):
    """Run callbacks on a module right after it first executes."""

    def __init__(self, hooks: dict):
        self.hooks = hooks

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.hooks:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        exec_module = loader.exec_module
        callbacks = self.hooks.pop(fullname)

        def exec_and_patch(module):
            exec_module(module)
            for cb in callbacks:
                cb(module)

        loader.exec_module = exec_and_patch
        return spec


def on_import(hooks: dict) -> None:
    """``{module: [callback(module)]}``; already-imported ones run now."""
    pending = {}
    for name, callbacks in hooks.items():
        module = sys.modules.get(name)
        if module is not None:
            for cb in callbacks:
                cb(module)
        else:
            pending[name] = list(callbacks)
    if pending:
        sys.meta_path.insert(0, _PostImportHooks(pending))


def install() -> None:
    """Install every layer wrapper (the traced run)."""
    hooks: dict = defaultdict(list)
    for module, attr, name, count in WRAPS:
        if name is None:
            make = count
        else:
            make = (lambda n, c: lambda fn: _wrap(fn, n, count=c))(name, count)
        hooks[module].append(
            (lambda a, m: lambda mod: _patch(mod, a, m))(attr, make)
        )
    for module, attr, name, attrs in REQUEST_WRAPS:
        make = (lambda n, at: lambda fn: _wrap(fn, n, attrs=at))(name, attrs)
        hooks[module].append(
            (lambda a, m: lambda mod: _patch(mod, a, m))(attr, make)
        )
    hooks["repro.experiments.registry"].append(_wrap_experiments)
    on_import(hooks)


def _wrap_experiments(module) -> None:
    """Each E-driver in the registry the scheduler looks ids up in."""
    for eid, (title, fn) in list(module.EXPERIMENTS.items()):
        module.EXPERIMENTS[eid] = (title, _wrap(fn, f"experiments.{eid}"))


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

#: Spans that wait on other threads rather than doing work; their time
#: is reported through request attributes, not as layer self time.
WAIT_SPANS = {"serve.submit"}


def self_times(spans) -> dict:
    """Self seconds per span name (duration minus direct children)."""
    child = defaultdict(float)
    for sid, parent, name, t0, t1, tid, attrs in spans:
        if parent:
            child[parent] += t1 - t0
    out: dict = defaultdict(float)
    for sid, parent, name, t0, t1, tid, attrs in spans:
        if name in WAIT_SPANS:
            continue
        out[name] += (t1 - t0) - child.get(sid, 0.0)
    return dict(out)


def snapshot() -> dict:
    return {"spans": list(_SPANS), "counters": dict(_COUNTERS)}


def write_chrome(path: str, spans, pid: int, origin: float) -> None:
    """Chrome trace-event JSON: one complete ('X') event per span."""
    events = []
    for sid, parent, name, t0, t1, tid, attrs in spans:
        events.append(
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": round((t0 - origin) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": {"id": sid, "parent": parent, **attrs},
            }
        )
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
