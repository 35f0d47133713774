"""Kernel compilation: ``LoopKernel`` IR → specialized Python functions.

The tree-walking interpreter in :mod:`.executor` is the semantic ground
truth, but it pays a full tree walk per statement per iteration — the
single most expensive stage of every measurement.  This module builds,
once per (kernel fingerprint, mode) and caches, a specialized function
with no per-node ``isinstance`` dispatch at all:

* **vector mode** — a whole-loop NumPy closure for kernels the analysis
  framework proves free of unsafe loop-carried dependences: every
  statement evaluates all inner iterations as one array expression,
  guards become ``np.where``/mask if-conversion (with vectorized
  guard-probability counting), and recognized reductions fold through
  the sequential ``ufunc.accumulate`` tables so the scalar loop's
  rounding is reproduced exactly;
* **scalar mode** — codegen'd straight-line Python source (via
  ``compile()``/``exec``) that preserves statement order and C scalar
  semantics for loop-carried / indirect kernels.

Eligibility for vector mode is decided from the cached analysis passes
(``deps``, ``scalars``) plus a static bounds check, and every compiled
function is *self-checked* against the interpreter on a short run at
build time — a mismatch demotes vector → scalar → interpreter rather
than ever returning unverified results.  Both generated paths evaluate
operators through the shared tables in :mod:`.ufuncs`, so they cannot
drift from the interpreter's arithmetic.

``run_scalar`` routes here by default; ``REPRO_COMPILE=0`` opts out.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..analysis.dependence import DepStatus
from ..analysis.reduction import (
    REDUCTION_IDENTITY,
    ScalarClass,
    ScalarInfo,
    _match_select_minmax,
)
from ..ir.expr import (
    Affine,
    BinOp,
    BinOpKind,
    Compare,
    Const,
    Convert,
    Expr,
    Indirect,
    IterValue,
    Load,
    ScalarRef,
    Select,
    UnOp,
)
from ..ir.kernel import LoopKernel
from ..ir.printer import kernel_to_source
from ..ir.stmt import ArrayStore, IfBlock, ScalarAssign
from ..ir.types import DType
from .executor import (
    ExecResult,
    initial_scalars,
    make_buffers,
    run_scalar_interpreted,
)
from .ufuncs import ACCUMULATORS, BINOPS, CMPS, NP_DTYPE, UNOPS, cast_value

__all__ = [
    "CompileError",
    "CompiledKernel",
    "bit_identical",
    "clear_compile_cache",
    "compile_enabled",
    "compile_stats",
    "compile_summary",
    "get_compiled",
    "kernel_fingerprint",
    "reset_compile_stats",
    "run_scalar_compiled",
]


class CompileError(Exception):
    """The kernel cannot (or must not) be compiled; interpret instead."""


@dataclass
class CompiledKernel:
    """A built kernel function plus the metadata that justified it.

    ``fn(bufs, env, inner_trip, outer_trip)`` returns
    ``(scalars_out, guard_payload, iterations)``.  ``mode`` is
    ``"vector"``, ``"scalar"``, or ``"interpret"`` (a cached negative
    result whose ``fn`` is None).
    """

    fingerprint: str
    mode: str
    fn: Optional[Callable]
    source: str = ""
    reason: str = ""


@dataclass
class CompileStats:
    vector: int = 0          # kernels resolved to the whole-loop closure
    scalar: int = 0          # kernels resolved to straight-line codegen
    demoted: int = 0         # vector builds rejected by the self-check
    refused: int = 0         # kernels pinned to the interpreter
    cache_hits: int = 0
    cache_misses: int = 0
    runs_compiled: int = 0   # executions served by a compiled fn
    runs_vector: int = 0     # ... of which used the vector closure


_STATS = CompileStats()

#: (fingerprint, mode) -> CompiledKernel.  Keyed by content fingerprint,
#: not object identity: mutating (rebuilding) a kernel invalidates its
#: compiled function automatically.
_CACHE: dict[tuple[str, str], CompiledKernel] = {}
#: fingerprint -> mode chosen by auto-resolution.
_AUTO: dict[str, str] = {}
#: id(kernel) -> (kernel, fingerprint) — pins the kernel object so a
#: recycled id can never alias a stale digest.
_FP_MEMO: "OrderedDict[int, tuple[LoopKernel, str]]" = OrderedDict()
_FP_MEMO_MAX = 1024

#: Inner iterations of the build-time interpreter-vs-compiled check.
_SELF_CHECK_ITERS = 16


def compile_enabled() -> bool:
    return os.environ.get("REPRO_COMPILE", "1") != "0"


def kernel_fingerprint(kernel: LoopKernel) -> str:
    """Content digest of a kernel (name + printed source), memoized."""
    key = id(kernel)
    hit = _FP_MEMO.get(key)
    if hit is not None and hit[0] is kernel:
        _FP_MEMO.move_to_end(key)
        return hit[1]
    digest = hashlib.sha256(
        (kernel.name + "\n" + kernel_to_source(kernel)).encode()
    ).hexdigest()
    _FP_MEMO[key] = (kernel, digest)
    while len(_FP_MEMO) > _FP_MEMO_MAX:
        _FP_MEMO.popitem(last=False)
    return digest


def _cache_fp(kernel: LoopKernel) -> str:
    """Cache key for compiled artifacts: content digest plus the
    range-analysis consumer switch.

    Generated code differs when ``REPRO_RANGES=0`` (no guard folding),
    and parity tests flip the switch in-process — so the switch state
    must be part of the key, or a toggle would be served a stale
    function.
    """
    fp = kernel_fingerprint(kernel)
    from ..analysis.framework.ranges import ranges_enabled

    return fp if ranges_enabled() else fp + ":ranges-off"


def compile_stats() -> CompileStats:
    return _STATS


def reset_compile_stats() -> None:
    global _STATS
    _STATS = CompileStats()


def clear_compile_cache() -> None:
    _CACHE.clear()
    _AUTO.clear()
    _FP_MEMO.clear()


def compile_summary() -> dict:
    """Counters for experiment reports and the perf smoke.

    ``runs_native`` is always 0 (no tier executes native code); it is
    kept because trace readers compare it before and after a run.
    """
    s = _STATS
    return {
        "enabled": compile_enabled(),
        "kernels_vector": s.vector,
        "kernels_scalar": s.scalar,
        "kernels_demoted": s.demoted,
        "kernels_refused": s.refused,
        "cache_hits": s.cache_hits,
        "cache_misses": s.cache_misses,
        "runs_compiled": s.runs_compiled,
        "runs_vector": s.runs_vector,
        "runs_native": 0,
        "cached_fns": len(_CACHE),
    }


# ---------------------------------------------------------------------------
# Vector-mode eligibility
# ---------------------------------------------------------------------------


@dataclass
class _VectorPlan:
    scalar_info: dict[str, ScalarInfo]
    #: id(update stmt) -> contribution exprs, innermost-spine-first.
    contribs: dict[int, list[Expr]]
    #: reduction scalar names; list index = fold slot.
    red_order: list[str]


def _reads_scalar(expr: Expr, name: str) -> bool:
    return any(
        isinstance(n, ScalarRef) and n.name == name for n in expr.walk()
    )


def _update_contribs(
    stmt: ScalarAssign, info: ScalarInfo, decl
) -> Optional[list[Expr]]:
    """Contribution exprs of a reduction update, in evaluation order.

    Walks the operator *spine* (``s = (...((s ⊕ c₁) ⊕ c₂) ...)`` in any
    association) collecting the non-``s`` side at each node.  The fold
    then applies contributions innermost-first, which only commutes
    operands per node — bitwise-safe for IEEE add/mul/min/max — and
    never reassociates.  Every spine node must already be in the
    accumulator dtype, or per-iteration rounding would differ.
    """
    op = info.op
    v = stmt.value
    if isinstance(v, BinOp) and v.op is op:
        node: Expr = v
        contribs: list[Expr] = []
        while isinstance(node, BinOp) and node.op is op:
            if node.dtype is not decl.dtype:
                return None
            on_l = _reads_scalar(node.lhs, stmt.name)
            on_r = _reads_scalar(node.rhs, stmt.name)
            if on_l == on_r:
                return None
            if on_l:
                contribs.append(node.rhs)
                node = node.lhs
            else:
                contribs.append(node.lhs)
                node = node.rhs
        if not (isinstance(node, ScalarRef) and node.name == stmt.name):
            return None
        contribs.reverse()
        return contribs
    if isinstance(v, Select):
        if _match_select_minmax(stmt) is not op or v.dtype is not decl.dtype:
            return None
        keeps_s = isinstance(v.if_false, ScalarRef) and v.if_false.name == stmt.name
        return [v.if_true if keeps_s else v.if_false]
    return None


def _affine_bounds_violation(kernel: LoopKernel) -> Optional[str]:
    """Static check that no affine subscript ever leaves ``[0, extent)``.

    Two reasons vector mode needs this.  Whole-array evaluation runs
    guarded accesses on *all* lanes, so an index past the extent would
    raise where the scalar loop never executes it.  And a *negative*
    index, though it wraps identically in both paths, aliases the top
    of the array — which the affine dependence analysis (no-wrap
    arithmetic) cannot see, so its distances are only trustworthy when
    nothing wraps.

    The range facts come from :class:`BoundsCheckPass` (one source of
    truth with lint and ``analyze --ranges``); every
    affine verdict — including the index-array read feeding each
    gather/scatter — must be proven inside ``[0, extent)``.  Gather
    *contents* are runtime data and stay unchecked here: a bad index
    faults identically in scalar and vector mode.  This is tier
    *eligibility*, not elision, so it is never gated on REPRO_RANGES.
    """
    from ..analysis.framework.passmanager import default_manager
    from ..analysis.framework.ranges import BoundsCheckPass

    for stmt in kernel.stmts():
        subs = [(load.array, load.subscript) for root in stmt.exprs()
                for load in root.loads()]
        if isinstance(stmt, ArrayStore):
            subs.append((stmt.array, stmt.subscript))
        for array, sub in subs:
            if len(sub) != len(kernel.arrays[array].extents):
                return f"partial subscript on {array!r}"
            for ix in sub:
                if isinstance(ix, Indirect):
                    if len(kernel.arrays[ix.array].extents) != 1:
                        return f"indirect through multi-dim array {ix.array!r}"

    bounds = default_manager().get(BoundsCheckPass, kernel)
    for acc in bounds.accesses:
        if acc.kind != "affine":
            continue
        if not acc.proven:
            return (
                f"subscript {acc.dim} of {acc.array!r} spans "
                f"[{int(acc.lo)}, {int(acc.hi)}] vs extent {acc.extent}"
            )
    return None


def _vector_plan(kernel: LoopKernel) -> tuple[Optional[_VectorPlan], str]:
    """Prove the kernel safe for statement-at-a-time whole-array execution.

    Safe dependences are exactly the ones in-order whole-array execution
    honors: none, intra-iteration (distance 0, statement order is kept),
    or forward-carried (all source lanes complete before the sink
    statement runs).  Backward or unknown-distance dependences — and any
    scalar recurrence — force scalar mode.
    """
    from ..analysis.framework.passmanager import default_manager

    am = default_manager()
    deps = am.get("deps", kernel)
    for dep in deps.dependences:
        if dep.status is DepStatus.NONE:
            continue
        if dep.status is DepStatus.CARRIED and (
            dep.distance == 0 or dep.forward
        ):
            continue
        return None, str(dep)
    why = _affine_bounds_violation(kernel)
    if why:
        return None, why
    infos = am.get("scalars", kernel)
    for name, info in infos.items():
        if info.klass is ScalarClass.RECURRENCE:
            return None, f"scalar recurrence on {name!r}"
    red = [n for n, i in infos.items() if i.klass is ScalarClass.REDUCTION]
    for stmt in kernel.stmts():
        if isinstance(stmt, IfBlock):
            for n in red:
                if _reads_scalar(stmt.cond, n):
                    # Whole-array guard evaluation would see the final
                    # accumulator value, not the running one.
                    return None, f"guard condition reads reduction {n!r}"
    contribs: dict[int, list[Expr]] = {}
    for stmt in kernel.stmts():
        if isinstance(stmt, ScalarAssign) and stmt.name in red:
            cs = _update_contribs(
                stmt, infos[stmt.name], kernel.scalars[stmt.name]
            )
            if cs is None:
                return None, f"unsupported reduction update of {stmt.name!r}"
            contribs[id(stmt)] = cs
    return _VectorPlan(infos, contribs, red), ""


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


def _lane_last(v):
    """Live-out value of a lane-expanded private scalar (last iteration)."""
    return v[-1] if isinstance(v, np.ndarray) and v.ndim else v


class _Emitter:
    """Emits Python source for one kernel, pooling constants and ufuncs.

    Everything the generated code calls lives in its exec namespace as a
    pre-bound object (the shared :mod:`.ufuncs` tables, numpy dtypes,
    typed constants) — the generated source contains no attribute
    lookups and no interpreter dispatch.
    """

    def __init__(self, kernel: LoopKernel, vector: bool, plan=None, folds=None):
        self.kernel = kernel
        self.vector = vector
        self.plan = plan
        #: GuardRangeInfo with the fold-safe constant guards, or None
        #: when range-driven folding is disabled (REPRO_RANGES=0).
        self.folds = folds
        self.lines: list[str] = []
        self.indent = 1
        self.pool: dict[str, object] = {"np": np}
        self._consts: dict = {}
        self._ntmp = 0
        self._nguard = 0
        self.inner = kernel.inner_level
        self.depth = kernel.depth

    # -- namespace helpers -------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def tmp(self) -> str:
        self._ntmp += 1
        return f"_t{self._ntmp}"

    def use(self, name: str, obj) -> str:
        self.pool[name] = obj
        return name

    def dt(self, dtype: DType) -> str:
        return self.use("_" + dtype.name.lower(), NP_DTYPE[dtype])

    def const(self, value, dtype: DType) -> str:
        key = (dtype, repr(value))
        name = self._consts.get(key)
        if name is None:
            name = f"_k{len(self._consts)}"
            self._consts[key] = name
            self.pool[name] = NP_DTYPE[dtype](value)
        return name

    def cast(self, code: str, src: DType, dst: DType) -> str:
        if src is dst:
            return code
        return f"{self.use('_ct', cast_value)}({code}, {self.dt(dst)})"

    # -- expressions -------------------------------------------------------

    def loopvar(self, level: int) -> str:
        if self.depth == 1:
            return "_i"
        return "_o" if level == 0 else "_i"

    def affine(self, ix: Affine) -> str:
        parts = []
        for lvl, c in enumerate(ix.coeffs):
            if lvl >= self.depth or c == 0:
                continue
            if self.vector and lvl == self.inner:
                parts.append("_lanes" if c == 1 else f"{c} * _lanes")
            else:
                v = self.loopvar(lvl)
                parts.append(v if c == 1 else f"{c} * {v}")
        if ix.offset or not parts:
            parts.append(repr(ix.offset))
        return "(" + " + ".join(parts) + ")"

    def index(self, ix) -> str:
        if isinstance(ix, Affine):
            return self.affine(ix)
        assert isinstance(ix, Indirect)
        inner = self.affine(ix.index)
        return (
            f"_b_{ix.array}[{inner}].astype({self.dt(DType.I64)}, copy=False)"
        )

    def store_index(self, ix) -> str:
        code = self.index(ix)
        if not self.vector and isinstance(ix, Indirect):
            code = f"int({code})"
        return code

    def expr(self, e: Expr) -> str:
        if isinstance(e, Const):
            return self.const(e.value, e.dtype)
        if isinstance(e, ScalarRef):
            return f"_s_{e.name}"
        if isinstance(e, IterValue):
            if self.vector and e.level == self.inner:
                return "_lanes32"
            return f"{self.dt(DType.I32)}({self.loopvar(e.level)})"
        if isinstance(e, Load):
            sub = ", ".join(self.index(ix) for ix in e.subscript)
            return f"_b_{e.array}[{sub}]"
        if isinstance(e, Convert):
            return self.cast(self.expr(e.operand), e.operand.dtype, e.dtype)
        if isinstance(e, UnOp):
            fn = self.use("_u" + e.op.name.lower(), UNOPS[e.op])
            return f"{fn}({self.expr(e.operand)})"
        if isinstance(e, BinOp):
            a, b = self.expr(e.lhs), self.expr(e.rhs)
            if e.op not in (BinOpKind.SHL, BinOpKind.SHR):
                a = self.cast(a, e.lhs.dtype, e.dtype)
                b = self.cast(b, e.rhs.dtype, e.dtype)
            fn = self.use("_" + e.op.name.lower(), BINOPS[e.op])
            code = f"{fn}({a}, {b})"
            # The only ufuncs whose result dtype can differ from the IR
            # dtype: int division (→ f64) and shifts (uncast operands).
            if e.op in (BinOpKind.SHL, BinOpKind.SHR) or (
                e.op is BinOpKind.DIV and e.dtype.is_int
            ):
                code = f"{self.use('_ct', cast_value)}({code}, {self.dt(e.dtype)})"
            return code
        if isinstance(e, Compare):
            fn = self.use("_c" + e.op.name.lower(), CMPS[e.op])
            return f"{fn}({self.expr(e.lhs)}, {self.expr(e.rhs)})"
        if isinstance(e, Select):
            c = self.expr(e.cond)
            t = self.cast(self.expr(e.if_true), e.if_true.dtype, e.dtype)
            f = self.cast(self.expr(e.if_false), e.if_false.dtype, e.dtype)
            code = f"{self.use('_where', np.where)}({c}, {t}, {f})"
            return code if self.vector else f"{code}[()]"
        raise CompileError(f"cannot compile {type(e).__name__}")

    # -- statements: scalar mode -------------------------------------------

    def stmt_scalar(self, stmt) -> None:
        if isinstance(stmt, ArrayStore):
            decl = self.kernel.arrays[stmt.array]
            val = self.cast(self.expr(stmt.value), stmt.value.dtype, decl.dtype)
            sub = ", ".join(self.store_index(ix) for ix in stmt.subscript)
            self.emit(f"_b_{stmt.array}[{sub}] = {val}")
        elif isinstance(stmt, ScalarAssign):
            decl = self.kernel.scalars[stmt.name]
            val = self.cast(self.expr(stmt.value), stmt.value.dtype, decl.dtype)
            self.emit(f"_s_{stmt.name} = {val}")
        elif isinstance(stmt, IfBlock):
            k = self._nguard
            self._nguard += 1
            fold = self.folds.fold_of(stmt) if self.folds is not None else None
            self.emit(f"if not _gseen[{k}]:")
            self.emit(f"    _gorder.append({k})")
            self.emit(f"_gseen[{k}] += 1")
            # A proven-constant, side-effect-free condition folds to a
            # literal; all guard bookkeeping stays (parity with the
            # interpreter's counters), only the evaluation is dropped.
            cond = repr(fold) if fold is not None else self.expr(stmt.cond)
            self.emit(f"if {cond}:")
            self.indent += 1
            self.emit(f"_gtaken[{k}] += 1")
            for s in stmt.then_body:
                self.stmt_scalar(s)
            self.indent -= 1
            if stmt.else_body:
                self.emit("else:")
                self.indent += 1
                for s in stmt.else_body:
                    self.stmt_scalar(s)
                self.indent -= 1
        else:
            raise CompileError(f"cannot compile {type(stmt).__name__}")

    # -- statements: vector mode -------------------------------------------

    def stmt_vector(self, stmt, mask: Optional[str]) -> None:
        if isinstance(stmt, ArrayStore):
            decl = self.kernel.arrays[stmt.array]
            val = self.cast(self.expr(stmt.value), stmt.value.dtype, decl.dtype)
            v = self.tmp()
            # RHS lands in a temp before the store so same-statement
            # anti-dependences read pre-store values, like the scalar loop.
            self.emit(f"{v} = _bc({val})")
            idxs = [f"_bc({self.index(ix)})" for ix in stmt.subscript]
            if mask is None:
                self.emit(f"_b_{stmt.array}[{', '.join(idxs)}] = {v}")
            else:
                sel = ", ".join(f"{ix}[{mask}]" for ix in idxs)
                self.emit(f"_b_{stmt.array}[{sel}] = {v}[{mask}]")
        elif isinstance(stmt, ScalarAssign):
            decl = self.kernel.scalars[stmt.name]
            info = self.plan.scalar_info.get(stmt.name)
            if info is not None and info.klass is ScalarClass.REDUCTION:
                ri = self.plan.red_order.index(stmt.name)
                for contrib in self.plan.contribs[id(stmt)]:
                    code = self.cast(
                        self.expr(contrib), contrib.dtype, decl.dtype
                    )
                    c = self.tmp()
                    self.emit(f"{c} = _bc({code})")
                    if mask is not None:
                        ident = self.const(
                            REDUCTION_IDENTITY[info.op], decl.dtype
                        )
                        w = self.use("_where", np.where)
                        self.emit(f"{c} = {w}({mask}, {c}, {ident})")
                    self.emit(f"_rc_{ri}.append({c})")
            else:
                code = self.cast(
                    self.expr(stmt.value), stmt.value.dtype, decl.dtype
                )
                if mask is None:
                    self.emit(f"_s_{stmt.name} = {code}")
                else:
                    w = self.use("_where", np.where)
                    self.emit(
                        f"_s_{stmt.name} = {w}({mask}, {code}, _s_{stmt.name})"
                    )
        elif isinstance(stmt, IfBlock):
            k = self._nguard
            self._nguard += 1
            c = f"_gc{k}"
            m = f"_gm{k}"
            fold = self.folds.fold_of(stmt) if self.folds is not None else None
            cond = (
                self.const(fold, DType.BOOL)
                if fold is not None
                else self.expr(stmt.cond)
            )
            self.emit(f"{c} = _bc({cond})")
            if mask is None:
                self.emit(f"_gseen[{k}] += _n")
                self.emit(f"if _gfirst[{k}] is None:")
                self.emit(f"    _gfirst[{k}] = (_o, 0)")
                self.emit(f"{m} = {c}")
            else:
                pc = f"_gpc{k}"
                am = self.use("_argmax", np.argmax)
                self.emit(f"{pc} = int({mask}.sum())")
                self.emit(f"_gseen[{k}] += {pc}")
                self.emit(f"if _gfirst[{k}] is None and {pc}:")
                self.emit(f"    _gfirst[{k}] = (_o, int({am}({mask})))")
                self.emit(f"{m} = {c} & {mask}")
            self.emit(f"_gtaken[{k}] += int({m}.sum())")
            for s in stmt.then_body:
                self.stmt_vector(s, m)
            if stmt.else_body:
                me = f"_gme{k}"
                inv = f"~{c}" if mask is None else f"~{c} & {mask}"
                self.emit(f"{me} = {inv}")
                for s in stmt.else_body:
                    self.stmt_vector(s, me)
        else:
            raise CompileError(f"cannot compile {type(stmt).__name__}")


def _guard_count(kernel: LoopKernel) -> int:
    return sum(1 for s in kernel.stmts() if isinstance(s, IfBlock))


def _guard_folds(kernel: LoopKernel):
    """Fold-safe constant-guard info, or None when ``REPRO_RANGES=0``.

    Only the *pure* verdicts of :class:`GuardRangePass` land here —
    true for any caller-supplied scalars, with side-effect-free
    conditions — so folding can never change an observable result.
    """
    from ..analysis.framework.passmanager import default_manager
    from ..analysis.framework.ranges import GuardRangePass, ranges_enabled

    if not ranges_enabled():
        return None
    return default_manager().get(GuardRangePass, kernel)


def _gen_scalar(kernel: LoopKernel) -> tuple[str, dict]:
    em = _Emitter(kernel, vector=False, folds=_guard_folds(kernel))
    em.lines.append("def __kernel(_bufs, _env, _inner_trip, _outer_trip):")
    for name in kernel.arrays:
        em.emit(f"_b_{name} = _bufs[{name!r}]")
    for name in kernel.scalars:
        em.emit(f"_s_{name} = _env[{name!r}]")
    ng = _guard_count(kernel)
    em.emit(f"_gseen = [0] * {ng}")
    em.emit(f"_gtaken = [0] * {ng}")
    em.emit("_gorder = []")
    em.emit("for _o in range(_outer_trip):")
    em.indent += 1
    em.emit("for _i in range(_inner_trip):")
    em.indent += 1
    if kernel.body:
        for s in kernel.body:
            em.stmt_scalar(s)
    else:
        em.emit("pass")
    em.indent -= 2
    env_items = ", ".join(f"{n!r}: _s_{n}" for n in kernel.scalars)
    em.emit(
        f"return {{{env_items}}}, (_gorder, _gseen, _gtaken), "
        "_outer_trip * _inner_trip"
    )
    return "\n".join(em.lines), em.pool


def _gen_vector(kernel: LoopKernel, plan: _VectorPlan) -> tuple[str, dict]:
    em = _Emitter(kernel, vector=True, plan=plan, folds=_guard_folds(kernel))
    em.dt(DType.I32)  # _lanes32 below
    em.lines.append("def __kernel(_bufs, _env, _inner_trip, _outer_trip):")
    em.emit("_n = _inner_trip")
    em.emit("_lanes = np.arange(_n)")
    em.emit("_lanes32 = _lanes.astype(_i32)")
    em.emit("_bc = lambda _v: np.broadcast_to(np.asarray(_v), (_n,))")
    for name in kernel.arrays:
        em.emit(f"_b_{name} = _bufs[{name!r}]")
    for name in kernel.scalars:
        em.emit(f"_s_{name} = _env[{name!r}]")
    ng = _guard_count(kernel)
    em.emit(f"_gseen = [0] * {ng}")
    em.emit(f"_gtaken = [0] * {ng}")
    em.emit(f"_gfirst = [None] * {ng}")
    em.emit("for _o in range(_outer_trip):")
    em.indent += 1
    for ri in range(len(plan.red_order)):
        em.emit(f"_rc_{ri} = []")
    if kernel.body:
        for s in kernel.body:
            em.stmt_vector(s, None)
    else:
        em.emit("pass")
    # Reduction folds: accumulator-seeded sequential accumulate, columns
    # interleaved iteration-major so the fold order equals the scalar
    # loop's contribution order.
    for ri, name in enumerate(plan.red_order):
        decl = kernel.scalars[name]
        info = plan.scalar_info[name]
        acc = em.use("_acc_" + info.op.name.lower(), ACCUMULATORS[info.op])
        dt = em.dt(decl.dtype)
        em.emit(
            f"_fi = _rc_{ri}[0] if len(_rc_{ri}) == 1 "
            f"else np.stack(_rc_{ri}, axis=1).ravel()"
        )
        em.emit(f"_fb = np.empty(_fi.size + 1, dtype={dt})")
        em.emit(f"_fb[0] = _s_{name}")
        em.emit("_fb[1:] = _fi")
        em.emit(f"_s_{name} = {acc}(_fb)[-1]")
    em.indent -= 1
    env_items = []
    for name in kernel.scalars:
        info = plan.scalar_info.get(name)
        if info is not None and info.klass is ScalarClass.PRIVATE:
            ll = em.use("_lane_last", _lane_last)
            env_items.append(f"{name!r}: {ll}(_s_{name})")
        else:
            env_items.append(f"{name!r}: _s_{name}")
    em.emit(
        f"return {{{', '.join(env_items)}}}, (_gseen, _gtaken, _gfirst), "
        "_outer_trip * _n"
    )
    return "\n".join(em.lines), em.pool


# ---------------------------------------------------------------------------
# Build, cache, self-check
# ---------------------------------------------------------------------------


def _build(
    kernel: LoopKernel,
    fp: str,
    mode: str,
    plan: Optional[_VectorPlan] = None,
    reason: str = "",
) -> CompiledKernel:
    try:
        if mode == "vector":
            if plan is None:
                plan, why = _vector_plan(kernel)
                if plan is None:
                    raise CompileError(f"vector-ineligible: {why}")
            src, pool = _gen_vector(kernel, plan)
        elif mode == "scalar":
            src, pool = _gen_scalar(kernel)
        else:
            raise CompileError(f"unknown mode {mode!r}")
        code = compile(src, f"<repro.sim.compile:{kernel.name}:{mode}>", "exec")
        exec(code, pool)
        fn = pool["__kernel"]
    except CompileError:
        raise
    except Exception as exc:
        raise CompileError(f"{mode} codegen failed: {exc!r}") from exc
    return CompiledKernel(fp, mode, fn, source=src, reason=reason)


def _trips(kernel: LoopKernel, max_inner_iters: Optional[int]) -> tuple[int, int]:
    # Mirrors run_scalar_interpreted's truncation exactly.
    inner_trip = kernel.inner.trip
    if max_inner_iters is not None:
        inner_trip = min(inner_trip, max_inner_iters)
    outer_trip = 1 if kernel.depth == 1 else kernel.loops[0].trip
    if kernel.depth > 1 and max_inner_iters is not None:
        outer_trip = min(outer_trip, max(1, max_inner_iters // 4))
    return inner_trip, outer_trip


def _order_probs(order, seen, taken) -> dict[int, float]:
    return {dyn: taken[k] / seen[k] for dyn, k in enumerate(order)}


def _vector_probs(seen, taken, first) -> dict[int, float]:
    # Replicate the interpreter's dynamic first-encounter numbering:
    # guards sorted by (outer iteration, first-true lane, program order).
    ks = sorted(
        (k for k in range(len(first)) if first[k] is not None),
        key=lambda k: (first[k][0], first[k][1], k),
    )
    return {dyn: taken[k] / seen[k] for dyn, k in enumerate(ks)}


def _execute(
    ck: CompiledKernel,
    kernel: LoopKernel,
    bufs: dict[str, np.ndarray],
    scalars: Optional[dict],
    max_inner_iters: Optional[int],
) -> ExecResult:
    env = dict(scalars) if scalars is not None else initial_scalars(kernel)
    inner_trip, outer_trip = _trips(kernel, max_inner_iters)
    with np.errstate(all="ignore"):
        env_out, guards, iterations = ck.fn(bufs, env, inner_trip, outer_trip)
    env.update(env_out)
    if ck.mode == "vector":
        probs = _vector_probs(*guards)
    else:
        probs = _order_probs(*guards)
    return ExecResult(scalars=env, guard_probs=probs, iterations=iterations)


def bit_identical(
    a: ExecResult,
    a_bufs: dict[str, np.ndarray],
    b: ExecResult,
    b_bufs: dict[str, np.ndarray],
) -> bool:
    """Bitwise equality of two executions: buffers, scalars, guards."""
    if set(a_bufs) != set(b_bufs) or set(a.scalars) != set(b.scalars):
        return False
    for k in a_bufs:
        x, y = a_bufs[k], b_bufs[k]
        if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
            return False
    for n in a.scalars:
        x, y = np.asarray(a.scalars[n]), np.asarray(b.scalars[n])
        if x.dtype != y.dtype or x.tobytes() != y.tobytes():
            return False
    return a.guard_probs == b.guard_probs and a.iterations == b.iterations


def _self_check(kernel: LoopKernel, ck: CompiledKernel) -> bool:
    """Run interpreter vs compiled fn on short deterministic data."""
    try:
        ref_bufs = make_buffers(kernel, seed=0)
        got_bufs = {k: v.copy() for k, v in ref_bufs.items()}
        ref = run_scalar_interpreted(kernel, ref_bufs, None, _SELF_CHECK_ITERS)
        got = _execute(ck, kernel, got_bufs, None, _SELF_CHECK_ITERS)
    except Exception:
        return False
    return bit_identical(ref, ref_bufs, got, got_bufs)


def _diag(kernel: LoopKernel, message: str, warning: bool = False) -> None:
    from ..analysis.framework.passmanager import default_manager

    diags = default_manager().diagnostics
    (diags.warning if warning else diags.remark)(
        "compile", kernel.name, message
    )


def _compile_auto(kernel: LoopKernel, fp: str) -> CompiledKernel:
    _STATS.cache_misses += 1
    plan, reason = _vector_plan(kernel)
    if plan is not None:
        try:
            ck = _build(kernel, fp, "vector", plan=plan, reason="vector-eligible")
        except CompileError as exc:
            ck, reason = None, f"vector codegen failed: {exc}"
        if ck is not None:
            if _self_check(kernel, ck):
                _CACHE[(fp, "vector")] = ck
                _AUTO[fp] = "vector"
                _STATS.vector += 1
                return ck
            reason = "vector self-check mismatch vs interpreter"
            _STATS.demoted += 1
            _diag(
                kernel,
                "whole-loop closure demoted to scalar codegen "
                "(self-check mismatch vs interpreter)",
                warning=True,
            )
    try:
        ck = _build(kernel, fp, "scalar", reason=reason)
        if not _self_check(kernel, ck):
            raise CompileError("scalar self-check mismatch vs interpreter")
    except CompileError as exc:
        sentinel = CompiledKernel(fp, "interpret", None, reason=str(exc))
        _CACHE[(fp, "interpret")] = sentinel
        _AUTO[fp] = "interpret"
        _STATS.refused += 1
        raise
    _CACHE[(fp, "scalar")] = ck
    _AUTO[fp] = "scalar"
    _STATS.scalar += 1
    if plan is None and reason:
        _diag(kernel, f"whole-loop closure ineligible: {reason}")
    return ck


def get_compiled(kernel: LoopKernel, mode: str = "auto") -> CompiledKernel:
    """Fetch (building on first use) the compiled form of ``kernel``.

    ``mode="auto"`` picks the vector closure when the kernel is proven
    eligible *and* passes the build-time self-check, else straight-line
    scalar codegen, else raises :class:`CompileError` (interpreter
    fallback).  Forcing ``"vector"``/``"scalar"`` skips auto-resolution
    (used by tests); forcing an ineligible vector build raises.
    """
    fp = _cache_fp(kernel)
    if mode == "auto":
        resolved = _AUTO.get(fp)
        if resolved is None:
            return _compile_auto(kernel, fp)
        ck = _CACHE.get((fp, resolved))
        if ck is None:  # cache cleared underneath the auto map
            _AUTO.pop(fp, None)
            return _compile_auto(kernel, fp)
        if ck.fn is None:
            raise CompileError(ck.reason or "kernel pinned to interpreter")
        _STATS.cache_hits += 1
        return ck
    ck = _CACHE.get((fp, mode))
    if ck is not None:
        if ck.fn is None:
            raise CompileError(ck.reason or "kernel pinned to interpreter")
        _STATS.cache_hits += 1
        return ck
    _STATS.cache_misses += 1
    ck = _build(kernel, fp, mode)
    _CACHE[(fp, mode)] = ck
    return ck


def run_scalar_compiled(
    kernel: LoopKernel,
    bufs: dict[str, np.ndarray],
    scalars: Optional[dict] = None,
    max_inner_iters: Optional[int] = None,
) -> ExecResult:
    """Compiled-path equivalent of ``run_scalar_interpreted``.

    Raises :class:`CompileError` when the kernel is pinned to the
    interpreter; callers (``executor.run_scalar``) fall back.
    """
    ck = get_compiled(kernel)
    _STATS.runs_compiled += 1
    if ck.mode == "vector":
        _STATS.runs_vector += 1
    return _execute(ck, kernel, bufs, scalars, max_inner_iters)
