"""Value-range abstract interpretation over the loop IR.

The engine answers, *before any iteration runs*, the questions the
executors otherwise answer only by running the loop: what
interval can this scalar hold, can this subscript leave ``[0,
extent)``, is this guard ever false, can this shift count reach the
operand width?  It is the repo's analogue of the ValueTracking /
ScalarEvolution layer the LLVM vectorizer (which the paper's cost
model targets) leans on for legality and overhead questions.

Three layers:

* :class:`Interval` — a classic interval lattice ``[lo, hi]`` over the
  extended number line, plus a ``maybe_nan`` bit for float values (a
  compare against a possibly-NaN value is never *definitely* true).
  Integer arithmetic that could leave the operand dtype's value range
  widens to the full dtype range, mirroring the wrapping semantics of
  the NumPy executors rather than pretending overflow cannot happen.
* an abstract evaluator for every ``Expr`` node under an environment
  mapping scalars and induction variables to intervals.  Loads from
  float arrays are unknown (``[-inf, inf]``, maybe-NaN); loads from
  integer arrays are only bounded by their dtype — *content* bounds
  for index arrays come from the measurement-harness data contract and
  are applied by the bounds pass, never here, so every fact this
  module derives holds for arbitrary buffer contents.
* :func:`analyze_ranges` — a fixpoint over the loop body for the
  loop-carried scalars, path-joining across ``IfBlock`` arms, with
  widening after :data:`WIDEN_AFTER` unstable rounds so recurrences
  like ``s = s + 1`` terminate immediately instead of iterating the
  trip count.  The result records the stable environment *before every
  statement* (pre-order), which is what consumers query: a guard's
  condition is evaluated in the env at its own program point.

Soundness note: float endpoint arithmetic is performed in Python
floats (f64).  ``Convert`` to ``f32`` nudges finite endpoints outward
by one f32 ULP so narrowing rounding can never move a true value
outside the reported interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..ir.expr import (
    Affine,
    BinOp,
    BinOpKind,
    CmpKind,
    Compare,
    Const,
    Convert,
    Expr,
    IterValue,
    Load,
    ScalarRef,
    Select,
    UnOp,
    UnOpKind,
)
from ..ir.kernel import LoopKernel
from ..ir.stmt import IfBlock, ScalarAssign, Stmt
from ..ir.types import DType

__all__ = [
    "Interval",
    "KernelRanges",
    "WIDEN_AFTER",
    "analyze_ranges",
    "affine_interval",
    "INT_BOUNDS",
]

INF = math.inf

#: Value range of each integer dtype (wrapping arithmetic stays inside).
INT_BOUNDS = {
    DType.I32: (-(2**31), 2**31 - 1),
    DType.I64: (-(2**63), 2**63 - 1),
}

#: Unstable fixpoint rounds tolerated before endpoints are widened.
WIDEN_AFTER = 3

#: Hard cap on fixpoint rounds (widening makes this unreachable in
#: practice; the cap turns a logic bug into a conservative answer).
MAX_ROUNDS = 16


@dataclass(frozen=True)
class Interval:
    """``[lo, hi]`` with an explicit maybe-NaN bit for float values.

    ``lo``/``hi`` are Python ints or floats; ``±inf`` means unbounded.
    The empty interval is not representable — every IR value exists.
    """

    lo: float
    hi: float
    maybe_nan: bool = False

    def __post_init__(self) -> None:
        if self.lo > self.hi:  # pragma: no cover - constructor guard
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def exact(v) -> "Interval":
        if isinstance(v, float) and math.isnan(v):
            return Interval(-INF, INF, maybe_nan=True)
        return Interval(v, v)

    @staticmethod
    def top_float() -> "Interval":
        return Interval(-INF, INF, maybe_nan=True)

    @staticmethod
    def top(dtype: DType) -> "Interval":
        if dtype in INT_BOUNDS:
            lo, hi = INT_BOUNDS[dtype]
            return Interval(lo, hi)
        if dtype is DType.BOOL:
            return Interval(0, 1)
        return Interval.top_float()

    # -- queries ------------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return self.lo == self.hi and not self.maybe_nan

    def contains(self, v) -> bool:
        if isinstance(v, float) and math.isnan(v):
            return self.maybe_nan
        return self.lo <= v <= self.hi

    def definitely_true(self) -> bool:
        """As a truth value: every concrete value is nonzero."""
        return not self.maybe_nan and (self.hi < 0 or self.lo > 0)

    def definitely_false(self) -> bool:
        return not self.maybe_nan and self.lo == 0 and self.hi == 0

    # -- lattice ------------------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        return Interval(
            min(self.lo, other.lo),
            max(self.hi, other.hi),
            self.maybe_nan or other.maybe_nan,
        )

    def widen(self, newer: "Interval", dtype: DType) -> "Interval":
        """Classic interval widening: an unstable endpoint jumps to the
        dtype's extreme so loop-carried growth converges in one step."""
        blo, bhi = (
            INT_BOUNDS[dtype] if dtype in INT_BOUNDS else (-INF, INF)
        )
        if dtype is DType.BOOL:
            blo, bhi = 0, 1
        lo = self.lo if newer.lo >= self.lo else blo
        hi = self.hi if newer.hi <= self.hi else bhi
        return Interval(lo, hi, self.maybe_nan or newer.maybe_nan)

    def clamp_dtype(self, dtype: DType) -> "Interval":
        """Result discipline after integer arithmetic: an interval that
        may have wrapped is widened to the dtype's full value range."""
        if dtype in INT_BOUNDS:
            blo, bhi = INT_BOUNDS[dtype]
            if self.lo < blo or self.hi > bhi:
                return Interval(blo, bhi)
        if dtype is DType.BOOL and (self.lo < 0 or self.hi > 1):
            return Interval(0, 1)
        return self

    def __str__(self) -> str:
        nan = "?nan" if self.maybe_nan else ""
        return f"[{self.lo}, {self.hi}]{nan}"


def _mul_endpoint(a: float, b: float) -> float:
    # inf * 0 is NaN in IEEE; for interval endpoints the product of a
    # zero bound and an unbounded one is 0 (the bound stays finite).
    if (a == 0 and math.isinf(b)) or (b == 0 and math.isinf(a)):
        return 0.0
    return a * b


def _binop_interval(op: BinOpKind, a: Interval, b: Interval, dtype: DType) -> Interval:
    nan = a.maybe_nan or b.maybe_nan
    if op is BinOpKind.ADD:
        if (a.lo == -INF and b.hi == INF) or (a.hi == INF and b.lo == -INF):
            nan = nan or dtype.is_float  # inf + -inf
        out = Interval(a.lo + b.lo, a.hi + b.hi, nan)
    elif op is BinOpKind.SUB:
        if (a.lo == -INF and b.lo == -INF) or (a.hi == INF and b.hi == INF):
            nan = nan or dtype.is_float
        out = Interval(a.lo - b.hi, a.hi - b.lo, nan)
    elif op is BinOpKind.MUL:
        ps = [
            _mul_endpoint(x, y)
            for x in (a.lo, a.hi)
            for y in (b.lo, b.hi)
        ]
        if dtype.is_float and (
            (a.contains(0) and (math.isinf(b.lo) or math.isinf(b.hi)))
            or (b.contains(0) and (math.isinf(a.lo) or math.isinf(a.hi)))
        ):
            nan = True  # 0 * inf
        out = Interval(min(ps), max(ps), nan)
    elif op is BinOpKind.DIV:
        if b.contains(0):
            # x/0 is ±inf or NaN under numpy's suppressed errstate;
            # integer division additionally routes through float64.
            return Interval(-INF, INF, True) if dtype.is_float else Interval.top(dtype)
        ps = [x / y for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
        if math.isinf(a.lo) or math.isinf(a.hi):
            nan = nan or dtype.is_float  # inf/inf
        if dtype.is_int:
            # np.divide is a true divide; the result is cast back with
            # C truncation (monotonic, so endpoint trunc is sound).
            ps = [math.trunc(p) for p in ps]
        out = Interval(min(ps), max(ps), nan)
    elif op is BinOpKind.MIN:
        # NaN-propagating min/max (np.minimum): a NaN operand wins, so
        # the nan bit carries but the numeric envelope is the min/max.
        out = Interval(min(a.lo, b.lo), min(a.hi, b.hi), nan)
    elif op is BinOpKind.MAX:
        out = Interval(max(a.lo, b.lo), max(a.hi, b.hi), nan)
    elif op in (BinOpKind.AND, BinOpKind.OR, BinOpKind.XOR):
        if a.lo >= 0 and b.lo >= 0 and a.hi < INF and b.hi < INF:
            # Nonnegative bitwise results stay below the next power of
            # two covering both operands.
            bound = 1
            while bound <= max(a.hi, b.hi):
                bound *= 2
            hi = (
                min(a.hi, b.hi)
                if op is BinOpKind.AND
                else bound - 1
            )
            out = Interval(0, hi)
        else:
            out = Interval.top(dtype)
    elif op in (BinOpKind.SHL, BinOpKind.SHR):
        width = 64 if dtype is DType.I64 else 32
        if b.lo < 0 or b.hi >= width or a.lo < 0 or math.isinf(a.hi):
            # Guarded-shift semantics (count >= width -> 0 / sign) and
            # negative operands: give up precisely, stay sound.
            return Interval.top(dtype)
        if op is BinOpKind.SHL:
            out = Interval(a.lo * 2**b.lo, a.hi * 2**b.hi)
        else:
            out = Interval(a.lo // 2**b.hi, a.hi // 2**b.lo)
    else:  # pragma: no cover - exhaustive over BinOpKind
        out = Interval.top(dtype)
    if dtype is DType.F32 and op in (
        BinOpKind.ADD,
        BinOpKind.SUB,
        BinOpKind.MUL,
        BinOpKind.DIV,
    ):
        # Endpoint arithmetic above is f64; the concrete op rounds to
        # the coarser f32 grid, which can land just outside the f64
        # envelope.  One f32 ULP of padding restores soundness.
        out = Interval(
            out.lo - _f32_pad(out.lo), out.hi + _f32_pad(out.hi), out.maybe_nan
        )
    return out.clamp_dtype(dtype)


def _compare_interval(op: CmpKind, a: Interval, b: Interval) -> Interval:
    """Abstract compare: {0}, {1}, or {0,1} as an interval."""
    if not (a.maybe_nan or b.maybe_nan):
        verdict: Optional[bool] = None
        if op is CmpKind.LT:
            verdict = True if a.hi < b.lo else (False if a.lo >= b.hi else None)
        elif op is CmpKind.LE:
            verdict = True if a.hi <= b.lo else (False if a.lo > b.hi else None)
        elif op is CmpKind.GT:
            verdict = True if a.lo > b.hi else (False if a.hi <= b.lo else None)
        elif op is CmpKind.GE:
            verdict = True if a.lo >= b.hi else (False if a.hi < b.lo else None)
        elif op is CmpKind.EQ:
            if a.is_constant and b.is_constant:
                verdict = a.lo == b.lo
            elif a.hi < b.lo or a.lo > b.hi:
                verdict = False
        elif op is CmpKind.NE:
            if a.is_constant and b.is_constant:
                verdict = a.lo != b.lo
            elif a.hi < b.lo or a.lo > b.hi:
                verdict = True
        if verdict is not None:
            return Interval.exact(1 if verdict else 0)
    elif op is CmpKind.NE and (a.hi < b.lo or a.lo > b.hi):
        # Disjoint envelopes compare unequal even when NaN is possible
        # (NaN != x is True as well).
        return Interval.exact(1)
    return Interval(0, 1)


def _f32_pad(v: float) -> float:
    """One f32 ULP of padding for a finite endpoint (soundness margin
    for round-to-nearest when narrowing f64 -> f32)."""
    if math.isinf(v) or v == 0.0:
        return 0.0
    return abs(v) * 1.2e-7 + 1e-45


def affine_interval(af: Affine, trips: list[int]) -> tuple[int, int]:
    """Exact value range of an affine index over the iteration space."""
    lo = hi = af.offset
    for lvl, c in enumerate(af.coeffs):
        if lvl >= len(trips) or c == 0:
            continue
        span = c * (trips[lvl] - 1)
        lo += min(0, span)
        hi += max(0, span)
    return lo, hi


# ---------------------------------------------------------------------------
# Abstract evaluation
# ---------------------------------------------------------------------------


class _Evaluator:
    def __init__(self, kernel: LoopKernel):
        self.kernel = kernel
        self.trips = [lp.trip for lp in kernel.loops]

    def eval(self, e: Expr, env: dict[str, Interval]) -> Interval:
        if isinstance(e, Const):
            if e.dtype.is_int:
                from ..sim.ufuncs import NP_DTYPE

                return Interval.exact(int(NP_DTYPE[e.dtype](e.value)))
            if e.dtype is DType.BOOL:
                return Interval.exact(1 if e.value else 0)
            v = float(e.value)
            if math.isnan(v):
                return Interval(-INF, INF, True)
            return Interval.exact(v)
        if isinstance(e, ScalarRef):
            got = env.get(e.name)
            return got if got is not None else Interval.top(e.dtype)
        if isinstance(e, IterValue):
            if e.level < len(self.trips):
                return Interval(0, self.trips[e.level] - 1)
            return Interval.top(e.dtype)
        if isinstance(e, Load):
            # Array *contents* are unknown here; the harness data
            # contract for integer arrays belongs to the bounds pass.
            decl = self.kernel.arrays.get(e.array)
            return Interval.top(decl.dtype if decl is not None else e.dtype)
        if isinstance(e, Convert):
            return self.convert(self.eval(e.operand, env), e.operand.dtype, e.dtype)
        if isinstance(e, UnOp):
            return self.unop(e, env)
        if isinstance(e, BinOp):
            a = self.convert(self.eval(e.lhs, env), e.lhs.dtype, e.dtype)
            b = self.convert(self.eval(e.rhs, env), e.rhs.dtype, e.dtype)
            if e.op in (BinOpKind.SHL, BinOpKind.SHR):
                # Shift operands are promoted, not cast (numpy rules);
                # re-evaluate uncast for the count side.
                a = self.eval(e.lhs, env)
                b = self.eval(e.rhs, env)
            return _binop_interval(e.op, a, b, e.dtype)
        if isinstance(e, Compare):
            return _compare_interval(
                e.op, self.eval(e.lhs, env), self.eval(e.rhs, env)
            )
        if isinstance(e, Select):
            c = self.eval(e.cond, env)
            t = self.convert(self.eval(e.if_true, env), e.if_true.dtype, e.dtype)
            f = self.convert(self.eval(e.if_false, env), e.if_false.dtype, e.dtype)
            if c.definitely_true():
                return t
            if c.definitely_false():
                return f
            return t.join(f)
        return Interval.top(getattr(e, "dtype", DType.F64))

    def unop(self, e: UnOp, env: dict[str, Interval]) -> Interval:
        x = self.eval(e.operand, env)
        dt = e.dtype
        if e.op is UnOpKind.NEG:
            return Interval(-x.hi, -x.lo, x.maybe_nan).clamp_dtype(dt)
        if e.op is UnOpKind.ABS:
            lo = 0 if x.contains(0) else min(abs(x.lo), abs(x.hi))
            return Interval(lo, max(abs(x.lo), abs(x.hi)), x.maybe_nan).clamp_dtype(dt)
        if e.op is UnOpKind.SQRT:
            # guarded_sqrt computes sqrt(|x|): never NaN for numbers.
            m = max(abs(x.lo), abs(x.hi))
            hi = INF if math.isinf(m) else math.sqrt(m)
            return Interval(0, hi + _f32_pad(hi), x.maybe_nan)
        if e.op is UnOpKind.EXP:
            try:
                lo = math.exp(x.lo) if x.lo > -INF else 0.0
            except OverflowError:
                lo = INF
            try:
                hi = math.exp(x.hi) if x.hi < INF else INF
            except OverflowError:
                hi = INF
            return Interval(lo - _f32_pad(lo), hi + _f32_pad(hi), x.maybe_nan)
        if e.op is UnOpKind.NOT:
            if x.definitely_true():
                return Interval.exact(0)
            if x.definitely_false():
                return Interval.exact(1)
            return Interval(0, 1)
        return Interval.top(dt)  # pragma: no cover - exhaustive

    def convert(self, x: Interval, src: DType, dst: DType) -> Interval:
        if src is dst:
            return x
        if dst is DType.BOOL:
            if x.definitely_true():
                return Interval.exact(1)
            if x.definitely_false():
                return Interval.exact(0)
            return Interval(0, 1)
        if dst.is_int:
            if x.maybe_nan or math.isinf(x.lo) or math.isinf(x.hi):
                return Interval.top(dst)
            return Interval(math.trunc(x.lo), math.trunc(x.hi)).clamp_dtype(dst)
        # -> float: int values are exact in f64; narrowing to f32 pads
        # endpoints by one ULP so rounding cannot escape the interval.
        lo, hi = float(x.lo), float(x.hi)
        if dst is DType.F32:
            lo, hi = lo - _f32_pad(lo), hi + _f32_pad(hi)
        return Interval(lo, hi, x.maybe_nan)


# ---------------------------------------------------------------------------
# Fixpoint over the loop body
# ---------------------------------------------------------------------------


@dataclass
class KernelRanges:
    """Stable abstract state of one kernel.

    ``entry`` holds at the top of *every* iteration (the loop-carried
    fixpoint); ``at_stmt[i]`` holds immediately before pre-order
    statement ``Si`` in any iteration.  ``iv[level]`` is the exact
    induction-variable range.  ``rounds``/``widened`` document fixpoint
    behavior for the termination tests.
    """

    kernel: LoopKernel
    iv: tuple[Interval, ...]
    entry: dict[str, Interval]
    at_stmt: dict[int, dict[str, Interval]]
    rounds: int
    widened: tuple[str, ...]

    def eval(self, expr: Expr, stmt_index: Optional[int] = None) -> Interval:
        """Interval of ``expr`` at program point ``Si`` (entry if None)."""
        env = self.entry if stmt_index is None else self.at_stmt.get(
            stmt_index, self.entry
        )
        return _Evaluator(self.kernel).eval(expr, env)

    def affine_range(self, af: Affine) -> tuple[int, int]:
        return affine_interval(af, [lp.trip for lp in self.kernel.loops])


def _transfer(
    kernel: LoopKernel,
    ev: _Evaluator,
    stmts: tuple[Stmt, ...],
    env: dict[str, Interval],
    counter: list[int],
    record: Optional[dict[int, dict[str, Interval]]],
) -> dict[str, Interval]:
    """Abstract execution of a statement list (pre-order numbering)."""
    for stmt in stmts:
        idx = counter[0]
        counter[0] += 1
        if record is not None:
            record[idx] = dict(env)
        if isinstance(stmt, ScalarAssign):
            decl = kernel.scalars[stmt.name]
            val = ev.eval(stmt.value, env)
            env[stmt.name] = ev.convert(val, stmt.value.dtype, decl.dtype)
        elif isinstance(stmt, IfBlock):
            cond = ev.eval(stmt.cond, env)
            if cond.definitely_true():
                env = _transfer(kernel, ev, stmt.then_body, env, counter, record)
                _skip(stmt.else_body, counter, record, env)
            elif cond.definitely_false():
                _skip(stmt.then_body, counter, record, env)
                env = _transfer(kernel, ev, stmt.else_body, env, counter, record)
            else:
                env_then = _transfer(
                    kernel, ev, stmt.then_body, dict(env), counter, record
                )
                env_else = _transfer(
                    kernel, ev, stmt.else_body, dict(env), counter, record
                )
                env = {
                    n: env_then[n].join(env_else[n]) for n in env_then
                }
        # ArrayStore: array contents are not tracked, no scalar effect.
    return env


def _skip(stmts, counter, record, env) -> None:
    """Number (and record the env of) statements on a dead path."""
    from ..ir.stmt import walk_stmts

    for _ in walk_stmts(tuple(stmts)):
        if record is not None:
            record[counter[0]] = dict(env)
        counter[0] += 1


def analyze_ranges(kernel: LoopKernel, assume_inits: bool = True) -> KernelRanges:
    """Fixpoint interval analysis of one kernel (see module doc).

    ``assume_inits`` seeds scalars from their declared initial values —
    sound for the measurement harness, which always starts kernels from
    ``initial_scalars``.  With ``assume_inits=False`` every scalar
    starts at its dtype top: the resulting facts hold for *any* caller-
    supplied scalar values, which is the contract transforms (guard
    folding) must meet because the executors
    accept scalar overrides.  Per-statement precision for temporaries
    assigned before use is unaffected — only the entry seed differs.
    """
    ev = _Evaluator(kernel)
    iv = tuple(Interval(0, lp.trip - 1) for lp in kernel.loops)
    from ..sim.ufuncs import NP_DTYPE

    env: dict[str, Interval] = {}
    for name, decl in kernel.scalars.items():
        if not assume_inits:
            env[name] = Interval.top(decl.dtype)
            continue
        init = NP_DTYPE[decl.dtype](decl.init)
        if decl.dtype.is_int:
            env[name] = Interval.exact(int(init))
        elif decl.dtype is DType.BOOL:
            env[name] = Interval.exact(1 if init else 0)
        else:
            env[name] = Interval.exact(float(init))

    widened: set[str] = set()
    rounds = 0
    for rounds in range(1, MAX_ROUNDS + 1):
        out = _transfer(kernel, ev, kernel.body, dict(env), [0], None)
        nxt = {n: env[n].join(out[n]) for n in env}
        if nxt == env:
            break
        if rounds >= WIDEN_AFTER:
            for n in env:
                if nxt[n] != env[n]:
                    nxt[n] = env[n].widen(nxt[n], kernel.scalars[n].dtype)
                    widened.add(n)
        env = nxt
    # One recording pass over the stable env for per-statement state.
    record: dict[int, dict[str, Interval]] = {}
    _transfer(kernel, ev, kernel.body, dict(env), [0], record)
    return KernelRanges(
        kernel=kernel,
        iv=iv,
        entry=env,
        at_stmt=record,
        rounds=rounds,
        widened=tuple(sorted(widened)),
    )
