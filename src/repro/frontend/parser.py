"""Recursive-descent parser: C-like kernel source → :class:`LoopKernel`.

Grammar (statements end with ``;``, blocks use braces)::

    kernel   := "kernel" IDENT "{" decl* loop "}"
    decl     := dtype IDENT ("[" INT "]")* ("=" number)? ";"
    loop     := "for" "(" IDENT "=" "0" ";" IDENT "<" INT ";" IDENT "++" ")"
                "{" (loop | stmt*) "}"
    stmt     := lvalue "=" expr ";"
              | "if" "(" expr ")" block ("else" block)?
    expr     := cmp; usual precedence (cmp < add < mul < unary < primary)
    primary  := number | IDENT | IDENT subscript+ | call | "(" expr ")"
    call     := ("min"|"max"|"abs"|"sqrt"|"exp"|"select") "(" args ")"

Array subscripts must be affine in the loop variables or a subscripted
integer array (indirect access); anything else is a parse error — the
same restriction the IR itself enforces.

Example::

    kernel saxpy {
        f32 a[1024], b[1024];
        f32 alpha = 2.0;
        for (i = 0; i < 1024; i++) {
            a[i] = a[i] + alpha * b[i];
        }
    }
"""

from __future__ import annotations

from typing import Optional

from ..ir.builder import (
    IndexHandle,
    KernelBuilder,
    ScalarHandle,
    fabs,
    fexp,
    fmax,
    fmin,
    fsqrt,
    select,
)
from ..ir.kernel import LoopKernel
from ..ir.types import DType
from ..ir.verify import verify_kernel
from .lexer import LexError, TokenStream, tokenize


class ParseError(Exception):
    pass


_DTYPES = {
    "f32": DType.F32,
    "f64": DType.F64,
    "i32": DType.I32,
    "i64": DType.I64,
}

_CALLS = {"min", "max", "abs", "sqrt", "exp", "select"}


def parse_kernel(source: str) -> LoopKernel:
    """Parse one ``kernel`` definition into a verified :class:`LoopKernel`."""
    from ..ir.builder import BuildError
    from ..ir.verify import VerificationError

    try:
        ts = TokenStream(tokenize(source))
        return _Parser(ts).parse()
    except (LexError, BuildError, VerificationError, TypeError) as exc:
        raise ParseError(str(exc)) from exc


class _Parser:
    def __init__(self, ts: TokenStream):
        self.ts = ts
        self.builder: Optional[KernelBuilder] = None
        self.arrays: dict[str, object] = {}
        self.scalars: dict[str, ScalarHandle] = {}
        self.loop_vars: dict[str, IndexHandle] = {}

    def _err(self, msg: str) -> ParseError:
        return ParseError(f"line {self.ts.current.line}: {msg}")

    # -- top level -----------------------------------------------------------

    def parse(self) -> LoopKernel:
        ts = self.ts
        ts.expect("kw", "kernel")
        name = ts.expect("ident").text
        self.builder = KernelBuilder(name)
        ts.expect("op", "{")
        while ts.current.kind == "kw" and ts.current.text in _DTYPES:
            self._parse_decl()
        self._parse_loop()
        ts.expect("op", "}")
        ts.expect("eof")
        kern = self.builder.build()
        out = LoopKernel(
            name=kern.name,
            loops=kern.loops,
            arrays=kern.arrays,
            scalars=kern.scalars,
            body=kern.body,
            category=kern.category,
            source="",
        )
        # The builder verified what it assembled; re-verify the kernel
        # actually handed to callers so the boundary invariant is on
        # the returned object, not a sibling of it.
        verify_kernel(out)
        return out

    def _parse_decl(self) -> None:
        ts = self.ts
        dtype = _DTYPES[ts.expect("kw").text]
        while True:
            name = ts.expect("ident").text
            extents = []
            while ts.accept("op", "["):
                extents.append(int(ts.expect("int").text))
                ts.expect("op", "]")
            if extents:
                assert self.builder is not None
                self.arrays[name] = self.builder.array(
                    name, dtype=dtype, extents=extents
                )
            else:
                init = 0.0
                if ts.accept("op", "="):
                    init = self._parse_number()
                assert self.builder is not None
                self.scalars[name] = self.builder.scalar(name, dtype, init=init)
            if not ts.accept("op", ","):
                break
        ts.expect("op", ";")

    def _parse_number(self) -> float:
        ts = self.ts
        sign = -1.0 if ts.accept("op", "-") else 1.0
        tok = ts.advance()
        if tok.kind not in ("int", "float"):
            raise self._err(f"expected a number, got {tok.text!r}")
        return sign * float(tok.text)

    # -- loops -----------------------------------------------------------------

    def _parse_loop(self) -> None:
        ts = self.ts
        ts.expect("kw", "for")
        ts.expect("op", "(")
        var = ts.expect("ident").text
        if ts.at("ident"):
            # an optional C-style induction type ("for (int i = ...")
            var = ts.expect("ident").text
        ts.expect("op", "=")
        if ts.expect("int").text != "0":
            raise self._err("loops must start at 0 (normalize the source)")
        ts.expect("op", ";")
        if ts.expect("ident").text != var:
            raise self._err("loop condition must test the loop variable")
        ts.expect("op", "<")
        tok = ts.expect("int")
        trip = int(tok.text)
        if trip < 1:
            raise ParseError(f"line {tok.line}: loop trip count must be >= 1, got {trip}")
        ts.expect("op", ";")
        if ts.expect("ident").text != var:
            raise self._err("loop increment must use the loop variable")
        ts.expect("op", "++")
        ts.expect("op", ")")
        assert self.builder is not None
        if var in self.loop_vars or var in self.arrays or var in self.scalars:
            raise self._err(f"duplicate name {var!r}")
        self.loop_vars[var] = self.builder.loop(trip)
        ts.expect("op", "{")
        if ts.at("kw", "for"):
            self._parse_loop()
        else:
            while not ts.at("op", "}"):
                self._parse_stmt()
        ts.expect("op", "}")

    # -- statements ---------------------------------------------------------------

    def _parse_block(self) -> None:
        ts = self.ts
        ts.expect("op", "{")
        while not ts.at("op", "}"):
            self._parse_stmt()
        ts.expect("op", "}")

    def _parse_stmt(self) -> None:
        ts = self.ts
        assert self.builder is not None
        if ts.at("kw", "if"):
            ts.advance()
            ts.expect("op", "(")
            cond = self._parse_expr()
            ts.expect("op", ")")
            with self.builder.if_(cond):
                self._parse_block()
            if ts.accept("kw", "else"):
                with self.builder.else_():
                    self._parse_block()
            return
        name = ts.expect("ident").text
        if ts.at("op", "["):
            if name not in self.arrays:
                raise self._err(f"undeclared array {name!r}")
            subscript = self._parse_subscript(name)
            ts.expect("op", "=")
            value = self._parse_expr()
            handle = self.arrays[name]
            handle[subscript] = value  # type: ignore[index]
        else:
            if name not in self.scalars:
                raise self._err(f"undeclared scalar {name!r}")
            ts.expect("op", "=")
            value = self._parse_expr()
            self.scalars[name].set(value)
        ts.expect("op", ";")

    def _parse_subscript(self, array_name: str):
        idxs = []
        while self.ts.accept("op", "["):
            idxs.append(self._parse_index_expr())
            self.ts.expect("op", "]")
        return tuple(idxs) if len(idxs) > 1 else idxs[0]

    # -- index (affine or indirect) -------------------------------------------------

    def _parse_index_expr(self):
        """An index: affine over loop vars, or an int-array element."""
        node = self._parse_index_add()
        return node

    def _parse_index_add(self):
        lhs = self._parse_index_mul()
        while True:
            if self.ts.accept("op", "+"):
                lhs = lhs + self._parse_index_mul()
            elif self.ts.accept("op", "-"):
                rhs = self._parse_index_mul()
                lhs = lhs - rhs
            else:
                return lhs

    def _parse_index_mul(self):
        lhs = self._parse_index_atom()
        while self.ts.accept("op", "*"):
            rhs = self._parse_index_atom()
            if isinstance(lhs, int):
                lhs, rhs = rhs, lhs
            if not isinstance(rhs, int):
                raise self._err("index expressions must stay affine")
            lhs = lhs * rhs
        return lhs

    def _parse_index_atom(self):
        ts = self.ts
        if ts.accept("op", "("):
            inner = self._parse_index_add()
            ts.expect("op", ")")
            return inner
        if ts.accept("op", "-"):
            atom = self._parse_index_atom()
            return -atom
        tok = ts.accept("int")
        if tok is not None:
            return int(tok.text)
        name = ts.expect("ident").text
        if name in self.loop_vars:
            return self.loop_vars[name]
        if name in self.arrays and ts.at("op", "["):
            sub = self._parse_subscript(name)
            return self.arrays[name][sub]  # an indirect index load
        raise self._err(f"{name!r} is not a loop variable or index array")

    # -- value expressions -----------------------------------------------------------

    def _parse_expr(self):
        return self._parse_cmp()

    def _parse_cmp(self):
        lhs = self._parse_add()
        for op in ("<=", ">=", "==", "!=", "<", ">"):
            if self.ts.accept("op", op):
                rhs = self._parse_add()
                return {
                    "<": lambda a, b: a < b,
                    "<=": lambda a, b: a <= b,
                    ">": lambda a, b: a > b,
                    ">=": lambda a, b: a >= b,
                    "==": lambda a, b: a == b,
                    "!=": lambda a, b: a != b,
                }[op](_as_value(lhs), _as_value(rhs))
        return lhs

    def _parse_add(self):
        lhs = self._parse_mul()
        while True:
            if self.ts.accept("op", "+"):
                lhs = _as_value(lhs) + _as_value(self._parse_mul())
            elif self.ts.accept("op", "-"):
                lhs = _as_value(lhs) - _as_value(self._parse_mul())
            else:
                return lhs

    def _parse_mul(self):
        lhs = self._parse_unary()
        while True:
            if self.ts.accept("op", "*"):
                lhs = _as_value(lhs) * _as_value(self._parse_unary())
            elif self.ts.accept("op", "/"):
                lhs = _as_value(lhs) / _as_value(self._parse_unary())
            else:
                return lhs

    def _parse_unary(self):
        if self.ts.accept("op", "-"):
            inner = self._parse_unary()
            if isinstance(inner, (int, float)):
                return -inner
            return -_as_value(inner)
        return self._parse_primary()

    def _parse_primary(self):
        ts = self.ts
        if ts.accept("op", "("):
            inner = self._parse_expr()
            ts.expect("op", ")")
            return inner
        tok = ts.accept("float")
        if tok is not None:
            return float(tok.text)
        tok = ts.accept("int")
        if tok is not None:
            return float(tok.text)
        name = ts.expect("ident").text
        if name in _CALLS:
            return self._parse_call(name)
        if name in self.arrays:
            if not ts.at("op", "["):
                raise self._err(f"array {name!r} used without a subscript")
            sub = self._parse_subscript(name)
            return self.arrays[name][sub]
        if name in self.scalars:
            return self.scalars[name].ref
        if name in self.loop_vars:
            return self.loop_vars[name].as_value()
        raise self._err(f"undeclared identifier {name!r}")

    def _parse_call(self, name: str):
        ts = self.ts
        ts.expect("op", "(")
        args = [self._parse_expr()]
        while ts.accept("op", ","):
            args.append(self._parse_expr())
        ts.expect("op", ")")
        try:
            if name == "min":
                return fmin(*args)
            if name == "max":
                return fmax(*args)
            if name == "abs":
                (x,) = args
                return fabs(_as_value(x))
            if name == "sqrt":
                (x,) = args
                return fsqrt(_as_value(x))
            if name == "exp":
                (x,) = args
                return fexp(_as_value(x))
            if name == "select":
                c, t, f = args
                return select(c, _as_value(t), _as_value(f))
        except (TypeError, ValueError) as exc:
            raise self._err(f"bad arguments for {name}(): {exc}") from exc
        raise self._err(f"unknown call {name!r}")


def _as_value(x):
    """Loop variables used in value context become integer values."""
    if isinstance(x, IndexHandle):
        return x.as_value()
    return x
