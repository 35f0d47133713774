"""Frontend parser tests: grammar coverage, errors, and end-to-end use."""

import numpy as np
import pytest

from repro.frontend import ParseError, parse_kernel, tokenize
from repro.ir import Affine, IfBlock, Indirect, ScalarAssign
from repro.ir.types import DType
from repro.sim.executor import make_buffers, run_scalar
from repro.targets import ARMV8_NEON
from repro.vectorize import vectorize_loop
from repro.vectorize.plan import VectorizationPlan


SAXPY = """
kernel saxpy {
    f32 a[256], b[256];
    f32 alpha = 2.0;
    for (i = 0; i < 256; i++) {
        a[i] = a[i] + alpha * b[i];
    }
}
"""


class TestLexer:
    def test_token_kinds(self):
        toks = tokenize("for (i = 0; i < 10e2; i++) a[i] 1.5 <= kernel x_1")
        kinds = [t.kind for t in toks]
        assert "kw" in kinds and "ident" in kinds and "float" in kinds
        assert kinds[-1] == "eof"

    def test_comments_skipped(self):
        toks = tokenize("a // comment\n b")
        assert [t.text for t in toks[:-1]] == ["a", "b"]

    def test_line_numbers(self):
        toks = tokenize("a\nb\n\nc")
        assert [t.line for t in toks[:-1]] == [1, 2, 4]

    def test_bad_character(self):
        from repro.frontend import LexError

        with pytest.raises(LexError):
            tokenize("a $ b")


class TestParserBasics:
    def test_saxpy(self):
        kern = parse_kernel(SAXPY)
        assert kern.name == "saxpy"
        assert kern.inner.trip == 256
        assert set(kern.arrays) == {"a", "b"}
        assert kern.scalars["alpha"].init == 2.0
        assert len(kern.body) == 1

    def test_offsets_and_strides(self):
        kern = parse_kernel(
            """
            kernel k {
                f32 a[256], b[256];
                for (i = 0; i < 100; i++) {
                    a[2*i + 1] = b[i - 3] + b[(100 - 1) - i];
                }
            }
            """
        )
        store = kern.body[0]
        assert store.subscript == (Affine((2,), 1),)
        subs = {ld.subscript[0] for ld in kern.loads()}
        assert Affine((1,), -3) in subs
        assert Affine((-1,), 99) in subs

    def test_two_level_nest(self):
        kern = parse_kernel(
            """
            kernel k2 {
                f32 aa[16][16];
                for (i = 0; i < 16; i++) {
                    for (j = 0; j < 16; j++) {
                        aa[i][j] = aa[i][j] * 2.0;
                    }
                }
            }
            """
        )
        assert kern.depth == 2
        assert kern.arrays["aa"].ndim == 2

    def test_indirect_subscript(self):
        kern = parse_kernel(
            """
            kernel g {
                f32 a[64], b[64];
                i32 ip[64];
                for (i = 0; i < 64; i++) {
                    a[i] = b[ip[i]];
                }
            }
            """
        )
        (ld,) = [x for x in kern.loads() if x.array == "b"]
        assert ld.subscript == (Indirect("ip", Affine((1,), 0)),)

    def test_if_else(self):
        kern = parse_kernel(
            """
            kernel c {
                f32 a[64], b[64];
                for (i = 0; i < 64; i++) {
                    if (b[i] > 0.0) { a[i] = b[i]; } else { a[i] = 0.0 - b[i]; }
                }
            }
            """
        )
        (blk,) = kern.body
        assert isinstance(blk, IfBlock)
        assert blk.else_body

    def test_reduction(self):
        kern = parse_kernel(
            """
            kernel r {
                f32 a[64];
                f32 s = 0.0;
                for (i = 0; i < 64; i++) {
                    s = s + a[i];
                }
            }
            """
        )
        assert isinstance(kern.body[0], ScalarAssign)

    def test_calls(self):
        kern = parse_kernel(
            """
            kernel m {
                f32 a[64], b[64], c[64];
                for (i = 0; i < 64; i++) {
                    a[i] = min(b[i], c[i]) + max(b[i], 0.0)
                         + abs(c[i]) + sqrt(b[i]) + select(b[i] > c[i], b[i], c[i]);
                }
            }
            """
        )
        text = str(kern.body[0])
        for frag in ("min(", "max(", "abs(", "sqrt(", "?"):
            assert frag in text

    def test_loop_var_as_value(self):
        kern = parse_kernel(
            """
            kernel v {
                f32 a[64], b[64];
                for (i = 0; i < 64; i++) {
                    a[i] = b[i] * (i + 1);
                }
            }
            """
        )
        assert "i" in str(kern.body[0].value)

    def test_f64_arrays(self):
        kern = parse_kernel(
            """
            kernel d {
                f64 a[64], b[64];
                for (i = 0; i < 64; i++) { a[i] = b[i] + 1.0; }
            }
            """
        )
        assert kern.arrays["a"].dtype is DType.F64


class TestParserErrors:
    @pytest.mark.parametrize(
        "source,match",
        [
            ("kernel k { f32 a[8]; for (i = 1; i < 8; i++) { a[i] = 1.0; } }", "start at 0"),
            ("kernel k { f32 a[8]; for (i = 0; i < 8; i++) { b[i] = 1.0; } }", "undeclared"),
            ("kernel k { f32 a[8]; for (i = 0; i < 8; i++) { a[i*i] = 1.0; } }", "affine"),
            ("kernel k { f32 a[8]; for (i = 0; i < 8; i++) { a[i] = foo(a[i]); } }", "undeclared identifier"),
            ("kernel k { f32 a[8]; for (i = 0; i < 8; i++) { s = 1.0; } }", "undeclared scalar"),
            ("kernel k { f32 a[8]; for (i = 0; i < 8; i++) { a = 1.0; } }", "undeclared scalar"),
        ],
    )
    def test_rejects(self, source, match):
        with pytest.raises(ParseError, match=match):
            parse_kernel(source)

    def test_zero_trip_loop_rejected_with_line(self):
        with pytest.raises(ParseError, match=r"line 3: loop trip count must be >= 1, got 0"):
            parse_kernel("kernel k {\n f32 a[8];\n for (i = 0; i < 0; i++) { a[i] = 1.0; }\n}")

    def test_float_index_array_rejected(self):
        with pytest.raises(ParseError):
            parse_kernel(
                """
                kernel k {
                    f32 a[8], f[8];
                    for (i = 0; i < 8; i++) { a[f[i]] = 1.0; }
                }
                """
            )


class TestEndToEnd:
    def test_parsed_kernel_runs_and_vectorizes(self):
        kern = parse_kernel(SAXPY)
        plan = vectorize_loop(kern, ARMV8_NEON)
        assert isinstance(plan, VectorizationPlan)
        bufs = make_buffers(kern, seed=0)
        a0, b0 = bufs["a"].copy(), bufs["b"].copy()
        run_scalar(kern, bufs)
        np.testing.assert_allclose(
            bufs["a"], a0 + np.float32(2.0) * b0, rtol=1e-6
        )

    def test_printer_output_reparses(self):
        """Pretty-printed 1-D affine kernels round-trip."""
        from repro.ir import kernel_to_source

        kern = parse_kernel(SAXPY)
        text = kernel_to_source(kern)
        # The printer emits the same C-like dialect, minus the kernel
        # header; rebuild it and re-parse.
        body_lines = [ln for ln in text.splitlines() if not ln.startswith("//")]
        src = "kernel roundtrip {\n" + "\n".join(body_lines) + "\n}"
        kern2 = parse_kernel(src)
        assert [str(s) for s in kern2.body] == [str(s) for s in kern.body]
