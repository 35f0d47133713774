"""Vector-safety sanitizer: dynamic cross-check of dependence claims.

Static dependence analysis claims, for every pair of accesses to one
array, either *never aliases*, *aliases at exactly distance d*, or
*unknown*.  Vector execution is only legal because of those claims, so
this module re-derives the ground truth at run time — evaluating every
access's addresses over the actual iteration space, through the actual
index-array contents for indirect subscripts — and raises
:class:`SanitizerError` when any lane pair inside a VF block conflicts
in a way the static claims do not predict.

Opt-in: ``run_vector(plan, bufs, sanitize=True)`` (see
:mod:`repro.sim.executor`).
A failure means the static analysis and the dynamic behavior disagree —
one of them is wrong, and the measurement must not be trusted.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...ir.kernel import LoopKernel
from ..access import AccessInfo, collect_accesses
from ..dependence import DependenceInfo, DepStatus


class SanitizerError(AssertionError):
    """Dynamic execution violates a statically-claimed dependence."""


def _access_key(acc: AccessInfo) -> tuple:
    return (acc.array, acc.pos, acc.is_store, acc.subscript)


def _claims(dep_info: DependenceInfo) -> dict[tuple[tuple, tuple], object]:
    """Map (src_key, sink_key) -> claimed distance or 'unknown'.

    A claim ``(src, sink) -> d`` asserts ``addr_src(t) == addr_sink(t +
    d)`` for all t (and no other alignment); pairs absent from the map
    are claimed to never alias.
    """
    out: dict[tuple[tuple, tuple], object] = {}
    for dep in dep_info.dependences:
        key = (_access_key(dep.src), _access_key(dep.sink))
        if dep.status is DepStatus.UNKNOWN:
            out[key] = "unknown"
        else:
            out[key] = dep.distance
    return out


def _addresses(
    kernel: LoopKernel,
    acc: AccessInfo,
    bufs: dict[str, np.ndarray],
    t: np.ndarray,
    outer: int,
) -> Optional[np.ndarray]:
    """Flattened element addresses of ``acc`` for inner iterations ``t``."""
    # Local index evaluation (mirrors the executor) so indirect
    # subscripts read the real buffer contents.
    from ...ir.expr import Affine, Indirect

    def eval_ix(ix) -> np.ndarray:
        if isinstance(ix, Affine):
            val = np.full_like(t, ix.offset)
            for lvl, c in enumerate(ix.coeffs):
                if not c:
                    continue
                val = val + c * (t if lvl == kernel.inner_level else outer)
            return val
        assert isinstance(ix, Indirect)
        inner = eval_ix(ix.index)
        return bufs[ix.array].reshape(-1)[inner].astype(np.int64, copy=False)

    idxs = [eval_ix(ix) for ix in acc.subscript]
    extents = acc.decl.extents
    addr = np.zeros_like(t)
    stride = 1
    for dim in range(len(extents) - 1, -1, -1):
        # Negative subscripts wrap (Python/C-under-test semantics used
        # by the functional executor for boundary iterations).
        addr = addr + (idxs[dim] % extents[dim]) * stride
        stride *= extents[dim]
    return addr


def _observed_conflicts(
    ax: np.ndarray, ay: np.ndarray, vf: int, vec_trip: int
) -> set[int]:
    """Signed distances k with ``ax[t] == ay[t+k]`` for some lane pair
    (t and t+k in the same VF block)."""
    out: set[int] = set()
    lanes = np.arange(vec_trip) % vf
    for k in range(vf):
        if k == 0:
            if np.any(ax[:vec_trip] == ay[:vec_trip]):
                out.add(0)
            continue
        n = vec_trip - k
        same_block = lanes[:n] < vf - k
        if np.any((ax[:n] == ay[k : k + n]) & same_block):
            out.add(k)
        if np.any((ay[:n] == ax[k : k + n]) & same_block):
            out.add(-k)
    return out


def check_dependence_claims(
    kernel: LoopKernel,
    dep_info: DependenceInfo,
    vf: int,
    bufs: dict[str, np.ndarray],
) -> None:
    """Raise :class:`SanitizerError` on any static/dynamic disagreement.

    Checks every (store, access) pair of each array: observed same-block
    lane conflicts must be exactly the statically claimed alignments.
    Pairs claimed ``unknown`` are exempt (no claim is made), and so are
    kernels too short for a single vector block.
    """
    trip = kernel.inner.trip
    vec_trip = trip - trip % vf
    if vec_trip <= 0:
        return
    t = np.arange(trip, dtype=np.int64)
    outers = [0] if kernel.depth == 1 else sorted({0, kernel.loops[0].trip - 1})
    claims = _claims(dep_info)
    accesses = collect_accesses(kernel)
    by_array: dict[str, list[AccessInfo]] = {}
    for acc in accesses:
        by_array.setdefault(acc.array, []).append(acc)

    for outer in outers:
        addr_cache: dict[tuple, np.ndarray] = {}

        def addr_of(acc: AccessInfo) -> np.ndarray:
            key = _access_key(acc)
            if key not in addr_cache:
                addr_cache[key] = _addresses(kernel, acc, bufs, t, outer)
            return addr_cache[key]

        for array, accs in by_array.items():
            for i, a in enumerate(accs):
                for b in accs[i + 1 :]:
                    if not (a.is_store or b.is_store):
                        continue
                    ka, kb = _access_key(a), _access_key(b)
                    claim = claims.get((ka, kb), claims.get((kb, ka), "none"))
                    if claim == "unknown":
                        continue  # no static claim to check
                    allowed: set[int] = set()
                    if claim != "none":
                        # Claimed: addr_src(t) == addr_sink(t + d).
                        d = int(claim)  # type: ignore[arg-type]
                        allowed = {d} if (ka, kb) in claims else {-d}
                        if d == 0:
                            allowed = {0}
                    observed = _observed_conflicts(
                        addr_of(a), addr_of(b), vf, vec_trip
                    )
                    stray = {
                        k for k in observed - allowed if abs(k) in range(vf)
                    }
                    if stray:
                        k = sorted(stray, key=abs)[0]
                        raise SanitizerError(
                            f"{kernel.name}: dynamic dependence violates static "
                            f"claim on array '{array}': "
                            f"{_describe(a)} and {_describe(b)} conflict at "
                            f"iteration distance {abs(k)} inside a VF={vf} "
                            f"block, but the analysis claimed "
                            f"{_claim_text(claim)}"
                        )


def check_plan(plan, bufs: dict[str, np.ndarray]) -> None:
    """Sanitize a vectorization plan before emulated vector execution."""
    check_dependence_claims(plan.kernel, plan.dep_info, plan.vf, bufs)


def _describe(acc: AccessInfo) -> str:
    op = "store" if acc.is_store else "load"
    idx = "][".join(str(ix) for ix in acc.subscript)
    return f"{op} {acc.array}[{idx}] (S{int(acc.pos)})"


def _claim_text(claim) -> str:
    if claim == "none":
        return "the accesses never alias"
    return f"a carried distance of exactly {claim}"


__all__ = ["SanitizerError", "check_dependence_claims", "check_plan"]
