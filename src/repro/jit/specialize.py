"""Nest specialization: affine loop nests into closed-form address streams.

This module is the one affine loop-nest lowering in the package.  It has
two consumers: the trace-JIT (:mod:`repro.jit.interp`), which streams a
compiled nest's blocks instead of interpreting it, and the analytic
predictor (:mod:`repro.analysis.predict`), which replays the same blocks
through its LRU model and folds whole outer-iteration spans.

The trace interpreter vectorizes only the *innermost* loop of a nest and
walks every enclosing level in Python, one dispatch per iteration.  For a
purely affine nest that dispatch is wasted work: every reference's byte
address is an affine function of the nest's index vector, so the whole
nest's address stream has a closed form.

:func:`specialize_nest` statically checks a nest's preconditions and, when
they hold, extracts one integer matrix ``A`` (one row per reference, one
column per loop level: the address coefficient of that level's variable)
plus a residual affine constant per reference (base address, lower-bound
shifts, and any *enclosing* loop variables, which are fixed for the
duration of the nest).  Binding the plan against a concrete environment
(:meth:`NestPlan.bind`) evaluates bounds and residuals to plain integers;
:meth:`BoundNest.blocks` then generates the stream, or any flat-iteration
range of it, in ``chunk_target``-sized batches: decompose flat iteration
numbers into per-level trip counters with divmods, then one integer matmul
per block.

Preconditions (any failure is one of :data:`NEST_PRECONDITIONS`):

* ``imperfect`` — a non-innermost level whose body is not exactly one loop
  (statements between loop levels, or sibling loops).
* ``shadowed`` — the same variable bound at two levels of the chain.
* ``symbolic_bounds`` — a bound that references one of the nest's own
  variables (triangular nests); bounds over *enclosing* variables are fine.
* ``indirect`` — any reference with an ``X(IDX(i))`` subscript.

The JIT reports these as deopt reasons (:data:`DEOPT_REASONS`), the
predictor as bailout reasons (its ``BAILOUT_REASONS``).  A nest that deopts
at its head is interpreted level by level, and every inner sub-nest is
re-considered on its own — a triangular outer loop over a rectangular
inner nest still compiles the inner nest once per outer iteration.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.ir.expr import AffineExpr
from repro.ir.loops import Loop, trip_count
from repro.ir.program import Program
from repro.layout.layout import MemoryLayout

#: The static preconditions :func:`specialize_nest` checks, in order.
NEST_PRECONDITIONS = ("imperfect", "shadowed", "symbolic_bounds", "indirect")

#: Why a nest fell back to the interpreter (``reason`` label on
#: ``repro_jit_deopt_total``).  ``cold`` is issued at run time by the
#: auto-mode hotness policy; the rest are static precondition failures.
DEOPT_REASONS = NEST_PRECONDITIONS + ("cold",)


def address_expr(ref, prog: Program, layout: MemoryLayout) -> AffineExpr:
    """Byte address of an affine reference as an expression of its vars."""
    decl = prog.array(ref.array)
    addr = AffineExpr(layout.base(ref.array))
    strides = layout.strides(ref.array)
    for sub, stride, dim in zip(ref.subscripts, strides, decl.dims):
        addr = addr + sub * stride - dim.lower * stride
    return addr


class NestPlan:
    """A compiled (layout-specialized, environment-generic) loop nest.

    Immutable once built; :meth:`bind` produces a :class:`BoundNest` for
    one concrete enclosing environment.  Plans are private to one
    interpreter: they bake in a specific :class:`MemoryLayout`'s bases and
    strides, so they must never outlive or be shared across layouts (see
    the truncation regression suite).
    """

    __slots__ = (
        "variables", "lowers", "uppers", "steps", "coeffs", "consts",
        "flags", "depth", "ref_count",
    )

    def __init__(
        self,
        variables: Tuple[str, ...],
        lowers: Tuple[AffineExpr, ...],
        uppers: Tuple[AffineExpr, ...],
        steps: Tuple[int, ...],
        coeffs: np.ndarray,
        consts: Tuple[AffineExpr, ...],
        flags: np.ndarray,
    ):
        self.variables = variables
        self.lowers = lowers
        self.uppers = uppers
        self.steps = steps
        self.coeffs = coeffs  # (refs, depth) int64: address coef per level
        self.consts = consts  # per-ref residual over *enclosing* vars only
        self.flags = flags    # (refs,) bool write flags, program order
        self.depth = len(variables)
        self.ref_count = len(consts)

    def trips(self, env: Mapping[str, int]) -> Tuple[int, ...]:
        """Trip count of every level, bounds evaluated against ``env``."""
        return tuple(
            trip_count(lo.evaluate(env), hi.evaluate(env), step)
            for lo, hi, step in zip(self.lowers, self.uppers, self.steps)
        )

    def bind(self, env: Mapping[str, int]) -> "BoundNest":
        """Evaluate bounds and residual constants against ``env``."""
        lows = np.array(
            [expr.evaluate(env) for expr in self.lowers], dtype=np.int64
        )
        consts = np.array(
            [expr.evaluate(env) for expr in self.consts], dtype=np.int64
        )
        # Address of ref j at trip counters t: consts[j] + A[j]·(lo + step*t)
        # = c0[j] + (A*step)[j]·t — fold the start values into the constant.
        c0 = consts + self.coeffs @ lows
        scaled = self.coeffs * np.asarray(self.steps, dtype=np.int64)[None, :]
        return BoundNest(self.trips(env), c0, scaled, self.flags)


class BoundNest:
    """A nest plan bound to concrete bounds: a block-stream generator."""

    __slots__ = ("trips", "c0", "coeffs", "flags", "total_iters", "accesses")

    def __init__(
        self,
        trips: Tuple[int, ...],
        c0: np.ndarray,
        coeffs: np.ndarray,
        flags: np.ndarray,
    ):
        self.trips = trips
        self.c0 = c0          # (refs,) per-ref address at trip (0, ..., 0)
        self.coeffs = coeffs  # (refs, depth) address delta per trip counter
        self.flags = flags
        total = 1
        for n in trips:
            total *= n
        self.total_iters = total
        self.accesses = total * len(c0)

    def blocks(
        self, chunk_target: int, lo: int = 0, hi: Optional[int] = None
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield (addresses, writes) blocks of ~``chunk_target`` accesses.

        Covers flat iterations ``[lo, hi)`` (default: the whole nest).
        Iteration order is exactly the interpreter's: the last loop level
        varies fastest, and within one iteration the references appear in
        program order with their write flags.
        """
        refs = len(self.c0)
        hi = self.total_iters if hi is None else hi
        if refs == 0 or hi <= lo:
            return
        depth = len(self.trips)
        trips = np.asarray(self.trips, dtype=np.int64)
        # suffix[k] = iterations of the levels inside level k, so a flat
        # iteration number decomposes as t_k = (flat // suffix[k]) % n_k.
        suffix = np.ones(depth, dtype=np.int64)
        for k in range(depth - 2, -1, -1):
            suffix[k] = suffix[k + 1] * trips[k + 1]
        iters_per_block = max(1, chunk_target // refs)
        full_writes = np.tile(self.flags, iters_per_block)
        transposed = np.ascontiguousarray(self.coeffs.T)  # (depth, refs)
        for start in range(lo, hi, iters_per_block):
            stop = min(hi, start + iters_per_block)
            flat = np.arange(start, stop, dtype=np.int64)
            counters = np.empty((stop - start, depth), dtype=np.int64)
            for k in range(depth):
                np.floor_divide(flat, suffix[k], out=counters[:, k])
                if k:  # level 0 never wraps: flat < n_0 * suffix[0]
                    counters[:, k] %= trips[k]
            addrs = (counters @ transposed + self.c0).reshape(-1)
            if stop - start == iters_per_block:
                writes = full_writes
            else:
                writes = np.tile(self.flags, stop - start)
            yield addrs, writes


def specialize_nest(
    loop: Loop, prog: Program, layout: MemoryLayout
) -> Union[NestPlan, str]:
    """Compile a nest headed at ``loop``, or return its deopt reason."""
    chain = [loop]
    node = loop
    while any(isinstance(child, Loop) for child in node.body):
        if len(node.body) != 1 or not isinstance(node.body[0], Loop):
            return "imperfect"
        node = node.body[0]
        chain.append(node)
    names = tuple(level.var for level in chain)
    if len(set(names)) != len(names):
        return "shadowed"
    own_vars = frozenset(names)
    for level in chain:
        if level.lower.uses_any(own_vars) or level.upper.uses_any(own_vars):
            return "symbolic_bounds"

    rows: List[List[int]] = []
    consts: List[AffineExpr] = []
    flags: List[bool] = []
    for stmt in node.body:
        for ref in stmt.refs:
            if not ref.is_affine:
                return "indirect"
            addr = address_expr(ref, prog, layout)
            rows.append([addr.coeff(name) for name in names])
            residual: Dict[str, int] = {
                var: coef
                for var, coef in addr.coeffs.items()
                if var not in own_vars
            }
            consts.append(AffineExpr(addr.const, residual))
            flags.append(ref.is_write)

    coeffs = (
        np.array(rows, dtype=np.int64)
        if rows
        else np.zeros((0, len(names)), dtype=np.int64)
    )
    return NestPlan(
        names,
        tuple(level.lower for level in chain),
        tuple(level.upper for level in chain),
        tuple(level.step for level in chain),
        coeffs,
        tuple(consts),
        np.asarray(flags, dtype=bool),
    )
