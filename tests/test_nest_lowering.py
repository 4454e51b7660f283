"""The shared affine nest lowering (repro.jit.specialize).

The trace-JIT streams whole compiled nests; the analytic predictor
replays flat-iteration ranges of the same block generator when it folds
outer-iteration spans ``[lo * inner, hi * inner)``.  These tests pin the
range contract: the blocks over ``[lo, hi)`` concatenate to exactly the
matching slice of the full stream, wherever the range cuts a chunk or an
outer iteration.  They also pin the reason vocabulary both consumers
derive from the one precondition list.
"""

import math

import numpy as np
import pytest

from repro.analysis.predict import BAILOUT_REASONS
from repro.analysis.predict_corpus import random_affine_case
from repro.ir.loops import Loop
from repro.jit.corpus import fuzz_cases
from repro.jit.specialize import (
    DEOPT_REASONS,
    NEST_PRECONDITIONS,
    NestPlan,
    specialize_nest,
)

pytestmark = [pytest.mark.jit, pytest.mark.predict]


def compiled_nests(prog, layout):
    """Every loop that compiles, bound under its enclosing lower bounds."""
    out = []

    def walk(body, env):
        for node in body:
            if not isinstance(node, Loop):
                continue
            plan = specialize_nest(node, prog, layout)
            if isinstance(plan, NestPlan):
                out.append(plan.bind(env))
            inner = dict(env)
            inner[node.var] = node.lower.evaluate(env)
            walk(node.body, inner)

    walk(prog.body, {})
    return out


def concat(bound, chunk, lo=0, hi=None):
    addrs, writes = [], []
    for block_addrs, block_writes in bound.blocks(chunk, lo, hi):
        addrs.append(block_addrs)
        writes.append(block_writes)
    if not addrs:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    return np.concatenate(addrs), np.concatenate(writes)


def flat_ranges(bound, chunk):
    """Ranges that split a chunk, an outer iteration, or neither."""
    total = bound.total_iters
    inner = math.prod(bound.trips[1:])
    per_block = max(1, chunk // len(bound.c0))
    cuts = {
        (0, total),
        (0, 0),
        (total, total),
        (1, total),
        (0, total - 1),
        (per_block // 2, per_block + 1),   # splits two chunks
        (inner // 2, inner + inner // 2),  # splits two outer iterations
        (inner, 2 * inner),                # exactly one outer iteration
        (total // 3, 2 * total // 3),
    }
    return sorted((lo, hi) for lo, hi in cuts if 0 <= lo <= hi <= total)


CASES = [
    (case.name, case.prog, layout)
    for case in fuzz_cases(40)
    for layout in (case.layout, case.padded_layout)
] + [
    (case.name, case.prog, case.layout)
    for case in map(random_affine_case, range(12))
]


@pytest.mark.parametrize(
    "name,prog,layout", CASES, ids=[c[0] for c in CASES]
)
@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 14])
def test_range_blocks_equal_slice_of_full_stream(name, prog, layout, chunk):
    for bound in compiled_nests(prog, layout):
        if not len(bound.c0) or not bound.total_iters:
            continue
        refs = len(bound.c0)
        full_addrs, full_writes = concat(bound, 1 << 14)
        assert len(full_addrs) == bound.accesses
        for lo, hi in flat_ranges(bound, chunk):
            addrs, writes = concat(bound, chunk, lo, hi)
            np.testing.assert_array_equal(
                addrs, full_addrs[lo * refs:hi * refs], err_msg=name
            )
            np.testing.assert_array_equal(
                writes, full_writes[lo * refs:hi * refs], err_msg=name
            )


@pytest.mark.parametrize("seed", range(6))
def test_outer_spans_partition_the_stream(seed):
    """Replaying outer spans back to back is the predictor's fold path."""
    case = random_affine_case(seed)
    for bound in compiled_nests(case.prog, case.layout):
        if not len(bound.c0) or not bound.total_iters:
            continue
        inner = math.prod(bound.trips[1:])
        full, _ = concat(bound, 1 << 14)
        cuts = sorted({0, 1, bound.trips[0] // 2, bound.trips[0]})
        parts = [
            concat(bound, 5, lo * inner, hi * inner)[0]
            for lo, hi in zip(cuts, cuts[1:])
        ]
        np.testing.assert_array_equal(np.concatenate(parts), full)


def test_reason_vocabularies_share_the_preconditions():
    static = ("imperfect", "shadowed", "symbolic_bounds", "indirect")
    assert NEST_PRECONDITIONS == static
    # metric labels of repro_jit_deopt_total / repro_predict_bailouts_total
    assert DEOPT_REASONS == static + ("cold",)
    assert BAILOUT_REASONS == static + ("exceeds_budget",)
