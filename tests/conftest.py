"""Shared test fixtures and program builders.

Paper examples are expressed in "element" units using 1-byte elements so
cache sizes/line sizes written as element counts (Cs=1024, Ls=4) can be
used directly as byte counts.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.cache.config import CacheConfig
from repro.ir import builder as b
from repro.ir.arrays import ArrayDecl
from repro.ir.program import Program
from repro.ir.types import ElementType

# -- global per-test timeout -------------------------------------------------
#
# A hung simulation (or engine worker) must fail its test fast instead of
# stalling the whole suite/CI workflow.  SIGALRM-based so it needs no
# third-party plugin; tune or disable via REPRO_TEST_TIMEOUT (seconds,
# 0 disables).

TEST_TIMEOUT = int(os.environ.get("REPRO_TEST_TIMEOUT", "300"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if TEST_TIMEOUT <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded REPRO_TEST_TIMEOUT={TEST_TIMEOUT}s"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def jacobi_program(n: int, element_type: ElementType = ElementType.BYTE) -> Program:
    """The paper's Figure-7 JACOBI kernel at size ``n``."""
    return b.program(
        "jacobi",
        decls=[
            ArrayDecl("A", (n, n), element_type),
            ArrayDecl("B", (n, n), element_type),
        ],
        body=[
            b.loop("i", 2, n - 1, [
                b.loop("j", 2, n - 1, [
                    b.stmt(
                        b.w("B", "j", "i"),
                        b.r("A", b.idx("j", -1), "i"),
                        b.r("A", "j", b.idx("i", -1)),
                        b.r("A", b.idx("j", 1), "i"),
                        b.r("A", "j", b.idx("i", 1)),
                    ),
                ]),
            ]),
            b.loop("i", 2, n - 1, [
                b.loop("j", 2, n - 1, [
                    b.stmt(b.w("A", "j", "i"), b.r("B", "j", "i")),
                ]),
            ]),
        ],
    )


def vector_sum_program(n: int, element_type: ElementType = ElementType.REAL8) -> Program:
    """``S = S + A(i) * B(i)`` — the paper's Figure-1 kernel."""
    return b.program(
        "dot",
        decls=[
            ArrayDecl("A", (n,), element_type),
            ArrayDecl("B", (n,), element_type),
        ],
        body=[
            b.loop("i", 1, n, [b.reads_only(b.r("A", "i"), b.r("B", "i"))]),
        ],
    )


@pytest.fixture
def paper_cache_2048() -> CacheConfig:
    """Cs=2048, Ls=4 in element(=byte) units."""
    return CacheConfig(2048, 4, 1)


@pytest.fixture
def paper_cache_1024() -> CacheConfig:
    """Cs=1024, Ls=4 in element(=byte) units."""
    return CacheConfig(1024, 4, 1)


# -- paired overhead gate ----------------------------------------------------


def assert_overhead_within(measure, baseline, allowed, floor_s, pairs=5):
    """Gate ``measure()`` at most ``allowed`` slower than ``baseline()``.

    Both callables run one timed pass and return its seconds.  The runs
    interleave (A B A B ...), so a change in machine load hits both
    sides of a pair alike, and the gate is the median over pairs of
    ``A_i - (1 + allowed) * B_i`` against the ``floor_s`` timer-noise
    slack.
    """
    assert pairs >= 3
    excess = []
    for _ in range(pairs):
        a = measure()
        b = baseline()
        excess.append(a - (1 + allowed) * b)
    excess.sort()
    median = excess[len(excess) // 2]
    assert median <= floor_s, (
        f"median excess {median:.4f}s over {1 + allowed:.2f}x baseline "
        f"exceeds {floor_s:.3f}s (per pair: "
        + ", ".join(f"{e:.4f}" for e in excess) + ")"
    )
