"""Overhead guard: disabled metrics must not slow the fast simulators.

The instrumentation promise is a single module-level flag test per hot
call when collection is off.  This test times the instrumented fast
direct-mapped engine on a one-million-access trace with metrics disabled
and compares against the engine's own work with the obs module's flag
check hoisted to a no-op — the instrumented run must be within 5%
(plus a small absolute floor for timer noise), judged on interleaved
pairs of runs (see ``tests.conftest.assert_overhead_within``).

Wall-clock tests are inherently jittery on loaded CI machines; set
``REPRO_SKIP_TIMING=1`` to skip.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.cache import fastsim
from repro.cache.config import CacheConfig
from repro.obs import runtime as obs
from tests.conftest import assert_overhead_within

TRACE_LENGTH = 1_000_000
CHUNK = 65_536
ALLOWED_OVERHEAD = 0.05
NOISE_FLOOR_SECONDS = 0.010  # absolute slack: sub-10ms deltas are timer noise

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_TIMING") == "1",
    reason="REPRO_SKIP_TIMING=1",
)


def _trace():
    rng = np.random.default_rng(20260806)
    addresses = rng.integers(0, 1 << 20, size=TRACE_LENGTH, dtype=np.int64)
    writes = rng.random(TRACE_LENGTH) < 0.25
    return addresses, writes


def _simulate(addresses, writes) -> float:
    sim = fastsim.make_simulator(CacheConfig(16 * 1024, 32, 1))
    start = time.perf_counter()
    for lo in range(0, TRACE_LENGTH, CHUNK):
        sim.access_chunk(addresses[lo:lo + CHUNK], writes[lo:lo + CHUNK])
    return time.perf_counter() - start


def test_disabled_metrics_overhead_within_budget():
    obs.disable()
    addresses, writes = _trace()
    _simulate(addresses, writes)  # warm-up: numpy caches, page faults

    # Baseline: the same engine with the enabled-check forced to a
    # constant, which is what the pre-instrumentation hot loop compiled
    # down to.  Comparing the same code path keeps the measurement about
    # the instrumentation, not about unrelated engine changes.
    def baseline():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fastsim, "_obs_enabled", lambda: False)
            return _simulate(addresses, writes)

    assert_overhead_within(
        lambda: _simulate(addresses, writes), baseline,
        ALLOWED_OVERHEAD, NOISE_FLOOR_SECONDS,
    )


def test_disabled_hot_paths_allocate_nothing():
    """The flag test is the whole cost: no instruments appear."""
    obs.disable()
    obs.reset()
    addresses, writes = _trace()
    _simulate(addresses, writes)
    assert len(obs.registry()) == 0
