"""Overhead guard: ``--guard off`` must not slow the simulation path.

With no guard active the runner's only extra work per execution is one
``guard_runtime.active_config()`` thread-local lookup and a ``None``
test — everything else (baseline re-simulation, cell-stream replay,
invariant sweep) is gated behind it.  This times the guarded execution
path on a >1M-access benchmark trace with the guard off and compares
against the same path with the lookup hoisted to a constant, reusing the
5% budget (plus timer-noise floor) the obs overhead test established,
judged on interleaved pairs of runs
(``tests.conftest.assert_overhead_within``).

Wall-clock tests are inherently jittery on loaded CI machines; set
``REPRO_SKIP_TIMING=1`` to skip.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.experiments import runner as runner_mod
from repro.experiments.runner import Runner
from tests.conftest import assert_overhead_within

ALLOWED_OVERHEAD = 0.05
NOISE_FLOOR_SECONDS = 0.010  # absolute slack: sub-10ms deltas are timer noise

pytestmark = [
    pytest.mark.guard,
    pytest.mark.skipif(
        os.environ.get("REPRO_SKIP_TIMING") == "1",
        reason="REPRO_SKIP_TIMING=1",
    ),
]

#: dgefa's trace is ~1.5M accesses — comfortably past the 1M bar.
WORKLOAD = "dgefa"


def _execute_once(runner, request) -> float:
    start = time.perf_counter()
    runner.execute(request)  # execute() bypasses memoization
    return time.perf_counter() - start


def test_guard_off_overhead_within_budget():
    runner = Runner()
    request = runner.request_for(WORKLOAD, "pad")
    stats = runner.execute(request)  # warm-up: parse, pad, numpy caches
    assert stats.accesses >= 1_000_000

    assert runner_mod.guard_runtime.active_config() is None

    # Baseline: the identical path with the guard hook compiled away,
    # which is what the pre-guard runner did.
    def baseline():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                runner_mod.guard_runtime, "active_config", lambda: None
            )
            return _execute_once(runner, request)

    assert_overhead_within(
        lambda: _execute_once(runner, request), baseline,
        ALLOWED_OVERHEAD, NOISE_FLOOR_SECONDS,
    )


def test_guard_off_reports_nothing():
    runner = Runner()
    runner.run(WORKLOAD, "pad")
    assert runner.last_guard is None
