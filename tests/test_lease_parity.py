"""Engine/coordinator parity: one lease loop, one set of decisions.

``ExperimentEngine.run_many`` and ``Coordinator.run`` both drive the
engine's lease loop.  Campaign item keys are run-request keys, so under
one seeded fault plan both paths draw the same fault for every (key,
attempt) and must land on the same retries, fallbacks, failures and
results.
"""

import pytest

from repro.campaign.coordinator import Coordinator
from repro.campaign.plan import compile_plan
from repro.campaign.spec import parse_spec
from repro.engine.core import EngineConfig, ExperimentEngine
from repro.engine.faults import CampaignFaults, FaultPlan
from repro.engine.journal import RunJournal, read_journal

pytestmark = [pytest.mark.engine, pytest.mark.chaos]

TIMEOUT_S = 3.0
RETRIES = 1
FAULTS = FaultPlan(kill=0.15, timeout=0.1, corrupt=0.15, error=0.15, seed=0)


def test_engine_and_coordinator_make_identical_decisions(tmp_path):
    plan = compile_plan(parse_spec({
        "name": "parity",
        "benchmarks": ["dot", "jacobi"],
        "heuristics": ["original", "pad"],
        "caches": [{"size": "8K", "line": 32}],
        "seed": 11,
        "policy": {
            "backoff_base_s": 0.0, "timeout_s": TIMEOUT_S,
            "retries": RETRIES, "fallback": True,
        },
    }))
    journal_path = tmp_path / "engine.jsonl"
    outcomes = ExperimentEngine(EngineConfig(
        jobs=2, timeout=TIMEOUT_S, retries=RETRIES, backoff_base=0.0,
        fallback=True, seed=plan.spec.seed, faults=FAULTS,
    )).run_many(
        [item.request for item in plan.items],
        journal=RunJournal(journal_path),
    )
    report = Coordinator(
        plan, tmp_path / "campaign", jobs=2, allow_partial=True,
        faults=CampaignFaults(worker=FAULTS),
    ).run()

    engine_events = read_journal(journal_path)
    injected = {e.get("injected") for e in engine_events if e["event"] == "start"}
    assert {"kill", "timeout", "corrupt", "error"} <= injected
    engine_fallbacks = {
        e["run"] for e in engine_events if e["event"] == "fallback"
    }
    assert engine_fallbacks  # the plan drives some runs onto the reference sim

    campaign_events = read_journal(tmp_path / "campaign" / "journal.jsonl")
    by_item = {item.item_id: item.key for item in plan.items}
    campaign_fallbacks = {
        by_item[e["item"]] for e in campaign_events
        if e["event"] == "item_leased" and e["simulator"] == "reference"
        and e["attempt"] == RETRIES + 2
    }
    assert campaign_fallbacks == engine_fallbacks

    for item, outcome in zip(plan.items, outcomes):
        campaign = report.outcomes[item.item_id]
        assert outcome.key == item.key
        assert campaign.stats == outcome.stats
        assert campaign.attempts == outcome.attempts
        assert campaign.status == outcome.status
