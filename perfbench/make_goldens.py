"""Regenerate ``goldens.json``: the reference outputs the benchmark checks.

Run from the root of a checkout, only when the program's output is meant
to change::

    python3 perfbench/make_goldens.py

* ``figures``: the row-order-independent hash of every figure the sweep
  workloads render, computed under ``--tier sim`` (so ``paper_auto``'s
  fig8 must match the simulated one);
* ``simulate_program``: the stats record of every registered-program
  simulation the ``serve_mixed`` workload can request.
"""

from __future__ import annotations

import json

from common import HERE, JOBS, SUBSET_PROGRAMS, use_sources
from serve import PROGRAM_CACHES, PROGRAM_HEURISTICS, golden_key
from sweep import DEFAULT_FIGURES, PROGRAMS, canonical_hash


def main() -> None:
    use_sources()
    from repro.engine.core import EngineConfig, ExperimentEngine
    from repro.engine.plan import run_figures
    from repro.experiments.runner import Runner
    from repro.serve.handlers import stats_record
    from repro.serve.schemas import validate_simulate

    config = EngineConfig(jobs=JOBS, tier="sim")
    report = run_figures(DEFAULT_FIGURES, PROGRAMS, config=config)
    if report.failures:
        raise SystemExit(f"{len(report.failures)} runs failed")
    figures = {name: canonical_hash(text) for name, text in report.renders.items()}

    runner = Runner()
    keys, requests = [], []
    for program in SUBSET_PROGRAMS:
        for heuristic in PROGRAM_HEURISTICS:
            for cache in PROGRAM_CACHES:
                keys.append(golden_key(program, heuristic, cache))
                request = validate_simulate({"program": program,
                                             "heuristic": heuristic,
                                             "cache": {"size": cache}})
                requests.append(runner.request_for(
                    program, heuristic, request.cache, size=request.size,
                    m_lines=request.m_lines,
                ))
    outcomes = ExperimentEngine(config).run_many(requests)
    if any(o.stats is None for o in outcomes):
        raise SystemExit("a registered-program simulation failed")
    stats = {key: stats_record(o.stats) for key, o in zip(keys, outcomes)}

    path = HERE / "goldens.json"
    path.write_text(json.dumps(
        {"figures": figures, "simulate_program": stats}, indent=1,
        sort_keys=True,
    ) + "\n")
    print(f"wrote {path}: {len(figures)} figures, {len(stats)} simulations")


if __name__ == "__main__":
    main()
