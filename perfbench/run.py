"""End-to-end benchmark of the paper sweep and of ``repro serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_sim --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` makes a separate traced run that reports the per-layer
metrics (see README.md in this directory).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import time

from common import HERE, SRC, WORK

WORKLOADS = ("paper_sim", "paper_auto", "serve_mixed")
RUN_BUDGET_S = 170.0

#: per-layer metric -> unit; every traced run reports all of them
#: (0 where the workload leaves the layer idle)
PER_LAYER_UNITS = {
    "cache.direct_s": "s", "cache.direct_accesses": "count",
    "cache.direct_accesses_per_s": "1/s", "cache.assoc_s": "s",
    "cache.assoc_accesses": "count", "cache.assoc_accesses_per_s": "1/s",
    "trace.s": "s", "trace.accesses": "count", "trace.accesses_per_s": "1/s",
    "jit.deopt_share": "ratio", "count.jit_nests": "count",
    "predict.s": "s", "predict.calls": "count", "predict.answered_share": "ratio",
    "predict.fold_share": "ratio", "predict.replayed_accesses": "count",
    "predict.s_per_sim_s": "ratio", "count.predict_requests": "count",
    "count.predict_bailouts": "count",
    "engine.run_many_s": "s", "engine.parallel_efficiency": "ratio",
    "engine.retries": "count", "engine.fallbacks": "count",
    "store.put_s": "s", "store.puts": "count", "store.get_s": "s",
    "store.gets": "count", "plan.collect_s": "s", "plan.render_s": "s",
    "frontend.build_s": "s", "frontend.programs": "count",
    "padding.s": "s", "padding.calls": "count", "lint.s": "s",
    "lint.calls": "count", "optimize.s": "s", "optimize.scored_predict": "count",
    "optimize.scored_sim": "count", "optimize.vet_s": "s",
    "serve_rps": "1/s", "serve.handler_share": "ratio",
    "serve.memo_hit_share": "ratio", "serve.rejected": "count",
    "count.serve_requests": "count", "count.memo_hits": "count",
    "count.sim_accesses_direct": "count", "count.sim_accesses_assoc": "count",
    "trace_residual_share": "ratio", "tracing_overhead": "ratio",
}
for _key in ("pad", "lint", "simulate_source", "simulate_program", "optimize",
             "run", "interactive", "batch"):
    PER_LAYER_UNITS[f"serve.{_key}.p50_ms"] = "ms"
    PER_LAYER_UNITS[f"serve.{_key}.p90_ms"] = "ms"
    PER_LAYER_UNITS[f"serve.{_key}.samples"] = "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    # a terminated run still stops the program processes it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.perf_counter() + RUN_BUDGET_S
    goldens = json.loads((HERE / "goldens.json").read_text())
    WORK.mkdir(exist_ok=True)
    try:
        if args.trace:
            outcome = traced(args.workload, args.seed, goldens)
        elif args.workload == "serve_mixed":
            import serve

            outcome = serve.run(args.seed, args.seconds, goldens, deadline)
        else:
            import sweep

            outcome = sweep.run(args.workload, args.seed, args.seconds,
                                goldens, deadline)
    finally:
        for leftover in WORK.glob(f"{args.workload}-*"):
            shutil.rmtree(leftover, ignore_errors=True)

    tally = outcome["tally"]
    for key, value in sorted(outcome["info"].items()):
        print(f"# {key}: {value}")
    for note in tally.notes[:20]:
        print(f"# FAILED {note}")
    metrics = {}
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{name:34s} {value:14.6f} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def traced(workload: str, seed: int, goldens: dict) -> dict:
    """The per-layer metrics from one traced run; spans go to a file."""
    if workload == "serve_mixed":
        import serve

        outcome = serve.run_traced(seed, goldens)
    else:
        import sweep

        outcome = sweep.run_traced(workload, seed, goldens)
    spans_dir = WORK / "spans"
    spans_dir.mkdir(exist_ok=True)
    outcome["recorder"].dump(spans_dir / f"{workload}-{seed}.jsonl")
    values = outcome["metrics"]
    outcome["metrics"] = {
        name: (float(values.get(name, 0.0)), unit)
        for name, unit in PER_LAYER_UNITS.items()
    }
    return outcome


if __name__ == "__main__":
    sys.exit(main())
