"""The ``paper_sim`` and ``paper_auto`` workloads: ``repro run-all`` sweeps.

Untraced, each round runs a cold sweep into a fresh ``--cache-dir`` and
then re-runs the same command against the filled store (the resume).
The traced run repeats one round in this process through
``run_figures`` and then replays every planned request serially through
a ``Runner`` with spans around each layer's entry points.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import time
from typing import Dict, List, Tuple

from common import (
    JOBS, WORK, Tally, counter_metrics, median, percentile, repro_cmd,
    run_program, tail, use_sources,
)

#: table2 + fig8..fig15, the default ``run-all`` figure set
DEFAULT_FIGURES = (
    "table2", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15",
)
#: the programs both sweeps cover: a subset of the paper's 12-program
#: subset that keeps one cold sweep inside the per-run time budget
PROGRAMS = ("adi", "dot", "jacobi", "chol", "dgefa", "mgrid")

#: ``rounds`` is the least number of rounds a run makes: paper_auto's wall
#: is one ~10 s predictor run on one worker, which machine noise moves
#: more than a sweep spread over both workers, so it takes one more
SWEEPS = {
    "paper_sim": {"figures": DEFAULT_FIGURES, "tier": "sim", "rounds": 2},
    "paper_auto": {"figures": ("fig8",), "tier": "auto", "rounds": 3},
}

#: CLI start-ups timed for ``setup_s``, and resumes per round
SETUPS = 5
RESUMES = 5

_TITLE = re.compile(r"^(Figure|Table) (\d+):")
_SUMMARY = re.compile(r"^run-all: (\d+) runs \((.*)\) in ")


def inputs(workload: str, seed: int) -> Tuple[List[str], List[str]]:
    """The sweep's figures and programs, in the paper's order.

    The paper sweep is deterministic, so the seed changes nothing the
    program sees: reordering figures or programs changes which runs
    share a worker's warm program and padding memo, which is different
    work, not a different draw of the same work.  Both sweeps list the
    programs alike, so their shared fig8 renders byte for byte the same.
    """
    del seed
    return list(SWEEPS[workload]["figures"]), list(PROGRAMS)


def canonical_hash(text: str) -> str:
    """Hash of a rendered figure, independent of its row order."""
    lines = sorted(line.rstrip() for line in text.splitlines() if line.strip())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def split_renders(stdout: str) -> Dict[str, str]:
    """Figure name -> rendered text, from ``run-all`` standard output."""
    renders: Dict[str, List[str]] = {}
    current = None
    for line in stdout.splitlines():
        match = _TITLE.match(line)
        if match:
            kind = "fig" if match.group(1) == "Figure" else "table"
            current = f"{kind}{match.group(2)}"
            renders[current] = []
        elif _SUMMARY.match(line):
            current = None
        if current is not None:
            renders[current].append(line)
    return {name: "\n".join(lines).strip() for name, lines in renders.items()}


def summary_counts(stdout: str) -> Tuple[int, Dict[str, int]]:
    for line in stdout.splitlines():
        match = _SUMMARY.match(line)
        if match:
            counts = {}
            for part in match.group(2).split(", "):
                number, status = part.split(" ", 1)
                counts[status] = int(number)
            return int(match.group(1)), counts
    return 0, {}


def check_renders(renders: Dict[str, str], figures, goldens, tally, phase):
    for figure in figures:
        text = renders.get(figure)
        ok = text is not None and canonical_hash(text) == goldens.get(figure)
        tally.check(ok, f"{phase}: {figure} differs from its golden")


def _journal_durations(cache_dir) -> List[float]:
    durations = []
    path = cache_dir / "journal.jsonl"
    if not path.exists():
        return durations
    with open(path) as fh:
        for line in fh:
            event = json.loads(line)
            if event.get("event") == "finish" and event.get("status") != "cached":
                durations.append(event["duration"])
    return durations


def _sweep_cmd(figures, programs, tier, cache_dir) -> List[str]:
    return repro_cmd(
        "run-all", "--figures", *figures, "--programs", *programs,
        "--jobs", str(JOBS), "--tier", tier, "--cache-dir", str(cache_dir),
    )


def run(workload: str, seed: int, seconds: float, goldens: dict,
        deadline: float) -> dict:
    """Untraced rounds; returns the end-to-end metrics and the tally."""
    figures, programs = inputs(workload, seed)
    tier = SWEEPS[workload]["tier"]
    golden = goldens["figures"]
    tally = Tally()

    setups = []
    for _ in range(SETUPS):
        result = run_program(repro_cmd("run-all", "--help"), timeout=60)
        tally.check(result["code"] == 0, "run-all --help failed")
        setups.append(result["wall"])

    colds, warms, rss, durations = [], [], [], []
    start = time.perf_counter()
    round_no = 0
    while (round_no < SWEEPS[workload]["rounds"]
           or time.perf_counter() - start < seconds):
        cache_dir = WORK / f"{workload}-{seed}-{round_no}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        cmd = _sweep_cmd(figures, programs, tier, cache_dir)
        cold = run_program(cmd, timeout=max(1.0, deadline - time.perf_counter()))
        durations.extend(_journal_durations(cache_dir))
        resumes = [
            run_program(cmd, timeout=max(1.0, deadline - time.perf_counter()))
            for _ in range(RESUMES)
        ]
        shutil.rmtree(cache_dir, ignore_errors=True)
        round_no += 1

        phases = [("cold", cold, "ok")] + [("resume", r, "cached") for r in resumes]
        for phase, result, status in phases:
            runs, counts = summary_counts(result["stdout"])
            tally.check(result["code"] == 0 and runs > 0,
                        f"{phase}: exit {result['code']}: {result['stderr'][-300:]}")
            tally.attempted += runs
            tally.failed += runs - counts.get(status, 0)
            if runs != counts.get(status, 0):
                tally.notes.append(f"{phase}: {counts}")
            check_renders(split_renders(result["stdout"]), figures, golden,
                          tally, phase)
        for resume in resumes:
            tally.check(
                split_renders(cold["stdout"]) == split_renders(resume["stdout"]),
                "resume renders differ from the cold sweep",
            )
            warms.append(resume["wall"])
        colds.append(cold["wall"])
        rss.append(max(r["rss_mb"] for r in [cold] + resumes))
        if deadline - time.perf_counter() < 2 * (time.perf_counter() - start) / round_no:
            break

    metrics = {
        "setup_s": (median(setups), "s"),
        "cold_s": (median(colds), "s"),
        "warm_s": (median(warms), "s"),
        "p50_ms": (1000 * percentile(durations, 50), "ms"),
        "tail_ms": (1000 * tail(durations), "ms"),
        "peak_rss_mb": (median(rss), "MB"),
    }
    info = {"rounds": round_no, "runs_timed": len(durations),
            "figures": figures, "programs": programs}
    return {"metrics": metrics, "tally": tally, "info": info}


def _runner_args(request):
    return dict(
        name=request.program, heuristic=request.heuristic,
        cache=request.cache, size=request.size, pad_cache=request.pad_cache,
        m_lines=request.m_lines, max_outer=request.max_outer,
        seed=request.seed,
    )


def run_traced(workload: str, seed: int, goldens: dict) -> dict:
    """One in-process round with spans, then a serial replay of its runs."""
    use_sources()
    from repro.engine.core import EngineConfig
    from repro.engine.plan import collect_requests, run_figures
    from repro.experiments.runner import Runner, request_key
    from repro.obs import runtime as obs

    from spans import Recorder, instrumented, layer_metrics

    figures, programs = inputs(workload, seed)
    tier = SWEEPS[workload]["tier"]
    golden = goldens["figures"]
    tally = Tally()
    rec = Recorder()
    cache_dir = WORK / f"{workload}-{seed}-traced"
    shutil.rmtree(cache_dir, ignore_errors=True)

    # Phase A: the sweep and its resume, parent-side layers spanned.
    obs.reset()
    obs.enable()
    config = EngineConfig(jobs=JOBS, tier=tier)
    phase_a = time.perf_counter()
    with instrumented(rec):
        cold = run_figures(figures, programs, config=config, cache_dir=str(cache_dir))
        warm = run_figures(figures, programs, config=config, cache_dir=str(cache_dir))
    phase_a = time.perf_counter() - phase_a
    snapshot = obs.snapshot()
    obs.disable()
    obs.reset()
    shutil.rmtree(cache_dir, ignore_errors=True)
    for phase, report, status in (("cold", cold, "ok"), ("resume", warm, "cached")):
        counts = report.counts()
        tally.attempted += len(report.outcomes)
        tally.failed += len(report.outcomes) - counts.get(status, 0)
        check_renders(report.renders, figures, golden, tally, phase)
    engine_stats = {o.key: o.stats for o in cold.outcomes}

    # Phase B: every planned run replayed serially, untraced and traced
    # runs interleaved so the tracing overhead is measured pairwise.
    begin = time.perf_counter()
    with instrumented(rec):
        requests = collect_requests(figures, programs)
    traced_s = time.perf_counter() - begin
    plain, traced = Runner(predict=tier), Runner(predict=tier)
    plain_s = 0.0
    for index, request in enumerate(requests):
        key = request_key(request)
        order = (False, True) if index % 2 == 0 else (True, False)
        results = {}
        for with_spans in order:
            if with_spans:
                rec.request = key
                with instrumented(rec):
                    begin = time.perf_counter()
                    with rec.span("runner.run"):
                        results[True] = traced.run(**_runner_args(request))
                    traced_s += time.perf_counter() - begin
                rec.request = None
            else:
                begin = time.perf_counter()
                results[False] = plain.run(**_runner_args(request))
                plain_s += time.perf_counter() - begin
        tally.check(
            results[True] == results[False] == engine_stats.get(key),
            f"replay of {key} differs from the engine's result",
        )

    run_many = rec.durations("engine.run_many")
    metrics = layer_metrics(rec, phase_a + traced_s)
    metrics.update(counter_metrics(snapshot))
    metrics["engine.run_many_s"] = sum(run_many)
    metrics["engine.parallel_efficiency"] = (
        rec.counts.get("engine.executed_s", 0.0) / (JOBS * run_many[0])
        if run_many else 0.0
    )
    metrics["tracing_overhead"] = traced_s / plain_s - 1 if plain_s else 0.0
    return {"metrics": metrics, "tally": tally, "recorder": rec,
            "info": {"requests": len(requests), "phase_a_s": phase_a,
                     "replay_plain_s": plain_s, "replay_traced_s": traced_s}}
