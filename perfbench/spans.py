"""In-memory span recording around the public entry points of each layer.

The program itself is not instrumented: :func:`instrumented` patches the
public functions and methods a layer exposes, records one span per call
(name, start, end, parent, request id) and restores the originals on
exit.  Spans stay in memory until :meth:`Recorder.dump` writes them out.

A span opened while a span of the same name is already open on the
thread is not recorded again (``Runner.padding`` calls a padding
heuristic, ``KernelSpec.build`` may call the parser), so every layer's
time is counted once.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from typing import Dict, List, Optional

#: the span names that belong to a layer; other spans (one per request or
#: run) only group them, and their self time is the unattributed residual
LAYER_SPANS = frozenset({
    "cache.direct", "cache.assoc", "cache.reference", "trace", "predict",
    "padding", "frontend", "lint", "optimize", "optimize.vet",
    "store.get", "store.put", "engine.run_many", "plan.collect", "plan.render",
})


class Recorder:
    """Spans of one traced run, kept in memory."""

    def __init__(self):
        self.spans: List[tuple] = []  # (id, name, start, end, parent, request)
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.request: Optional[str] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        if any(entry[1] == name for entry in stack):
            yield
            return
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.request))

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def self_times(self) -> Dict[str, float]:
        """Span duration minus the part its child spans cover, per name."""
        child_time: Dict[int, float] = {}
        for _sid, _name, start, end, parent, _req in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        totals: Dict[str, float] = {}
        for sid, name, start, end, _parent, _req in self.spans:
            own = end - start - child_time.get(sid, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def durations(self, name: str) -> List[float]:
        return [end - start for _s, n, start, end, _p, _r in self.spans
                if n == name]

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, req in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request": req,
                }) + "\n")


def _wrap(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(rec, args, kwargs, result)
        return result
    return wrapper


def _count_chunk(kind):
    def after(rec, args, _kwargs, _result):
        rec.add(f"{kind}.accesses", len(args[1]))
    return after


def _count_predict(rec, _args, _kwargs, outcome):
    rec.add("predict.calls")
    if outcome.analyzable:
        pred = outcome.prediction
        rec.add("predict.answered")
        rec.add("predict.replayed", pred.replayed_accesses)
        rec.add("predict.folded", pred.folded_accesses)


def _count_optimize(rec, _args, _kwargs, result):
    rec.add("optimize.scored_predict", result.scored_predict)
    rec.add("optimize.scored_sim", result.scored_sim)


def _count_outcomes(rec, _args, _kwargs, outcomes):
    rec.add("engine.executed_s", sum(
        o.duration for o in outcomes if o.status != "cached"
    ))


def _traced_trace(rec: Recorder, fn):
    @functools.wraps(fn)
    def trace(self, *args, **kwargs):
        chunks = fn(self, *args, **kwargs)
        while True:
            with rec.span("trace"):
                try:
                    chunk = next(chunks)
                except StopIteration:
                    return
            rec.add("trace.accesses", len(chunk[0]))
            yield chunk
    return trace


@contextlib.contextmanager
def instrumented(rec: Recorder):
    """Patch each layer's public entry points to record spans into ``rec``."""
    import repro.analysis.predict as predict_mod
    import repro.engine.plan as plan_mod
    import repro.frontend as frontend_mod
    import repro.lint.engine as lint_mod
    import repro.optimize as optimize_pkg
    import repro.optimize.search as search_mod
    from repro.bench.suites import KernelSpec
    from repro.cache.fastsim import FastDirectMapped, FastSetAssociative
    from repro.cache.sim import ReferenceCache
    from repro.engine.core import ExperimentEngine
    from repro.engine.store import CrashSafeStore
    from repro.experiments.runner import HEURISTICS, Runner
    from repro.trace.interpreter import TraceInterpreter

    saved = []

    def patch(owner, attr, new):
        if isinstance(owner, dict):
            saved.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def wrap(owner, attr, name, after=None):
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        patch(owner, attr, _wrap(rec, name, original, after))

    wrap(FastDirectMapped, "access_chunk", "cache.direct", _count_chunk("cache.direct"))
    wrap(FastSetAssociative, "access_chunk", "cache.assoc", _count_chunk("cache.assoc"))
    wrap(ReferenceCache, "access_chunk", "cache.reference",
         _count_chunk("cache.reference"))
    patch(TraceInterpreter, "trace", _traced_trace(rec, TraceInterpreter.trace))
    wrap(predict_mod, "predict_misses", "predict", _count_predict)
    wrap(search_mod, "predict_misses", "predict", _count_predict)
    wrap(Runner, "padding", "padding")
    for heuristic in list(HEURISTICS):
        wrap(HEURISTICS, heuristic, "padding")
    wrap(KernelSpec, "build", "frontend")
    wrap(frontend_mod, "parse_program", "frontend")
    wrap(lint_mod, "lint_source", "lint")
    wrap(optimize_pkg, "optimize_layout", "optimize", _count_optimize)
    wrap(search_mod, "check_transform", "optimize.vet")
    wrap(CrashSafeStore, "get", "store.get")
    wrap(CrashSafeStore, "put", "store.put")
    wrap(ExperimentEngine, "run_many", "engine.run_many", _count_outcomes)
    wrap(plan_mod, "collect_requests", "plan.collect")
    for module in plan_mod.figure_modules().values():
        wrap(module, "render", "plan.render")
    try:
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def layer_metrics(rec: Recorder, traced_wall: float) -> Dict[str, float]:
    """The per-layer metrics every workload reports, from one recorder."""
    own = rec.self_times()
    counts = rec.counts

    def s(name):
        return own.get(name, 0.0)

    def c(key):
        return counts.get(key, 0)

    def rate(num, den):
        return num / den if den else 0.0

    direct_s, assoc_s = s("cache.direct"), s("cache.assoc") + s("cache.reference")
    direct_n = c("cache.direct.accesses")
    assoc_n = c("cache.assoc.accesses") + c("cache.reference.accesses")
    sim_s = direct_s + assoc_s + s("trace")
    answered = c("predict.answered")
    predicted = c("predict.replayed") + c("predict.folded")
    covered = sum(t for name, t in own.items() if name in LAYER_SPANS)
    return {
        "cache.direct_s": direct_s,
        "cache.direct_accesses": direct_n,
        "cache.direct_accesses_per_s": rate(direct_n, direct_s),
        "cache.assoc_s": assoc_s,
        "cache.assoc_accesses": assoc_n,
        "cache.assoc_accesses_per_s": rate(assoc_n, assoc_s),
        "trace.s": s("trace"),
        "trace.accesses": c("trace.accesses"),
        "trace.accesses_per_s": rate(c("trace.accesses"), s("trace")),
        "predict.s": s("predict"),
        "predict.calls": c("predict.calls"),
        "predict.answered_share": rate(answered, c("predict.calls")),
        "predict.fold_share": rate(c("predict.folded"), predicted),
        "predict.replayed_accesses": c("predict.replayed"),
        "predict.s_per_sim_s": rate(s("predict"), sim_s),
        "store.put_s": s("store.put"),
        "store.puts": len(rec.durations("store.put")),
        "store.get_s": s("store.get"),
        "store.gets": len(rec.durations("store.get")),
        "plan.collect_s": s("plan.collect"),
        "plan.render_s": s("plan.render"),
        "frontend.build_s": s("frontend"),
        "frontend.programs": len(rec.durations("frontend")),
        "padding.s": s("padding"),
        "padding.calls": len(rec.durations("padding")),
        "lint.s": s("lint"),
        "lint.calls": len(rec.durations("lint")),
        "optimize.s": s("optimize"),
        "optimize.scored_predict": c("optimize.scored_predict"),
        "optimize.scored_sim": c("optimize.scored_sim"),
        "optimize.vet_s": s("optimize.vet"),
        "trace_residual_share": rate(max(traced_wall - covered, 0.0), traced_wall),
    }
