"""Fault-tolerant parallel execution: the one worker lease loop.

:func:`run_leases` leases run requests to worker subprocesses for both
:class:`ExperimentEngine` (``run-all``, ``repro serve``) and the campaign
:class:`~repro.campaign.coordinator.Coordinator`.  It owns crash
containment (pipe EOF, an undecodable message, or a liveness sweep that
catches a dead worker whose EOF a stray pipe copy hides), per-attempt
deadlines, payload checksums, bounded retries with deterministic jittered
:func:`backoff`, and a last stage on the reference simulator (with
:data:`REFERENCE_TIMEOUT_FACTOR` times the deadline) before a task fails.
Callers supply a :class:`LeasePolicy`, a fault source and
:class:`LeaseHooks` saying what to journal, count and persist.

:class:`ExperimentEngine` is the non-durable client: a sweep never raises
out of :meth:`ExperimentEngine.run_many` because one run misbehaved;
every request comes back as a :class:`RunOutcome` whose status is
``ok``, ``degraded``, ``cached`` (found in the store), ``rolled_back``
or ``failed``, and every attempt is journaled.  Under
:attr:`EngineConfig.guard` the worker's guard verdict is re-journaled
parent-side (``guard_violation`` / ``guard_rollback``) and a rollback is
the ``rolled_back`` status.
"""

from __future__ import annotations

import collections
import contextlib
import heapq
import itertools
import multiprocessing
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, Dict, List, Optional, Sequence

from repro.cache.stats import CacheStats
from repro.engine.faults import FaultPlan, choose_corruption, unit_interval
from repro.engine.journal import NullJournal
from repro.engine.store import checksum
from repro.engine.worker import worker_main
from repro.errors import EngineError, RunTimeout, WorkerCrashed
from repro.guard.config import GuardConfig
from repro.obs import runtime as obs
from repro.experiments.runner import (
    RunRequest,
    pack_record,
    request_key,
    unpack_record,
)

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_FAILED = "failed"
STATUS_CACHED = "cached"
STATUS_ROLLED_BACK = "rolled_back"

#: deadline multiplier for reference-simulator attempts (it is slower)
REFERENCE_TIMEOUT_FACTOR = 4.0
#: ceiling on one retry's backoff delay for engine sweeps, seconds
BACKOFF_CAP = 30.0


@dataclass(frozen=True)
class EngineConfig:
    """Execution policy for a sweep."""

    jobs: int = 4
    timeout: float = 300.0  # per-attempt wall clock, seconds
    retries: int = 2  # extra attempts after the first, per simulator stage
    backoff_base: float = 0.25  # seconds; 0 disables waiting (tests)
    fallback: bool = True  # degrade to the reference simulator
    seed: int = 0  # jitter seed
    faults: Optional[FaultPlan] = None
    guard: Optional[GuardConfig] = None  # transformation guardrail policy
    jit: str = "auto"  # trace-engine policy workers apply (repro.jit)
    tier: str = "sim"  # analytic tier-0 policy (repro.analysis.predict)

    def lease_policy(self) -> "LeasePolicy":
        """This config as the lease loop's policy."""
        return LeasePolicy(
            timeout=self.timeout,
            retries=self.retries,
            backoff_base=self.backoff_base,
            backoff_cap=BACKOFF_CAP,
            fallback=self.fallback,
            seed=self.seed,
            guard=self.guard.to_record() if self.guard else None,
            jit=self.jit,
            tier=self.tier,
        )


@dataclass
class RunOutcome:
    """Terminal state of one request."""

    request: RunRequest
    status: str
    stats: Optional[CacheStats] = None
    attempts: int = 0
    duration: float = 0.0  # wall clock across all attempts
    error: Optional[str] = None
    guard: Optional[dict] = None  # GuardReport record, when a guard ran
    tier: Optional[str] = None  # where the worker's answer came from
    # ("analytic"/"memory"/"sim"/... — None for failures and old workers)

    @property
    def key(self) -> str:
        return request_key(self.request)


# -- the lease loop -----------------------------------------------------------


@dataclass(frozen=True)
class LeasePolicy:
    """What :func:`run_leases` needs to know about one caller's policy."""

    timeout: float  # per-attempt deadline on the fast engines, seconds
    retries: int  # extra attempts after the first, per simulator stage
    backoff_base: float  # seconds; 0 disables waiting
    backoff_cap: float
    fallback: bool  # one last stage on the reference simulator
    seed: int  # jitter seed
    guard: Optional[dict]  # GuardConfig record workers apply
    jit: str  # trace-engine policy workers apply
    tier: str  # analytic tier-0 policy workers apply


@dataclass
class LeaseTask:
    """One request moving through the lease loop.

    ``key`` is the request key (fault-plan and jitter index); ``label``
    is the caller's opaque id for the task (a run key, a campaign item).
    """

    index: int
    request: RunRequest
    key: str
    label: str
    simulator: str = "fast"
    attempts: int = 0  # attempts started in the current stage
    total_attempts: int = 0  # across stages (fault-plan and jitter index)
    started_at: float = 0.0
    total_time: float = 0.0
    enqueued_at: float = 0.0  # when it last became ready (queue-wait metric)
    fallback_used: bool = False
    last_error: Optional[str] = None


def _ignore(*_args) -> None:
    """Default hook: nothing to record."""


@dataclass
class LeaseHooks:
    """Caller callbacks; every task ends in exactly one of failed/succeeded."""

    leased: Callable = _ignore  # (task, worker_pid, injected_fault_or_None)
    released: Callable = _ignore  # (task, reason): a lease broke
    retry: Callable = _ignore  # (task, delay): re-queued on the same stage
    fallback: Callable = _ignore  # (task): moved to the reference simulator
    failed: Callable = _ignore  # (task): out of attempts
    succeeded: Callable = _ignore  # (task, stats, guard_record, tier)


def backoff(policy: LeasePolicy, task: LeaseTask) -> float:
    """Jittered exponential delay before ``task``'s next attempt.

    Deterministic per (seed, key, attempt), spread across keys, so a
    sweep's retries never stampede in lockstep.
    """
    if policy.backoff_base <= 0:
        return 0.0
    raw = min(policy.backoff_cap, policy.backoff_base * 2 ** (task.attempts - 1))
    return raw * (0.5 + unit_interval(policy.seed, task.key, task.total_attempts))


def run_leases(
    tasks: Sequence[LeaseTask],
    policy: LeasePolicy,
    faults: Optional[FaultPlan],
    hooks: LeaseHooks,
    pool=None,
    jobs: int = 1,
) -> None:
    """Lease every task to workers until each has failed or succeeded.

    Workers come from ``pool`` (a :class:`~repro.engine.pool.WorkerPool`,
    leased for this call and released back warm) or are owned for the
    call.  ``faults`` draws an injected fault per (key, attempt).
    """
    ready = collections.deque(tasks)
    delayed: List = []  # heap of (ready_time, tiebreak, task)
    seq = itertools.count()
    remaining = len(tasks)
    now = time.monotonic()
    for task in tasks:
        task.enqueued_at = now

    def broken(task: LeaseTask, reason: str, exc: EngineError) -> None:
        nonlocal remaining
        now = time.monotonic()
        task.total_time += now - task.started_at
        task.last_error = f"{type(exc).__name__}: {exc}"
        hooks.released(task, reason)
        if task.attempts <= policy.retries:
            delay = backoff(policy, task)
            hooks.retry(task, delay)
            heapq.heappush(delayed, (now + delay, next(seq), task))
        elif policy.fallback and not task.fallback_used:
            task.fallback_used = True
            task.simulator = "reference"
            task.attempts = 0
            hooks.fallback(task)
            heapq.heappush(delayed, (now, next(seq), task))
        else:
            hooks.failed(task)
            remaining -= 1

    def settle(worker: _Worker, msg) -> None:
        nonlocal remaining
        task = worker.task
        worker.task = None
        worker.deadline = float("inf")
        obs.counter_add(
            "repro_engine_worker_busy_seconds_total",
            max(0.0, time.monotonic() - task.started_at),
            "wall-clock seconds each worker slot spent on tasks",
            worker=str(worker.slot),
        )
        if msg[0] == "error":
            broken(task, "error", EngineError(msg[2]))
            return
        if len(msg) > 4 and msg[4] is not None:
            try:
                obs.merge_snapshot(msg[4])
            except Exception:  # never fail a run over metrics
                pass
        stats = validate_payload(msg[2], msg[3])
        if stats is None:
            broken(
                task, "corrupt_payload",
                WorkerCrashed("result payload failed checksum"),
            )
            return
        task.total_time += time.monotonic() - task.started_at
        hooks.succeeded(
            task, stats,
            msg[5] if len(msg) > 5 else None,
            msg[6] if len(msg) > 6 else None,
        )
        remaining -= 1

    def crashed(worker: _Worker, what: Optional[str] = None) -> None:
        task = worker.task
        _replace(workers, worker, ctx)  # reaps it, so the exit code is known
        what = what or f"died (exit code {worker.proc.exitcode})"
        broken(task, "crash", WorkerCrashed(
            f"worker pid {worker.proc.pid} {what} during {task.label}"
        ))

    with _lease_workers(pool, max(1, min(jobs, len(tasks)))) as (ctx, workers):
        while remaining > 0:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                task = heapq.heappop(delayed)[2]
                task.enqueued_at = now
                ready.append(task)
            for worker in workers:
                if worker.task is None and ready:
                    task = ready.popleft()
                    if not _lease(worker, task, policy, faults, hooks):
                        _replace(workers, worker, ctx)
                        broken(
                            task, "dispatch",
                            WorkerCrashed("worker unreachable at dispatch"),
                        )
            busy = [w for w in workers if w.task is not None]
            if not busy:
                if delayed:
                    time.sleep(
                        min(0.25, max(0.001, delayed[0][0] - time.monotonic()))
                    )
                    continue
                break  # pragma: no cover - no work left but remaining>0
            horizon = min(w.deadline for w in busy)
            if delayed:
                horizon = min(horizon, delayed[0][0])
            wait_for = min(0.5, max(0.005, horizon - time.monotonic()))
            for conn in _conn_wait([w.conn for w in busy], timeout=wait_for):
                worker = next((w for w in workers if w.conn is conn), None)
                if worker is None or worker.task is None:
                    continue  # worker was replaced or already handled
                try:
                    msg = worker.conn.recv()
                except (EOFError, OSError):
                    crashed(worker)
                    continue
                except Exception as exc:
                    # A message arrived but cannot be decoded (torn pipe
                    # write, scribbled memory): same containment as a
                    # crash — replace the worker, retry the task.
                    crashed(
                        worker, "shipped an undecodable message "
                        f"({type(exc).__name__}: torn write?)",
                    )
                    continue
                settle(worker, msg)
            # deadline + liveness sweep: a lease is only as live as its
            # worker process and its deadline.  EOF alone is not enough —
            # any process holding a copy of the worker's pipe end (one
            # forked while the pipe was being set up) hides the death.
            now = time.monotonic()
            for worker in list(workers):
                task = worker.task
                if task is None:
                    continue
                if now >= worker.deadline:
                    budget = worker.deadline - task.started_at
                    _replace(workers, worker, ctx)
                    broken(task, "timeout", RunTimeout(
                        f"run {task.label} exceeded {budget:.1f}s; "
                        "worker killed"
                    ))
                elif not worker.proc.is_alive():
                    crashed(worker)


def _lease(worker, task: LeaseTask, policy: LeasePolicy, faults, hooks) -> bool:
    """Hand ``task`` to an idle worker; False if the worker is unreachable."""
    task.attempts += 1
    task.total_attempts += 1
    timeout = policy.timeout * (
        REFERENCE_TIMEOUT_FACTOR if task.simulator == "reference" else 1.0
    )
    injected, fault = _fault(faults, task, timeout)
    task.started_at = time.monotonic()
    worker.task = task
    worker.deadline = task.started_at + timeout
    collect = obs.is_enabled()
    if collect:
        obs.observe(
            "repro_engine_queue_wait_seconds",
            max(0.0, task.started_at - task.enqueued_at),
            "time tasks sat ready before a worker picked them up",
        )
    hooks.leased(task, worker.proc.pid, injected)
    try:
        worker.conn.send(
            (
                "task", task.index, task.request, task.simulator, fault,
                collect, policy.guard, policy.jit, policy.tier,
            )
        )
    except (BrokenPipeError, OSError):  # pragma: no cover - instant death
        worker.task = None
        worker.deadline = float("inf")
        return False
    return True


def _fault(faults, task: LeaseTask, timeout: float):
    """``(injected kind or None, worker fault tuple or None)`` for an attempt."""
    if faults is None:
        return None, None
    injected = faults.decide(task.key, task.total_attempts)
    if injected is None:
        return None, None
    param = None
    if injected == "timeout":  # hang well past the deadline
        param = timeout * 3 + 1.0
    elif injected == "layout":
        param = choose_corruption(faults.seed, task.key, task.total_attempts)
    elif injected == "slow":
        param = faults.slow_s
    return injected, (injected, param)


def _replace(workers: List[_Worker], dead: _Worker, ctx) -> None:
    dead.kill()
    workers[workers.index(dead)] = _Worker(ctx, slot=dead.slot)


class _Worker:
    """One subprocess plus its pipe and current assignment."""

    def __init__(self, ctx, slot: int = 0):
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=worker_main, args=(child,), daemon=True)
        self.proc.start()
        child.close()
        self.task: Optional[LeaseTask] = None
        self.deadline = float("inf")
        self.slot = slot  # stable identity across replacements

    def kill(self) -> None:
        try:
            self.proc.kill()
            self.proc.join(5)
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass

    def stop(self) -> None:
        """Polite shutdown for an idle worker."""
        try:
            self.conn.send(("stop",))
            self.proc.join(2)
        except (OSError, ValueError):
            pass
        self.kill()  # signals only a stubborn worker; closes the pipe


# -- the engine: one sweep, one outcome per request ---------------------------


class ExperimentEngine:
    """Run simulation requests in parallel, surviving worker failure.

    ``pool`` is an optional :class:`~repro.engine.pool.WorkerPool`: with
    one, workers are leased warm for each sweep and released back alive
    when it finishes, so a long-lived caller (``repro serve``) pays the
    subprocess spawn cost once, not per micro-batch.  Without one, each
    :meth:`run_many` spawns and tears down its own workers.
    """

    def __init__(self, config: Optional[EngineConfig] = None, pool=None):
        self.config = config or EngineConfig()
        self.pool = pool

    def run_many(
        self,
        requests: Sequence[RunRequest],
        store=None,
        journal=None,
    ) -> List[RunOutcome]:
        """Execute every request; one outcome per input, in input order.

        ``store`` is a :class:`~repro.engine.store.CrashSafeStore` (or
        anything with get/put of packed records): hits short-circuit to
        ``cached`` outcomes and new results are persisted as they finish,
        which is what makes a killed sweep resumable.  ``journal`` is a
        :class:`~repro.engine.journal.RunJournal`.
        """
        journal = journal or NullJournal()
        outcomes: Dict[str, RunOutcome] = {}
        tasks: List[LeaseTask] = []
        scheduled = set()
        for request in requests:
            key = request_key(request)
            if key in outcomes or key in scheduled:
                continue
            scheduled.add(key)
            record = store.get(key) if store is not None else None
            try:
                cached = None if record is None else unpack_record(record)
            except (TypeError, KeyError):
                cached = None  # malformed entry: re-run it
            if cached is not None:
                stats, status = cached
                outcomes[key] = RunOutcome(request, STATUS_CACHED, stats)
                obs.counter_add(
                    "repro_engine_outcomes_total", 1,
                    "terminal run outcomes, by status", status=STATUS_CACHED,
                )
                journal.emit(
                    "finish", run=key, status=STATUS_CACHED,
                    stored_status=status, attempts=0, duration=0.0,
                )
            else:
                tasks.append(LeaseTask(len(tasks), request, key, label=key))
        if tasks:
            cfg = self.config
            with obs.span("engine.execute", tasks=len(tasks)):
                run_leases(
                    tasks, cfg.lease_policy(), cfg.faults,
                    self._hooks(outcomes, store, journal),
                    pool=self.pool, jobs=cfg.jobs,
                )
        return [outcomes[request_key(r)] for r in requests]

    def _hooks(self, outcomes, store, journal) -> LeaseHooks:
        """Journal, count and persist the sweep's lease events."""

        def finish(
            task: LeaseTask, status: str, stats=None, guard=None, tier=None
        ) -> None:
            duration = round(task.total_time, 6)
            error = task.last_error if status == STATUS_FAILED else None
            outcomes[task.key] = RunOutcome(
                task.request, status, stats, attempts=task.total_attempts,
                duration=duration, error=error, guard=guard, tier=tier,
            )
            journal.emit(
                "finish", run=task.key, status=status,
                attempts=task.total_attempts, duration=duration,
                **({"error": error} if error else {}),
                **({"tier": tier} if tier else {}),
            )
            if stats is not None and store is not None:
                store.put(task.key, pack_record(stats, status))
            obs.counter_add(
                "repro_engine_outcomes_total", 1,
                "terminal run outcomes, by status", status=status,
            )

        def leased(task: LeaseTask, pid: int, injected) -> None:
            obs.counter_add(
                "repro_engine_attempts_total", 1,
                "task attempts dispatched to workers",
                simulator=task.simulator,
            )
            journal.emit(
                "start", run=task.key, attempt=task.total_attempts,
                simulator=task.simulator, worker=pid,
                **({"injected": injected} if injected else {}),
            )

        def retry(task: LeaseTask, delay: float) -> None:
            obs.counter_add(
                "repro_engine_retries_total", 1,
                "attempts re-queued after a failure",
            )
            journal.emit(
                "retry", run=task.key, attempt=task.total_attempts,
                delay=round(delay, 3), reason=task.last_error,
            )

        def fallback(task: LeaseTask) -> None:
            obs.counter_add(
                "repro_engine_fallbacks_total", 1,
                "runs degraded to the reference simulator",
            )
            journal.emit(
                "fallback", run=task.key, simulator="reference",
                reason=task.last_error,
            )

        def succeeded(task: LeaseTask, stats, guard_record, tier) -> None:
            # Re-journal the worker's guard verdict parent-side so it
            # survives a crash: the worker's own guard sinks die with it.
            status = STATUS_DEGRADED if task.simulator == "reference" else STATUS_OK
            for violation in (guard_record or {}).get("violations", ()):
                journal.emit("guard_violation", run=task.key, **violation)
                obs.counter_add(
                    "repro_guard_violations_total", 1,
                    "guard violations detected, by kind and checker",
                    kind=violation.get("kind", "?"),
                    checker=violation.get("checker", "?"),
                )
            if guard_record and guard_record.get("status") == "rolled_back":
                status = STATUS_ROLLED_BACK
                journal.emit(
                    "guard_rollback", run=task.key,
                    baseline_miss_pct=guard_record.get("baseline_miss_pct"),
                    padded_miss_pct=guard_record.get("padded_miss_pct"),
                )
                obs.counter_add(
                    "repro_guard_rollbacks_total", 1,
                    "transformed runs rolled back to the original layout",
                )
            finish(task, status, stats=stats, guard=guard_record, tier=tier)

        return LeaseHooks(
            leased=leased, retry=retry, fallback=fallback,
            failed=lambda task: finish(task, STATUS_FAILED),
            succeeded=succeeded,
        )


def validate_payload(payload, digest) -> Optional[CacheStats]:
    """Rebuild stats from a worker payload iff it matches its checksum.

    A worker whose memory was scribbled on (or an injected ``corrupt``
    fault) produces a payload that no longer matches the digest computed
    before shipping, and must be retried, never stored.
    """
    if not isinstance(payload, dict) or checksum(payload) != digest:
        return None
    try:
        stats = CacheStats(**payload)
    except TypeError:
        return None
    if stats.accesses < 0 or stats.misses < 0 or stats.misses > stats.accesses:
        return None
    return stats


@contextlib.contextmanager
def _lease_workers(pool, count: int):
    """``(ctx, workers)`` for one :func:`run_leases` call.

    The pool's ``leased()`` takes back the (in-place mutated) worker list
    however the call ends — so replacements go back warm and an exception
    never leaks leases; owned workers are shut down the same way.
    """
    if pool is not None:
        with pool.leased(count) as workers:
            yield pool.ctx, workers
        return
    ctx = _mp_context()
    workers = [_Worker(ctx, slot=i) for i in range(count)]
    try:
        yield ctx, workers
    finally:  # stop idle workers, kill mid-task ones
        for worker in workers:
            if worker.task is None:
                worker.stop()
            else:  # pragma: no cover - aborted sweep
                worker.kill()


def _mp_context():
    """Fork where available (cheap workers); spawn elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context("spawn")
