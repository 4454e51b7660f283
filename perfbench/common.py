"""Helpers shared by the workloads: paths, processes, memory, statistics."""

from __future__ import annotations

import os
import pathlib
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Sequence

ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"
HERE = pathlib.Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

#: the 12-program subset of the paper suite (benchmarks/common.py)
SUBSET_PROGRAMS = (
    "adi", "dot", "jacobi", "chol", "dgefa", "expl",
    "shal", "tomcatv", "swim", "irr", "fftpde", "mgrid",
)
JOBS = 2


def program_env() -> Dict[str, str]:
    """Environment for a program subprocess: the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def use_sources() -> None:
    """Make ``import repro`` load the checkout's sources in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def repro_cmd(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail(values: Sequence[float]) -> float:
    """The highest percentile, up to p90, that leaves at least ten samples
    beyond it: p90 from 100 samples on, lower for fewer."""
    count = len(values)
    return percentile(values, max(0.0, min(90.0, 100.0 * (count - 10) / count))
                      if count else 0.0)


def _tree_hwm(root: int) -> int:
    """Largest resident high-water mark among ``root`` and its descendants."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        parents[int(entry)] = int(stat[stat.rfind(")") + 2:].split()[1])
    members = {root}
    grew = True
    while grew:
        grew = False
        for pid, ppid in parents.items():
            if ppid in members and pid not in members:
                members.add(pid)
                grew = True
    peak = 0
    for pid in members:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) << 10)
                        break
        except OSError:
            continue
    return peak


class RssSampler:
    """Peak resident memory of any one process of a tree (its VmHWM),
    sampled every 50 ms while the tree runs."""

    def __init__(self, pid: int, interval: float = 0.05):
        self.pid = pid
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, _tree_hwm(self.pid))
            self._stop.wait(self.interval)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _tree_hwm(self.pid))

    @property
    def peak_mb(self) -> float:
        return self.peak / (1 << 20)


def run_program(args: List[str], timeout: float) -> dict:
    """Run one program command to completion; wall time, output, peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=program_env(), cwd=str(ROOT), start_new_session=True,
    )
    code = None
    try:
        with RssSampler(proc.pid) as rss:
            try:
                out, err = proc.communicate(timeout=timeout)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                stop_group(proc)
                out, err = proc.communicate()
        wall = time.perf_counter() - start
    finally:
        stop_group(proc)
    return {"code": code, "wall": wall, "stdout": out, "stderr": err,
            "rss_mb": rss.peak_mb}


def stop_group(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Kill whatever is left of a program's process group and wait until
    every member has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    give_up = time.monotonic() + timeout
    while time.monotonic() < give_up:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


class Tally:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def counter_value(snapshot: dict, name: str, **labels) -> float:
    """Sum of a counter family's samples whose labels include ``labels``."""
    total = 0.0
    for entry in snapshot.get("counters", ()):
        if entry["name"] != name:
            continue
        if all(entry["labels"].get(k) == v for k, v in labels.items()):
            total += entry["value"]
    return total


def counter_metrics(snapshot: dict) -> Dict[str, float]:
    """The program's own counters, reported beside the span metrics."""
    deopt = counter_value(snapshot, "repro_jit_deopt_total")
    compiled = counter_value(snapshot, "repro_jit_compiled_total")
    nests = deopt + compiled
    return {
        "count.sim_accesses_direct": counter_value(
            snapshot, "repro_sim_accesses_total", engine="fast_direct"),
        "count.sim_accesses_assoc": counter_value(
            snapshot, "repro_sim_accesses_total", engine="fast_assoc"),
        "count.jit_nests": nests,
        "jit.deopt_share": deopt / nests if nests else 0.0,
        "count.predict_requests": counter_value(
            snapshot, "repro_predict_requests_total"),
        "count.predict_bailouts": counter_value(
            snapshot, "repro_predict_bailouts_total"),
        "count.memo_hits": counter_value(snapshot, "repro_runner_memo_hits_total"),
        "engine.retries": counter_value(snapshot, "repro_engine_retries_total"),
        "engine.fallbacks": counter_value(snapshot, "repro_engine_fallbacks_total"),
    }
