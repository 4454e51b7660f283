"""The ``serve_mixed`` workload: a mixed closed-loop load on ``repro serve``.

Each round starts a server (the set-up), sends the seeded requests, in
the round's own order, from two closed-loop clients (the cold pass),
re-sends the requests whose answers the service memoizes (the warm pass)
and stops the server.  Every response body is checked afterwards:
simulations of registered programs against golden stats, everything
else against the handler called directly in this process.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import signal
import subprocess
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import (
    JOBS, ROOT, SUBSET_PROGRAMS, RssSampler, Tally, counter_metrics,
    counter_value, median, percentile, program_env, repro_cmd, stop_group,
    tail, use_sources,
)

INTERACTIVE = ("pad", "lint", "simulate_source")
BATCH = ("simulate_program", "optimize", "run")
ENDPOINTS = INTERACTIVE + BATCH
#: endpoints whose answers the service memoizes: re-sent in the warm pass
CACHEABLE = ("simulate_source", "simulate_program", "run")
PATHS = {
    "pad": "/v1/pad", "lint": "/v1/lint", "simulate_source": "/v1/simulate",
    "simulate_program": "/v1/simulate", "optimize": "/v1/optimize",
    "run": "/v1/run",
}
CLIENTS = 2
#: direct-mapped geometries and heuristics of the simulate-by-name requests
PROGRAM_CACHES = ("8K", "16K", "32K")
PROGRAM_HEURISTICS = ("original", "pad", "padlite")
#: the two sizes of each kernel's inline-source requests; erle's lint
#: replays every access in the predictor, so its sizes are smaller
SIZES = {"erle": (8, 16), "irr": (1024, 4096)}
DEFAULT_SIZES = (24, 48)
REQUEST_TIMEOUT = 60.0
#: the least number of rounds a run makes; each sends the requests in
#: its own order, so the latencies pool three orders of the same work
ROUNDS = 3
#: the server's processes are long-lived, so their high-water marks can
#: be sampled slowly, which keeps the sampler off the clients' GIL
RSS_INTERVAL = 0.25

_PARAM = re.compile(r"^\s*param\s+(\w+)\s*=", re.MULTILINE)


def golden_key(program: str, heuristic: str, cache: str) -> str:
    return f"{program}|{heuristic}|{cache}"


def build_sequence(seed: int, round_no: int = 0) -> List[Tuple[str, dict]]:
    """The seeded request sequence: (endpoint, JSON body) pairs.

    Every seed sends the same requests in kind and size: each kernel
    gets two requests per interactive endpoint, one at its small and one
    at its large size (a pad request asks for lint at the small one), one
    per cache geometry and heuristic.  Each registered program is
    simulated by name twice, in the same order both times, so the second
    is answered from the memo; each ``/v1/run`` batch simulates three
    other programs afresh.  The by-name requests rotate through the
    heuristics and geometries alike for every seed: a seeded choice of
    them moved the latency tail by a quarter from one seed to another.
    The seed pairs the interactive sizes with geometries and heuristics;
    the seed and ``round_no`` order each endpoint's requests, so the
    rounds of a run send the same requests in different orders.
    """
    use_sources()
    from repro.bench.sources import KERNEL_SOURCES
    from repro.optimize.corpus import CORPUS

    rng = random.Random(seed)
    groups: Dict[str, List[Tuple[str, dict]]] = {e: [] for e in ENDPOINTS}
    for kernel, source in sorted(KERNEL_SOURCES.items()):
        param = _PARAM.search(source).group(1)
        sizes = SIZES.get(kernel, DEFAULT_SIZES)
        for endpoint in INTERACTIVE:
            caches = rng.sample(("8K", "16K"), 2)
            heuristics = rng.sample(("pad", "padlite"), 2)
            for i, size in enumerate(sizes):
                body = {"source": source, "params": {param: size},
                        "cache": {"size": caches[i]}}
                if endpoint != "lint":
                    body["heuristic"] = heuristics[i]
                if endpoint == "pad":
                    body["lint"] = i == 0
                groups[endpoint].append((endpoint, body))
    for kernel in CORPUS:
        groups["optimize"].append(("optimize", {
            "source": kernel.source, "params": dict(kernel.params),
            "cache": {"size": kernel.cache_bytes, "line": kernel.line_bytes},
            "m_lines": kernel.m_lines, "heuristic": kernel.heuristic,
            "beam": 2, "budget": 8,
        }))
    for index, program in enumerate(SUBSET_PROGRAMS):
        groups["simulate_program"].append(("simulate_program", {
            "program": program, "heuristic": _rotate(PROGRAM_HEURISTICS, index),
            "cache": {"size": _rotate(PROGRAM_CACHES, index // 3)},
        }))
    for first in range(0, len(SUBSET_PROGRAMS), 3):
        groups["run"].append(("run", {
            "items": [{"program": SUBSET_PROGRAMS[index],
                       "heuristic": _rotate(PROGRAM_HEURISTICS, index + 1)}
                      for index in range(first, first + 3)],
            "cache": {"size": _rotate(PROGRAM_CACHES, first // 3 + 1)},
        }))
    order = random.Random(f"{seed}/{round_no}")
    for items in groups.values():
        order.shuffle(items)
    groups["simulate_program"] *= 2
    return interleave(groups)


def _rotate(options, index):
    return options[index % len(options)]


def interleave(groups: Dict[str, list]):
    """Spread every endpoint's requests evenly over the sequence, in
    their order, so every seed offers the same load over time."""
    placed = []
    for endpoint in ENDPOINTS:
        items = groups[endpoint]
        placed += [((k + 0.5) / len(items), item) for k, item in enumerate(items)]
    placed.sort(key=lambda pair: pair[0])
    return [item for _position, item in placed]


class Server:
    """A ``repro serve`` subprocess in its own process group."""

    def __init__(self):
        self.proc: Optional[subprocess.Popen] = None
        self.host = self.port = None

    def start(self, timeout: float = 60.0) -> float:
        """Start and wait until ``/readyz`` answers 200; return the time."""
        begin = time.perf_counter()
        self.proc = subprocess.Popen(
            repro_cmd("serve", "--port", "0", "--workers", str(JOBS),
                      "--engine-jobs", str(JOBS)),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=program_env(), cwd=str(ROOT), start_new_session=True,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if not match:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        while time.perf_counter() - begin < timeout:
            try:
                status, _body = self.request("GET", "/readyz", None, timeout=5)
                if status == 200:
                    return time.perf_counter() - begin
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("repro serve never became ready")

    def request(self, method, path, body, timeout=REQUEST_TIMEOUT, conn=None):
        own = conn is None
        conn = conn or http.client.HTTPConnection(self.host, self.port,
                                                  timeout=timeout)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            if own:
                conn.close()

    def stop(self) -> None:
        if self.proc is None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        stop_group(self.proc)
        self.proc.stdout.close()
        self.proc = None


def send_all(server: Server, sequence) -> List[dict]:
    """Closed loop: each client sends its next request once answered."""
    results: List[Optional[dict]] = [None] * len(sequence)
    cursor = iter(range(len(sequence)))
    lock = threading.Lock()

    def client():
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=REQUEST_TIMEOUT)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                endpoint, body = sequence[index]
                begin = time.perf_counter()
                try:
                    status, raw = server.request("POST", PATHS[endpoint], body,
                                                 conn=conn)
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    conn = http.client.HTTPConnection(
                        server.host, server.port, timeout=REQUEST_TIMEOUT)
                    status, raw = None, str(exc).encode()
                results[index] = {"status": status, "body": raw,
                                  "seconds": time.perf_counter() - begin}
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def _handle(endpoint: str, body: dict, runner):
    """The in-process answer the service should give for one request."""
    from repro.serve import handlers, schemas

    if endpoint == "pad":
        return handlers.handle_pad(schemas.validate_pad(body))
    if endpoint == "lint":
        return handlers.handle_lint(schemas.validate_lint(body))
    if endpoint == "simulate_source":
        return handlers.handle_simulate_source(schemas.validate_simulate(body))
    if endpoint == "optimize":
        return handlers.handle_optimize(schemas.validate_optimize(body))
    if endpoint == "simulate_program":
        request = schemas.validate_simulate(body)
        stats = runner.run(request.program, request.heuristic, request.cache,
                           size=request.size, m_lines=request.m_lines)
        return {"stats": handlers.stats_record(stats)}
    request = schemas.validate_run(body)
    return {"outcomes": [
        {"stats": handlers.stats_record(runner.run(
            item["program"], item["heuristic"], request.cache,
            size=item["size"], m_lines=item["m_lines"]))}
        for item in request.items
    ]}


def _normal(value):
    return json.loads(json.dumps(value))


def check_response(endpoint: str, body: dict, result: dict, expected,
                   golden: Dict[str, dict]) -> Optional[str]:
    """None when the response is right, else why it is wrong."""
    if result["status"] != 200:
        return f"HTTP {result['status']}: {result['body'][:200]!r}"
    try:
        answer = json.loads(result["body"])
    except ValueError:
        return "response is not JSON"
    if answer.get("degraded"):
        return "degraded answer"
    if endpoint == "simulate_program":
        key = golden_key(body["program"], body["heuristic"], body["cache"]["size"])
        if answer.get("status") not in ("ok", "cached"):
            return f"status {answer.get('status')}"
        return None if answer.get("stats") == golden.get(key) else f"stats of {key}"
    if endpoint == "run":
        for item, record in zip(body["items"], answer.get("outcomes", ())):
            key = golden_key(item["program"], item["heuristic"],
                             body["cache"]["size"])
            if record.get("stats") != golden.get(key) or record.get(
                    "status") not in ("ok", "cached"):
                return f"run item {key}"
        return None if len(answer.get("outcomes", ())) == len(body["items"]) \
            else "run outcome count"
    return None if answer == expected else "body differs from the handler's"


def check_all(passes, golden, tally: Tally, expected=None) -> None:
    """Check every response of every pass.  ``expected`` maps a request,
    as sorted JSON, to its in-process answer; missing ones are computed."""
    cache = dict(expected or {})
    for sequence, results in passes:
        for index, ((endpoint, body), result) in enumerate(zip(sequence, results)):
            want = None
            if endpoint not in ("simulate_program", "run"):
                token = json.dumps([endpoint, body], sort_keys=True)
                if token not in cache:
                    cache[token] = _normal(_handle(endpoint, body, None))
                want = cache[token]
            why = check_response(endpoint, body, result, want, golden)
            tally.check(why is None, f"{endpoint}: {why}")


def latency_metrics(sequence, results) -> Dict[str, float]:
    """Per-class and per-endpoint client latency percentiles."""
    by: Dict[str, List[float]] = {}
    for (endpoint, _body), result in zip(sequence, results):
        kind = "interactive" if endpoint in INTERACTIVE else "batch"
        for key in (endpoint, kind):
            by.setdefault(key, []).append(1000 * result["seconds"])
    metrics = {}
    for key in ENDPOINTS + ("interactive", "batch"):
        values = by.get(key, [])
        metrics[f"serve.{key}.p50_ms"] = percentile(values, 50)
        metrics[f"serve.{key}.p90_ms"] = percentile(values, 90)
        metrics[f"serve.{key}.samples"] = len(values)
    return metrics


def run(seed: int, seconds: float, goldens: dict, deadline: float) -> dict:
    tally = Tally()
    setups, colds, warms, rss, latencies, passes = [], [], [], [], [], []
    start = time.perf_counter()
    rounds = 0
    while rounds < ROUNDS or time.perf_counter() - start < seconds:
        sequence = build_sequence(seed, rounds)
        warm_sequence = [item for item in sequence if item[0] in CACHEABLE]
        server = Server()
        try:
            setups.append(server.start())
            with RssSampler(server.proc.pid, RSS_INTERVAL) as sampler:
                begin = time.perf_counter()
                cold = send_all(server, sequence)
                colds.append(time.perf_counter() - begin)
                begin = time.perf_counter()
                warm = send_all(server, warm_sequence)
                warms.append(time.perf_counter() - begin)
        finally:
            server.stop()
        rss.append(sampler.peak_mb)
        latencies += [r["seconds"] for r in cold]
        passes += [(sequence, cold), (warm_sequence, warm)]
        rounds += 1
        if deadline - time.perf_counter() < 3 * (colds[-1] + warms[-1]):
            break
    check_all(passes, goldens["simulate_program"], tally)
    metrics = {
        "setup_s": (median(setups), "s"),
        "cold_s": (median(colds), "s"),
        "warm_s": (median(warms), "s"),
        "p50_ms": (1000 * percentile(latencies, 50), "ms"),
        "tail_ms": (1000 * tail(latencies), "ms"),
        "peak_rss_mb": (median(rss), "MB"),
    }
    info = {"rounds": rounds, "requests": len(sequence),
            "warm_requests": len(warm_sequence), "latency_samples": len(latencies)}
    return {"metrics": metrics, "tally": tally, "info": info}


def run_traced(seed: int, goldens: dict) -> dict:
    """One real round for client latencies and the ``/metrics`` scrape,
    then a serial in-process replay of the handlers with spans."""
    use_sources()
    from repro.experiments.runner import Runner
    from repro.obs.export import parse_prometheus

    from spans import Recorder, instrumented, layer_metrics

    sequence = build_sequence(seed)
    tally = Tally()
    server = Server()
    try:
        server.start()
        begin = time.perf_counter()
        cold = send_all(server, sequence)
        cold_s = time.perf_counter() - begin
        _status, raw = server.request("GET", "/metrics", None)
    finally:
        server.stop()
    snapshot = parse_prometheus(raw.decode())

    rec = Recorder()
    plain_runner, traced_runner = Runner(), Runner()
    plain_s = traced_s = 0.0
    expected = {}
    for index, (endpoint, body) in enumerate(sequence):
        order = (False, True) if index % 2 == 0 else (True, False)
        answers = {}
        for with_spans in order:
            if with_spans:
                rec.request = str(index)
                with instrumented(rec):
                    begin = time.perf_counter()
                    with rec.span(f"serve.{endpoint}"):
                        answers[True] = _handle(endpoint, body, traced_runner)
                    traced_s += time.perf_counter() - begin
                rec.request = None
            else:
                begin = time.perf_counter()
                answers[False] = _handle(endpoint, body, plain_runner)
                plain_s += time.perf_counter() - begin
        expected[json.dumps([endpoint, body], sort_keys=True)] = _normal(answers[True])
        tally.check(_normal(answers[True]) == _normal(answers[False]),
                    f"{endpoint}: traced and untraced answers differ")
    check_all([(sequence, cold)], goldens["simulate_program"], tally, expected)

    metrics = layer_metrics(rec, traced_s)
    metrics.update(latency_metrics(sequence, cold))
    metrics.update(counter_metrics(snapshot))
    hits = metrics["count.memo_hits"]
    misses = counter_value(snapshot, "repro_runner_memo_misses_total")
    client_s = sum(r["seconds"] for r in cold)
    metrics.update({
        "serve_rps": len(sequence) / cold_s,
        "serve.handler_share": plain_s / client_s if client_s else 0.0,
        "serve.memo_hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "serve.rejected": counter_value(snapshot, "repro_serve_requests_total",
                                        code="429")
        + counter_value(snapshot, "repro_serve_requests_total", code="504"),
        "count.serve_requests": counter_value(snapshot, "repro_serve_requests_total"),
        "tracing_overhead": traced_s / plain_s - 1 if plain_s else 0.0,
    })
    return {"metrics": metrics, "tally": tally, "recorder": rec,
            "info": {"requests": len(sequence), "cold_s": cold_s,
                     "replay_plain_s": plain_s, "replay_traced_s": traced_s}}
