"""Server processes and the closed-loop HTTP clients of the serve workloads."""

from __future__ import annotations

import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.store.client import ServiceClient

from perfbench import promtext
from perfbench.tracing import ROOT_LAYER, Tracer

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
ROOT = os.path.dirname(os.path.dirname(LAUNCHER))

#: Client connections driving a serve workload (one keep-alive each).
CLIENTS = 2
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
REQUEST_TIMEOUT_S = 120.0
RSS_INTERVAL_S = 0.05


class ServerProcess:
    """One launcher process serving a store directory; a context manager.

    Leaving the ``with`` block (or :meth:`stop`) drains the server with
    SIGTERM and waits for it; a server that does not stop in time is
    killed. Its stdin is a pipe closed only after it has exited, so a
    benchmark that dies without stopping it takes it down too.
    """

    def __init__(self, store: str, log_path: str, trace_out: Optional[str] = None):
        command = [sys.executable, LAUNCHER, "--store", store]
        if trace_out:
            command += ["--trace-out", trace_out]
        self.store = store
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            command,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=self._log,
            stdin=subprocess.PIPE,
            text=True,
        )
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"server did not announce its address: {line!r}")
        return int(match.group(1))

    def client(self) -> ServiceClient:
        return ServiceClient(port=self.port, timeout=REQUEST_TIMEOUT_S)

    def metrics(self) -> promtext.Samples:
        with self.client() as client:
            return promtext.parse(client.metrics())

    def stop(self, drain: bool = True) -> None:
        """Reap the server: drained by SIGTERM, or killed when *drain* is
        false or the drain does not end in time."""
        try:
            if drain and self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdin.close()
            self.proc.stdout.close()
            self._log.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class RssSampler:
    """Samples a process's resident set size while a timed window runs.

    A thread reads ``/proc/<pid>/statm`` every :data:`RSS_INTERVAL_S`;
    :meth:`peak_mb` reports the median over windows of each window's
    highest sample, so one unlucky coincidence of allocations does not set
    the result.
    """

    def __init__(self, pid: int) -> None:
        self._path = f"/proc/{pid}/statm"
        self._page = os.sysconf("SC_PAGE_SIZE")
        self.samples: List[tuple] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                with open(self._path, encoding="ascii") as handle:
                    pages = int(handle.read().split()[1])
            except (OSError, ValueError, IndexError):
                return
            self.samples.append((time.perf_counter(), pages * self._page / 2**20))
            self._stop.wait(RSS_INTERVAL_S)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def peak_mb(self, windows: List[tuple]) -> float:
        """Median over ``(start, end)`` *windows* of the highest sample in each."""
        peaks = [
            max(rss for at, rss in self.samples if start <= at < end)
            for start, end in windows
            if any(start <= at < end for at, _ in self.samples)
        ]
        return statistics.median(peaks)


@dataclass
class Request:
    """One HTTP request: a ``/v1/batch`` of units or one ``/v1/evolve`` chain."""

    route: str
    units: List[Dict[str, Any]]


@dataclass
class Outcome:
    request: Request
    request_id: str
    latency_s: float
    finished: float = 0.0
    server_s: Optional[float] = None
    results: List[Optional[Dict[str, Any]]] = field(default_factory=list)
    error: Optional[str] = None


def _exchange(client: ServiceClient, request: Request, request_id: str):
    if request.route == "evolve":
        unit = request.units[0]
        return client.evolve_stream(unit["source"], unit["spec"], request_id=request_id)
    return client.batch_stream(request.units, request_id=request_id)


def _read_outcome(request: Request, records: List[Dict[str, Any]], outcome: Outcome):
    """Fill *outcome* from a response stream; protocol violations are errors."""
    done = [record for record in records if record.get("status") == "done"]
    if len(done) != 1:
        outcome.error = "stream without exactly one done record"
        return
    outcome.server_s = done[0].get("elapsed_seconds")
    failures = [r for r in records if r.get("status") in ("error", "aborted")]
    if failures:
        outcome.error = json.dumps(failures[0].get("error"))
        return
    if request.route == "evolve":
        outcome.results = [r["snapshot"] for r in records if r.get("status") == "ok"]
        if done[0].get("count") != len(outcome.results) or not outcome.results:
            outcome.error = "evolve stream count mismatch"
        return
    outcome.results = [None] * len(request.units)
    for record in records:
        if record.get("status") == "ok":
            outcome.results[record["index"]] = record["result"]
    if done[0].get("ok") != len(request.units) or None in outcome.results:
        outcome.error = "batch stream missing results"


def closed_loop(
    port: int,
    sources: List[Iterator[Request]],
    seconds: float,
    tracer: Optional[Tracer] = None,
) -> Dict[str, Any]:
    """Drive one client thread per source until *seconds* have passed.

    Each client waits for the whole response before sending its next
    request (a closed loop). Returns the outcomes in completion order, the
    start and elapsed wall time and the clients' retry count.
    """
    outcomes: List[Outcome] = []
    failures: List[BaseException] = []
    retries = [0] * len(sources)
    lock = threading.Lock()
    barrier = threading.Barrier(len(sources) + 1)
    deadline: List[float] = []

    def drive(index: int) -> None:
        with ServiceClient(port=port, timeout=REQUEST_TIMEOUT_S) as client:
            barrier.wait()
            number = 0
            while time.perf_counter() < deadline[0]:
                request = next(sources[index])
                request_id = f"c{index}-{number}"
                number += 1
                outcome = Outcome(request, request_id, 0.0)
                if tracer is None:
                    _run_one(client, request, request_id, outcome)
                else:
                    with tracer.span("request", ROOT_LAYER, request_id=request_id):
                        with tracer.span("client.request", "client", request_id=request_id):
                            _run_one(client, request, request_id, outcome)
                with lock:
                    outcomes.append(outcome)
            retries[index] = client.counters.retries

    def guarded(index: int) -> None:
        try:
            drive(index)
        except BaseException as error:  # re-raised by the caller after join
            failures.append(error)
            barrier.abort()

    threads = [
        threading.Thread(target=guarded, args=(index,), daemon=True)
        for index in range(len(sources))
    ]
    for thread in threads:
        thread.start()
    started = time.perf_counter()
    deadline.append(started + seconds)
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return {
        "outcomes": outcomes,
        "started": started,
        "elapsed_s": time.perf_counter() - started,
        "retries": sum(retries),
    }


def _run_one(client: ServiceClient, request: Request, request_id: str, outcome: Outcome):
    started = time.perf_counter()
    try:
        records = list(_exchange(client, request, request_id))
    except Exception as error:  # noqa: BLE001 - a failed request is a measured outcome
        outcome.error = f"{type(error).__name__}: {error}"
        records = None
    outcome.finished = time.perf_counter()
    outcome.latency_s = outcome.finished - started
    if records is not None:
        _read_outcome(request, records, outcome)
