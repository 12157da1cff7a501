"""Execution backends for the batch-serving driver (:mod:`repro.store.serve`).

A deduplicated batch is a list of independent *units* — one ``(dataset,
spec)`` computation each — and an executor decides how they run:

* :class:`SerialExecutor` — in the calling thread, one after another; the
  reference semantics every other backend must reproduce **bit-identically**
  (for exact and integer-seeded specs).
* :class:`ThreadExecutor` — a thread pool over the server's own engine pool.
  Units on *different* datasets overlap (NumPy kernels release the GIL);
  units on the same dataset serialize on that engine's lock, so engines
  never race on their internal caches.
* :class:`ProcessExecutor` — real CPU parallelism. Following the pattern of
  :mod:`repro.counting.parallel`, workers are shipped **CSR arrays and spec
  dicts, never pickled engines**: the parent resolves each dataset once,
  hands over the hyperedge rows of its canonical CSR view plus the spec's
  plain-dict form, and the worker rebuilds the hypergraph, runs a private
  engine and returns the typed result.

Why the CSR rebuild is safe: every counting path runs on the CSR view, whose
dense node ids come from the hypergraph's deterministic node ordering, and
null-model draws index nodes by sorted position — none of it depends on node
*label values* (which is also why :func:`~repro.store.fingerprint.csr_fingerprint`
ignores them). Rebuilding with dense integer labels therefore reproduces
every exact and integer-seeded result bit-for-bit, and the rebuilt
hypergraph's fingerprint equals the original's — so worker processes persist
artifacts under the *same* store keys. Workers given a persistent store
directory open their own :class:`~repro.store.ArtifactStore` over it; the
store's interprocess write locking makes those concurrent same-directory
writers safe.

Pool lifetime is decoupled from batch dispatch: by default an executor opens
a fresh worker pool per ``map``/``map_stream`` call (one-shot batches pay
nothing between calls), while a long-lived front-end — the HTTP service in
:mod:`repro.store.server` — hands its executors a :class:`WorkerPool`, whose
workers are reused across batches until the pool is closed. ``map`` collects
a whole batch in unit order; ``map_stream`` yields ``(unit index, outcome)``
pairs in *completion* order, which is what lets the service stream results
over the wire while slower units are still running.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.counting.parallel import (
    BACKEND_PROCESS,
    BACKEND_THREAD,
    make_executor,
)
from repro.exceptions import ServeError, SpecError
from repro.hypergraph.hypergraph import Hypergraph
from repro.obs import metrics as obs_metrics
from repro.obs.trace import current_request_id, log_event, trace
from repro.store import faults
from repro.utils.logging import get_logger

LOGGER = get_logger(__name__)

QUEUE_WAIT_SECONDS = obs_metrics.histogram(
    "repro_executor_queue_wait_seconds",
    "Delay between a unit's submission and the start of its execution "
    "(thread backend; workers share the parent's registry).",
    ("backend",),
)
UNIT_TURNAROUND_SECONDS = obs_metrics.histogram(
    "repro_executor_unit_turnaround_seconds",
    "Submission-to-completion latency of streamed units, observed in the "
    "parent (includes queue wait; the only cross-boundary view for process "
    "workers).",
    ("backend",),
)
RESPAWNS_TOTAL = obs_metrics.counter(
    "repro_executor_respawns_total",
    "Broken worker pools discarded and lazily respawned after a crash.",
    ("backend",),
)

#: Serving backends accepted by ``EngineServer.submit(backend=...)``.
SERVE_BACKEND_SERIAL = "serial"
SERVE_BACKEND_THREAD = BACKEND_THREAD
SERVE_BACKEND_PROCESS = BACKEND_PROCESS
SERVE_BACKENDS = (SERVE_BACKEND_SERIAL, SERVE_BACKEND_THREAD, SERVE_BACKEND_PROCESS)

#: ``UnitFailure.error_type`` of a unit that exceeded its batch deadline.
FAILURE_TIMEOUT = "UnitTimeout"

#: ``UnitFailure.error_type`` of a unit lost to a dead process worker.
FAILURE_WORKER_CRASH = "WorkerCrashed"


@dataclass(frozen=True)
class UnitFailure:
    """Pickle-safe record of one unit's failure, for error-capturing streams.

    When a streaming caller asks for captured errors (the HTTP service must
    keep a batch's other units flowing after one unit fails), a failed unit
    resolves to one of these instead of raising: the exception's class name
    plus its message, both plain strings so the record survives a process
    worker's pickle boundary and serializes straight onto the wire.
    ``retryable`` tells clients machine-readably whether resubmitting the
    same unit can succeed — true for deadline timeouts and worker crashes
    (transient conditions), false for deterministic failures like an unknown
    dataset, which would fail identically on every retry.
    """

    error_type: str
    message: str
    retryable: bool = False

    @classmethod
    def from_exception(cls, error: BaseException) -> "UnitFailure":
        return cls(error_type=type(error).__name__, message=str(error))

    @classmethod
    def timeout(cls, label: str, budget: Optional[float] = None) -> "UnitFailure":
        """The structured record of a unit that exceeded the batch deadline."""
        detail = f" of {budget:.3f}s" if budget is not None else ""
        return cls(
            error_type=FAILURE_TIMEOUT,
            message=f"unit {label or '?'} exceeded the request deadline{detail}",
            retryable=True,
        )

    @classmethod
    def worker_crash(cls, label: str, error: BaseException) -> "UnitFailure":
        """The structured record of a unit lost to a dead process worker."""
        detail = str(error) or type(error).__name__
        return cls(
            error_type=FAILURE_WORKER_CRASH,
            message=(
                f"worker process died while unit {label or '?'} was in "
                f"flight ({detail}); the pool respawns for the next batch"
            ),
            retryable=True,
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "type": self.error_type,
            "message": self.message,
            "retryable": self.retryable,
        }


@dataclass(frozen=True)
class WorkerPayload:
    """Process-shippable form of one serving unit: plain arrays and dicts.

    ``edge_ptr``/``edge_nodes`` are the hyperedge rows of the dataset's
    canonical CSR view (sorted dense node ids — see
    :class:`repro.fastcore.csr.HypergraphCSR`); ``spec`` is the
    :func:`repro.api.spec_to_dict` rendering of the request's spec;
    ``store_dir`` points the worker at the shared persistent store (``None``
    runs the worker store-less, e.g. when the parent store is memory-only
    and therefore unreachable from another process). ``capture`` makes the
    worker resolve failures to :class:`UnitFailure` records instead of
    raising, mirroring the local error-capturing execution path.
    ``request_id`` carries the originating request's trace id across the
    pickle boundary (contextvars do not survive it); the worker re-enters
    :func:`repro.obs.trace.trace` with it so worker-side structured events
    correlate with the parent's.
    """

    edge_ptr: np.ndarray
    edge_nodes: np.ndarray
    dataset: str
    spec: Dict[str, Any]
    store_dir: Optional[str]
    capture: bool = False
    failure: Optional[UnitFailure] = None
    request_id: Optional[str] = None

    @classmethod
    def failed(
        cls,
        dataset: str,
        failure: UnitFailure,
        request_id: Optional[str] = None,
    ) -> "WorkerPayload":
        """A payload that resolves to *failure* without running anything.

        Used by error-capturing streams when materializing the real payload
        (resolving the dataset in the parent) already failed: the failure
        rides the normal unit pipeline so its slots still get a record.
        """
        empty = np.zeros(0, dtype=np.int32)
        return cls(
            edge_ptr=empty,
            edge_nodes=empty,
            dataset=dataset,
            spec={},
            store_dir=None,
            capture=True,
            failure=failure,
            request_id=request_id,
        )


@dataclass(frozen=True)
class ServeUnit:
    """One unique computation of a batch, in both executable forms.

    ``run_local`` executes through the server's own engine pool (serial and
    thread backends); ``make_payload`` renders the process-shippable form
    lazily, so the serial/thread paths never pay for it.
    """

    run_local: Callable[[], Any]
    make_payload: Callable[[], WorkerPayload]
    label: str = field(default="")


def hypergraph_from_csr_rows(
    edge_ptr: np.ndarray, edge_nodes: np.ndarray, name: str
) -> Hypergraph:
    """Rebuild a hypergraph from CSR hyperedge rows, canonically labeled.

    The result is content-equivalent to the hypergraph the rows came from:
    same hyperedge order and the **same canonical CSR layout** — hence the
    same fingerprint (so worker processes hit and populate the same store
    entries) and bit-identical counting/profiling results.

    Labels are fixed-width decimal strings of the dense ids (``"007"``),
    not bare ints: ``Hypergraph`` orders nodes by ``(type, repr)``, and only
    the fixed width makes that lexicographic order coincide with the numeric
    order of the shipped ids, keeping the dense-id mapping the identity.
    (Bare ints would sort ``"10" < "2"`` and permute the CSR.)
    """
    edge_ptr = np.asarray(edge_ptr)
    edge_nodes = np.asarray(edge_nodes)
    width = len(str(int(edge_nodes.max()))) if len(edge_nodes) else 1
    edges = [
        [f"{node:0{width}d}" for node in edge_nodes[edge_ptr[i] : edge_ptr[i + 1]]]
        for i in range(len(edge_ptr) - 1)
    ]
    return Hypergraph(edges, name=name)


def ensure_servable_spec(spec) -> None:
    """Reject spec types the serving layer cannot dispatch, eagerly."""
    from repro.api.config import CompareSpec, CountSpec, EvolveSpec, ProfileSpec, VarianceSpec

    if isinstance(spec, EvolveSpec):
        raise SpecError(
            "EvolveSpec is not servable in a batch: evolution chains stream "
            "one record per snapshot — use POST /v1/evolve (or "
            "MotifEngine.evolve) instead"
        )
    if not isinstance(spec, (CountSpec, ProfileSpec, CompareSpec, VarianceSpec)):
        raise SpecError(
            f"spec type {type(spec).__name__} is not servable in a batch; "
            f"the serving layer dispatches CountSpec, ProfileSpec, "
            f"CompareSpec and VarianceSpec"
        )
    if isinstance(spec, CountSpec) and spec.include_instances:
        raise SpecError(
            "include_instances is not servable: the instance enumeration is "
            "an unbounded payload the store never persists — run it on a "
            "local MotifEngine instead"
        )


def dispatch_spec(engine, spec):
    """Run one servable spec on *engine*, returning the typed result.

    The single dispatch point shared by every execution path — the server's
    local (serial/thread) execution and the process workers — so backends
    cannot drift in what they serve.
    """
    from repro.api.config import CountSpec, ProfileSpec, VarianceSpec

    ensure_servable_spec(spec)
    # Chaos hook shared by every backend: an armed "serve.unit" fault can
    # delay (slow unit) or fail this unit, keyed on dataset and spec type.
    faults.fire(
        "serve.unit",
        key=f"{getattr(engine.hypergraph, 'name', '?')}:{type(spec).__name__}",
    )
    if isinstance(spec, CountSpec):
        return engine.count(spec)
    if isinstance(spec, ProfileSpec):
        return engine.profile(spec)
    if isinstance(spec, VarianceSpec):
        return engine.variance(spec)
    return engine.compare(spec)


def execute_payload(payload: WorkerPayload):
    """Run one serving unit from its shipped form (the process-worker entry).

    Module-level so it pickles by reference. Builds a private engine over the
    rebuilt hypergraph — consulting and populating the shared persistent
    store when one is configured — and returns the typed result.
    """
    # Imported here (not at module top) to keep this module importable from
    # repro.store without dragging the API layer into every store user; the
    # worker process pays the import once.
    from repro.api.config import spec_from_dict
    from repro.api.engine import MotifEngine
    from repro.store.artifacts import ArtifactStore

    if payload.failure is not None:
        return payload.failure
    # Re-enter the originating request's trace context: contextvars did not
    # survive the pickle boundary, but the id rode along on the payload.
    with trace(payload.request_id):
        # Chaos hook on the worker side of the pickle boundary: a
        # "crash"-mode fault here kills this worker process outright
        # (os._exit), which is how the chaos suite proves a dead worker
        # cannot wedge a stream. Armed via the REPRO_FAULTS environment
        # variable, which workers inherit.
        faults.fire("worker.unit", key=payload.dataset)
        started = time.perf_counter()
        try:
            hypergraph = hypergraph_from_csr_rows(
                payload.edge_ptr, payload.edge_nodes, payload.dataset
            )
            store = ArtifactStore(payload.store_dir) if payload.store_dir else False
            engine = MotifEngine(hypergraph, store=store)
            result = dispatch_spec(engine, spec_from_dict(payload.spec))
        except Exception as error:
            log_event(
                LOGGER,
                "worker.unit_failed",
                dataset=payload.dataset,
                error_type=type(error).__name__,
                seconds=round(time.perf_counter() - started, 6),
            )
            if payload.capture:
                return UnitFailure.from_exception(error)
            raise
        log_event(
            LOGGER,
            "worker.unit_done",
            dataset=payload.dataset,
            spec_type=str(payload.spec.get("type", "?")),
            seconds=round(time.perf_counter() - started, 6),
        )
        return result


class WorkerPool:
    """A long-lived worker pool, decoupled from any one batch's dispatch.

    Executors without a pool open a fresh ``concurrent.futures`` pool per
    batch and tear it down afterwards — correct, but a continuously-serving
    front-end would pay thread/process startup on every request. A
    ``WorkerPool`` owns the underlying pool instead: it is opened lazily on
    first use, **reused across batches**, and shut down once by
    :meth:`close` (or the context manager). The backend — ``"thread"`` or
    ``"process"`` — is fixed at construction, which is how the HTTP service
    chooses its execution mode at startup.
    """

    def __init__(self, backend: str, workers: int) -> None:
        if backend not in (SERVE_BACKEND_THREAD, SERVE_BACKEND_PROCESS):
            raise SpecError(
                f"a worker pool runs a {SERVE_BACKEND_THREAD!r} or "
                f"{SERVE_BACKEND_PROCESS!r} backend, got {backend!r} "
                f"(serial execution needs no pool)"
            )
        if isinstance(workers, bool) or not isinstance(workers, int) or workers <= 0:
            raise SpecError(f"workers must be a positive integer, got {workers!r}")
        self.backend = backend
        self.workers = workers
        self._executor = None
        self._closed = False
        self._respawns = 0
        self._lock = threading.Lock()

    @property
    def started(self) -> bool:
        """Whether the underlying pool has been opened (first use does it)."""
        return self._executor is not None

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called; a closed pool stays closed."""
        return self._closed

    @property
    def respawns(self) -> int:
        """How many times a broken pool was discarded and lazily respawned."""
        return self._respawns

    def reset(self, executor=None) -> bool:
        """Discard the underlying pool so the next batch respawns workers.

        This is the crash-recovery path: when a process worker dies, the
        whole ``concurrent.futures`` pool is broken — every pending future
        fails — and it can never execute again. Callers that observe the
        breakage hand the broken executor here; it is swapped out (the next
        :meth:`executor` call lazily opens a fresh pool) and shut down
        without waiting. Passing the *executor* the caller saw makes the
        reset idempotent under concurrent batches: only the first reporter
        swaps, later reports of the same corpse are no-ops, and a fresh pool
        another batch already opened is never torn down by a stale report.
        Returns whether this call performed the swap.
        """
        with self._lock:
            if self._closed or self._executor is None:
                return False
            if executor is not None and executor is not self._executor:
                return False
            broken, self._executor = self._executor, None
            self._respawns += 1
        broken.shutdown(wait=False)
        RESPAWNS_TOTAL.inc(backend=self.backend)
        log_event(
            LOGGER,
            "executor.pool_respawn",
            level=logging.WARNING,
            backend=self.backend,
            respawns=self._respawns,
        )
        return True

    def executor(self):
        """The shared ``concurrent.futures`` executor, opened on first use."""
        with self._lock:
            if self._closed:
                raise SpecError("worker pool is closed")
            if self._executor is None:
                self._executor = make_executor(self.backend, self.workers)
            return self._executor

    def serve_executor(self) -> "ServeExecutor":
        """A serving executor dispatching batches onto this pool's workers."""
        if self.backend == SERVE_BACKEND_PROCESS:
            return ProcessExecutor(self.workers, pool=self)
        return ThreadExecutor(self.workers, pool=self)

    def close(self, wait: bool = True) -> None:
        """Shut the workers down; idempotent, and permanent for this pool."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("open" if self.started else "idle")
        return f"WorkerPool(backend={self.backend!r}, workers={self.workers}, {state})"

    def as_dict(self) -> Dict[str, Any]:
        """Plain mapping describing the pool (for the service's ``/v1/stats``)."""
        return {
            "backend": self.backend,
            "workers": self.workers,
            "started": self.started,
            "closed": self.closed,
            "respawns": self.respawns,
        }


class ServeExecutor:
    """How a deduplicated batch of :class:`ServeUnit` runs; see the backends."""

    name: str

    def map(self, units: Sequence[ServeUnit]) -> List[Any]:
        """Execute every unit, returning results in unit order."""
        raise NotImplementedError

    def map_stream(
        self, units: Sequence[ServeUnit], deadline: Optional[float] = None
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(unit index, outcome)`` pairs as units complete.

        Completion order, not unit order — the streaming front-ends forward
        each outcome the moment it exists and label it with its index.

        *deadline* is an absolute ``time.monotonic()`` instant: once it
        passes, units that have not finished resolve to structured
        :meth:`UnitFailure.timeout` records instead of blocking the stream.
        Units already mid-execution cannot be preempted (threads are not
        killable); they are abandoned to finish in the background while
        their slots get the timeout record — the stream itself never hangs.
        """
        raise NotImplementedError


class SerialExecutor(ServeExecutor):
    """Reference backend: units run in the calling thread, in order."""

    name = SERVE_BACKEND_SERIAL

    def map(self, units: Sequence[ServeUnit]) -> List[Any]:
        return [unit.run_local() for unit in units]

    def map_stream(
        self, units: Sequence[ServeUnit], deadline: Optional[float] = None
    ) -> Iterator[Tuple[int, Any]]:
        # Serial execution cannot preempt a running unit; the deadline is
        # honored between units, so one slow unit cannot drag the whole
        # remainder of the batch past the budget.
        for index, unit in enumerate(units):
            if deadline is not None and time.monotonic() >= deadline:
                yield index, UnitFailure.timeout(unit.label)
            else:
                yield index, unit.run_local()


class _PoolExecutor(ServeExecutor):
    """Shared fan-out/collect loop of the thread and process backends.

    Subclasses provide ``_prepare`` (turn units into the items the backend
    executes — identity for threads, payload materialization for processes)
    plus the per-item inline/submitted execution. With a persistent
    :class:`WorkerPool` the batch dispatches onto the pool's long-lived
    workers; without one, a fresh pool is opened per batch (and a
    single-worker batch simply runs inline).
    """

    def __init__(self, num_workers: int, pool: Optional[WorkerPool] = None) -> None:
        self._num_workers = int(num_workers)
        self._pool = pool

    def _prepare(self, units: Sequence[ServeUnit]) -> Sequence[Any]:
        return units

    def _run_inline(self, item):
        raise NotImplementedError

    def _submit(self, executor, item):
        raise NotImplementedError

    @contextmanager
    def _lease(self, num_items: int):
        """Yield the executor running this batch (``None`` → run inline).

        A persistent pool is borrowed and *not* shut down afterwards — its
        lifetime belongs to :class:`WorkerPool`; an ephemeral pool lives
        exactly as long as the batch.
        """
        if self._pool is not None:
            yield self._pool.executor()
            return
        workers = min(self._num_workers, num_items)
        if workers == 1:
            yield None
            return
        executor = make_executor(self.name, workers)
        try:
            yield executor
        finally:
            # Non-blocking: a fully-collected batch has nothing left to wait
            # for, and a deadline-expired one must not block here on workers
            # still grinding through abandoned units.
            executor.shutdown(wait=False)

    def _recover(self, executor) -> None:
        """React to a broken executor: make the persistent pool respawn.

        An ephemeral pool needs nothing — its lease shuts it down — but a
        persistent :class:`WorkerPool` would stay poisoned forever, failing
        every future batch, unless the corpse is swapped out here.
        """
        if self._pool is not None:
            self._pool.reset(executor)

    def map(self, units: Sequence[ServeUnit]) -> List[Any]:
        if not units:
            return []
        items = self._prepare(units)
        with self._lease(len(items)) as executor:
            if executor is None:
                return [self._run_inline(item) for item in items]
            try:
                submitted = time.monotonic()
                futures = [self._submit(executor, item) for item in items]
                # Collect in submission order: request ordering is part of
                # the serving contract regardless of which worker finished
                # first.
                results = []
                for future in futures:
                    results.append(future.result())
                    UNIT_TURNAROUND_SECONDS.observe(
                        time.monotonic() - submitted, backend=self.name
                    )
                return results
            except BrokenExecutor as error:
                self._recover(executor)
                raise ServeError(
                    f"a {self.name} worker died mid-batch "
                    f"({str(error) or type(error).__name__}); the batch was "
                    f"lost but the pool respawns for the next one"
                ) from error

    def map_stream(
        self, units: Sequence[ServeUnit], deadline: Optional[float] = None
    ) -> Iterator[Tuple[int, Any]]:
        if not units:
            return
        items = self._prepare(units)
        labels = [unit.label for unit in units]
        with self._lease(len(items)) as executor:
            if executor is None:
                for index, item in enumerate(items):
                    if deadline is not None and time.monotonic() >= deadline:
                        yield index, UnitFailure.timeout(labels[index])
                    else:
                        yield index, self._run_inline(item)
                return
            pending: Dict[Any, int] = {}
            submitted: Dict[int, float] = {}
            try:
                for index, item in enumerate(items):
                    submitted[index] = time.monotonic()
                    pending[self._submit(executor, item)] = index
            except BrokenExecutor as error:
                # The pool was already broken (a worker died idle, after a
                # previous batch): the units never submitted become crash
                # records below, alongside whatever did get submitted.
                self._recover(executor)
                for index in range(len(pending), len(items)):
                    yield index, UnitFailure.worker_crash(labels[index], error)
            while pending:
                budget = None if deadline is None else deadline - time.monotonic()
                if budget is not None and budget <= 0:
                    done = set()
                else:
                    done, _ = wait(
                        set(pending), timeout=budget, return_when=FIRST_COMPLETED
                    )
                if not done:
                    # Deadline expired: cancel what never started, abandon
                    # what did (threads cannot be killed), and resolve every
                    # unfinished slot to a structured timeout record.
                    for future, index in sorted(
                        pending.items(), key=lambda entry: entry[1]
                    ):
                        future.cancel()
                        yield index, UnitFailure.timeout(labels[index])
                    return
                for future in done:
                    index = pending.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenExecutor as error:
                        # A worker died with units in flight. The broken pool
                        # fails *all* pending futures; convert every lost
                        # unit to a crash record, respawn the pool for the
                        # next batch, and keep the stream flowing — a crashed
                        # worker must never wedge a stream or poison the
                        # pool.
                        self._recover(executor)
                        yield index, UnitFailure.worker_crash(labels[index], error)
                        for other, other_index in sorted(
                            pending.items(), key=lambda entry: entry[1]
                        ):
                            other.cancel()
                            yield (
                                other_index,
                                UnitFailure.worker_crash(labels[other_index], error),
                            )
                        pending.clear()
                        break
                    UNIT_TURNAROUND_SECONDS.observe(
                        time.monotonic() - submitted[index], backend=self.name
                    )
                    yield index, outcome


class ThreadExecutor(_PoolExecutor):
    """Thread pool over the server's engine pool (shared-memory serving)."""

    name = SERVE_BACKEND_THREAD

    def _run_inline(self, item: ServeUnit):
        return item.run_local()

    def _submit(self, executor, item: ServeUnit):
        # Pool threads inherit neither the submitter's contextvars nor its
        # clock: capture the request id and the enqueue instant here, then
        # re-bind/observe when a worker thread actually picks the unit up.
        request_id = current_request_id()
        enqueued = time.monotonic()

        def run():
            QUEUE_WAIT_SECONDS.observe(
                time.monotonic() - enqueued, backend=SERVE_BACKEND_THREAD
            )
            with trace(request_id):
                return item.run_local()

        return executor.submit(run)


class ProcessExecutor(_PoolExecutor):
    """Process pool; workers receive :class:`WorkerPayload`, never engines.

    Uses the platform's default start method (like the parallel counters in
    :mod:`repro.counting.parallel`): ``fork`` on Linux up to Python 3.13,
    ``forkserver`` from 3.14. Under ``fork``, prefer submitting
    process-backend batches from a thread-quiet process — combining them
    with *overlapping* ``submit_async`` batches forks while dispatcher
    threads run, which CPython 3.12+ warns about. (``spawn``/``forkserver``
    are not forced here: they re-import ``__main__`` in every worker, which
    breaks stdin/REPL-driven parents and pays per-worker import time.)
    """

    name = SERVE_BACKEND_PROCESS

    def _prepare(self, units: Sequence[ServeUnit]) -> Sequence[WorkerPayload]:
        # Materialize payloads in the parent *before* opening the pool: this
        # resolves datasets through the parent's engine pool exactly once
        # and surfaces load errors eagerly rather than from a worker.
        return [unit.make_payload() for unit in units]

    def _run_inline(self, item: WorkerPayload):
        return execute_payload(item)

    def _submit(self, executor, item: WorkerPayload):
        return executor.submit(execute_payload, item)


def resolve_serve_executor(backend: Optional[str], workers: int) -> ServeExecutor:
    """Normalize ``(backend, workers)`` into an ephemeral executor instance.

    ``backend=None`` picks ``"serial"`` for one worker and ``"thread"`` for
    several; unknown backends and non-positive worker counts raise
    :class:`SpecError` before any work runs. (Persistent-pool execution is
    resolved through :meth:`WorkerPool.serve_executor` instead, so an
    explicit ``workers`` count here is always honored exactly.)
    """
    if isinstance(workers, bool) or not isinstance(workers, int) or workers <= 0:
        raise SpecError(f"workers must be a positive integer, got {workers!r}")
    if backend is None:
        backend = SERVE_BACKEND_SERIAL if workers == 1 else SERVE_BACKEND_THREAD
    if backend == SERVE_BACKEND_SERIAL:
        return SerialExecutor()
    if backend == SERVE_BACKEND_THREAD:
        return ThreadExecutor(workers)
    if backend == SERVE_BACKEND_PROCESS:
        return ProcessExecutor(workers)
    raise SpecError(
        f"backend must be one of {SERVE_BACKENDS} (or None to choose "
        f"automatically), got {backend!r}"
    )
