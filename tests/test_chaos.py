"""Chaos suite: every degradation path, exercised via injected faults.

The production claims under test (see :mod:`repro.store.faults` and the
README's "Operations & failure modes"): a failing disk degrades writes to
the memory tier, lock contention degrades instead of blocking, a corrupted
entry reads as a miss, a slow unit burns only its own slot, a crashed
process worker costs its batch's in-flight units and nothing else, an
overloaded service sheds load with retryable 429s, and the client retries
exactly the transient failures. Nothing here monkeypatches internals — the
hardened code paths are reached through their first-class injection points,
which also work across the worker-process boundary.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import statistics
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import CountSpec
from repro.exceptions import ServeError
from repro.store import ArtifactStore
from repro.store import faults
from repro.store.client import ServiceClient
from repro.store.executors import (
    FAILURE_TIMEOUT,
    FAILURE_WORKER_CRASH,
    UnitFailure,
    WorkerPool,
)
from repro.store.locks import FileLock
from repro.store.serve import EngineServer, ServeRequest
from repro.store.server import build_server, shutdown_gracefully

DATASET_A = "email-enron-like"
DATASET_B = "contact-primary-like"


@pytest.fixture(autouse=True)
def _clean_faults():
    """No armed fault may leak into (or out of) any test."""
    faults.clear()
    os.environ.pop(faults.ENV_FAULTS, None)
    yield
    faults.clear()
    os.environ.pop(faults.ENV_FAULTS, None)


def _requests(*sources):
    return [ServeRequest(source, CountSpec()) for source in sources]


def _wire_requests(*sources):
    return [{"source": source, "spec": {"type": "count"}} for source in sources]


@pytest.fixture
def running_server(request):
    """Factory for a live service on a free port, drained at teardown."""
    servers = []

    def start(**kwargs):
        kwargs.setdefault("store", False)
        server = build_server(port=0, **kwargs)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        client = ServiceClient(port=server.port, timeout=60.0)
        client.wait_until_healthy()
        return server, client

    yield start
    for server in servers:
        shutdown_gracefully(server, drain_seconds=10.0)


class TestFaultRegistry:
    def test_error_fault_fires_and_expires(self):
        faults.inject("x.point", mode="error", times=2)
        for _ in range(2):
            with pytest.raises(faults.InjectedFault):
                faults.fire("x.point")
        faults.fire("x.point")  # exhausted: back to a no-op
        assert "x.point" not in faults.active()

    def test_key_scoping_is_substring_matching(self):
        faults.inject("x.point", key="alpha")
        faults.fire("x.point", key="beta:count")  # no match, no fire
        with pytest.raises(faults.InjectedFault):
            faults.fire("x.point", key="alpha:count")

    def test_sleep_mode_delays(self):
        faults.inject("x.point", mode="sleep", seconds=0.05)
        started = time.monotonic()
        faults.fire("x.point")
        assert time.monotonic() - started >= 0.05

    def test_deny_mode_belongs_to_denied_not_fire(self):
        faults.inject("x.point", mode="deny", times=1)
        faults.fire("x.point")  # deny faults never raise
        assert faults.denied("x.point") is True
        assert faults.denied("x.point") is False  # consumed

    def test_injected_context_manager_disarms(self):
        with faults.injected("x.point"):
            assert "x.point" in faults.active()
        assert "x.point" not in faults.active()

    def test_env_faults_validate_eagerly_and_fire(self):
        with pytest.raises(ValueError):
            faults.encode_env({"x.point": {"mode": "explode"}})
        os.environ[faults.ENV_FAULTS] = faults.encode_env(
            {"x.point": {"mode": "error", "message": "from the environment"}}
        )
        with pytest.raises(faults.InjectedFault, match="from the environment"):
            faults.fire("x.point")

    def test_once_path_latch_is_single_shot(self, tmp_path):
        latch = tmp_path / "latch"
        os.environ[faults.ENV_FAULTS] = faults.encode_env(
            {"x.point": {"mode": "error", "once_path": str(latch)}}
        )
        with pytest.raises(faults.InjectedFault):
            faults.fire("x.point")
        faults.fire("x.point")  # the latch file holds it down now
        assert latch.exists()

    def test_malformed_env_spec_never_breaks_production(self):
        os.environ[faults.ENV_FAULTS] = "{not json"
        faults.fire("x.point")
        assert faults.denied("x.point") is False


class TestStoreDegradation:
    def test_disk_write_fault_degrades_to_memory_tier(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with faults.injected("store.disk_write"):
            store.put("count", "f" * 64, {"p": 1}, {"values": np.ones(4)})
        assert store.stats.write_errors == 1
        hit = store.get("count", "f" * 64, {"p": 1})
        assert hit is not None and hit[2] == "memory"
        # The failed write never reached disk: a fresh store misses.
        fresh = ArtifactStore(tmp_path / "store")
        assert fresh.get("count", "f" * 64, {"p": 1}) is None

    def test_corrupted_payload_is_a_miss_until_a_writer_repairs_it(self, tmp_path):
        directory = tmp_path / "store"
        writer = ArtifactStore(directory)
        writer.put("count", "f" * 64, {"p": 1}, {"values": np.ones(4)})
        payload = next(directory.glob("shards/*/*/*.npz"))
        payload.write_bytes(b"garbage, checksum cannot match")
        # A concurrent reader sees the corruption as a clean miss...
        reader = ArtifactStore(directory)
        assert reader.get("count", "f" * 64, {"p": 1}) is None
        assert reader.stats.corrupt_entries == 1
        # ...while a concurrent writer re-persisting the same key (the
        # recompute path after such a miss) repairs the entry in place.
        writer.put("count", "f" * 64, {"p": 1}, {"values": np.full(4, 2.0)})
        repaired = ArtifactStore(directory).get("count", "f" * 64, {"p": 1})
        assert repaired is not None and repaired[2] == "disk"
        assert np.array_equal(repaired[0]["values"], np.full(4, 2.0))

    def test_injected_lock_contention_counts_and_degrades(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", lock_timeout=0.05)
        with faults.injected("store.lock_acquire", mode="deny"):
            store.put("count", "f" * 64, {"p": 1}, {"values": np.ones(4)})
        assert store.stats.lock_contention == 1
        hit = store.get("count", "f" * 64, {"p": 1})
        assert hit is not None and hit[2] == "memory"

    def test_real_lock_contention_counts_identically(self, tmp_path):
        directory = tmp_path / "store"
        store = ArtifactStore(directory, lock_timeout=0.05)
        lock_path = store.shard_lock_path("f" * 64)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        blocker = FileLock(lock_path)
        assert blocker.acquire(timeout=1.0)
        try:
            store.put("count", "f" * 64, {"p": 1}, {"values": np.ones(4)})
        finally:
            blocker.release()
        assert store.stats.lock_contention == 1
        hit = store.get("count", "f" * 64, {"p": 1})
        assert hit is not None and hit[2] == "memory"


class TestServeChaos:
    def test_slow_unit_times_out_and_the_rest_streams(self):
        server = EngineServer(store=False)
        requests = _requests(DATASET_A, DATASET_B)
        list(server.submit_stream(requests, capture_errors=True))  # warm engines
        with faults.injected(
            "serve.unit", mode="sleep", seconds=3.0, key=DATASET_A
        ):
            started = time.monotonic()
            outcomes = dict(
                server.submit_stream(
                    requests,
                    workers=2,
                    backend="thread",
                    capture_errors=True,
                    timeout=0.5,
                )
            )
            elapsed = time.monotonic() - started
        assert elapsed < 2.5  # the stream never waits out the slow unit
        assert isinstance(outcomes[0], UnitFailure)
        assert outcomes[0].error_type == FAILURE_TIMEOUT
        assert outcomes[0].retryable is True
        assert not isinstance(outcomes[1], UnitFailure)
        assert server.stats.unit_timeouts == 1

    def test_timeout_without_capture_raises_serve_error(self):
        server = EngineServer(store=False)
        requests = _requests(DATASET_A, DATASET_B)
        list(server.submit_stream(requests, capture_errors=True))
        with faults.injected(
            "serve.unit", mode="sleep", seconds=3.0, key=DATASET_A
        ):
            with pytest.raises(ServeError, match=FAILURE_TIMEOUT):
                list(
                    server.submit_stream(
                        requests, workers=2, backend="thread", timeout=0.5
                    )
                )

    def test_worker_crash_yields_records_and_pool_respawns(self, tmp_path):
        os.environ[faults.ENV_FAULTS] = faults.encode_env(
            {
                "worker.unit": {
                    "mode": "crash",
                    "key": DATASET_A,
                    "once_path": str(tmp_path / "crash-latch"),
                }
            }
        )
        pool = WorkerPool("process", workers=2)
        with EngineServer(store=False, pool=pool) as server:
            requests = _requests(DATASET_A, DATASET_B)
            outcomes = dict(server.submit_stream(requests, capture_errors=True))
            crashed = [
                outcome
                for outcome in outcomes.values()
                if isinstance(outcome, UnitFailure)
            ]
            assert crashed, "the dying worker must surface as unit records"
            assert all(
                record.error_type == FAILURE_WORKER_CRASH and record.retryable
                for record in crashed
            )
            assert pool.respawns >= 1
            assert server.stats.worker_crashes >= 1
            # The latch consumed the crash: the respawned pool serves.
            again = dict(server.submit_stream(requests, capture_errors=True))
            assert not any(
                isinstance(outcome, UnitFailure) for outcome in again.values()
            )


class TestServiceChaos:
    def test_slow_unit_over_http_degrades_per_unit(self, running_server):
        server, client = running_server(
            workers=2, backend="thread", request_timeout=0.8
        )
        records = client.batch(_wire_requests(DATASET_A, DATASET_B))  # warm
        assert len(records) == 2
        with faults.injected(
            "serve.unit", mode="sleep", seconds=2.0, key=DATASET_A
        ):
            by_status = {}
            for record in client.batch_stream(
                _wire_requests(DATASET_A, DATASET_B)
            ):
                by_status.setdefault(record["status"], []).append(record)
        (timed_out,) = by_status["error"]
        assert timed_out["error"]["type"] == FAILURE_TIMEOUT
        assert timed_out["error"]["retryable"] is True
        assert len(by_status["ok"]) == 1
        (done,) = by_status["done"]
        assert done["ok"] == 1 and done["errors"] == 1
        assert client.health()["status"] == "ok"

    def test_admission_control_rejects_with_retryable_429(self, running_server):
        server, client = running_server(workers=2, backend="thread", max_queue=1)
        client.batch(_wire_requests(DATASET_A))  # warm the engine
        faults.inject("serve.unit", mode="sleep", seconds=2.0, key=DATASET_A)
        occupant = threading.Thread(
            target=lambda: ServiceClient(port=server.port, timeout=30.0).batch(
                _wire_requests(DATASET_A)
            )
        )
        occupant.start()
        try:
            time.sleep(0.3)  # let the occupant take the only queue slot
            # Raw wire check: 429 + Retry-After header + structured body.
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10
            )
            body = json.dumps({"requests": _wire_requests(DATASET_A)}).encode()
            connection.request(
                "POST",
                "/v1/batch",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            connection.close()
            assert response.status == 429
            assert response.getheader("Retry-After") == "1"
            assert payload["error"]["type"] == "ServerBusy"
            assert payload["error"]["retryable"] is True
            # The retrying client backs off past the busy period and wins.
            results = client.batch(_wire_requests(DATASET_A))
            assert len(results) == 1
            assert client.counters.rejected_busy >= 1
            assert client.counters.retries >= 1
        finally:
            occupant.join()
        assert client.stats()["service"]["batches_rejected_busy"] >= 2
        assert client.health()["status"] == "ok"

    def test_worker_crash_over_http_keeps_the_service_healthy(
        self, running_server, tmp_path
    ):
        os.environ[faults.ENV_FAULTS] = faults.encode_env(
            {
                "worker.unit": {
                    "mode": "crash",
                    "key": DATASET_A,
                    "once_path": str(tmp_path / "crash-latch"),
                }
            }
        )
        server, client = running_server(workers=2, backend="process")
        statuses = [
            record
            for record in client.batch_stream(_wire_requests(DATASET_A, DATASET_B))
        ]
        done = [r for r in statuses if r["status"] == "done"]
        crashed = [
            r
            for r in statuses
            if r["status"] == "error"
            and r["error"]["type"] == FAILURE_WORKER_CRASH
        ]
        assert done, "the stream must terminate with its summary, never hang"
        assert crashed and all(r["error"]["retryable"] for r in crashed)
        assert client.health()["status"] == "ok"
        # The respawned pool serves the retry cleanly.
        results = client.batch(_wire_requests(DATASET_A, DATASET_B))
        assert len(results) == 2
        payload = client.stats()
        assert payload["pool"]["respawns"] >= 1
        assert payload["serve"]["worker_crashes"] >= 1

    def test_disk_write_fault_mid_batch_never_fails_the_batch(
        self, running_server, tmp_path
    ):
        store = ArtifactStore(tmp_path / "store")
        server, client = running_server(store=store, workers=2, backend="thread")
        with faults.injected("store.disk_write", times=None):
            results = client.batch(_wire_requests(DATASET_A, DATASET_B))
        assert len(results) == 2
        assert store.stats.write_errors >= 1
        assert client.health()["status"] == "ok"

    def test_client_disconnect_mid_stream_leaves_the_server_healthy(
        self, running_server
    ):
        server, client = running_server(workers=2, backend="thread")
        client.batch(_wire_requests(DATASET_A, DATASET_B))  # warm
        handler_errors, closed = [], []
        shutdown_request = server.shutdown_request
        server.handle_error = lambda request, address: handler_errors.append(
            sys.exc_info()[1]
        )

        def record_close(request):
            closed.append(request)
            shutdown_request(request)

        server.shutdown_request = record_close
        faults.inject("serve.unit", mode="sleep", seconds=0.5, key=DATASET_B)
        body = json.dumps({"requests": _wire_requests(DATASET_A, DATASET_B)})
        raw = socket.create_connection(("127.0.0.1", server.port), timeout=30)
        raw.sendall(
            b"POST /v1/batch HTTP/1.1\r\nHost: chaos\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n{body}".encode()
        )
        received = b""
        # The first record's chunk ends with the record's newline + CRLF.
        while b"\n\r\n" not in received.partition(b"\r\n\r\n")[2]:
            chunk = raw.recv(65536)
            assert chunk, "the server closed before the first record"
            received += chunk
        # The fast unit's record arrived; hang up while the slow one runs.
        assert b'"index": 0' in received
        raw.close()
        deadline = time.monotonic() + 10
        while not closed or server.service.in_flight:
            assert time.monotonic() < deadline, "the abandoned stream never ended"
            time.sleep(0.01)
        assert handler_errors == []
        samples = []
        for _ in range(5):
            started = time.perf_counter()
            assert client.health()["status"] == "ok"
            samples.append((time.perf_counter() - started) * 1000.0)
        assert statistics.median(samples) < 15.0, samples

    def test_dropped_connection_is_retried_transparently(self, running_server):
        server, client = running_server()
        faults.inject("server.drop_connection", mode="deny", times=1)
        assert client.health()["status"] == "ok"
        assert client.counters.retries >= 1
        assert client.counters.connections_opened >= 2


class TestLineageChainChaos:
    """A crash between the count write and its lineage sidecar tears the
    chain — which must degrade to a recount, never serve a wrong count."""

    def test_crash_mid_lineage_put_degrades_to_recount(self, tmp_path):
        from repro.api import EvolveSpec, MotifEngine, SNAPSHOT_MODE_CACHED
        from repro.generators.temporal import generate_temporal_coauthorship
        from repro.store import codecs

        temporal = generate_temporal_coauthorship(
            num_years=4, initial_authors=30, initial_papers=15, seed=21
        )
        store_dir = tmp_path / "store"

        # Cold chain with every lineage manifest append failing: the counts
        # land on disk, the sidecars degrade to the memory tier only —
        # exactly the torn state a crash between the two writes leaves.
        with faults.injected("store.manifest_append", key="lineage", times=None):
            crashed = MotifEngine(temporal, store=ArtifactStore(store_dir)).evolve(
                EvolveSpec()
            )
        assert len(crashed.snapshots) > 2

        # A fresh process over the same directory sees counts but no
        # lineage proof beyond the root: nothing non-root serves cached.
        survivor_store = ArtifactStore(store_dir)
        kinds = {entry.kind for entry in survivor_store.entries()}
        assert codecs.KIND_COUNT in kinds
        assert codecs.KIND_LINEAGE not in kinds
        rerun = MotifEngine(temporal, store=survivor_store).evolve(EvolveSpec())
        modes = [snapshot.mode for snapshot in rerun.snapshots]
        assert SNAPSHOT_MODE_CACHED not in modes[1:]
        for a, b in zip(crashed.snapshots, rerun.snapshots):
            assert a.fingerprint == b.fingerprint
            np.testing.assert_array_equal(a.counts.to_array(), b.counts.to_array())

        # The recount re-persisted the sidecars: the chain self-heals and a
        # third run serves fully warm.
        healed = MotifEngine(temporal, store=ArtifactStore(store_dir)).evolve(
            EvolveSpec()
        )
        assert set(healed.snapshot_modes()) == {SNAPSHOT_MODE_CACHED}
        for a, b in zip(rerun.snapshots, healed.snapshots):
            np.testing.assert_array_equal(a.counts.to_array(), b.counts.to_array())
