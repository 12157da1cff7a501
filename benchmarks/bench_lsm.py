"""LSM storage-engine benchmark: sharded log-structured tier vs. flat manifest.

Compares the :mod:`repro.store.lsm` disk tier against an in-file reimplementation
of the design it replaced — one global manifest rewritten whole on every put,
one store-wide lock, linear-scan lookups — on the two axes the sharded layout
was built for:

* **Cold lookup latency**: a fresh store instance (what every new CLI run or
  serving worker is) resolves one artifact. The flat design must parse the
  entire N-record manifest first; the LSM tier loads only the target
  fingerprint's shard (~N/256 records) and binary-searches it.
* **Multi-writer put throughput**: 4 processes persisting disjoint artifacts.
  Flat writers serialize on the global lock and each rewrite is O(N); LSM
  writers append one O(1) record under their own shard locks.

Writes ``BENCH_lsm.json`` at the repo root. Runnable as a pytest test
(asserts the >=3x gate on both axes at N=2000) and as a script
(``python benchmarks/bench_lsm.py``).
"""

from __future__ import annotations

import hashlib
import io
import json
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.store import ArtifactStore, FileLock
from repro.store.fingerprint import params_digest
from repro.store.lsm import atomic_write_bytes, jsonify_params

from benchmarks.conftest import machine, write_report

#: Artifacts resident in each store when latency/throughput are measured.
NUM_ARTIFACTS = 2000

#: Concurrent writer processes in the put-throughput phase.
NUM_WRITERS = 4

#: Puts per writer in the timed throughput phase (on top of the N resident).
PUTS_PER_WRITER = 50

#: Cold lookups timed per store (each on a fresh store instance).
NUM_LOOKUPS = 40

#: The acceptance gate: the sharded engine must beat flat by this factor.
GATE = 3.0

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_lsm.json"


def _fingerprint(index: int) -> str:
    """A realistic SHA-256-style fingerprint, uniform over the shard space."""
    return hashlib.sha256(f"bench-lsm-{index}".encode("ascii")).hexdigest()


def _arrays(index: int) -> Dict[str, np.ndarray]:
    return {"values": np.full(26, float(index))}


class FlatManifestStore:
    """The pre-LSM design, reduced to its storage essentials.

    One JSON manifest lists every record; a put rewrites the whole file under
    the single store-wide lock, a get parses it and scans linearly. Payload
    handling (compressed ``.npz`` + SHA-256 checksum) matches the real store
    so the comparison isolates manifest/locking architecture only.
    """

    def __init__(self, directory, lock_timeout: float = 60.0) -> None:
        self._directory = Path(directory)
        self._data = self._directory / "data"
        self._data.mkdir(parents=True, exist_ok=True)
        self._manifest = self._directory / "manifest.json"
        self._lock = FileLock(self._directory / ".store.lock")
        self._lock_timeout = lock_timeout

    def _records(self) -> list:
        try:
            payload = json.loads(self._manifest.read_text(encoding="utf-8"))
            return list(payload["records"])
        except (OSError, ValueError, KeyError):
            return []

    def put(
        self,
        kind: str,
        fingerprint: str,
        params: Mapping[str, Any],
        arrays: Mapping[str, np.ndarray],
    ) -> bool:
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **dict(arrays))
        data = buffer.getvalue()
        digest = params_digest(params)
        name = f"{fingerprint}-{kind}-{digest}.npz"
        record = {
            "kind": kind,
            "fingerprint": fingerprint,
            "digest": digest,
            "params": jsonify_params(params),
            "checksum": hashlib.sha256(data).hexdigest(),
            "payload": name,
        }
        if not self._lock.acquire(timeout=self._lock_timeout):
            return False
        try:
            atomic_write_bytes(self._data / name, data)
            records = [
                existing
                for existing in self._records()
                if (existing["kind"], existing["fingerprint"], existing["digest"])
                != (kind, fingerprint, digest)
            ]
            records.append(record)
            atomic_write_bytes(
                self._manifest,
                json.dumps({"records": records}).encode("utf-8"),
            )
        finally:
            self._lock.release()
        return True

    def get(
        self, kind: str, fingerprint: str, params: Mapping[str, Any]
    ) -> Optional[Dict[str, np.ndarray]]:
        digest = params_digest(params)
        for record in self._records():  # linear scan of the whole manifest
            if (record["kind"], record["fingerprint"], record["digest"]) != (
                kind,
                fingerprint,
                digest,
            ):
                continue
            try:
                data = (self._data / record["payload"]).read_bytes()
            except OSError:
                return None
            if hashlib.sha256(data).hexdigest() != record["checksum"]:
                return None
            with np.load(io.BytesIO(data), allow_pickle=False) as bundle:
                return {array: bundle[array] for array in bundle.files}
        return None


def _lsm_store(directory) -> ArtifactStore:
    # memory_items=0: every get exercises the disk tier, not the LRU.
    return ArtifactStore(directory, memory_items=0)


def _seed_flat(directory, count: int) -> None:
    store = FlatManifestStore(directory)
    for index in range(count):
        store.put("count", _fingerprint(index), {"p": index}, _arrays(index))


def _seed_lsm(directory, count: int) -> None:
    store = _lsm_store(directory)
    for index in range(count):
        store.put("count", _fingerprint(index), {"p": index}, _arrays(index))
    assert store.stats.write_errors == 0 and store.stats.lock_contention == 0


def _flat_writer(directory: str, writer_id: int, count: int) -> float:
    store = FlatManifestStore(directory)
    start = time.perf_counter()
    for op in range(count):
        index = 1_000_000 + writer_id * count + op
        assert store.put("count", _fingerprint(index), {"p": index}, _arrays(index))
    return time.perf_counter() - start


def _lsm_writer(directory: str, writer_id: int, count: int) -> float:
    store = _lsm_store(directory)
    start = time.perf_counter()
    for op in range(count):
        index = 1_000_000 + writer_id * count + op
        store.put("count", _fingerprint(index), {"p": index}, _arrays(index))
    elapsed = time.perf_counter() - start
    assert store.stats.write_errors == 0 and store.stats.lock_contention == 0
    return elapsed


def _time_cold_lookups(make_store, directory, flavor: str) -> float:
    """Mean seconds for a fresh store instance to resolve one artifact."""
    # Spread probes over the key space so every lookup lands in a different
    # shard (LSM) / a different manifest position (flat).
    indices = np.linspace(0, NUM_ARTIFACTS - 1, NUM_LOOKUPS, dtype=int)
    start = time.perf_counter()
    for index in indices:
        store = make_store(directory)
        hit = store.get("count", _fingerprint(int(index)), {"p": int(index)})
        assert hit is not None, f"{flavor} lookup missed artifact {index}"
    return (time.perf_counter() - start) / len(indices)


def _throughput(writer, directory) -> float:
    """Aggregate puts/second across NUM_WRITERS concurrent processes."""
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=NUM_WRITERS) as pool:
        futures = [
            pool.submit(writer, str(directory), writer_id, PUTS_PER_WRITER)
            for writer_id in range(NUM_WRITERS)
        ]
        for future in futures:
            future.result(timeout=600)
    elapsed = time.perf_counter() - start
    return (NUM_WRITERS * PUTS_PER_WRITER) / elapsed


def run_lsm_benchmark(result_path: Path = RESULT_PATH) -> dict:
    """Seed both stores with N artifacts, measure both axes, write JSON."""
    with tempfile.TemporaryDirectory(prefix="repro-lsm-bench-") as tmp:
        flat_dir = Path(tmp) / "flat"
        lsm_dir = Path(tmp) / "lsm"
        _seed_flat(flat_dir, NUM_ARTIFACTS)
        _seed_lsm(lsm_dir, NUM_ARTIFACTS)

        flat_lookup_s = _time_cold_lookups(FlatManifestStore, flat_dir, "flat")
        lsm_lookup_s = _time_cold_lookups(_lsm_store, lsm_dir, "lsm")

        flat_put_rate = _throughput(_flat_writer, flat_dir)
        lsm_put_rate = _throughput(_lsm_writer, lsm_dir)

        occupancy = _lsm_store(lsm_dir).occupancy()

    payload = {
        "machine": machine(),
        "artifacts": NUM_ARTIFACTS,
        "writers": NUM_WRITERS,
        "puts_per_writer": PUTS_PER_WRITER,
        "lookups": NUM_LOOKUPS,
        "flat_lookup_ms": flat_lookup_s * 1e3,
        "lsm_lookup_ms": lsm_lookup_s * 1e3,
        "lookup_speedup": (
            flat_lookup_s / lsm_lookup_s if lsm_lookup_s else float("inf")
        ),
        "flat_put_per_s": flat_put_rate,
        "lsm_put_per_s": lsm_put_rate,
        "put_speedup": (
            lsm_put_rate / flat_put_rate if flat_put_rate else float("inf")
        ),
        "shards_used": occupancy["shards_used"],
        "log_records": occupancy["log_records"],
    }
    result_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def test_bench_lsm():
    payload = run_lsm_benchmark()
    lines = [
        f"N={payload['artifacts']} artifacts, {payload['writers']} writer "
        f"processes, {payload['lookups']} cold lookups",
        f"{'axis':<24} {'flat':>12} {'lsm':>12} {'speedup':>9}",
        f"{'cold lookup (ms)':<24} {payload['flat_lookup_ms']:>12.3f} "
        f"{payload['lsm_lookup_ms']:>12.3f} {payload['lookup_speedup']:>8.1f}x",
        f"{'put throughput (1/s)':<24} {payload['flat_put_per_s']:>12.1f} "
        f"{payload['lsm_put_per_s']:>12.1f} {payload['put_speedup']:>8.1f}x",
        f"{payload['shards_used']} shards used, "
        f"{payload['log_records']} L0 records pending compaction",
    ]
    write_report("bench_lsm", "\n".join(lines))
    assert payload["lookup_speedup"] >= GATE
    assert payload["put_speedup"] >= GATE


if __name__ == "__main__":
    print(json.dumps(run_lsm_benchmark(), indent=2))
