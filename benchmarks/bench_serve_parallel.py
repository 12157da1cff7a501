"""Parallel-serving benchmark: a mixed cold batch, serial vs. process workers.

Simulates the multi-tenant serving path the executor layer was built for: a
batch of cold requests over several distinct datasets submitted through one
:class:`~repro.store.serve.EngineServer`, each backend pointed at its own
fresh store directory. The ``process`` backend with four workers must beat
the ``serial`` backend by the gate factor **and** return bit-identical
results — parallelism that changed a single count would be a regression, not
a speedup. The ``thread`` backend is measured too (informational: its
speedup depends on how much of the kernels runs outside the GIL). Writes
``BENCH_serve.json`` at the repo root so the serving-throughput trajectory
is tracked from PR to PR. Runnable as a pytest test (asserts the ≥2× gate)
and as a script (``python -m benchmarks.bench_serve_parallel``).
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import CountSpec
from repro.generators import generate_uniform_random
from repro.store import ArtifactStore
from repro.store.serve import EngineServer, ServeRequest

from benchmarks.conftest import machine, write_report

#: The mixed batch: one cold exact count per distinct dataset. Sizes match
#: the store benchmark's ballpark — big enough that projection + MoCHy-E
#: dominates executor overhead, small enough for CI.
NUM_DATASETS = 8
NUM_NODES = 500
NUM_HYPEREDGES = 1200
MEAN_SIZE = 3.5
MAX_SIZE = 7

#: Workers for the parallel backends (the gate's configuration).
NUM_WORKERS = 4

#: Required speedup of process-parallel over serial execution.
GATE_SPEEDUP = 2.0

#: Usable cores the ≥2x gate needs before it is meaningful: with four
#: workers the ideal speedup is min(workers, cores), so anything below four
#: cores leaves no headroom over the gate (and one core makes parallel
#: *slower*, by exactly the overhead the benchmark exists to bound).
GATE_MIN_CPUS = 4

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


def _mixed_batch():
    """Fresh hypergraph objects (fresh CSR/fingerprint caches) per run."""
    return [
        ServeRequest(
            generate_uniform_random(
                num_nodes=NUM_NODES,
                num_hyperedges=NUM_HYPEREDGES,
                mean_size=MEAN_SIZE,
                max_size=MAX_SIZE,
                seed=seed,
            ),
            CountSpec(),
        )
        for seed in range(NUM_DATASETS)
    ]


def _run(backend, workers, store_dir: Path):
    """Serve one cold batch on *backend*; (wall seconds, results)."""
    requests = _mixed_batch()
    server = EngineServer(store=ArtifactStore(store_dir))
    start = time.perf_counter()
    results = server.submit(requests, workers=workers, backend=backend)
    return time.perf_counter() - start, results


def run_serve_parallel_benchmark(result_path: Path = RESULT_PATH) -> dict:
    """Measure serial vs. thread vs. process serving of one cold batch."""
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        root = Path(tmp)
        serial_s, serial_results = _run("serial", 1, root / "serial")
        thread_s, thread_results = _run("thread", NUM_WORKERS, root / "thread")
        process_s, process_results = _run("process", NUM_WORKERS, root / "process")

    for candidate in (thread_results, process_results):
        for expected, actual in zip(serial_results, candidate):
            if not np.array_equal(
                actual.counts.to_array(), expected.counts.to_array()
            ):
                raise AssertionError(
                    "parallel results diverged from serial; benchmark void"
                )

    payload = {
        "machine": machine(),
        "datasets": NUM_DATASETS,
        "nodes": NUM_NODES,
        "edges": NUM_HYPEREDGES,
        "workers": NUM_WORKERS,
        "serial_s": serial_s,
        "thread_s": thread_s,
        "process_s": process_s,
        "thread_speedup": serial_s / thread_s if thread_s > 0 else float("inf"),
        "process_speedup": serial_s / process_s if process_s > 0 else float("inf"),
        "gate_speedup": GATE_SPEEDUP,
    }
    result_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def test_bench_serve_parallel():
    import pytest

    payload = run_serve_parallel_benchmark()
    lines = [
        f"mixed cold batch: {payload['datasets']} datasets x exact count "
        f"({payload['edges']} hyperedges each), {payload['workers']} workers "
        f"on {payload['machine']['cpus']} cpus",
        f"{'backend':<10} {'seconds':>9} {'speedup':>9}",
        f"{'serial':<10} {payload['serial_s']:>9.3f} {'1.0x':>9}",
        f"{'thread':<10} {payload['thread_s']:>9.3f} "
        f"{payload['thread_speedup']:>8.2f}x",
        f"{'process':<10} {payload['process_s']:>9.3f} "
        f"{payload['process_speedup']:>8.2f}x",
        "parallel counts verified bit-identical to serial",
    ]
    write_report("bench_serve_parallel", "\n".join(lines))
    if payload["machine"]["cpus"] < GATE_MIN_CPUS:
        # Parity was still verified above; only the throughput gate needs
        # real cores (CI hardware has them).
        pytest.skip(
            f"speedup gate needs >= {GATE_MIN_CPUS} usable cpus, "
            f"have {payload['machine']['cpus']}"
        )
    assert payload["process_speedup"] >= GATE_SPEEDUP, (
        f"process backend speedup {payload['process_speedup']:.2f}x "
        f"below the {GATE_SPEEDUP}x gate"
    )


if __name__ == "__main__":
    print(json.dumps(run_serve_parallel_benchmark(), indent=2))
