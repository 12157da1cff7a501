"""Store warm-start benchmark: cold vs. warm engine construction + workflows.

Simulates the cross-process serving path: a *cold* engine pointed at an empty
:class:`~repro.store.ArtifactStore` directory builds the projection, runs
MoCHy-E and a seeded characteristic profile, persisting every artifact; a
*warm* engine — a fresh ``Hypergraph`` object and a fresh ``ArtifactStore``
instance over the same directory, exactly what a second CLI invocation gets —
repeats the same workflows and must be served from the persistent tier
without rebuilding anything, bit-identically. Writes ``BENCH_store.json`` at
the repo root so the warm-start trajectory is tracked from PR to PR.
Runnable as a pytest test (asserts the ≥5× warm-start gate) and as a script
(``python benchmarks/bench_store_warm_start.py``).
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import CountSpec, MotifEngine, ProfileSpec
from repro.generators import generate_uniform_random
from repro.store import ArtifactStore

from benchmarks.conftest import machine, write_report

#: Seeded benchmark hypergraph (matches bench_core_speed's scale ballpark:
#: big enough that cold projection+counting dominates, small enough for CI).
NUM_NODES = 240
NUM_HYPEREDGES = 480
MEAN_SIZE = 3.5
MAX_SIZE = 7
SEED = 42

#: The warmed workflows: exact counts plus a seeded 3-null profile.
COUNT_SPEC = CountSpec()
PROFILE_SPEC = ProfileSpec(num_random=3, seed=0)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_store.json"


def _fresh_hypergraph():
    """A brand-new Hypergraph object (fresh CSR/fingerprint caches each time)."""
    return generate_uniform_random(
        num_nodes=NUM_NODES,
        num_hyperedges=NUM_HYPEREDGES,
        mean_size=MEAN_SIZE,
        max_size=MAX_SIZE,
        seed=SEED,
    )


def _run_workflows(store_dir: Path):
    """Construct an engine over a fresh store instance and run both workflows.

    Returns per-workflow wall-clock seconds plus the results — engine
    construction and fingerprinting are charged to the count phase, exactly
    what a fresh process pays.
    """
    start = time.perf_counter()
    engine = MotifEngine(_fresh_hypergraph(), store=ArtifactStore(store_dir))
    count = engine.count(COUNT_SPEC)
    count_s = time.perf_counter() - start

    start = time.perf_counter()
    profile = engine.profile(PROFILE_SPEC)
    profile_s = time.perf_counter() - start
    return count_s, profile_s, count, profile


def run_store_warm_start_benchmark(result_path: Path = RESULT_PATH) -> dict:
    """Measure cold vs. warm serving against one store directory; write JSON."""
    with tempfile.TemporaryDirectory(prefix="repro-store-bench-") as tmp:
        store_dir = Path(tmp) / "store"
        cold_count_s, cold_profile_s, cold_count, cold_profile = _run_workflows(
            store_dir
        )
        warm_count_s, warm_profile_s, warm_count, warm_profile = _run_workflows(
            store_dir
        )
        num_artifacts = len(ArtifactStore(store_dir).entries())

    if not np.array_equal(
        warm_count.counts.to_array(), cold_count.counts.to_array()
    ) or not np.array_equal(warm_profile.values, cold_profile.values):
        raise AssertionError("warm-start results diverged from cold; benchmark void")
    if not (warm_count.from_cache and warm_profile.from_cache):
        raise AssertionError("warm run was not served from the store; benchmark void")

    payload = {
        "machine": machine(),
        "edges": NUM_HYPEREDGES,
        "nodes": NUM_NODES,
        "cold_count_s": cold_count_s,
        "warm_count_s": warm_count_s,
        "cold_profile_s": cold_profile_s,
        "warm_profile_s": warm_profile_s,
        "count_speedup": cold_count_s / warm_count_s if warm_count_s > 0 else float("inf"),
        "profile_speedup": (
            cold_profile_s / warm_profile_s if warm_profile_s > 0 else float("inf")
        ),
        "warm_count_tier": warm_count.cache_tier,
        "warm_profile_tier": warm_profile.cache_tier,
        "artifacts": num_artifacts,
    }
    result_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def test_bench_store_warm_start():
    payload = run_store_warm_start_benchmark()
    lines = [
        f"{'workflow':<22} {'cold (s)':>10} {'warm (s)':>10} {'speedup':>9}",
        f"{'count (MoCHy-E)':<22} {payload['cold_count_s']:>10.4f} "
        f"{payload['warm_count_s']:>10.4f} {payload['count_speedup']:>8.1f}x",
        f"{'profile (3 nulls)':<22} {payload['cold_profile_s']:>10.4f} "
        f"{payload['warm_profile_s']:>10.4f} {payload['profile_speedup']:>8.1f}x",
        f"{payload['artifacts']} artifacts persisted; warm tiers: "
        f"count={payload['warm_count_tier']}, profile={payload['warm_profile_tier']}",
    ]
    write_report("bench_store_warm_start", "\n".join(lines))
    assert payload["count_speedup"] >= 5.0
    assert payload["profile_speedup"] >= 5.0


if __name__ == "__main__":
    print(json.dumps(run_store_warm_start_benchmark(), indent=2))
