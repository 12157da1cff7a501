"""Observability overhead benchmark: instrumented warm path vs. metrics off.

The :mod:`repro.obs` registry instruments the hottest serving path — an
:class:`ArtifactStore` warm get resolving an artifact through the LSM disk
tier (``store.get`` outcome counters + per-shard ``LSM_GET_SECONDS``
histogram observations). Every mutator early-outs on ``registry.enabled``,
so disabling metrics must leave the warm path untouched and enabling them
should cost single-digit microseconds against a disk-bound get.

Timing a disk-bound path A/B is noisy (page cache, CPU frequency drift), so
the harness is built for robustness rather than raw speed:

* artifacts carry a **projection-scale payload** (the artifact class the
  serving warm path actually caches), so one get does representative work;
* enabled/disabled sweeps are **interleaved in small chunks** with the order
  flipped every round, cancelling drift slower than one chunk pair;
* the estimate is the **median of per-round ratios**, repeated over
  independent attempts and reduced by a second median.

The gate asserts the enabled path stays within :data:`MAX_OVERHEAD` of the
disabled one. Writes ``BENCH_obs.json`` at the repo root. Runnable as a
pytest test and as a script (``python benchmarks/bench_obs.py``).
"""

from __future__ import annotations

import hashlib
import json
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.store import ArtifactStore

from benchmarks.conftest import machine, write_report

#: Artifacts resident in the store (spread over the LSM shard space).
NUM_ARTIFACTS = 64

#: Floats in the projection-like payload array (~50 KB uncompressed).
PAYLOAD_FLOATS = 6144

#: Warm gets per timed chunk (one side of one interleaved round).
GETS_PER_CHUNK = 32

#: Interleaved rounds per attempt; each round times both modes, order
#: alternating, and contributes one enabled/disabled ratio.
ROUNDS_PER_ATTEMPT = 48

#: Independent attempts; the final overhead is the median of their medians.
NUM_ATTEMPTS = 3

#: Acceptance gate: enabled warm path within 5% of the disabled one.
MAX_OVERHEAD = 0.05

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


def _fingerprint(index: int) -> str:
    return hashlib.sha256(f"bench-obs-{index}".encode("ascii")).hexdigest()


def _payload(index: int) -> Dict[str, np.ndarray]:
    # Deterministic but non-constant values, so npz compression does
    # realistic work instead of collapsing a constant array.
    projection = (np.arange(PAYLOAD_FLOATS, dtype=np.float64) * (index + 3)) % 97.0
    return {"values": np.full(26, float(index)), "projection": projection}


def _seed(directory) -> ArtifactStore:
    # memory_items=0: every get exercises the instrumented disk tier rather
    # than the (also instrumented, but allocation-free) memory LRU.
    store = ArtifactStore(directory, memory_items=0)
    for index in range(NUM_ARTIFACTS):
        store.put(
            "count",
            _fingerprint(index),
            {"p": index},
            _payload(index),
            {"index": index},
            dataset="bench-obs",
        )
    assert store.stats.write_errors == 0
    return store


def _chunk(store: ArtifactStore, gets: int = GETS_PER_CHUNK) -> float:
    """Seconds for one warm-get chunk over the resident artifacts."""
    start = time.perf_counter()
    for op in range(gets):
        index = op % NUM_ARTIFACTS
        hit = store.get("count", _fingerprint(index), {"p": index})
        assert hit is not None
    return time.perf_counter() - start


def _attempt(store: ArtifactStore) -> Dict[str, float]:
    """One interleaved measurement pass: median ratio + per-mode medians."""
    ratios = []
    chunk_seconds = {True: [], False: []}
    for round_ in range(ROUNDS_PER_ATTEMPT):
        order = (True, False) if round_ % 2 == 0 else (False, True)
        times = {}
        for mode in order:
            obs_metrics.set_enabled(mode)
            times[mode] = _chunk(store)
        ratios.append(times[True] / times[False])
        for mode in (True, False):
            chunk_seconds[mode].append(times[mode])
    return {
        "ratio": statistics.median(ratios),
        "enabled_s": statistics.median(chunk_seconds[True]),
        "disabled_s": statistics.median(chunk_seconds[False]),
    }


def run_obs_benchmark(result_path: Path = RESULT_PATH) -> dict:
    """Interleave enabled/disabled warm gets; gate on the median overhead."""
    was_enabled = obs_metrics.metrics_enabled()
    attempts = []
    try:
        with tempfile.TemporaryDirectory(prefix="repro-obs-bench-") as tmp:
            store = _seed(Path(tmp))
            _chunk(store, gets=4 * GETS_PER_CHUNK)  # warm caches off-clock
            for _ in range(NUM_ATTEMPTS):
                attempts.append(_attempt(store))
    finally:
        obs_metrics.set_enabled(was_enabled)

    render_start = time.perf_counter()
    exposition = obs_metrics.render()
    render_seconds = time.perf_counter() - render_start

    overhead = statistics.median(a["ratio"] for a in attempts) - 1.0
    enabled_s = statistics.median(a["enabled_s"] for a in attempts)
    disabled_s = statistics.median(a["disabled_s"] for a in attempts)
    payload = {
        "machine": machine(),
        "artifacts": NUM_ARTIFACTS,
        "payload_floats": PAYLOAD_FLOATS,
        "gets_per_chunk": GETS_PER_CHUNK,
        "rounds_per_attempt": ROUNDS_PER_ATTEMPT,
        "attempts": NUM_ATTEMPTS,
        "enabled_us_per_get": enabled_s / GETS_PER_CHUNK * 1e6,
        "disabled_us_per_get": disabled_s / GETS_PER_CHUNK * 1e6,
        "overhead_fraction": overhead,
        "max_overhead": MAX_OVERHEAD,
        "render_ms": render_seconds * 1e3,
        "exposition_lines": len(exposition.splitlines()),
    }
    result_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def test_bench_obs():
    payload = run_obs_benchmark()
    lines = [
        f"{payload['attempts']} attempts x {payload['rounds_per_attempt']} "
        f"interleaved rounds x {payload['gets_per_chunk']} warm disk-tier "
        f"gets per mode (median of per-round ratios)",
        f"{'mode':<20} {'us/get':>10}",
        f"{'metrics enabled':<20} {payload['enabled_us_per_get']:>10.2f}",
        f"{'metrics disabled':<20} {payload['disabled_us_per_get']:>10.2f}",
        f"overhead: {payload['overhead_fraction'] * 100:+.2f}% "
        f"(gate: <= {payload['max_overhead'] * 100:.0f}%)",
        f"render: {payload['exposition_lines']} exposition lines in "
        f"{payload['render_ms']:.2f} ms",
    ]
    write_report("bench_obs", "\n".join(lines))
    assert payload["overhead_fraction"] <= MAX_OVERHEAD, (
        f"metrics overhead {payload['overhead_fraction'] * 100:.2f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}%"
    )


if __name__ == "__main__":
    print(json.dumps(run_obs_benchmark(), indent=2))
