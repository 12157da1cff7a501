"""Incremental evolution benchmark: delta engine vs. from-scratch chains.

Counts a 20-snapshot cumulative chain (a ~2500-hyperedge base growing by
~10 hyperedges per boundary) twice through ``MotifEngine.evolve``:

* **incremental** (the default serving path): the base is counted once,
  then every boundary re-counts only the anchors its delta touched via
  :mod:`repro.fastcore.delta`, merging into the running exact counts;
* **from-scratch** (``incremental=False``): every boundary rebuilds its
  cumulative graph and counts it whole — the pre-delta-engine behavior.

The acceptance gate is twofold: the incremental chain must be **>= 3x
faster**, and every snapshot's counts must be **bit-identical** between
the two paths (the delta engine's correctness contract — float64 bincount
sums are exact integers well below 2^53).

Writes ``BENCH_evolve.json`` at the repo root. Runnable as a pytest test
and as a script (``python benchmarks/bench_evolve.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.api import EvolveSpec, MotifEngine
from repro.hypergraph.builders import TemporalHypergraph
from repro.utils.rng import ensure_rng

from benchmarks.conftest import machine, write_report

#: Hyperedges in the base snapshot (boundary 0).
BASE_EDGES = 2500

#: Chain boundaries after the base.
NUM_SNAPSHOTS = 20

#: Hyperedges added per boundary.
DELTA_EDGES = 10

#: Node population the hyperedges draw from. Kept sparse relative to the
#: edge count so each delta stays local (a handful of affected anchors),
#: the regime the delta engine targets — dense overlap degenerates every
#: delta into a near-full recount and erases the incremental advantage.
NUM_NODES = 4000

#: The acceptance gate: incremental must beat from-scratch by this factor.
GATE = 3.0

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_evolve.json"


def _random_edges(rng, count, seen, max_size=5):
    """*count* distinct random hyperedges not present in *seen*."""
    edges = []
    while len(edges) < count:
        size = int(rng.integers(2, max_size + 1))
        edge = frozenset(
            int(node) for node in rng.choice(NUM_NODES, size=size, replace=False)
        )
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
    return edges


def build_chain() -> TemporalHypergraph:
    """The benchmark chain as a temporal hypergraph (one stamp per boundary)."""
    rng = ensure_rng(97)
    seen: set = set()
    pairs = [(0, edge) for edge in _random_edges(rng, BASE_EDGES, seen)]
    for boundary in range(1, NUM_SNAPSHOTS + 1):
        pairs.extend(
            (boundary, edge) for edge in _random_edges(rng, DELTA_EDGES, seen)
        )
    return TemporalHypergraph(pairs, name="bench-evolve-chain")


def run_evolve_benchmark(result_path: Path = RESULT_PATH) -> dict:
    """Time both paths over the same chain, pin parity, write JSON."""
    temporal = build_chain()

    fast = MotifEngine(temporal, store=False).evolve(EvolveSpec())
    slow = MotifEngine(temporal, store=False).evolve(EvolveSpec(incremental=False))

    assert len(fast.snapshots) == len(slow.snapshots) == NUM_SNAPSHOTS + 1
    for incremental, scratch in zip(fast.snapshots, slow.snapshots):
        if not np.array_equal(
            incremental.counts.to_array(), scratch.counts.to_array()
        ):
            raise AssertionError(
                f"parity violated at snapshot {incremental.index} "
                f"({incremental.label})"
            )

    affected = [
        snapshot.delta["affected_anchors"]
        for snapshot in fast.snapshots
        if snapshot.delta is not None
    ]
    payload = {
        "machine": machine(),
        "base_edges": BASE_EDGES,
        "snapshots": NUM_SNAPSHOTS + 1,
        "delta_edges": DELTA_EDGES,
        "incremental_seconds": fast.seconds,
        "from_scratch_seconds": slow.seconds,
        "speedup": (slow.seconds / fast.seconds) if fast.seconds else float("inf"),
        "bit_identical": True,
        "mean_affected_anchors": float(np.mean(affected)) if affected else 0.0,
        "total_edges": fast.snapshots[-1].num_hyperedges,
        "modes": fast.snapshot_modes(),
    }
    result_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def test_bench_evolve():
    payload = run_evolve_benchmark()
    lines = [
        f"chain: {payload['base_edges']}-edge base + "
        f"{payload['snapshots'] - 1} deltas x {payload['delta_edges']} edges "
        f"({payload['total_edges']} total)",
        f"{'path':<28} {'seconds':>10}",
        f"{'incremental (delta engine)':<28} "
        f"{payload['incremental_seconds']:>10.3f}",
        f"{'from-scratch rebuilds':<28} "
        f"{payload['from_scratch_seconds']:>10.3f}",
        f"speedup: {payload['speedup']:.1f}x "
        f"(gate >= {GATE:.0f}x); counts bit-identical; "
        f"mean affected anchors per delta: "
        f"{payload['mean_affected_anchors']:.1f}",
    ]
    write_report("bench_evolve", "\n".join(lines))
    assert payload["bit_identical"]
    assert payload["speedup"] >= GATE


if __name__ == "__main__":
    print(json.dumps(run_evolve_benchmark(), indent=2))
