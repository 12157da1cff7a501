"""Tests for the anchor-block kernel internals of :mod:`repro.fastcore.kernels`.

Pins the triu-cache accounting under concurrency (the double-charge race fix),
the byte-LUT popcount fallback against an independent reference, and the
block partitioning: shrunk-to-budget anchor blocks, singleton hub blocks that
take the chunked pair path, and the lazy projection driving the same kernels
— all bit-identical to :mod:`repro.fastcore.reference` counts. A provider
without the block interface is rejected rather than counted another way.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.counting.classification import fast_adjacency
from repro.counting.edge_sampling import accumulate_containing
from repro.counting.exact import count_exact
from repro.counting.wedge_sampling import accumulate_containing_wedges
from repro.fastcore import kernels
from repro.fastcore.reference import (
    count_containing_reference,
    count_exact_reference,
    count_wedges_reference,
    project_reference,
)
from repro.generators import generate_uniform_random
from repro.projection import LazyProjection, project


@pytest.fixture()
def graph():
    hypergraph = generate_uniform_random(
        num_nodes=30, num_hyperedges=50, mean_size=3.5, max_size=7, seed=21
    )
    projection = project(hypergraph)
    return hypergraph, projection, fast_adjacency(projection)


class TestTriuCacheAccounting:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        with kernels._TRIU_CACHE_LOCK:
            saved = dict(kernels._TRIU_CACHE), kernels._triu_cached_pairs
            kernels._TRIU_CACHE.clear()
            kernels._triu_cached_pairs = 0
        yield
        with kernels._TRIU_CACHE_LOCK:
            kernels._TRIU_CACHE.clear()
            kernels._TRIU_CACHE.update(saved[0])
            kernels._triu_cached_pairs = saved[1]

    def test_single_call_charges_the_pair_count(self):
        kernels._triu_pairs(10)
        assert kernels._triu_cached_pairs == 45
        assert set(kernels._TRIU_CACHE) == {10}

    def test_racing_threads_charge_each_size_once(self):
        """Two threads materializing the same size must not double-charge.

        The original code checked the cache only outside the lock, so every
        thread that lost the race still added ``num_pairs`` to the budget
        counter — inflating it until spurious cache clears kicked in.
        """
        sizes = [8, 16, 32, 64]
        threads_per_size = 8
        barrier = threading.Barrier(len(sizes) * threads_per_size)
        results = []
        results_lock = threading.Lock()

        def worker(size: int) -> None:
            barrier.wait()
            pair = kernels._triu_pairs(size)
            with results_lock:
                results.append((size, pair))

        threads = [
            threading.Thread(target=worker, args=(size,))
            for size in sizes
            for _ in range(threads_per_size)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        expected = sum(size * (size - 1) // 2 for size in sizes)
        assert kernels._triu_cached_pairs == expected
        assert set(kernels._TRIU_CACHE) == set(sizes)
        # Every caller got the exact triu pairs regardless of who won.
        for size, (left, right) in results:
            want_left, want_right = np.triu_indices(size, 1)
            assert np.array_equal(left, want_left)
            assert np.array_equal(right, want_right)

    def test_budget_overflow_clears_before_storing(self, monkeypatch):
        monkeypatch.setattr(kernels, "_TRIU_CACHE_PAIR_BUDGET", 50)
        kernels._triu_pairs(10)  # 45 pairs cached
        kernels._triu_pairs(5)  # +10 would exceed 50: clear, then store
        assert set(kernels._TRIU_CACHE) == {5}
        assert kernels._triu_cached_pairs == 10


class TestPopcountFallback:
    def test_byte_lut_matches_python_popcount(self):
        rng = np.random.default_rng(3)
        masks = rng.integers(0, 2**64, size=(64, 3), dtype=np.uint64)
        got = kernels._popcount_rows_bytes(masks)
        want = np.array(
            [sum(int(word).bit_count() for word in row) for row in masks],
            dtype=np.int64,
        )
        assert np.array_equal(got, want)

    @pytest.mark.skipif(
        not hasattr(np, "bitwise_count"), reason="numpy < 2.0 has no bitwise_count"
    )
    def test_byte_lut_matches_bitwise_count(self):
        rng = np.random.default_rng(11)
        for shape in [(1, 1), (7, 2), (128, 4)]:
            masks = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
            assert np.array_equal(
                kernels._popcount_rows_bytes(masks),
                np.bitwise_count(masks).sum(axis=1).astype(np.int64),
            )

    def test_extreme_words(self):
        masks = np.array([[0], [2**64 - 1]], dtype=np.uint64)
        assert kernels._popcount_rows_bytes(masks).tolist() == [0, 64]

    def test_active_popcount_agrees_with_fallback(self):
        rng = np.random.default_rng(29)
        masks = rng.integers(0, 2**64, size=(33, 2), dtype=np.uint64)
        assert np.array_equal(
            kernels._popcount_rows(masks), kernels._popcount_rows_bytes(masks)
        )


class TestBlockBoundaries:
    """Tiny block budgets force every partitioning branch; counts must not move."""

    @pytest.mark.parametrize("budget,block", [(1, 1), (8, 3), (64, 7)])
    def test_exact_counts_invariant_under_block_geometry(
        self, graph, monkeypatch, budget, block
    ):
        hypergraph, _, adjacency = graph
        monkeypatch.setattr(kernels, "_BLOCK_PAIR_BUDGET", budget)
        monkeypatch.setattr(kernels, "_ANCHOR_BLOCK", block)
        got = kernels.count_exact_batched(hypergraph.csr(), adjacency)
        assert np.array_equal(got, count_exact_reference(hypergraph).to_array())

    def test_hub_anchor_takes_the_chunked_pair_path(self, graph, monkeypatch):
        hypergraph, _, adjacency = graph
        # Budget 1 makes every anchor a singleton "hub" whose pair total
        # exceeds the block budget; chunk size 7 forces several slabs per hub.
        monkeypatch.setattr(kernels, "_BLOCK_PAIR_BUDGET", 1)
        monkeypatch.setattr(kernels, "_PAIR_CHUNK", 7)
        got = kernels.count_exact_batched(hypergraph.csr(), adjacency)
        assert np.array_equal(got, count_exact_reference(hypergraph).to_array())

    def test_containing_counts_invariant_under_block_geometry(
        self, graph, monkeypatch
    ):
        hypergraph, projection, adjacency = graph
        anchors = list(range(0, hypergraph.num_hyperedges, 2)) * 2  # duplicates
        want = count_containing_reference(
            hypergraph, project_reference(hypergraph), anchors
        ).to_array()
        monkeypatch.setattr(kernels, "_BLOCK_PAIR_BUDGET", 8)
        monkeypatch.setattr(kernels, "_ANCHOR_BLOCK", 3)
        got = kernels.count_containing_batched(hypergraph.csr(), adjacency, anchors)
        assert np.array_equal(got, want)

    def test_wedge_counts_invariant_under_block_geometry(self, graph, monkeypatch):
        hypergraph, projection, adjacency = graph
        wedges = projection.hyperwedge_list()[:80]
        want = count_wedges_reference(
            hypergraph, project_reference(hypergraph), wedges
        ).to_array()
        monkeypatch.setattr(kernels, "_BLOCK_PAIR_BUDGET", 8)
        monkeypatch.setattr(kernels, "_ANCHOR_BLOCK", 3)
        got = kernels.count_wedges_batched(hypergraph.csr(), adjacency, wedges)
        assert np.array_equal(got, want)


class TestLazySourceThroughKernels:
    """The lazy projection drives the same block kernels, budget and all."""

    @pytest.mark.parametrize("budget", [None, 0, 1, 5])
    def test_exact_parity(self, graph, budget):
        hypergraph, _, _ = graph
        lazy = LazyProjection(hypergraph, budget=budget, policy="lru")
        got = kernels.count_exact_batched(hypergraph.csr(), lazy)
        assert np.array_equal(got, count_exact_reference(hypergraph).to_array())

    def test_containing_parity(self, graph):
        hypergraph, _, _ = graph
        anchors = [0, 3, 3, 7, 11]
        lazy = LazyProjection(hypergraph, budget=4)
        got = kernels.count_containing_batched(hypergraph.csr(), lazy, anchors)
        want = count_containing_reference(
            hypergraph, project_reference(hypergraph), anchors
        ).to_array()
        assert np.array_equal(got, want)

    def test_wedge_parity(self, graph):
        hypergraph, projection, _ = graph
        wedges = projection.hyperwedge_list()[:40]
        lazy = LazyProjection(hypergraph, budget=4)
        got = kernels.count_wedges_batched(hypergraph.csr(), lazy, wedges)
        want = count_wedges_reference(
            hypergraph, project_reference(hypergraph), wedges
        ).to_array()
        assert np.array_equal(got, want)


class _NeighborsOnly:
    """A dict-backed provider with only ``neighbors``/``overlap``."""

    def __init__(self, projection):
        self._adjacency = {
            i: dict(projection.neighbors(i)) for i in range(projection.num_hyperedges)
        }

    def neighbors(self, i):
        return self._adjacency.get(i, {})

    def overlap(self, i, j):
        return self._adjacency.get(i, {}).get(j, 0)


class TestProviderWithoutBlockInterface:
    """Every counter rejects a provider without the block interface."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda hypergraph, provider: count_exact(hypergraph, provider),
            lambda hypergraph, provider: accumulate_containing(
                hypergraph, provider, [0, 1]
            ),
            lambda hypergraph, provider: accumulate_containing_wedges(
                hypergraph, provider, [(0, 1)]
            ),
        ],
        ids=["count_exact", "accumulate_containing", "accumulate_wedges"],
    )
    def test_counters_name_the_missing_methods(self, graph, run):
        hypergraph, projection, _ = graph
        with pytest.raises(TypeError) as raised:
            run(hypergraph, _NeighborsOnly(projection))
        message = str(raised.value)
        assert "_NeighborsOnly" in message
        for method in ("gather_rows", "row_lengths", "pair_weights"):
            assert method in message
