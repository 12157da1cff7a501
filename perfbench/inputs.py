"""Benchmark inputs, generated from the workload seed by the repo's generators.

Every hypergraph the benchmark uses comes from :mod:`repro.generators`
(nothing is downloaded), and every random choice derives from the
``--seed`` argument through :func:`sub_seed`, so one seed always yields the
same datasets, request mix and request order.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.generators import (
    dataset_specs,
    generate_dataset,
    generate_coauthorship,
    generate_temporal_coauthorship,
    generate_uniform_random,
)
from repro.hypergraph.builders import TemporalHypergraph, deduplicate_hyperedges
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.io import write_plain

#: compute-cold's exact-count size ladder (hyperedges). Uniform random
#: hypergraphs with one node per three hyperedges keep the work per anchor
#: constant along the ladder, so the rungs differ in size only.
LADDER = {"e1k": 1000, "e4k": 4000, "e16k": 16000}


def sub_seed(seed: int, *tags) -> int:
    """A 32-bit seed for one named input stream of workload seed *seed*."""
    words = [int(seed)] + [
        tag if isinstance(tag, int) else zlib.crc32(str(tag).encode()) for tag in tags
    ]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def corpus_like(name: str, scale: float, seed: int, label: str) -> Hypergraph:
    """The registered corpus dataset *name*'s generator at *scale*, reseeded.

    Same generator and parameters as ``repro.generators.generate_dataset``
    (sizes scaled, duplicates removed) but with *seed* in place of the
    registry's fixed seed, so the workload seed controls the content.
    """
    spec = next(spec for spec in dataset_specs() if spec.name == name)
    parameters = dict(spec.parameters)
    for key, value in parameters.items():
        if key.startswith("num_"):
            parameters[key] = max(2, int(round(value * scale)))
    return deduplicate_hyperedges(spec.generator(seed=seed, name=label, **parameters))


def reference_graph(seed: int) -> Hypergraph:
    """A hypergraph small enough for the per-triple reference counter."""
    return generate_uniform_random(
        num_nodes=40, num_hyperedges=90, seed=sub_seed(seed, "reference"), name="ref"
    )


def compute_inputs(seed: int) -> Dict[str, Hypergraph]:
    """compute-cold's hypergraphs: the ladder, a hub-heavy and a coauth graph."""
    graphs = {
        name: generate_uniform_random(
            num_nodes=size // 3,
            num_hyperedges=size,
            seed=sub_seed(seed, name),
            name=name,
        )
        for name, size in LADDER.items()
    }
    # The registered email-enron-like graph itself: how much of a hub-heavy
    # graph's work lands on its hubs swings with the generator's seed, so a
    # reseeded copy would make this one job's cost differ between seeds.
    graphs["hub"] = generate_dataset("email-enron-like", scale=2.0)
    graphs["coauth"] = corpus_like(
        "coauth-dblp-like", 2.0, sub_seed(seed, "coauth"), "coauth"
    )
    return graphs


def _line(edge) -> str:
    """One hyperedge in the plain one-hyperedge-per-line file format."""
    return " ".join(sorted(str(node) for node in edge))


def write_temporal(temporal: TemporalHypergraph, path: Path) -> None:
    """Write *temporal* as a plain file plus its ``<stem>-times.txt`` sidecar."""
    pairs = list(temporal)
    with path.open("w", encoding="utf-8") as edges:
        for _, edge in pairs:
            edges.write(_line(edge) + "\n")
    with path.with_name(f"{path.stem}-times.txt").open("w", encoding="utf-8") as times:
        for stamp, _ in pairs:
            times.write(f"{stamp}\n")


def small_temporal(seed: int, label: str) -> TemporalHypergraph:
    """A small evolving co-authorship hypergraph (a few yearly snapshots)."""
    return generate_temporal_coauthorship(
        num_years=5,
        initial_authors=60,
        initial_papers=30,
        seed=seed,
        name=label,
    )


def warm_working_set(
    seed: int, directory: Path, num_datasets: int, num_chains: int
) -> Tuple[List[str], List[str]]:
    """serve-warm's datasets: small static files and temporal chains.

    The static datasets cycle through the eleven corpus generators at a
    small scale; their count is what sizes the working set against the
    server's engine pool and memory tier. Returns ``(static, temporal)``
    file paths.
    """
    specs = dataset_specs()
    static = []
    for index in range(num_datasets):
        spec = specs[index % len(specs)]
        path = directory / f"warm-{index:03d}.txt"
        write_plain(
            corpus_like(spec.name, 0.15, sub_seed(seed, "warm", index), path.stem),
            path,
        )
        static.append(str(path))
    temporal = []
    for index in range(num_chains):
        path = directory / f"warm-chain-{index}.txt"
        write_temporal(small_temporal(sub_seed(seed, "warm-chain", index), path.stem), path)
        temporal.append(str(path))
    return static, temporal


#: Sizes (hyperedges) of serve-cold's generated base datasets. Many bases
#: per run average out how much the work of one generated graph depends on
#: the seed.
COLD_BASE_SIZES = tuple(range(300, 1501, 120))
COLD_CHAIN_BASES = 12


def _plain_lines(graph: Hypergraph) -> List[str]:
    return [_line(edge) for edge in graph.hyperedges()]


def _nodes(lines: List[str]) -> List[str]:
    return sorted({node for line in lines for node in line.split()})


class ColdInputs:
    """serve-cold's never-seen datasets.

    A few base hypergraphs are generated up front; each requested dataset
    is a base plus two hyperedges drawn for its name alone, so every dataset
    has its own content fingerprint (nothing can be answered from the
    store) while creating one costs a file write instead of a generator
    run. Temporal datasets get their extra hyperedges at the first
    timestamp, so every snapshot of the chain, and its lineage, is new too.
    """

    def __init__(self, seed: int, directory: Path) -> None:
        self.seed = seed
        self.directory = directory
        self._static = []
        for index, size in enumerate(COLD_BASE_SIZES):
            stream = sub_seed(seed, "cold-base", index)
            if index % 2:
                graph = generate_uniform_random(
                    num_nodes=size // 2, num_hyperedges=size, seed=stream
                )
            else:
                graph = generate_coauthorship(
                    num_authors=int(size * 1.6),
                    num_papers=size,
                    num_groups=max(6, size // 12),
                    seed=stream,
                )
            lines = _plain_lines(graph)
            self._static.append((lines, _nodes(lines)))
        self._chains = []
        for index in range(COLD_CHAIN_BASES):
            temporal = generate_temporal_coauthorship(
                num_years=5,
                initial_authors=90,
                initial_papers=36,
                seed=sub_seed(seed, "cold-chain-base", index),
            )
            pairs = list(temporal)
            lines = [_line(edge) for _, edge in pairs]
            stamps = [stamp for stamp, _ in pairs]
            self._chains.append((lines, _nodes(lines), stamps))

    def _extras(self, name: str, nodes: List[str]) -> List[str]:
        rng = np.random.default_rng(sub_seed(self.seed, "cold", name))
        return [
            " ".join(sorted(rng.choice(nodes, size=3, replace=False).tolist()))
            for _ in range(2)
        ]

    def dataset(self, name: str, base: int) -> str:
        """Path of the static dataset *name*, derived from base *base*
        (modulo the number of bases). Names must be unique."""
        lines, nodes = self._static[base % len(self._static)]
        path = self.directory / f"cold-{name}.txt"
        path.write_text("\n".join(lines + self._extras(name, nodes)) + "\n")
        return str(path)

    def chain(self, name: str, base: int) -> str:
        """Path of the temporal dataset *name*, with its ``-times.txt``
        sidecar, derived from chain base *base*."""
        lines, nodes, stamps = self._chains[base % len(self._chains)]
        path = self.directory / f"cold-chain-{name}.txt"
        extras = self._extras(f"chain-{name}", nodes)
        path.write_text("\n".join(extras + lines) + "\n")
        times = [stamps[0]] * len(extras) + stamps
        path.with_name(f"{path.stem}-times.txt").write_text(
            "\n".join(str(stamp) for stamp in times) + "\n"
        )
        return str(path)
