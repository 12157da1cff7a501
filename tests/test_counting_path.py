"""Tests for the single counting path.

Every MoCHy counter runs the anchor-block kernels of
:mod:`repro.fastcore.kernels`, read through :func:`kernel_source`. Pins the
three sides of that contract: which providers can drive the kernels (and the
:class:`TypeError` for those that cannot), that nothing selects another
implementation — no keyword, CLI option, worker field or environment read —
and that the counts through every entry point stay bit-identical to
:mod:`repro.fastcore.reference`.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
from collections.abc import Mapping

import numpy as np
import pytest

from repro.api import CountSpec, MotifEngine, spec_to_dict
from repro.counting.classification import kernel_source
from repro.counting.edge_sampling import accumulate_containing
from repro.counting.exact import count_exact
from repro.counting.wedge_sampling import accumulate_containing_wedges
from repro.fastcore.delta import initial_state
from repro.fastcore.kernels import (
    count_containing_batched,
    count_exact_batched,
    count_wedges_batched,
)
from repro.fastcore.projection import AdjacencyArrays
from repro.fastcore.reference import (
    count_containing_reference,
    count_exact_reference,
    count_wedges_reference,
    project_reference,
)
from repro.generators import generate_uniform_random
from repro.projection import LazyProjection, project

BLOCK_METHODS = ("gather_rows", "row_lengths", "pair_weights")


@pytest.fixture()
def graph():
    hypergraph = generate_uniform_random(
        num_nodes=25, num_hyperedges=35, mean_size=3.5, max_size=7, seed=13
    )
    return hypergraph, project(hypergraph)


def _partial_provider(lazy, present):
    """A provider that forwards only *present* block methods to *lazy*."""
    attributes = {
        "neighbors": lambda self, i: lazy.neighbors(i),
        "overlap": lambda self, i, j: lazy.overlap(i, j),
    }
    for name in present:
        attributes[name] = lambda self, *args, _name=name, **kwargs: getattr(
            lazy, _name
        )(*args, **kwargs)
    return type("PartialProvider", (), attributes)()


_PROPER_SUBSETS = [
    subset
    for size in range(len(BLOCK_METHODS))
    for subset in itertools.combinations(BLOCK_METHODS, size)
]


class TestKernelSource:
    @pytest.mark.parametrize(
        "present", _PROPER_SUBSETS, ids=lambda subset: "+".join(subset) or "none"
    )
    def test_names_exactly_the_missing_methods(self, graph, present):
        hypergraph, _ = graph
        provider = _partial_provider(LazyProjection(hypergraph), present)
        with pytest.raises(TypeError, match="PartialProvider") as raised:
            kernel_source(provider)
        lacking = str(raised.value).split("lacks", 1)[1]
        for name in BLOCK_METHODS:
            assert (name in lacking) == (name not in present)

    def test_full_block_interface_is_consumed_directly(self, graph):
        hypergraph, _ = graph
        provider = _partial_provider(LazyProjection(hypergraph), BLOCK_METHODS)
        assert kernel_source(provider) is provider

    def test_full_projection_resolves_to_its_arrays(self, graph):
        _, projection = graph
        assert isinstance(kernel_source(projection), AdjacencyArrays)

    def test_lazy_projection_is_its_own_source(self, graph):
        hypergraph, _ = graph
        lazy = LazyProjection(hypergraph, budget=5)
        assert kernel_source(lazy) is lazy

    def test_forwarding_provider_counts_like_the_reference(self, graph):
        hypergraph, _ = graph
        provider = _partial_provider(LazyProjection(hypergraph), BLOCK_METHODS)
        got = count_exact(hypergraph, provider).to_array()
        assert np.array_equal(got, count_exact_reference(hypergraph).to_array())


class TestNoImplementationSwitch:
    @pytest.mark.parametrize(
        "kernel", [count_exact_batched, count_containing_batched, count_wedges_batched]
    )
    def test_kernels_take_no_backend_argument(self, graph, kernel):
        hypergraph, projection = graph
        with pytest.raises(TypeError, match="backend"):
            kernel(hypergraph.csr(), kernel_source(projection), [0], backend="numpy")

    def test_engine_takes_no_kernel_argument(self, graph):
        hypergraph, _ = graph
        with pytest.raises(TypeError, match="kernel"):
            MotifEngine(hypergraph, store=False, kernel="numpy")

    def test_engine_load_takes_no_kernel_argument(self):
        with pytest.raises(TypeError, match="kernel"):
            MotifEngine.load("email-enron-like", store=False, kernel="numpy")

    def test_delta_state_takes_no_backend_argument(self):
        with pytest.raises(TypeError, match="backend"):
            initial_state([{1, 2}], backend="numpy")
        assert not hasattr(initial_state([{1, 2}]), "backend")

    def test_worker_payload_carries_only_the_unit(self):
        from repro.store.executors import WorkerPayload

        fields = {field.name for field in dataclasses.fields(WorkerPayload)}
        assert fields == {
            "edge_ptr",
            "edge_nodes",
            "dataset",
            "spec",
            "store_dir",
            "capture",
            "failure",
            "request_id",
        }

    @pytest.mark.parametrize(
        "command",
        [
            ("count",),
            ("profile",),
            ("compare",),
            ("evolve",),
            ("cache", "warm"),
            ("serve",),
            ("serve-batch",),
        ],
        ids="-".join,
    )
    def test_cli_has_no_kernel_option(self, command):
        from repro.cli import build_parser

        parser = build_parser()
        for name in command:
            parser = _subparser(parser, name)
        options = [
            option
            for action in parser._actions
            for option in action.option_strings
        ]
        assert "--help" in options
        assert not [option for option in options if option.startswith("--kernel")]

    def test_packages_export_no_selection_names(self):
        import repro.api
        import repro.fastcore

        for module in (repro.api, repro.fastcore):
            exported = [name.lower() for name in module.__all__]
            assert not [name for name in exported if "backend" in name]
            assert "kernelconfig" not in exported


def _subparser(parser, name):
    """The sub-command parser registered under *name* on *parser*."""
    for action in parser._actions:
        if isinstance(getattr(action, "choices", None), dict) and name in action.choices:
            return action.choices[name]
    raise AssertionError(f"no sub-command {name!r}")


class _RecordingEnviron(Mapping):
    """An ``os.environ`` stand-in that records every key that is read."""

    def __init__(self, environ):
        self._environ = environ
        self.reads = []

    def __getitem__(self, key):
        self.reads.append(key)
        return self._environ[key]

    def __contains__(self, key):
        self.reads.append(key)
        return key in self._environ

    def __iter__(self):
        self.reads.append("<iter>")
        return iter(self._environ)

    def __len__(self):
        return len(self._environ)


def _environment_reads(run):
    """Call *run* with ``os.environ`` recorded; return its result and the reads."""
    real = os.environ
    recording = _RecordingEnviron(real)
    os.environ = recording
    try:
        result = run()
    finally:
        os.environ = real
    return result, recording.reads


class TestEnvironmentIsNotRead:
    """No counter consults the environment to choose how to count."""

    def test_exact(self, graph):
        hypergraph, projection = graph
        counts, reads = _environment_reads(lambda: count_exact(hypergraph, projection))
        assert reads == []
        assert np.array_equal(
            counts.to_array(), count_exact_reference(hypergraph).to_array()
        )

    def test_containing(self, graph):
        hypergraph, projection = graph
        anchors = list(range(0, hypergraph.num_hyperedges, 2))
        counts, reads = _environment_reads(
            lambda: accumulate_containing(hypergraph, projection, anchors)
        )
        assert reads == []
        want = count_containing_reference(
            hypergraph, project_reference(hypergraph), anchors
        ).to_array()
        assert np.array_equal(counts.to_array(), want)

    def test_wedges(self, graph):
        hypergraph, projection = graph
        wedges = projection.hyperwedge_list()[:60]
        counts, reads = _environment_reads(
            lambda: accumulate_containing_wedges(hypergraph, projection, wedges)
        )
        assert reads == []
        want = count_wedges_reference(
            hypergraph, project_reference(hypergraph), wedges
        ).to_array()
        assert np.array_equal(counts.to_array(), want)

    def test_lazy_projection(self, graph):
        hypergraph, _ = graph
        lazy = LazyProjection(hypergraph, budget=4)
        counts, reads = _environment_reads(lambda: count_exact(hypergraph, lazy))
        assert reads == []
        assert np.array_equal(
            counts.to_array(), count_exact_reference(hypergraph).to_array()
        )

    def test_engine(self, graph):
        hypergraph, _ = graph
        engine = MotifEngine(hypergraph, store=False)
        spec = CountSpec(algorithm="wedge-sampling", num_samples=20, seed=3)
        _, reads = _environment_reads(lambda: (engine.count(), engine.count(spec)))
        assert reads == []


class TestEntryPointsShareTheKernels:
    def test_engine_count_matches_reference(self, graph):
        hypergraph, _ = graph
        counts = MotifEngine(hypergraph, store=False).count().counts
        assert np.array_equal(
            counts.to_array(), count_exact_reference(hypergraph).to_array()
        )

    def test_process_worker_payload_matches_the_engine(self, small_random_hypergraph):
        from repro.store.executors import WorkerPayload, execute_payload

        csr = small_random_hypergraph.csr()
        payload = WorkerPayload(
            edge_ptr=csr.edge_ptr,
            edge_nodes=csr.edge_nodes,
            dataset=small_random_hypergraph.name,
            spec=spec_to_dict(CountSpec()),
            store_dir=None,
        )
        baseline = MotifEngine(small_random_hypergraph, store=False).count().counts
        assert execute_payload(payload).counts == baseline

    def test_cli_count_matches_reference_total(self, tmp_path, capsys):
        from repro.cli import main
        from repro.hypergraph import io as hio

        hypergraph = generate_uniform_random(num_nodes=20, num_hyperedges=25, seed=5)
        path = tmp_path / "graph.txt"
        hio.write_plain(hypergraph, path)
        assert main(["count", str(path), "--json"]) == 0
        counts = json.loads(capsys.readouterr().out)["counts"]
        got = [counts[str(motif)] for motif in range(1, 27)]
        want = count_exact_reference(hio.read_plain(path)).to_array()
        assert got == want.tolist()
