"""Where the traced run puts its spans: the program's layer entry points.

Each entry patches one public function or method under the name its caller
looks it up by, and names the layer its time belongs to. The layers are
this repository's modules: ``server`` (``repro.store.server``), ``serve``
(``repro.store.serve``), ``executors``, ``store`` (``repro.store.artifacts``),
``lsm``, ``engine`` (``repro.api.engine`` and ``repro.api.registry``),
``projection``, ``kernels`` (the block kernels as ``repro.counting`` and
``repro.fastcore.delta`` call them), ``randomization`` and ``delta``.
"""

from __future__ import annotations

from typing import Dict

from perfbench.tracing import Tracer

#: Every layer a span can be charged to, callers before callees.
LAYERS = (
    "client",
    "server",
    "serve",
    "executors",
    "store",
    "lsm",
    "engine",
    "projection",
    "kernels",
    "randomization",
    "delta",
)


def _exact_work(args, kwargs, counts) -> Dict[str, float]:
    csr = args[0]
    indices = args[2] if len(args) > 2 else kwargs.get("hyperedge_indices")
    anchors = csr.num_edges if indices is None else len(indices)
    return {"anchors": float(anchors), "instances": float(counts.sum())}


def _handler_request_id(args, kwargs):
    return args[0].headers.get("X-Request-Id")


def install(tracer: Tracer) -> None:
    """Patch every layer entry point to record spans into *tracer*."""
    import repro.api.engine as engine_module
    import repro.counting.edge_sampling as edge_sampling
    import repro.counting.exact as exact
    import repro.counting.wedge_sampling as wedge_sampling
    import repro.fastcore.delta as delta
    import repro.store.fingerprint as fingerprint
    from repro.api.engine import MotifEngine
    from repro.api.registry import DatasetRegistry
    from repro.store.artifacts import ArtifactStore
    from repro.store.executors import ThreadExecutor
    from repro.store.lsm import LSMDiskTier
    from repro.store.serve import EngineServer
    from repro.store.server import _ServiceHandler

    patch = tracer.patch
    patch(_ServiceHandler, "do_POST", "server.request", request_id=_handler_request_id)
    patch(EngineServer, "submit_stream", "serve.submit_stream", generator=True)
    patch(EngineServer, "evolve_stream", "serve.evolve_stream")
    patch(EngineServer, "engine_for", "serve.engine_for")
    patch(ThreadExecutor, "map_stream", "executors.map_stream", generator=True)
    patch(ArtifactStore, "get", "store.get")
    patch(ArtifactStore, "put", "store.put")
    patch(LSMDiskTier, "get", "lsm.get")
    patch(LSMDiskTier, "put", "lsm.put")
    patch(DatasetRegistry, "load", "engine.load")
    patch(fingerprint, "csr_fingerprint", "engine.fingerprint")
    patch(MotifEngine, "count", "engine.count")
    patch(MotifEngine, "profile", "engine.profile")
    patch(MotifEngine, "evolve_iter", "engine.evolve", generator=True)
    patch(
        engine_module,
        "project",
        "projection.build",
        attrs=lambda args, kwargs, graph: {"hyperwedges": float(graph.num_hyperwedges)},
    )
    patch(exact, "count_exact_batched", "kernels.exact", attrs=_exact_work)
    patch(delta, "count_exact_batched", "kernels.exact", attrs=_exact_work)
    patch(edge_sampling, "count_containing_batched", "kernels.edge_sampling")
    patch(wedge_sampling, "count_wedges_batched", "kernels.wedge_sampling")
    patch(
        engine_module,
        "random_motif_counts",
        "randomization.null_model",
        attrs=lambda args, kwargs, null: {"graphs": float(len(null.per_sample_counts))},
    )
    patch(
        engine_module,
        "apply_delta",
        "delta.apply",
        attrs=lambda args, kwargs, stats: {"affected_anchors": float(stats.affected_anchors)},
    )
    patch(engine_module, "initial_state", "delta.initial")
