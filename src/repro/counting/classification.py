"""The projection interface the MoCHy counters consume.

Every counter runs the fast-core block kernels, which read a projection
through :func:`kernel_source`: full projections hand over their CSR
:class:`~repro.fastcore.projection.AdjacencyArrays`, and any other provider
must implement the block methods itself (``gather_rows``, ``row_lengths``,
``pair_weights``).

:func:`classify_triple` classifies one triple ``h({e_i, e_j, e_k})`` from
hyperedge sizes, projection overlaps (hyperwedge weights ``ω``) and the
triple overlap (Lemma 2). Only the instance enumerator (MoCHy-E-ENUM) and
the :mod:`repro.fastcore.reference` oracle call it.
"""

from __future__ import annotations

from typing import Protocol

from repro.hypergraph.hypergraph import Hypergraph
from repro.motifs.classify import classify_from_cardinalities, triple_overlap_size


class NeighborhoodProvider(Protocol):
    """The projection interface the counters rely on.

    Both :class:`repro.projection.ProjectedGraph` and
    :class:`repro.projection.LazyProjection` satisfy it. ``neighbors`` and
    ``overlap`` serve instance enumeration; counting additionally needs the
    block interface checked by :func:`kernel_source`.
    """

    def neighbors(self, i: int) -> dict:  # pragma: no cover - protocol
        ...

    def overlap(self, i: int, j: int) -> int:  # pragma: no cover - protocol
        ...


def fast_adjacency(projection: NeighborhoodProvider):
    """The provider's CSR adjacency arrays, or ``None`` if it has none.

    Any provider exposing ``adjacency_arrays()`` (today
    :class:`repro.projection.ProjectedGraph`) yields a fully materialized
    :class:`~repro.fastcore.projection.AdjacencyArrays` — the picklable form
    the parallel drivers ship to workers.
    """
    getter = getattr(projection, "adjacency_arrays", None)
    return getter() if getter is not None else None


#: Methods a provider must expose to drive the batched block kernels.
_KERNEL_SOURCE_METHODS = ("gather_rows", "row_lengths", "pair_weights")


def kernel_source(projection: NeighborhoodProvider):
    """The block-kernel source the counters read *projection* through.

    Full projections resolve to their
    :class:`~repro.fastcore.projection.AdjacencyArrays`; any other provider
    implementing the gather/lookup interface (today
    :class:`repro.projection.LazyProjection`) is consumed directly, so the
    memory-budgeted projection runs the same vectorized sweeps. A provider
    with neither raises :class:`TypeError` naming the missing methods.
    """
    arrays = fast_adjacency(projection)
    if arrays is not None:
        return arrays
    missing = [
        name for name in _KERNEL_SOURCE_METHODS if not hasattr(projection, name)
    ]
    if missing:
        raise TypeError(
            f"{type(projection).__name__} cannot drive the counting kernels: "
            f"it has no adjacency_arrays() and lacks {', '.join(missing)}"
        )
    return projection


def classify_triple(
    hypergraph: Hypergraph,
    projection: NeighborhoodProvider,
    i: int,
    j: int,
    k: int,
) -> int:
    """Motif index of the instance ``{e_i, e_j, e_k}``.

    The caller is responsible for ensuring the triple is connected (which is
    guaranteed when ``j`` and ``k`` are drawn from neighborhoods as in the
    MoCHy algorithms); a disconnected or degenerate triple raises the same
    exceptions as :func:`repro.motifs.classify_instance`.
    """
    edge_i = hypergraph.hyperedge(i)
    edge_j = hypergraph.hyperedge(j)
    edge_k = hypergraph.hyperedge(k)
    # Query overlaps from the endpoints whose neighborhoods the calling
    # algorithm has already touched (i and j): with a lazy projection this
    # avoids materializing the neighborhood of every candidate e_k.
    overlap_ij = projection.overlap(i, j)
    overlap_jk = projection.overlap(j, k)
    overlap_ki = projection.overlap(i, k)
    overlap_ijk = triple_overlap_size(edge_i, edge_j, edge_k)
    return classify_from_cardinalities(
        len(edge_i),
        len(edge_j),
        len(edge_k),
        overlap_ij,
        overlap_jk,
        overlap_ki,
        overlap_ijk,
    )
