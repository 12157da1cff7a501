"""The :class:`MotifEngine` — one front door to the paper's workflows.

An engine is bound to one hypergraph and lazily builds and **caches** the
artifacts every workflow needs: the projected graph (Algorithm 1), the CSR
views (cached on the hypergraph itself), and the hyperwedge population used
by MoCHy-A+. Running ``count()`` then ``profile()`` then ``compare()`` on the
same engine therefore projects exactly once, where the legacy free functions
re-projected per call. Deterministic results (exact counts, seeded sampling
runs) are additionally memoized per spec, so a profile reuses the counts of a
previous ``count()`` with the same configuration.

The engine is the single place where execution choices live: a
:class:`~repro.api.CountSpec` chooses the algorithm, serial or parallel
drivers, and a ``"full"`` (materialized, cached) or ``"lazy"``
(memory-budgeted, Section 3.4) projection. The legacy entrypoints
(:func:`repro.counting.count_motifs`, :func:`repro.profile.characteristic_profile`,
:func:`repro.analysis.real_vs_random`,
:func:`repro.prediction.run_prediction_experiment`) are thin shims over an
engine and return bit-identical results.

Beyond its private memo, an engine can be handed an
:class:`~repro.store.ArtifactStore` (``MotifEngine(hypergraph, store=...)``,
or the ``REPRO_STORE_DIR``-backed process default): deterministic artifacts —
the full projection, exact/seeded counts, null-model averages and profiles —
are then looked up in the store before computing and persisted after, keyed
by the hypergraph's content fingerprint. Engines sharing a store share work
across instances, and a persistent store directory makes cold runs in new
processes warm-start with bit-identical results.
"""

from __future__ import annotations

import bisect
import copy
from dataclasses import dataclass, replace
from numbers import Integral
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.api.config import (
    EVOLVE_CUMULATIVE,
    EVOLVE_SNAPSHOT,
    PROJECTION_LAZY,
    CompareSpec,
    CountSpec,
    EvolveSpec,
    PredictSpec,
    ProfileSpec,
    VarianceSpec,
)
from repro.api.registry import DEFAULT_REGISTRY, DatasetRegistry, Source
from repro.api.results import (
    CACHE_TIER_ENGINE,
    SNAPSHOT_MODE_CACHED,
    SNAPSHOT_MODE_FULL,
    SNAPSHOT_MODE_INCREMENTAL,
    CompareResult,
    CountResult,
    EvolutionResult,
    EvolutionSnapshot,
    PredictResult,
    ProfileResult,
    VarianceResult,
)
from repro.analysis.real_vs_random import compare_counts
from repro.counting.edge_sampling import count_approx_edge_sampling
from repro.counting.exact import count_exact, enumerate_instances
from repro.counting.parallel import (
    count_approx_edge_sampling_parallel,
    count_approx_wedge_sampling_parallel,
    count_exact_parallel,
)
from repro.counting.runner import (
    ALGORITHM_EDGE_SAMPLING,
    ALGORITHM_WEDGE_SAMPLING,
)
from repro.counting.variance import compute_overlap_statistics, variance_comparison
from repro.counting.wedge_sampling import count_approx_wedge_sampling
from repro.exceptions import SpecError
from repro.fastcore.delta import DeltaState, apply_delta, initial_state
from repro.hypergraph.builders import TemporalHypergraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.ml import default_classifiers
from repro.ml.base import BinaryClassifier
from repro.motifs.counts import MotifCounts
from repro.obs import metrics as obs_metrics
from repro.prediction.metrics import accuracy, roc_auc
from repro.prediction.task import (
    FEATURE_SETS,
    PredictionExperimentResult,
    PredictionScore,
    build_prediction_dataset,
)
from repro.profile.characteristic_profile import profile_from_counts
from repro.projection.builder import project
from repro.projection.lazy import LazyProjection
from repro.projection.projected_graph import ProjectedGraph
from repro.randomization.null_model import NullModelCounts, random_motif_counts
from repro.store import codecs
from repro.store.artifacts import ArtifactStore, resolve_store
from repro.store.fingerprint import delta_digest, lineage_fingerprint
from repro.utils.timer import Timer

EngineSource = Union[Hypergraph, TemporalHypergraph]

EVOLVE_SNAPSHOTS_TOTAL = obs_metrics.counter(
    "repro_evolve_snapshots_total",
    "Evolution-chain snapshots emitted, by serving mode "
    '("cached"/"incremental"/"full").',
    ("mode",),
)
EVOLVE_ADDED_EDGES_TOTAL = obs_metrics.counter(
    "repro_evolve_added_edges_total",
    "Hyperedges applied by the incremental delta engine.",
)
EVOLVE_INVALIDATED_ANCHORS_TOTAL = obs_metrics.counter(
    "repro_evolve_invalidated_anchors_total",
    "Previously-counted anchors invalidated (recounted and subtracted) by "
    "the incremental delta engine.",
)
EVOLVE_AFFECTED_ANCHORS_TOTAL = obs_metrics.counter(
    "repro_evolve_affected_anchors_total",
    "Anchors re-run through the exact kernel per applied delta "
    "(invalidated old anchors plus added edges).",
)
EVOLVE_SNAPSHOT_SECONDS = obs_metrics.histogram(
    "repro_evolve_snapshot_seconds",
    "Wall-clock seconds spent producing one evolution snapshot, by mode.",
    ("mode",),
)


@dataclass(frozen=True)
class _EvolveStep:
    """One resolved chain boundary: its label, timestamp and hyperedges.

    Along cumulative chains ``edges`` is the *delta* (first-seen hyperedges
    assigned to this boundary); in snapshot mode it is the boundary's whole
    deduplicated edge list.
    """

    label: str
    timestamp: Optional[int]
    edges: Tuple[FrozenSet[Hashable], ...]


def _is_deterministic_seed(seed) -> bool:
    """Whether *seed* replays identically (ints do; a stateful Generator doesn't)."""
    return isinstance(seed, Integral)


def _copy_counts(counts: MotifCounts) -> MotifCounts:
    return MotifCounts(counts.to_array())


class MotifEngine:
    """Facade over counting, profiling, comparison and prediction.

    Parameters
    ----------
    hypergraph:
        The bound :class:`~repro.hypergraph.Hypergraph` — or a
        :class:`~repro.hypergraph.TemporalHypergraph`, which additionally
        enables :meth:`predict`; the static workflows then operate on the
        deduplicated union of all timestamps.
    projection:
        Optionally seed the projection cache with a pre-built projected graph
        (it must belong to *hypergraph*; this is not checked).
    store:
        Cross-engine artifact cache. ``True`` (the default) uses the
        process-wide default store — persistent only when ``REPRO_STORE_DIR``
        is set, disabled otherwise; ``None``/``False`` disables store
        consultation entirely; an explicit
        :class:`~repro.store.ArtifactStore` is used as given. Only
        deterministic artifacts (the full projection, exact or integer-seeded
        results) are stored, so cached and cold paths stay bit-identical.
    """

    def __init__(
        self,
        hypergraph: EngineSource,
        projection: Optional[ProjectedGraph] = None,
        store: Union[ArtifactStore, bool, None] = True,
    ) -> None:
        if isinstance(hypergraph, TemporalHypergraph):
            self._temporal: Optional[TemporalHypergraph] = hypergraph
            self._hypergraph: Optional[Hypergraph] = None
        elif isinstance(hypergraph, Hypergraph):
            self._temporal = None
            self._hypergraph = hypergraph
        else:
            raise SpecError(
                "MotifEngine requires a Hypergraph or TemporalHypergraph, "
                f"got {type(hypergraph).__name__}"
            )
        self._projection = projection
        self._projection_builds = 0
        self._hyperwedges: Optional[List[Tuple[int, int]]] = None
        self._lazy_hyperwedges: Optional[List[Tuple[int, int]]] = None
        self._count_cache: Dict[CountSpec, CountResult] = {}
        self._null_cache: Dict[Tuple, NullModelCounts] = {}
        self._store = resolve_store(store)

    # ------------------------------------------------------------ constructors
    @classmethod
    def load(
        cls,
        source: Source,
        scale: float = 1.0,
        registry: Optional[DatasetRegistry] = None,
        store: Union[ArtifactStore, bool, None] = True,
    ) -> "MotifEngine":
        """Build an engine from a registered dataset name or a hypergraph file."""
        registry = DEFAULT_REGISTRY if registry is None else registry
        return cls(registry.load(source, scale=scale), store=store)

    # -------------------------------------------------------------- properties
    @property
    def hypergraph(self) -> Hypergraph:
        """The bound (static) hypergraph."""
        return self._static()

    @property
    def temporal(self) -> Optional[TemporalHypergraph]:
        """The bound temporal hypergraph, when the engine was built from one."""
        return self._temporal

    @property
    def name(self) -> str:
        """Name of the bound hypergraph."""
        if self._temporal is not None:
            return self._temporal.name
        return self._static().name

    @property
    def store(self) -> Optional[ArtifactStore]:
        """The artifact store this engine consults (``None`` when disabled)."""
        return self._store

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the bound (static) hypergraph."""
        return self._static().fingerprint()

    @property
    def projection(self) -> ProjectedGraph:
        """The cached projected graph, built on first access."""
        return self._ensure_projection()[0]

    @property
    def num_projection_builds(self) -> int:
        """How many times this engine has built a full projection."""
        return self._projection_builds

    def hyperwedges(self) -> List[Tuple[int, int]]:
        """The cached hyperwedge list ``∧`` (lexicographic order).

        Returns a copy; the engine's internal list also serves as the
        sampling population for MoCHy-A+, so handing it out by reference
        would let callers corrupt subsequent counts.
        """
        return list(self._hyperwedge_cache())

    def _hyperwedge_cache(self) -> List[Tuple[int, int]]:
        if self._hyperwedges is None:
            stored = self._stored_hyperwedges()
            if stored is not None:
                # Served whole from the store: the projection itself may
                # never need to be built for a wedge-sampling run.
                self._hyperwedges = stored
            else:
                self._hyperwedges = self.projection.hyperwedge_list()
                self._persist_hyperwedges(self._hyperwedges)
        return self._hyperwedges

    def clear_cache(self) -> None:
        """Drop the cached projection, hyperwedge lists and memoized results.

        Only this engine's private caches are cleared; an attached artifact
        store keeps its entries (use :meth:`ArtifactStore.gc` to compact it).
        """
        self._projection = None
        self._hyperwedges = None
        self._lazy_hyperwedges = None
        self._count_cache.clear()
        self._null_cache.clear()

    # ------------------------------------------------------------------- count
    def count(self, spec: Optional[CountSpec] = None) -> CountResult:
        """Count (or estimate) every h-motif's instances per *spec*.

        Exact and integer-seeded sampling runs are memoized per spec (callers
        get a defensive copy of the counts, so mutating a returned vector
        cannot poison the cache). Runs without a replayable seed — ``None``
        or a stateful ``Generator`` — are recomputed so repeated calls stay
        independent estimates.
        """
        spec = CountSpec() if spec is None else spec
        # Instance enumerations are exact but carry a payload the store (and
        # the memo's defensive-copy contract) never persists — bypass both.
        cacheable = (
            spec.is_exact or _is_deterministic_seed(spec.seed)
        ) and not spec.include_instances
        if cacheable:
            cached = self._count_cache.get(spec)
            if cached is not None:
                # Nothing ran during this call: report zero timings and mark
                # the hit instead of replaying the original run's metadata.
                return replace(
                    cached,
                    counts=_copy_counts(cached.counts),
                    projection_seconds=0.0,
                    counting_seconds=0.0,
                    projection_cached=True,
                    from_cache=True,
                    cache_tier=CACHE_TIER_ENGINE,
                )
            stored = self._stored_count(spec)
            if stored is not None:
                result, tier = stored
                # Seed the in-process memo so later calls skip the store.
                self._count_cache[spec] = replace(
                    result, counts=_copy_counts(result.counts)
                )
                return replace(result, from_cache=True, cache_tier=tier)
        hypergraph = self._static()
        provider, projection_seconds, projection_cached = self._counting_projection(spec)
        wedges: Optional[List[Tuple[int, int]]] = None
        if spec.algorithm == ALGORITHM_WEDGE_SAMPLING and spec.num_workers == 1:
            if provider is self._projection:
                wedges = self._hyperwedge_cache()
            else:
                # Lazy providers are per-call, but the hyperwedge set they
                # enumerate depends only on the hypergraph — cache it so
                # repeated lazy runs don't re-pay the full enumeration.
                if self._lazy_hyperwedges is None:
                    self._lazy_hyperwedges = provider.hyperwedge_list()
                wedges = self._lazy_hyperwedges
        resolved_samples = self._resolve_samples(spec, hypergraph, provider, wedges)
        instances = None
        with Timer() as counting_timer:
            if spec.include_instances:
                # MoCHy-E-ENUM: the reference per-triple walk. Counts
                # tallied from it match the batched kernel exactly (both
                # are integer-valued), pinned by the counting test suite.
                instances = tuple(enumerate_instances(hypergraph, provider))
                counts = MotifCounts.zeros()
                for instance in instances:
                    counts.increment(instance.motif)
            else:
                counts = self._dispatch(
                    spec, hypergraph, provider, resolved_samples, wedges
                )
        result = CountResult(
            dataset=hypergraph.name,
            algorithm=spec.algorithm,
            counts=counts,
            num_samples=resolved_samples,
            projection_seconds=projection_seconds,
            counting_seconds=counting_timer.elapsed,
            projection_cached=projection_cached,
            projection_mode=spec.projection,
            instances=instances,
        )
        if cacheable:
            # Memoize a private copy; the caller's result stays mutable
            # without aliasing the cache.
            self._count_cache[spec] = replace(result, counts=_copy_counts(counts))
            self._persist_count(spec, result)
        return result

    # ----------------------------------------------------------------- profile
    def profile(
        self,
        spec: Optional[ProfileSpec] = None,
        real_counts: Optional[MotifCounts] = None,
    ) -> ProfileResult:
        """Characteristic profile of the bound hypergraph (paper Eq. 2).

        The real counts come from :meth:`count` (hitting its memo when a
        matching count ran before); *real_counts* overrides them entirely.
        Integer-seeded profiles are persisted to (and served whole from) the
        artifact store when one is attached.
        """
        spec = ProfileSpec() if spec is None else spec
        hypergraph = self._static()
        storable = real_counts is None and _is_deterministic_seed(spec.seed)
        if storable:
            stored = self._stored_profile(spec)
            if stored is not None:
                return stored
        with Timer() as timer:
            if real_counts is None:
                real_counts = self.count(spec.count_spec()).counts
            null_mean, _ = self._null_counts(spec)
            profile = profile_from_counts(
                real_counts,
                null_mean,
                name=hypergraph.name,
                epsilon=spec.epsilon,
            )
        result = ProfileResult(
            dataset=hypergraph.name,
            profile=profile,
            algorithm=spec.algorithm,
            num_random=spec.num_random,
            null_model=spec.null_model,
            seconds=timer.elapsed,
        )
        if storable:
            self._persist_profile(spec, profile)
        return result

    # ----------------------------------------------------------------- compare
    def compare(
        self,
        spec: Optional[CompareSpec] = None,
        real_counts: Optional[MotifCounts] = None,
    ) -> CompareResult:
        """Real-vs-random comparison table (paper Table 3).

        The rows are recomputed each call (they are cheap); the heavy
        ingredients — real counts and null-model averages — come from the
        engine memo or the artifact store when available, which is what
        ``from_cache``/``cache_tier`` report.
        """
        spec = CompareSpec() if spec is None else spec
        hypergraph = self._static()
        real_cached = False
        with Timer() as timer:
            if real_counts is None:
                count_result = self.count(spec.count_spec())
                real_counts = count_result.counts
                real_cached = count_result.from_cache
            null_mean, null_tier = self._null_counts(spec)
            report = compare_counts(real_counts, null_mean, dataset=hypergraph.name)
        from_cache = real_cached and null_tier is not None
        return CompareResult(
            dataset=hypergraph.name,
            report=report,
            algorithm=spec.algorithm,
            num_random=spec.num_random,
            null_model=spec.null_model,
            seconds=timer.elapsed,
            from_cache=from_cache,
            cache_tier=null_tier if from_cache else None,
        )

    # ----------------------------------------------------------------- predict
    def predict(
        self,
        spec: Optional[PredictSpec] = None,
        classifiers: Optional[Dict[str, BinaryClassifier]] = None,
    ) -> PredictResult:
        """Hyperedge-prediction experiment (paper Table 4).

        Requires the engine to be bound to a
        :class:`~repro.hypergraph.TemporalHypergraph`. Every (feature set,
        classifier) pair is trained on the context window and evaluated on
        the test window.
        """
        spec = PredictSpec() if spec is None else spec
        if self._temporal is None:
            raise SpecError(
                "predict() requires the engine to be bound to a "
                "TemporalHypergraph (timestamped hyperedges)"
            )
        context_window, test_window = self._predict_windows(spec)
        # Only runs with the default classifier bank and a replayable seed
        # are deterministic end to end — custom classifier templates carry
        # arbitrary state the store cannot key.
        storable = classifiers is None and _is_deterministic_seed(spec.seed)
        if storable:
            stored = self._stored_predict(spec, context_window, test_window)
            if stored is not None:
                return stored
        with Timer() as timer:
            dataset = build_prediction_dataset(
                self._temporal,
                context_window[0],
                context_window[1],
                test_window[0],
                test_window[1],
                replace_fraction=spec.replace_fraction,
                max_positives=spec.max_positives,
                seed=spec.seed,
            )
            if classifiers is None:
                classifiers = default_classifiers(seed=0)
            result = PredictionExperimentResult()
            for feature_set in FEATURE_SETS:
                train = dataset.features_train[feature_set]
                test = dataset.features_test[feature_set]
                for name, classifier in classifiers.items():
                    # Each cell trains its own copy of the supplied template,
                    # keeping the caller's hyperparameters and seed while
                    # preventing fitted state from leaking across feature
                    # sets. (The legacy loop rebuilt with type(classifier)(),
                    # silently discarding the configuration.)
                    model = copy.deepcopy(classifier)
                    model.fit(train, dataset.labels_train)
                    probabilities = model.predict_proba(test)
                    predictions = (probabilities >= 0.5).astype(int)
                    result.scores.append(
                        PredictionScore(
                            classifier=name,
                            feature_set=feature_set,
                            accuracy=accuracy(dataset.labels_test, predictions),
                            auc=roc_auc(dataset.labels_test, probabilities),
                        )
                    )
        predict_result = PredictResult(
            dataset=self._temporal.name,
            result=result,
            context_window=context_window,
            test_window=test_window,
            seconds=timer.elapsed,
        )
        if storable:
            self._persist_predict(spec, context_window, test_window, result)
        return predict_result

    # ------------------------------------------------------------------ evolve
    def evolve(self, spec: Optional[EvolveSpec] = None) -> EvolutionResult:
        """Count every snapshot of a temporal chain (paper Figure 7, served).

        Exact cumulative chains run through the incremental delta engine by
        default: each boundary re-counts only the anchors its delta touched,
        merging into the previous snapshot's counts — bit-identical to
        recounting from scratch. With an artifact store attached, snapshots
        already computed (in any process) are served warm from their
        lineage fingerprints without rebuilding the graphs at all.
        """
        spec = EvolveSpec() if spec is None else spec
        with Timer() as timer:
            snapshots = tuple(self.evolve_iter(spec))
        return EvolutionResult(
            dataset=self.name,
            mode=spec.mode,
            algorithm=spec.algorithm,
            snapshots=snapshots,
            seconds=timer.elapsed,
            incremental=spec.serves_incrementally,
            num_samples=spec.num_samples,
        )

    def evolve_iter(
        self, spec: Optional[EvolveSpec] = None
    ) -> Iterator[EvolutionSnapshot]:
        """Stream :meth:`evolve` snapshots one at a time (chain order).

        The spec is validated and the chain resolved *before* the first
        snapshot is yielded, so callers (the HTTP streaming route) can
        surface bad specs as errors rather than torn streams.
        """
        spec = EvolveSpec() if spec is None else spec
        steps = self._evolve_steps(spec)
        if spec.serves_incrementally and spec.num_random is None:
            return self._evolve_incremental(spec, steps)
        return self._evolve_rebuild(spec, steps)

    def _evolve_steps(self, spec: EvolveSpec) -> List[_EvolveStep]:
        """Resolve the chain boundaries into ordered :class:`_EvolveStep`\\ s.

        Cumulative deltas replay :meth:`TemporalHypergraph.cumulative`
        exactly: the temporal pairs are walked in their canonical order and
        each hyperedge is assigned to the boundary of its first occurrence,
        so the accumulated edge list at boundary *k* is identical — element
        for element — to ``cumulative(t_k)``'s, and the content fingerprints
        agree with graphs built any other way.
        """
        if spec.deltas is not None:
            base = tuple(frozenset(edge) for edge in self._static().hyperedges())
            seen = set(base)
            steps = [_EvolveStep(label="base", timestamp=None, edges=base)]
            for index, delta in enumerate(spec.deltas, start=1):
                edges = []
                for raw in delta:
                    edge = frozenset(raw)
                    if edge in seen:
                        continue
                    seen.add(edge)
                    edges.append(edge)
                steps.append(
                    _EvolveStep(
                        label=f"delta-{index}", timestamp=None, edges=tuple(edges)
                    )
                )
            return steps
        if self._temporal is None:
            raise SpecError(
                "evolve() over snapshot boundaries requires the engine to be "
                "bound to a TemporalHypergraph; pass explicit deltas instead"
            )
        stamps = (
            spec.timestamps
            if spec.timestamps is not None
            else self._temporal.timestamps()
        )
        stamps = tuple(stamps)
        if not stamps:
            raise SpecError("the bound temporal hypergraph is empty")
        buckets: List[List[FrozenSet[Hashable]]] = [[] for _ in stamps]
        if spec.mode == EVOLVE_SNAPSHOT:
            positions = {stamp: index for index, stamp in enumerate(stamps)}
            seen_at: List[set] = [set() for _ in stamps]
            for stamp, edge in self._temporal:
                position = positions.get(stamp)
                if position is None or edge in seen_at[position]:
                    continue
                seen_at[position].add(edge)
                buckets[position].append(edge)
            return [
                _EvolveStep(label=f"t={stamp}", timestamp=stamp, edges=tuple(bucket))
                for stamp, bucket in zip(stamps, buckets)
            ]
        seen = set()
        for stamp, edge in self._temporal:
            if stamp > stamps[-1]:
                break  # pairs are sorted by timestamp first
            if edge in seen:
                continue
            seen.add(edge)
            buckets[bisect.bisect_left(stamps, stamp)].append(edge)
        return [
            _EvolveStep(label=f"<={stamp}", timestamp=stamp, edges=tuple(bucket))
            for stamp, bucket in zip(stamps, buckets)
        ]

    def _evolve_incremental(
        self, spec: EvolveSpec, steps: List[_EvolveStep]
    ) -> Iterator[EvolutionSnapshot]:
        """Serve an exact cumulative chain through the delta engine.

        Per boundary, in order of preference: a store hit on the snapshot's
        lineage fingerprint (requires both the count artifact *and* — beyond
        the root — the lineage sidecar, so a torn chain degrades to a
        recount, never a wrong count); an incremental
        :func:`~repro.fastcore.delta.apply_delta` when the previous
        snapshot was computed in-process; a from-scratch count otherwise.
        """
        count_params = codecs.count_params(spec.count_spec())
        state: Optional[DeltaState] = None
        fingerprint: Optional[str] = None
        accumulated: List[FrozenSet[Hashable]] = []
        for index, step in enumerate(steps):
            with Timer() as timer:
                accumulated.extend(step.edges)
                digest: Optional[str] = None
                if index == 0:
                    if spec.deltas is not None:
                        fingerprint = self._static().fingerprint()
                    else:
                        fingerprint = Hypergraph(
                            list(accumulated), name=f"{self.name}@{step.label}"
                        ).fingerprint()
                else:
                    digest = delta_digest(step.edges)
                    fingerprint = lineage_fingerprint(fingerprint, digest)
                emit = len(accumulated) >= spec.min_hyperedges
                counts: Optional[MotifCounts] = None
                mode = SNAPSHOT_MODE_CACHED
                tier: Optional[str] = None
                delta_info: Optional[Dict[str, int]] = None
                if emit and state is None:
                    counts, tier = self._stored_chain_counts(
                        fingerprint, count_params, root=index == 0
                    )
                if counts is None and (emit or state is not None):
                    if state is None:
                        state = initial_state(accumulated)
                        mode = SNAPSHOT_MODE_FULL
                    else:
                        stats = apply_delta(state, list(step.edges))
                        mode = SNAPSHOT_MODE_INCREMENTAL
                        delta_info = stats.to_dict()
                    if emit:
                        counts = MotifCounts(state.counts.copy())
                        self._persist_chain_snapshot(
                            fingerprint,
                            count_params,
                            counts,
                            step,
                            parent=None if index == 0 else parent_fingerprint,
                            digest=digest,
                            depth=index,
                            total_edges=len(accumulated),
                        )
            parent_fingerprint = fingerprint
            if not emit or counts is None:
                continue
            snapshot = EvolutionSnapshot(
                index=index,
                label=step.label,
                fingerprint=fingerprint,
                num_hyperedges=len(accumulated),
                counts=counts,
                mode=mode,
                seconds=timer.elapsed,
                timestamp=step.timestamp,
                cache_tier=tier,
                delta=delta_info,
            )
            self._observe_snapshot(snapshot)
            yield snapshot

    def _evolve_rebuild(
        self, spec: EvolveSpec, steps: List[_EvolveStep]
    ) -> Iterator[EvolutionSnapshot]:
        """Count each snapshot via a per-snapshot child engine.

        This is the from-scratch path: sampling chains, snapshot mode,
        profile-bearing chains and ``incremental=False``. Child engines
        share this engine's store (content-fingerprint keys); the same
        integer seed replays for every snapshot.
        """
        count_spec = spec.count_spec()
        accumulated: List[FrozenSet[Hashable]] = []
        for index, step in enumerate(steps):
            if spec.mode == EVOLVE_CUMULATIVE:
                accumulated.extend(step.edges)
                edges = list(accumulated)
            else:
                edges = list(step.edges)
            if len(edges) < spec.min_hyperedges:
                continue
            with Timer() as timer:
                if index == 0 and spec.deltas is not None:
                    graph = self._static()
                else:
                    graph = Hypergraph(edges, name=f"{self.name}@{step.label}")
                child = MotifEngine(graph, store=self._store)
                result = child.count(count_spec)
                profile_values: Optional[Tuple[float, ...]] = None
                if spec.num_random is not None:
                    profile = child.profile(
                        ProfileSpec(
                            num_random=spec.num_random,
                            algorithm=spec.algorithm,
                            sampling_ratio=spec.sampling_ratio,
                            null_model=spec.null_model,
                            seed=spec.seed,
                        ),
                        real_counts=result.counts,
                    )
                    profile_values = tuple(float(v) for v in profile.values)
            snapshot = EvolutionSnapshot(
                index=index,
                label=step.label,
                fingerprint=graph.fingerprint(),
                num_hyperedges=graph.num_hyperedges,
                counts=result.counts,
                mode=SNAPSHOT_MODE_CACHED if result.from_cache else SNAPSHOT_MODE_FULL,
                seconds=timer.elapsed,
                timestamp=step.timestamp,
                cache_tier=result.cache_tier,
                profile_values=profile_values,
            )
            self._observe_snapshot(snapshot)
            yield snapshot

    @staticmethod
    def _observe_snapshot(snapshot: EvolutionSnapshot) -> None:
        EVOLVE_SNAPSHOTS_TOTAL.inc(mode=snapshot.mode)
        EVOLVE_SNAPSHOT_SECONDS.observe(snapshot.seconds, mode=snapshot.mode)
        if snapshot.delta is not None:
            EVOLVE_ADDED_EDGES_TOTAL.inc(snapshot.delta["added_edges"])
            EVOLVE_INVALIDATED_ANCHORS_TOTAL.inc(
                snapshot.delta["invalidated_anchors"]
            )
            EVOLVE_AFFECTED_ANCHORS_TOTAL.inc(snapshot.delta["affected_anchors"])

    def _stored_chain_counts(
        self, fingerprint: str, count_params: Dict[str, Any], root: bool
    ) -> Tuple[Optional[MotifCounts], Optional[str]]:
        """Chain-snapshot counts served from the store, or ``(None, None)``.

        Beyond the root (whose key is a plain content fingerprint,
        interoperable with :meth:`count` artifacts), a hit requires the
        lineage sidecar too: counts are persisted *before* the sidecar, so
        a crash between the two leaves a torn chain that recounts rather
        than serving counts with unverifiable provenance.
        """
        if self._store is None:
            return None, None
        hit = self._store.get(codecs.KIND_COUNT, fingerprint, count_params)
        if hit is None:
            return None, None
        arrays, _, tier = hit
        counts = codecs.decode_counts(arrays)
        if counts is None:
            return None, None
        if not root:
            lineage = self._store.get(
                codecs.KIND_LINEAGE, fingerprint, codecs.lineage_params()
            )
            if lineage is None or codecs.decode_lineage(lineage[0], lineage[1]) is None:
                return None, None
        return counts, tier

    def _persist_chain_snapshot(
        self,
        fingerprint: str,
        count_params: Dict[str, Any],
        counts: MotifCounts,
        step: _EvolveStep,
        parent: Optional[str],
        digest: Optional[str],
        depth: int,
        total_edges: int,
    ) -> None:
        if self._store is None:
            return
        dataset = f"{self.name}@{step.label}"
        arrays, meta = codecs.encode_counts(counts, {"num_samples": None})
        # Counts first, sidecar second: a crash in between leaves the count
        # unservable (no lineage proof) instead of the chain lying.
        self._store.put(
            codecs.KIND_COUNT, fingerprint, count_params, arrays, meta, dataset=dataset
        )
        if parent is None:
            return
        arrays, meta = codecs.encode_lineage(
            parent, digest, depth, step.label, len(step.edges), total_edges
        )
        self._store.put(
            codecs.KIND_LINEAGE,
            fingerprint,
            codecs.lineage_params(),
            arrays,
            meta,
            dataset=dataset,
        )

    # ---------------------------------------------------------------- variance
    def variance(self, spec: Optional[VarianceSpec] = None) -> VarianceResult:
        """Exact estimator variances of MoCHy-A vs MoCHy-A+ (Theorems 3-5).

        Enumerates every instance once to collect the overlap statistics,
        then evaluates both closed-form variances at the spec's common
        sampling ratio. Reuses the engine's cached projection.
        """
        spec = VarianceSpec() if spec is None else spec
        hypergraph = self._static()
        with Timer() as timer:
            statistics = compute_overlap_statistics(hypergraph, self.projection)
            rows = variance_comparison(statistics, spec.sampling_ratio)
        return VarianceResult(
            dataset=hypergraph.name,
            sampling_ratio=spec.sampling_ratio,
            num_hyperedges=statistics.num_hyperedges,
            num_hyperwedges=statistics.num_hyperwedges,
            rows=tuple(
                (int(motif), float(edge_var), float(wedge_var))
                for motif, edge_var, wedge_var in rows
            ),
            seconds=timer.elapsed,
        )

    # ---------------------------------------------------------------- internal
    def _null_counts(self, spec) -> Tuple[MotifCounts, Optional[str]]:
        """Mean null-model counts for a Profile/Compare spec, memoized.

        ``profile()`` and ``compare()`` with the same randomization
        parameters share the generated-and-counted null models — the
        dominant cost of both workflows. Only integer-seeded (replayable)
        runs are cached (in the engine memo and, when attached, the artifact
        store); returns ``(defensive copy, cache tier or None)``.
        """
        key = (
            spec.num_random,
            spec.null_model,
            spec.algorithm,
            spec.sampling_ratio,
            spec.seed,
        )
        cacheable = _is_deterministic_seed(spec.seed)
        if cacheable:
            cached = self._null_cache.get(key)
            if cached is not None:
                return _copy_counts(cached.mean_counts), CACHE_TIER_ENGINE
            stored = self._stored_null(spec)
            if stored is not None:
                null, tier = stored
                self._null_cache[key] = null
                return _copy_counts(null.mean_counts), tier
        null = random_motif_counts(
            self._static(),
            num_random=spec.num_random,
            null_model=spec.null_model,
            algorithm=spec.algorithm,
            sampling_ratio=spec.sampling_ratio,
            seed=spec.seed,
        )
        if cacheable:
            self._null_cache[key] = null
            if self._store is not None:
                arrays, meta = codecs.encode_null_counts(null)
                self._store.put(
                    codecs.KIND_NULL,
                    self.fingerprint,
                    codecs.null_params(spec),
                    arrays,
                    meta,
                    dataset=self._static().name,
                )
        return _copy_counts(null.mean_counts), None

    # ------------------------------------------------------------- store layer
    def _stored_count(self, spec: CountSpec) -> Optional[Tuple[CountResult, str]]:
        """A memoizable count result served from the artifact store, if any."""
        if self._store is None:
            return None
        hit = self._store.get(
            codecs.KIND_COUNT, self.fingerprint, codecs.count_params(spec)
        )
        if hit is None:
            return None
        arrays, meta, tier = hit
        counts = codecs.decode_counts(arrays)
        if counts is None:
            return None
        num_samples = meta.get("num_samples")
        result = CountResult(
            dataset=self._static().name,
            algorithm=spec.algorithm,
            counts=counts,
            num_samples=None if num_samples is None else int(num_samples),
            projection_seconds=0.0,
            counting_seconds=0.0,
            projection_cached=True,
            projection_mode=spec.projection,
        )
        return result, tier

    def _persist_count(self, spec: CountSpec, result: CountResult) -> None:
        if self._store is None:
            return
        arrays, meta = codecs.encode_counts(
            result.counts, {"num_samples": result.num_samples}
        )
        self._store.put(
            codecs.KIND_COUNT,
            self.fingerprint,
            codecs.count_params(spec),
            arrays,
            meta,
            dataset=result.dataset,
        )

    def _stored_null(self, spec) -> Optional[Tuple[NullModelCounts, str]]:
        if self._store is None:
            return None
        hit = self._store.get(
            codecs.KIND_NULL, self.fingerprint, codecs.null_params(spec)
        )
        if hit is None:
            return None
        arrays, meta, tier = hit
        null = codecs.decode_null_counts(arrays, meta)
        if null is None:
            return None
        return null, tier

    def _stored_profile(self, spec: ProfileSpec) -> Optional[ProfileResult]:
        if self._store is None:
            return None
        with Timer() as timer:
            hit = self._store.get(
                codecs.KIND_PROFILE, self.fingerprint, codecs.profile_params(spec)
            )
            if hit is None:
                return None
            arrays, _, tier = hit
            profile = codecs.decode_profile(arrays, name=self._static().name)
        if profile is None:
            return None
        return ProfileResult(
            dataset=self._static().name,
            profile=profile,
            algorithm=spec.algorithm,
            num_random=spec.num_random,
            null_model=spec.null_model,
            seconds=timer.elapsed,
            from_cache=True,
            cache_tier=tier,
        )

    def _persist_profile(self, spec: ProfileSpec, profile) -> None:
        if self._store is None:
            return
        arrays, meta = codecs.encode_profile(profile)
        self._store.put(
            codecs.KIND_PROFILE,
            self.fingerprint,
            codecs.profile_params(spec),
            arrays,
            meta,
            dataset=self._static().name,
        )

    def _stored_hyperwedges(self) -> Optional[List[Tuple[int, int]]]:
        """The hyperwedge list served from the artifact store, if any."""
        if self._store is None:
            return None
        hit = self._store.get(
            codecs.KIND_HYPERWEDGES, self.fingerprint, codecs.hyperwedge_params()
        )
        if hit is None:
            return None
        arrays, _, _ = hit
        return codecs.decode_hyperwedges(arrays, self._static().num_hyperedges)

    def _persist_hyperwedges(self, wedges: List[Tuple[int, int]]) -> None:
        if self._store is None:
            return
        arrays, meta = codecs.encode_hyperwedges(wedges)
        self._store.put(
            codecs.KIND_HYPERWEDGES,
            self.fingerprint,
            codecs.hyperwedge_params(),
            arrays,
            meta,
            dataset=self._static().name,
        )

    def _stored_predict(
        self,
        spec: PredictSpec,
        context_window: Tuple[int, int],
        test_window: Tuple[int, int],
    ) -> Optional[PredictResult]:
        """A whole predict score grid served from the artifact store, if any.

        Keyed by the *temporal* fingerprint — prediction slices by timestamp
        and keeps duplicates, which the static (windowed, deduplicated)
        fingerprint cannot distinguish.
        """
        if self._store is None:
            return None
        with Timer() as timer:
            hit = self._store.get(
                codecs.KIND_PREDICT,
                self._temporal.fingerprint(),
                codecs.predict_params(spec, context_window, test_window),
            )
            if hit is None:
                return None
            arrays, meta, tier = hit
            result = codecs.decode_predict(arrays, meta)
        if result is None:
            return None
        return PredictResult(
            dataset=self._temporal.name,
            result=result,
            context_window=context_window,
            test_window=test_window,
            seconds=timer.elapsed,
            from_cache=True,
            cache_tier=tier,
        )

    def _persist_predict(
        self,
        spec: PredictSpec,
        context_window: Tuple[int, int],
        test_window: Tuple[int, int],
        result: PredictionExperimentResult,
    ) -> None:
        if self._store is None:
            return
        arrays, meta = codecs.encode_predict(result)
        self._store.put(
            codecs.KIND_PREDICT,
            self._temporal.fingerprint(),
            codecs.predict_params(spec, context_window, test_window),
            arrays,
            meta,
            dataset=self._temporal.name,
        )

    def _predict_windows(
        self, spec: PredictSpec
    ) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """Resolve the (context, test) windows, defaulting to the paper's split."""
        if spec.has_explicit_windows:
            return (
                (spec.context_start, spec.context_end),
                (spec.test_start, spec.test_end),
            )
        stamps = self._temporal.timestamps()
        if len(stamps) < 2:
            raise SpecError(
                "the default prediction split needs at least two distinct "
                "timestamps; pass explicit windows instead"
            )
        return (stamps[0], stamps[-2]), (stamps[-1], stamps[-1])

    def _static(self) -> Hypergraph:
        if self._hypergraph is None:
            stamps = self._temporal.timestamps()
            if not stamps:
                raise SpecError("the bound temporal hypergraph is empty")
            self._hypergraph = self._temporal.window(stamps[0], stamps[-1])
        return self._hypergraph

    def _ensure_projection(self) -> Tuple[ProjectedGraph, float, bool]:
        """(projection, seconds spent building it now, served-from-cache)."""
        if self._projection is not None:
            return self._projection, 0.0, True
        if self._store is not None:
            hit = self._store.get(
                codecs.KIND_PROJECTION, self.fingerprint, codecs.projection_params()
            )
            if hit is not None:
                arrays, meta, _ = hit
                loaded = codecs.decode_projection(
                    arrays, meta, self._static().num_hyperedges
                )
                if loaded is not None:
                    # Served, not built: no build counted, load time rounds
                    # to the cache-hit contract (projection_seconds == 0).
                    self._projection = loaded
                    return self._projection, 0.0, True
        with Timer() as timer:
            self._projection = project(self._static())
        self._projection_builds += 1
        if self._store is not None:
            arrays, meta = codecs.encode_projection(self._projection)
            self._store.put(
                codecs.KIND_PROJECTION,
                self.fingerprint,
                codecs.projection_params(),
                arrays,
                meta,
                dataset=self._static().name,
            )
        return self._projection, timer.elapsed, False

    def _counting_projection(self, spec: CountSpec):
        if spec.projection == PROJECTION_LAZY:
            provider = LazyProjection(
                self._static(), budget=spec.budget, policy=spec.policy, seed=spec.seed
            )
            return provider, 0.0, False
        return self._ensure_projection()

    @staticmethod
    def _resolve_samples(
        spec: CountSpec,
        hypergraph: Hypergraph,
        provider,
        wedges: Optional[List[Tuple[int, int]]],
    ) -> Optional[int]:
        if spec.is_exact:
            return None
        if spec.num_samples is not None:
            return spec.num_samples
        ratio = 0.1 if spec.sampling_ratio is None else spec.sampling_ratio
        if spec.algorithm == ALGORITHM_EDGE_SAMPLING:
            population = hypergraph.num_hyperedges
        elif wedges is not None:
            population = len(wedges)
        else:
            population = getattr(provider, "num_hyperwedges", None)
            if population is None:
                population = len(provider.hyperwedge_list())
        return max(1, int(round(ratio * population)))

    def _dispatch(
        self,
        spec: CountSpec,
        hypergraph: Hypergraph,
        provider,
        resolved_samples: Optional[int],
        wedges: Optional[List[Tuple[int, int]]],
    ) -> MotifCounts:
        if spec.is_exact:
            if spec.num_workers > 1:
                return count_exact_parallel(hypergraph, spec.num_workers, provider)
            return count_exact(hypergraph, provider)
        if spec.algorithm == ALGORITHM_EDGE_SAMPLING:
            if spec.num_workers > 1:
                return count_approx_edge_sampling_parallel(
                    hypergraph,
                    resolved_samples,
                    spec.num_workers,
                    seed=spec.seed,
                    projection=provider,
                )
            return count_approx_edge_sampling(
                hypergraph, resolved_samples, provider, seed=spec.seed
            )
        if spec.num_workers > 1:
            return count_approx_wedge_sampling_parallel(
                hypergraph,
                resolved_samples,
                spec.num_workers,
                seed=spec.seed,
                projection=provider,
            )
        return count_approx_wedge_sampling(
            hypergraph,
            resolved_samples,
            provider,
            seed=spec.seed,
            hyperwedges=wedges,
        )

    def __repr__(self) -> str:
        return (
            f"MotifEngine(name={self.name!r}, "
            f"projection_cached={self._projection is not None}, "
            f"memoized_counts={len(self._count_cache)}, "
            f"store={'on' if self._store is not None else 'off'})"
        )
