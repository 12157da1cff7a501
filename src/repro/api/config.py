"""Typed, frozen workload specifications for the :class:`~repro.api.MotifEngine`.

Every engine workflow is configured by one immutable spec object instead of a
sprawl of positional strings and kwargs:

* :class:`CountSpec` — one MoCHy counting run (exact or sampling-based),
* :class:`ProfileSpec` — a characteristic-profile computation,
* :class:`CompareSpec` — a real-vs-random comparison table,
* :class:`PredictSpec` — the hyperedge-prediction experiment,
* :class:`EvolveSpec` — a temporal snapshot chain (paper Figure 7),
* :class:`VarianceSpec` — the MoCHy-A vs MoCHy-A+ estimator-variance table.

Specs validate eagerly at construction (``num_samples`` xor ``sampling_ratio``,
positive sample counts, known null models, ...) and resolve the paper's
algorithm aliases (``"MoCHy-A+"`` → ``"wedge-sampling"``) in one central place,
so invalid configurations fail before any hypergraph is loaded or projected.
Being frozen dataclasses, specs are hashable and serve directly as cache keys
for the engine's result memoization.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.counting.runner import ALGORITHM_EXACT, resolve_algorithm
from repro.exceptions import CountSpecError, SpecError
from repro.profile.significance import DEFAULT_EPSILON
from repro.projection.lazy import POLICY_DEGREE, POLICY_LRU, POLICY_RANDOM
from repro.randomization.null_model import NULL_MODEL_CHUNG_LU, NULL_MODELS
from repro.utils.rng import SeedLike

#: Projection strategies selectable from a :class:`CountSpec`.
PROJECTION_FULL = "full"
PROJECTION_LAZY = "lazy"
PROJECTIONS = (PROJECTION_FULL, PROJECTION_LAZY)

_LAZY_POLICIES = (POLICY_DEGREE, POLICY_LRU, POLICY_RANDOM)


def _check_positive_int(value, name: str) -> int:
    try:
        if isinstance(value, bool) or value != int(value):
            raise CountSpecError(f"{name} must be an integer, got {value!r}")
    except (TypeError, ValueError):
        raise CountSpecError(f"{name} must be an integer, got {value!r}") from None
    if value <= 0:
        raise CountSpecError(f"{name} must be positive, got {value}")
    return int(value)


@dataclass(frozen=True)
class CountSpec:
    """Configuration of one h-motif counting run.

    Parameters
    ----------
    algorithm:
        ``"exact"`` (MoCHy-E), ``"edge-sampling"`` (MoCHy-A) or
        ``"wedge-sampling"`` (MoCHy-A+); the paper names are accepted as
        aliases and resolved at construction.
    num_samples / sampling_ratio:
        For the approximate algorithms, either an explicit sample count or a
        ratio of the population size (``s = ratio · |E|`` for MoCHy-A,
        ``r = ratio · |∧|`` for MoCHy-A+). At most one may be given; the
        engine falls back to a ratio of 0.1 when neither is.
    num_workers:
        Use the parallel drivers when greater than one.
    seed:
        Randomness for the sampling algorithms (and the lazy projection's
        ``"random"`` retention policy).
    projection:
        ``"full"`` materializes (and caches, engine-wide) the projected graph;
        ``"lazy"`` counts over a memory-budgeted on-the-fly
        :class:`~repro.projection.LazyProjection` (paper Section 3.4).
        Lazy projection is serial-only (``num_workers`` must stay 1).
    budget / policy:
        Lazy-projection memoization budget (``None`` = unlimited) and
        retention policy; only meaningful with ``projection="lazy"``.
    include_instances:
        Attach the full instance enumeration (MoCHy-E-ENUM) to the result.
        Exact and serial only; the instance list is never persisted, so
        such runs bypass the artifact store.
    """

    algorithm: str = ALGORITHM_EXACT
    num_samples: Optional[int] = None
    sampling_ratio: Optional[float] = None
    num_workers: int = 1
    seed: SeedLike = None
    projection: str = PROJECTION_FULL
    budget: Optional[int] = None
    policy: str = POLICY_DEGREE
    include_instances: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithm", resolve_algorithm(self.algorithm))
        if self.num_samples is not None and self.sampling_ratio is not None:
            raise CountSpecError(
                "pass either num_samples or sampling_ratio, not both"
            )
        if self.num_samples is not None:
            object.__setattr__(
                self, "num_samples", _check_positive_int(self.num_samples, "num_samples")
            )
        if self.sampling_ratio is not None:
            if self.sampling_ratio <= 0:
                raise CountSpecError(
                    f"sampling_ratio must be positive, got {self.sampling_ratio}"
                )
            object.__setattr__(self, "sampling_ratio", float(self.sampling_ratio))
        object.__setattr__(
            self, "num_workers", _check_positive_int(self.num_workers, "num_workers")
        )
        if self.projection not in PROJECTIONS:
            raise CountSpecError(
                f"projection must be one of {PROJECTIONS}, got {self.projection!r}"
            )
        if self.policy not in _LAZY_POLICIES:
            raise CountSpecError(
                f"policy must be one of {_LAZY_POLICIES}, got {self.policy!r}"
            )
        if self.projection != PROJECTION_LAZY and self.policy != POLICY_DEGREE:
            # Symmetric with budget: a retention policy is meaningless on a
            # full projection, and letting it through would fragment the
            # engine's memo cache with equivalent-but-unequal specs.
            raise CountSpecError("policy requires projection='lazy'")
        if self.budget is not None:
            if self.projection != PROJECTION_LAZY:
                raise CountSpecError("budget requires projection='lazy'")
            if isinstance(self.budget, bool) or self.budget != int(self.budget) or self.budget < 0:
                raise CountSpecError(
                    f"budget must be a non-negative integer, got {self.budget!r}"
                )
            object.__setattr__(self, "budget", int(self.budget))
        if self.projection == PROJECTION_LAZY and self.num_workers > 1:
            # The parallel drivers ship full-projection arrays to workers,
            # which would silently defeat the memory budget lazy was chosen
            # for; make the conflict explicit instead.
            raise CountSpecError(
                "projection='lazy' is serial (the parallel drivers materialize "
                "a full projection); use num_workers=1 with a lazy projection"
            )
        if not isinstance(self.include_instances, bool):
            raise CountSpecError(
                f"include_instances must be a bool, got {self.include_instances!r}"
            )
        if self.include_instances:
            if self.algorithm != ALGORITHM_EXACT:
                raise CountSpecError(
                    "include_instances requires algorithm='exact' (only "
                    "MoCHy-E enumerates instances)"
                )
            if self.num_workers > 1:
                raise CountSpecError(
                    "include_instances is serial (the enumeration is a "
                    "single ordered stream); use num_workers=1"
                )
        if self.algorithm == ALGORITHM_EXACT:
            # Exact counting ignores sampling parameters; normalizing them away
            # makes equivalent exact specs hash to the same cache slot. The
            # seed survives only when the lazy projection's "random" retention
            # policy still consumes it.
            object.__setattr__(self, "num_samples", None)
            object.__setattr__(self, "sampling_ratio", None)
            if not (self.projection == PROJECTION_LAZY and self.policy == POLICY_RANDOM):
                object.__setattr__(self, "seed", None)

    @property
    def is_exact(self) -> bool:
        """Whether this spec runs MoCHy-E (no sampling)."""
        return self.algorithm == ALGORITHM_EXACT


def _validate_profile_like(spec) -> None:
    object.__setattr__(spec, "algorithm", resolve_algorithm(spec.algorithm))
    if isinstance(spec.num_random, bool) or spec.num_random != int(spec.num_random):
        raise SpecError(f"num_random must be an integer, got {spec.num_random!r}")
    if spec.num_random <= 0:
        raise SpecError(f"num_random must be positive, got {spec.num_random}")
    object.__setattr__(spec, "num_random", int(spec.num_random))
    if spec.sampling_ratio is not None:
        if spec.sampling_ratio <= 0:
            raise SpecError(f"sampling_ratio must be positive, got {spec.sampling_ratio}")
        object.__setattr__(spec, "sampling_ratio", float(spec.sampling_ratio))
    if spec.null_model not in NULL_MODELS:
        raise SpecError(
            f"null_model must be one of {NULL_MODELS}, got {spec.null_model!r}"
        )


@dataclass(frozen=True)
class ProfileSpec:
    """Configuration of a characteristic-profile computation (paper Eq. 2).

    The real hypergraph and each of the *num_random* null-model randomizations
    are counted with *algorithm* (at *sampling_ratio* when approximate); the
    26 significances are L2-normalized into the CP.
    """

    num_random: int = 5
    algorithm: str = ALGORITHM_EXACT
    sampling_ratio: Optional[float] = None
    null_model: str = NULL_MODEL_CHUNG_LU
    seed: SeedLike = None
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        _validate_profile_like(self)
        if self.epsilon < 0:
            raise SpecError(f"epsilon must be non-negative, got {self.epsilon}")

    def count_spec(self) -> CountSpec:
        """The :class:`CountSpec` used for the real hypergraph's counts."""
        return CountSpec(
            algorithm=self.algorithm,
            sampling_ratio=self.sampling_ratio,
            seed=self.seed,
        )


@dataclass(frozen=True)
class CompareSpec:
    """Configuration of a real-vs-random comparison table (paper Table 3)."""

    num_random: int = 5
    algorithm: str = ALGORITHM_EXACT
    sampling_ratio: Optional[float] = None
    null_model: str = NULL_MODEL_CHUNG_LU
    seed: SeedLike = None

    def __post_init__(self) -> None:
        _validate_profile_like(self)

    def count_spec(self) -> CountSpec:
        """The :class:`CountSpec` used for the real hypergraph's counts."""
        return CountSpec(
            algorithm=self.algorithm,
            sampling_ratio=self.sampling_ratio,
            seed=self.seed,
        )


@dataclass(frozen=True)
class PredictSpec:
    """Configuration of the hyperedge-prediction experiment (paper Table 4).

    The windows are inclusive timestamp ranges over the engine's temporal
    hypergraph. When omitted, the default split is the paper's: every year but
    the last is the context window, the last year is the test window.
    """

    context_start: Optional[int] = None
    context_end: Optional[int] = None
    test_start: Optional[int] = None
    test_end: Optional[int] = None
    replace_fraction: float = 0.5
    max_positives: Optional[int] = None
    seed: SeedLike = None

    def __post_init__(self) -> None:
        for start_name, end_name in (
            ("context_start", "context_end"),
            ("test_start", "test_end"),
        ):
            start = getattr(self, start_name)
            end = getattr(self, end_name)
            if (start is None) != (end is None):
                raise SpecError(
                    f"{start_name} and {end_name} must be given together"
                )
            if start is not None and end < start:
                raise SpecError(f"{end_name} ({end}) must be >= {start_name} ({start})")
        if (self.context_start is None) != (self.test_start is None):
            raise SpecError(
                "the context and test windows must be given together "
                "(or both omitted for the default split)"
            )
        if not 0.0 <= self.replace_fraction <= 1.0:
            raise SpecError(
                f"replace_fraction must be in [0, 1], got {self.replace_fraction}"
            )
        if self.max_positives is not None and self.max_positives <= 0:
            raise SpecError(
                f"max_positives must be positive, got {self.max_positives}"
            )

    @property
    def has_explicit_windows(self) -> bool:
        """Whether both windows were given (vs. derived from the timestamps)."""
        return self.context_start is not None and self.test_start is not None


#: Snapshot-chain modes of an :class:`EvolveSpec`.
EVOLVE_CUMULATIVE = "cumulative"
EVOLVE_SNAPSHOT = "snapshot"
EVOLVE_MODES = (EVOLVE_CUMULATIVE, EVOLVE_SNAPSHOT)


def _freeze_deltas(deltas) -> Tuple[Tuple[Tuple[Any, ...], ...], ...]:
    """Canonicalize explicit deltas into nested tuples (hashable, validated)."""
    frozen_deltas = []
    for snapshot_index, delta in enumerate(deltas):
        edges = []
        for edge_index, edge in enumerate(delta):
            if isinstance(edge, (str, bytes)) or not hasattr(edge, "__iter__"):
                raise SpecError(
                    f"deltas[{snapshot_index}][{edge_index}] must be a "
                    f"collection of nodes, got {type(edge).__name__}"
                )
            members = tuple(edge)
            if not members:
                raise SpecError(
                    f"deltas[{snapshot_index}][{edge_index}] is empty; "
                    "hyperedges must contain at least one node"
                )
            edges.append(members)
        frozen_deltas.append(tuple(edges))
    return tuple(frozen_deltas)


@dataclass(frozen=True)
class EvolveSpec:
    """Configuration of a temporal snapshot chain (paper Figure 7, served).

    The chain is defined either by *timestamps* over the engine's temporal
    hypergraph (``None`` = every distinct timestamp) or by explicit
    *deltas* — batches of hyperedges appended on top of the engine's
    static hypergraph, one snapshot per batch.

    Parameters
    ----------
    mode:
        ``"cumulative"`` grows one graph across the chain (snapshot *k* is
        everything up to boundary *k*) — the shape the incremental delta
        engine serves. ``"snapshot"`` counts each timestamp's hyperedges in
        isolation, matching the legacy evolution analysis.
    timestamps:
        Inclusive snapshot boundaries, strictly increasing. Mutually
        exclusive with *deltas*.
    deltas:
        Explicit hyperedge batches (nested sequences of nodes); implies
        ``mode="cumulative"``.
    algorithm / num_samples / sampling_ratio / seed:
        Per-snapshot counting options, as in :class:`CountSpec`; the same
        seed is replayed for every snapshot so approximate chains are
        reproducible. Only exact chains are served incrementally.
    incremental:
        Use the delta engine for exact cumulative chains (bit-identical to
        recounting); ``False`` forces a from-scratch count per snapshot.
    min_hyperedges:
        Skip snapshots with fewer hyperedges (the legacy analysis used 3;
        motif counts over 1-2 edges are degenerate).
    num_random / null_model:
        When *num_random* is set, each snapshot also gets a characteristic
        profile against that many null-model draws (never incremental).
    """

    mode: str = EVOLVE_CUMULATIVE
    timestamps: Optional[Tuple[int, ...]] = None
    deltas: Optional[Tuple[Tuple[Tuple[Any, ...], ...], ...]] = None
    algorithm: str = ALGORITHM_EXACT
    num_samples: Optional[int] = None
    sampling_ratio: Optional[float] = None
    seed: SeedLike = None
    incremental: bool = True
    min_hyperedges: int = 1
    num_random: Optional[int] = None
    null_model: str = NULL_MODEL_CHUNG_LU

    def __post_init__(self) -> None:
        if self.mode not in EVOLVE_MODES:
            raise SpecError(
                f"mode must be one of {EVOLVE_MODES}, got {self.mode!r}"
            )
        if self.timestamps is not None and self.deltas is not None:
            raise SpecError("pass either timestamps or deltas, not both")
        if self.timestamps is not None:
            try:
                stamps = tuple(int(stamp) for stamp in self.timestamps)
            except (TypeError, ValueError):
                raise SpecError(
                    f"timestamps must be integers, got {self.timestamps!r}"
                ) from None
            if not stamps:
                raise SpecError("timestamps must not be empty when given")
            if any(b <= a for a, b in zip(stamps, stamps[1:])):
                raise SpecError(
                    f"timestamps must be strictly increasing, got {stamps}"
                )
            object.__setattr__(self, "timestamps", stamps)
        if self.deltas is not None:
            if self.mode != EVOLVE_CUMULATIVE:
                raise SpecError("explicit deltas require mode='cumulative'")
            if isinstance(self.deltas, (str, bytes)) or not hasattr(
                self.deltas, "__iter__"
            ):
                raise SpecError(
                    f"deltas must be a sequence of hyperedge batches, got "
                    f"{type(self.deltas).__name__}"
                )
            frozen = _freeze_deltas(self.deltas)
            if not frozen:
                raise SpecError("deltas must not be empty when given")
            object.__setattr__(self, "deltas", frozen)
        object.__setattr__(self, "algorithm", resolve_algorithm(self.algorithm))
        if self.num_samples is not None and self.sampling_ratio is not None:
            raise SpecError("pass either num_samples or sampling_ratio, not both")
        if self.num_samples is not None:
            object.__setattr__(
                self,
                "num_samples",
                _check_positive_int(self.num_samples, "num_samples"),
            )
        if self.sampling_ratio is not None:
            if self.sampling_ratio <= 0:
                raise SpecError(
                    f"sampling_ratio must be positive, got {self.sampling_ratio}"
                )
            object.__setattr__(self, "sampling_ratio", float(self.sampling_ratio))
        if not isinstance(self.incremental, bool):
            raise SpecError(
                f"incremental must be a bool, got {self.incremental!r}"
            )
        object.__setattr__(
            self,
            "min_hyperedges",
            _check_positive_int(self.min_hyperedges, "min_hyperedges"),
        )
        if self.num_random is not None:
            object.__setattr__(
                self,
                "num_random",
                _check_positive_int(self.num_random, "num_random"),
            )
        if self.null_model not in NULL_MODELS:
            raise SpecError(
                f"null_model must be one of {NULL_MODELS}, got {self.null_model!r}"
            )
        if self.algorithm == ALGORITHM_EXACT:
            # Mirror CountSpec's normalization: equivalent exact chains must
            # key the same lineage artifacts.
            object.__setattr__(self, "num_samples", None)
            object.__setattr__(self, "sampling_ratio", None)
            if self.num_random is None:
                object.__setattr__(self, "seed", None)

    @property
    def is_exact(self) -> bool:
        """Whether snapshots are counted with MoCHy-E (no sampling)."""
        return self.algorithm == ALGORITHM_EXACT

    @property
    def serves_incrementally(self) -> bool:
        """Whether the chain is eligible for the incremental delta engine.

        Sampling estimators draw from the whole graph per snapshot, so only
        exact cumulative chains can merge per-anchor contributions.
        """
        return (
            self.incremental and self.is_exact and self.mode == EVOLVE_CUMULATIVE
        )

    def count_spec(self) -> CountSpec:
        """The per-snapshot :class:`CountSpec` of this chain."""
        return CountSpec(
            algorithm=self.algorithm,
            num_samples=self.num_samples,
            sampling_ratio=self.sampling_ratio,
            seed=self.seed,
        )


@dataclass(frozen=True)
class VarianceSpec:
    """Configuration of the estimator-variance comparison (paper Theorems 3-5).

    Computes the exact per-motif variances of the MoCHy-A (edge-sampling)
    and MoCHy-A+ (wedge-sampling) estimators from the hypergraph's overlap
    statistics, at a common *sampling_ratio* of their respective population
    sizes (``s = ratio·|E|`` draws vs ``r = ratio·|∧|`` draws).
    """

    sampling_ratio: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < float(self.sampling_ratio) <= 1.0:
            raise SpecError(
                f"sampling_ratio must be in (0, 1], got {self.sampling_ratio}"
            )
        object.__setattr__(self, "sampling_ratio", float(self.sampling_ratio))


# ---------------------------------------------------------- spec serialization
#: Registry of spec classes by their wire-format ``type`` tag. This is what
#: lets specs travel as plain dicts — to process workers of the parallel
#: serving executor and through the ``serve-batch`` CLI's JSONL request files.
SPEC_TYPES: Dict[str, type] = {
    "count": CountSpec,
    "profile": ProfileSpec,
    "compare": CompareSpec,
    "predict": PredictSpec,
    "evolve": EvolveSpec,
    "variance": VarianceSpec,
}

_SPEC_TYPE_NAMES = {cls: name for name, cls in SPEC_TYPES.items()}

#: Version stamped into every serialized spec. The major number is the
#: compatibility contract: readers reject a different major outright and
#: treat a newer minor as "same shape plus fields I don't know yet",
#: dropping the unknown fields instead of erroring — so a newer client can
#: talk to an older server as long as the major agrees.
SPEC_VERSION = "1.0"

SPEC_VERSION_MAJOR, SPEC_VERSION_MINOR = (
    int(part) for part in SPEC_VERSION.split(".")
)


def _parse_spec_version(value: Any) -> Tuple[int, int]:
    """``(major, minor)`` of a wire-format version tag; SpecError when malformed."""
    if not isinstance(value, str):
        raise SpecError(
            f"spec_version must be a 'major.minor' string, got {value!r}"
        )
    parts = value.split(".")
    try:
        if len(parts) != 2:
            raise ValueError(value)
        major, minor = (int(part) for part in parts)
        if major < 0 or minor < 0:
            raise ValueError(value)
    except ValueError:
        raise SpecError(
            f"spec_version must be a 'major.minor' string, got {value!r}"
        ) from None
    return major, minor


def spec_to_dict(spec) -> Dict[str, Any]:
    """Render a spec as a plain mapping: ``{"type": ..., <field>: ...}``.

    The inverse of :func:`spec_from_dict`; every payload is stamped with
    the current :data:`SPEC_VERSION`. Field values are kept as-is (they
    are JSON types for every replayable spec; a non-replayable ``Generator``
    seed survives pickling to process workers but not JSON).
    """
    cls = type(spec)
    try:
        name = _SPEC_TYPE_NAMES[cls]
    except KeyError:
        raise SpecError(
            f"cannot serialize {cls.__name__}; known specs: "
            f"{sorted(SPEC_TYPES)}"
        ) from None
    payload: Dict[str, Any] = {"type": name, "spec_version": SPEC_VERSION}
    for field in fields(spec):
        payload[field.name] = getattr(spec, field.name)
    return payload


def spec_from_dict(mapping: Mapping[str, Any]):
    """Rebuild a spec from its :func:`spec_to_dict` form (validating eagerly).

    ``type`` defaults to ``"count"`` so terse JSONL request files can omit
    it; unknown types and unknown fields raise :class:`SpecError` before any
    dataset is touched, mirroring the specs' own eager validation.

    ``spec_version`` governs tolerance: a payload stamped with the same
    major but a newer minor may carry fields this reader does not know —
    they are ignored, so mixed client/server fleets can roll forward one
    side at a time. A different major (or a malformed tag) is rejected;
    an absent tag gets today's strict behavior.
    """
    if not isinstance(mapping, Mapping):
        raise SpecError(
            f"a spec mapping must be a JSON object, got {type(mapping).__name__}"
        )
    payload = dict(mapping)
    version = payload.pop("spec_version", None)
    tolerate_unknown = False
    if version is not None:
        major, minor = _parse_spec_version(version)
        if major != SPEC_VERSION_MAJOR:
            raise SpecError(
                f"unsupported spec_version {version!r}: this reader speaks "
                f"major {SPEC_VERSION_MAJOR} (version {SPEC_VERSION})"
            )
        tolerate_unknown = minor > SPEC_VERSION_MINOR
    name = payload.pop("type", "count")
    try:
        cls = SPEC_TYPES[name]
    except (KeyError, TypeError):
        raise SpecError(
            f"unknown spec type {name!r}; choose from {sorted(SPEC_TYPES)}"
        ) from None
    known = {field.name for field in fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        if not tolerate_unknown:
            raise SpecError(
                f"unknown field(s) {unknown} for spec type {name!r}; "
                f"known fields: {sorted(known)}"
            )
        for field_name in unknown:
            payload.pop(field_name)
    return cls(**payload)
