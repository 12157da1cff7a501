"""Exception hierarchy for the repro library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library-specific failures without
masking programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class HypergraphError(ReproError):
    """Raised when a hypergraph is malformed or an operation on it is invalid."""


class EmptyHyperedgeError(HypergraphError):
    """Raised when a hyperedge with no member nodes is supplied."""


class UnknownNodeError(HypergraphError):
    """Raised when an operation references a node that is not in the hypergraph."""


class UnknownHyperedgeError(HypergraphError):
    """Raised when an operation references a hyperedge index that does not exist."""


class ProjectionError(ReproError):
    """Raised when a projected graph is inconsistent with its hypergraph."""


class MotifError(ReproError):
    """Raised when an h-motif pattern or index is invalid."""


class NotConnectedError(MotifError):
    """Raised when three hyperedges passed for classification are not connected."""


class DuplicateHyperedgeError(MotifError):
    """Raised when an h-motif instance contains duplicated (identical) hyperedges."""


class SamplingError(ReproError):
    """Raised when an approximate counter is configured with invalid parameters."""


class RandomizationError(ReproError):
    """Raised when a null-model randomization cannot be performed."""


class DatasetError(ReproError):
    """Raised when a dataset cannot be generated, loaded or parsed."""


class ModelError(ReproError):
    """Raised when an ML model is misused (e.g. predict before fit)."""


class NotFittedError(ModelError):
    """Raised when ``predict`` is called on an unfitted model."""


class PredictionTaskError(ReproError):
    """Raised when the hyperedge-prediction task is configured incorrectly."""


class CLIError(ReproError):
    """Raised for user-facing command line errors."""


class StoreError(ReproError):
    """Raised when the artifact store (:mod:`repro.store`) is misconfigured."""


class ServeError(ReproError):
    """Raised when the serving layer loses a unit it was not told to capture.

    Streaming callers that opt into error capture receive structured
    :class:`repro.store.executors.UnitFailure` records instead; everyone
    else gets this — e.g. a worker process dying mid-batch or a unit
    exceeding its deadline outside the HTTP service's capture mode.
    """


class SpecError(ReproError):
    """Raised when a :mod:`repro.api` spec is constructed with invalid options."""


class CountSpecError(SpecError, SamplingError):
    """Raised when a :class:`repro.api.CountSpec` is invalid.

    Also a :class:`SamplingError` so callers of the legacy counting entrypoints
    (which validated the same parameters and raised ``SamplingError``) keep
    working unchanged.
    """
