"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ImageError(ReproError):
    """An image has an invalid shape, dtype or value range."""


class ContourError(ReproError):
    """Contour extraction failed (e.g. no foreground region found)."""


class DatasetError(ReproError):
    """A dataset was requested with inconsistent or unknown parameters."""


class FeatureError(ReproError):
    """Keypoint detection or descriptor extraction failed."""


class MatchingError(ReproError):
    """Descriptor matching was invoked with incompatible inputs."""


class NeuralError(ReproError):
    """A neural-network layer or model was misconfigured."""


class PipelineError(ReproError):
    """A recognition pipeline was invoked with invalid inputs."""


class EngineError(ReproError):
    """The batch execution engine was misconfigured (workers, cache, …)."""


class ExecutionTimeout(EngineError):
    """A chunk exceeded the executor's per-chunk wall-clock budget."""


class WorkerCrashError(EngineError):
    """A process-pool worker died mid-chunk (e.g. a hard crash); the chunk's
    queries are recorded as failures rather than re-run, since replaying a
    crashing query in the parent would take the whole run down with it."""


class TooManyFailures(EngineError):
    """The per-run failure count exceeded the configured ``max_failures``
    threshold.  ``report`` carries the partial execution outcome collected
    before the abort (successful predictions plus failure records)."""

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class ServingError(ReproError):
    """The online recognition service was misconfigured or misused."""


class ServiceNotReady(ServingError):
    """A request was submitted before the service warm-started (or after it
    stopped); callers should wait for ``RecognitionService.ready``."""


class ServiceOverloaded(ServingError):
    """The admission queue is full: the request was rejected at the door
    rather than queued into unbounded latency.  Clients should back off and
    retry; the rejection is counted in the service stats."""


class DeadlineExceeded(ServingError):
    """A request's deadline elapsed before its batch ran.  With a fallback
    stage configured the service degrades the request instead of raising
    this; without one, the caller sees it."""


class EnrollmentError(ServingError):
    """A live enrollment request was rejected: enrollment is disabled on
    this service, the caller's token failed authentication, or the merged
    reference set could not be republished.  The service keeps serving its
    current epoch either way — a failed enrollment never changes answers."""


class SwapError(ServingError):
    """A live store hot-swap (``swap_store``) failed verification and was
    rolled back: the service keeps serving the old epoch, and the caller
    learns the new artifact never went live."""


class StoreError(ReproError):
    """The memory-mapped reference store was misconfigured or misused."""


class StoreIntegrityError(StoreError):
    """A store artifact failed an integrity check (missing, truncated or
    digest-mismatched shard, torn manifest).  The offending shard is
    quarantined with a ``.corrupt`` suffix — mirroring
    :class:`~repro.engine.cache.FeatureCache` — so a corrupt artifact can
    degrade a service but never mis-score a query."""


class RetrievalIndexError(ReproError):
    """A retrieval index was misconfigured or misused (empty library, bad
    shortlist size, a bound or re-rank of the wrong shape)."""


class EvaluationError(ReproError):
    """An evaluation routine received inconsistent predictions or labels."""


class CalibrationError(ReproError):
    """An open-set calibration was requested with inconsistent inputs
    (empty score distributions, unknown pipeline, version mismatch between
    a calibration artifact and the reference library it was fitted on)."""


class KnowledgeError(ReproError):
    """A knowledge-grounding lookup failed (unknown concept or class)."""
