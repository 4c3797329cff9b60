"""The online recognition service: concurrent single-query requests over
micro-batched vectorized scoring.

:class:`RecognitionService` is the latency-bound counterpart of the offline
:class:`~repro.engine.executor.ParallelExecutor` sweep: callers submit one
image at a time from any number of threads, the
:class:`~repro.serving.batcher.MicroBatcher` coalesces queued requests into
blocks, and each flush rides the pipeline's vectorized ``predict_batch``
kernel — so online throughput approaches the offline batched path instead
of the scalar one-query-at-a-time loop.

Resilience composes with the PR 3 machinery rather than duplicating it:

* a full admission queue rejects with :class:`~repro.errors.
  ServiceOverloaded` (bounded memory, bounded latency, honest backpressure);
* a batch that raises is isolated request-by-request, each retried under the
  service's :class:`~repro.engine.faults.RetryPolicy`;
* a request that still fails — or whose deadline expired before its batch
  ran — degrades through the configured *fallback* pipeline (typically a
  :class:`~repro.pipelines.fallback.FallbackPipeline` chain or the
  unfailable most-frequent baseline) and is flagged ``degraded``, exactly
  like the offline fallback path; only with no fallback does the caller see
  the error.

The request front end — admission, the deadline sweep, completion,
degradation, failure, shedding and the enrollment scaffolding — is written
once, in the private ``_FrontEnd`` base class.  Both this service and
:class:`~repro.serving.shards.ShardedRecognitionService` subclass it and
replace only how a block of live requests is answered and how an
enrollment is committed.

The service duck-types the pipeline protocol (``predict`` / ``name``), so a
robot patrol can submit its observations through the service unchanged —
concurrent missions then share one warm pipeline and batch together.
"""

from __future__ import annotations

import hmac
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

from repro.config import ExperimentConfig, ServingSettings
from repro.datasets.dataset import ImageDataset, LabelledImage
from repro.engine.faults import RetryPolicy
from repro.errors import (
    DeadlineExceeded,
    EnrollmentError,
    ServiceNotReady,
    ServiceOverloaded,
    ServingError,
)
from repro.pipelines.base import Prediction, RecognitionPipeline
from repro.serving.batcher import MicroBatcher
from repro.serving.stats import ServiceStats, ServingReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.registry import PipelineRegistry


@dataclass(frozen=True)
class EnrollReport:
    """Receipt of one committed online enrollment.

    ``new_classes`` lists labels the library had never seen (first-seen
    order); ``old_version`` / ``new_version`` identify the reference
    artifact before and after (store version ids for the sharded service,
    dataset names for the single-process one).  ``epoch`` is the serving
    epoch the merged library went live in, and the ``invalidated_*``
    counts are cache entries dropped for the republished namespaces.
    """

    views_added: int
    new_classes: tuple[str, ...]
    old_version: str
    new_version: str
    epoch: int
    invalidated_features: int
    invalidated_matrices: int
    latency_s: float


def authorize_enroll(
    service_name: str, expected: str | None, token: str | None
) -> None:
    """Gate an enrollment request on the service's configured token.

    Raises :class:`~repro.errors.EnrollmentError` when enrollment is
    disabled (no token configured) or the presented token mismatches; the
    comparison is constant-time so the token cannot be probed byte-by-byte
    through the error latency.
    """
    if expected is None:
        raise EnrollmentError(
            f"{service_name}: enrollment is disabled (no enroll token configured)"
        )
    if token is None or not hmac.compare_digest(
        expected.encode("utf-8"), token.encode("utf-8")
    ):
        raise EnrollmentError(f"{service_name}: enrollment token rejected")


@dataclass(eq=False, slots=True)
class _PendingRequest:
    """One admitted request: the query, its future, and its time budget.

    ``priority`` is the admission-control rank (default 0): when the queue
    is full, a strictly higher-priority arrival sheds the lowest-priority
    queued request instead of being rejected.
    """

    query: LabelledImage
    enqueued_at: float
    deadline: float | None
    index: int
    priority: int = 0
    future: Future = field(default_factory=Future)


_Service = TypeVar("_Service", bound="_FrontEnd")


class _FrontEnd:
    """The request front end both recognition services share.

    Owns admission (:meth:`submit` onto a bounded micro-batcher, rejection
    and priority shedding), the flush-time deadline sweep, completion,
    fallback degradation and failure — every future is settled in
    :meth:`_settle` — and :meth:`enroll`'s token check, merge and receipt.
    A subclass supplies :meth:`_serve_block` (answer one flush's live
    requests), the library an enrollment merges into and its commit step,
    plus whatever its :meth:`start` / :meth:`stop` must add.
    """

    def __init__(
        self,
        name: str,
        settings: ServingSettings | None,
        fallback: RecognitionPipeline | None,
        enroll_token: str | None,
        clock: Callable[[], float],
    ) -> None:
        self.name = name
        self.settings = settings or ServingSettings()
        self.fallback = fallback
        self.stats = ServiceStats()
        self._clock = clock
        self._ready = False
        self._admitted = 0
        self._enroll_token = enroll_token
        # Serializes enrollments (each one quiesces or swaps the library)
        # and guards the count of committed ones.
        self._enroll_lock = threading.Lock()
        self._enrollments = 0
        # Guards the admission counter: submit() runs on arbitrary client
        # threads, and a bare `self._admitted += 1` would hand two concurrent
        # requests the same index (found by reprolint LCK302).
        self._admit_lock = threading.Lock()
        self._batcher = self._new_batcher()

    def _new_batcher(self) -> MicroBatcher:
        return MicroBatcher(
            self._flush,
            max_batch_size=self.settings.max_batch_size,
            max_wait_ms=self.settings.max_wait_ms,
            max_queue_depth=self.settings.max_queue_depth,
            on_discard=self._discard,
            on_shed=self._shed,
            clock=self._clock,
        )

    @property
    def ready(self) -> bool:
        """Whether the service is warm and accepting requests."""
        return self._ready and self._batcher.running

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a flush."""
        return self._batcher.depth

    def start(self: _Service) -> _Service:
        """Start the flush thread and open admission; returns self."""
        self._batcher.start()
        self._ready = True
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop accepting requests; with *drain* (default) serve the queue
        first, otherwise fail queued requests with ServiceNotReady."""
        self._ready = False
        self._batcher.stop(drain=drain)

    def __enter__(self: _Service) -> _Service:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def submit(
        self,
        query: LabelledImage,
        deadline_ms: float | None = None,
        priority: int = 0,
    ) -> "Future[Prediction]":
        """Admit one query; returns a future resolving to its Prediction.

        Raises :class:`~repro.errors.ServiceOverloaded` when the admission
        queue is full (and nothing queued ranks strictly below *priority* —
        otherwise the cheapest queued request is shed to make room, resolved
        with :class:`~repro.errors.ServiceOverloaded`) and
        :class:`~repro.errors.ServiceNotReady` before :meth:`start` / after
        :meth:`stop`.  *deadline_ms* overrides the settings default; an
        expired request is served by the fallback (degraded) or fails with
        :class:`~repro.errors.DeadlineExceeded`.
        """
        if not self._ready:
            raise ServiceNotReady(f"{self.name}: service is not running")
        if deadline_ms is None:
            deadline_ms = self.settings.deadline_ms
        if deadline_ms is not None and deadline_ms <= 0:
            raise ServingError(f"deadline_ms must be > 0, got {deadline_ms}")
        now = self._clock()
        with self._admit_lock:
            index = self._admitted
            self._admitted += 1
        request = _PendingRequest(
            query=query,
            enqueued_at=now,
            deadline=now + deadline_ms / 1000.0 if deadline_ms is not None else None,
            index=index,
            priority=priority,
        )
        try:
            depth = self._batcher.submit(request, priority=priority)
        except ServingError:
            self.stats.record_rejected()
            raise
        self.stats.record_submitted(depth)
        return request.future

    def recognize(
        self, query: LabelledImage, deadline_ms: float | None = None
    ) -> Prediction:
        """Blocking submit-and-wait — the single-caller convenience path."""
        return self.submit(query, deadline_ms=deadline_ms).result()

    # The pipeline-protocol alias: robot patrols (and anything else written
    # against RecognitionPipeline.predict) can submit through the service
    # without changing a line.
    predict = recognize

    def report(self) -> ServingReport:
        """Current service-level statistics snapshot."""
        return self.stats.snapshot(queue_depth=self._batcher.depth)

    # -- online enrollment ----------------------------------------------------

    def enroll(
        self, additions: Sequence[LabelledImage], token: str | None = None
    ) -> EnrollReport:
        """Teach the live service new reference views (or whole classes).

        Authenticated by the constructor's *enroll_token* (enrollment is
        rejected with :class:`~repro.errors.EnrollmentError` when no token
        is configured or *token* mismatches).  Enrollments are serialized:
        each merges *additions* into the served library and hands the
        merged dataset to the service's commit step — a quiesce-and-refit
        in process, a store republish plus hot-swap when sharded — under
        which every in-flight request keeps its old-library champion.
        """
        authorize_enroll(self.name, self._enroll_token, token)
        from repro.openset.enroll import merge_enrollment

        additions = list(additions)
        with self._enroll_lock:
            started = self._clock()
            references = self._enroll_references()
            known = set(references.labels)
            merged = merge_enrollment(references, additions)
            new_classes = tuple(
                dict.fromkeys(
                    item.label for item in additions if item.label not in known
                )
            )
            old_version, new_version, epoch, features, matrices = (
                self._commit_enrollment(merged)
            )
            self._enrollments += 1
            return EnrollReport(
                views_added=len(additions),
                new_classes=new_classes,
                old_version=old_version,
                new_version=new_version,
                epoch=epoch,
                invalidated_features=features,
                invalidated_matrices=matrices,
                latency_s=self._clock() - started,
            )

    def _enroll_references(self) -> ImageDataset:
        """The pixel-bearing library an enrollment merges into."""
        raise NotImplementedError

    def _commit_enrollment(
        self, merged: ImageDataset
    ) -> tuple[str, str, int, int, int]:
        """Put *merged* live; returns ``(old_version, new_version, epoch,
        invalidated_features, invalidated_matrices)`` for the receipt."""
        raise NotImplementedError

    # -- flush path (micro-batcher thread) -----------------------------------

    def _flush(self, requests: list[_PendingRequest]) -> None:
        self.stats.record_batch(len(requests))
        now = self._clock()
        live: list[_PendingRequest] = []
        for request in requests:
            if request.deadline is not None and now > request.deadline:
                self._serve_degraded(
                    request,
                    DeadlineExceeded(
                        f"{self.name}: request deadline elapsed before its "
                        f"batch ran (queued {now - request.enqueued_at:.3f}s)"
                    ),
                    expired=True,
                )
            else:
                live.append(request)
        if live:
            self._serve_block(live)

    def _serve_block(self, live: list[_PendingRequest]) -> None:
        """Answer one flush's unexpired requests: each through
        :meth:`_complete` or :meth:`_serve_degraded`."""
        raise NotImplementedError

    def _complete(
        self, requests: Sequence[_PendingRequest], predictions: Sequence[Prediction]
    ) -> None:
        """Settle a block's answers, then count each by its own flag.

        Each waiter wakes as its answer settles; the plain answers'
        latencies are recorded together under one stats lock acquisition,
        so each answered flush calls ``record_completed_many`` exactly once.
        """
        done = self._clock()
        plain: list[float] = []
        for request, prediction in zip(requests, predictions):
            self._settle(request, prediction)
            if prediction.degraded:
                self.stats.record_completed(done - request.enqueued_at, degraded=True)
            else:
                plain.append(done - request.enqueued_at)
        self.stats.record_completed_many(plain)

    def _serve_degraded(
        self, request: _PendingRequest, cause: BaseException, expired: bool = False
    ) -> None:
        """Serve from the fallback (flagged degraded) or fail with *cause*."""
        if self.fallback is None:
            self._fail(request, cause, expired=expired)
            return
        try:
            prediction = self.fallback.predict(request.query)
        except Exception as fallback_exc:
            self._fail(request, fallback_exc, expired=expired)
            return
        self.stats.record_completed(
            self._clock() - request.enqueued_at, degraded=True, expired=expired
        )
        self._settle(request, replace(prediction, degraded=True))

    def _fail(
        self, request: _PendingRequest, exc: BaseException, expired: bool = False
    ) -> None:
        self.stats.record_failed(expired=expired)
        self._settle(request, exc)

    def _discard(self, request: _PendingRequest) -> None:
        """A non-draining stop dropped this queued request."""
        self._fail(
            request, ServiceNotReady(f"{self.name}: service stopped before flush")
        )

    def _shed(self, request: _PendingRequest) -> None:
        """A higher-priority arrival evicted this queued request."""
        self.stats.record_shed()
        self._fail(
            request,
            ServiceOverloaded(
                f"{self.name}: request shed from a full admission queue by "
                f"higher-priority traffic (priority {request.priority})"
            ),
        )

    @staticmethod
    def _settle(
        request: _PendingRequest, outcome: Prediction | BaseException
    ) -> None:
        """Resolve *request*'s future with an answer or an error."""
        try:
            if isinstance(outcome, BaseException):
                request.future.set_exception(outcome)
            else:
                request.future.set_result(outcome)
        except InvalidStateError:
            pass  # the caller cancelled or abandoned the future


class RecognitionService(_FrontEnd):
    """Micro-batched online recognition over one warm pipeline.

    *pipeline* must be fitted before :meth:`start` (use
    :meth:`warm_start` or :meth:`PipelineRegistry.warm_start` to get both
    fitting and cache priming done up front).  *fallback*, when given, is a
    fitted pipeline consulted for requests the primary could not serve in
    time or at all; its answers are flagged ``degraded``.  *retry_policy*
    bounds per-request isolation retries after a failed batch (defaults to
    ``settings.max_attempts`` with no backoff).
    """

    def __init__(
        self,
        pipeline: RecognitionPipeline,
        settings: ServingSettings | None = None,
        fallback: RecognitionPipeline | None = None,
        retry_policy: RetryPolicy | None = None,
        enroll_token: str | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(
            f"serving({getattr(pipeline, 'name', 'pipeline')})",
            settings,
            fallback,
            enroll_token,
            clock,
        )
        self.pipeline = pipeline
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=self.settings.max_attempts
        )

    @classmethod
    def warm_start(
        cls,
        name: str,
        references: ImageDataset,
        registry: "PipelineRegistry | None" = None,
        config: ExperimentConfig | None = None,
        fallback: str | None = None,
        settings: ServingSettings | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> "RecognitionService":
        """A started service over the registry pipeline *name*.

        The pipeline (and the optional *fallback*, another registry name) is
        fitted, cache-primed and probed before the service reports ready, so
        the first real request pays no cold-start cost.
        """
        from repro.serving.registry import default_registry

        registry = registry or default_registry()
        pipeline = registry.warm_start(name, references, config)
        fallback_pipeline = (
            registry.warm_start(fallback, references, config)
            if fallback is not None
            else None
        )
        return cls(
            pipeline,
            settings=settings,
            fallback=fallback_pipeline,
            retry_policy=retry_policy,
        ).start()

    def start(self) -> "RecognitionService":
        """Verify warm state and start the flush thread; returns self."""
        self.pipeline.references  # raises PipelineError when never fitted
        if self.fallback is not None:
            self.fallback.references
        return super().start()

    # -- online enrollment ----------------------------------------------------

    def _enroll_references(self) -> ImageDataset:
        return self.pipeline.references

    def _commit_enrollment(
        self, merged: ImageDataset
    ) -> tuple[str, str, int, int, int]:
        """Quiesce and refit.

        The single-process service has no artifact epochs: the admission
        queue drains against the old library, then the pipeline (and
        fallback) refit on *merged* and admission reopens.  The receipt's
        versions are dataset names and its epoch counts enrollments.
        """
        old_version = self.pipeline.references.name
        self.stop(drain=True)
        self.pipeline.fit(merged)
        if self.fallback is not None:
            self.fallback.fit(merged)
        self._batcher = self._new_batcher()
        self.start()
        return old_version, merged.name, self._enrollments + 1, 0, 0

    # -- flush path (micro-batcher thread) -----------------------------------

    def _serve_block(self, live: list[_PendingRequest]) -> None:
        """One vectorized ``predict_batch`` over the block."""
        try:
            predictions = self.pipeline.predict_batch(
                [request.query for request in live]
            )
        except Exception:
            # Some query broke the block: isolate request-by-request so one
            # bad input degrades one answer, not the whole batch.
            answered: list[_PendingRequest] = []
            predictions = []
            for request in live:
                try:
                    predictions.append(self._predict_with_retries(request))
                except Exception as exc:
                    self._serve_degraded(request, exc)
                else:
                    answered.append(request)
            live = answered
        self._complete(live, predictions)

    def _predict_with_retries(self, request: _PendingRequest) -> Prediction:
        """One request's scalar ``predict`` under the retry policy."""
        policy = self.retry_policy
        attempt = 0
        while True:
            attempt += 1
            try:
                return self.pipeline.predict(request.query)
            except Exception as exc:
                if not policy.should_retry(exc, attempt):
                    raise
                delay = policy.delay(attempt, request.index)
                if delay > 0:
                    time.sleep(delay)
