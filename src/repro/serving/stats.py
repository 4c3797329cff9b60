"""Service-level statistics: queue depth, batch sizes, latency percentiles.

:class:`ServiceStats` is the thread-safe mutable collector the service and
its micro-batcher write into while requests flow; :class:`ServingReport` is
the immutable snapshot handed to callers — the serving counterpart of the
engine's :class:`~repro.engine.instrument.RunStats`, rendered as one line
by :meth:`ServingReport.summary`.

Latency is measured per request from admission to response (so it includes
queueing, batching wait and scoring); throughput is completed requests over
the wall-clock span from the first admission to the last response.  The
percentiles cover the most recent :data:`LATENCY_WINDOW` completions, so the
collector's memory stays bounded however long a service runs; every
percentile in :mod:`repro.serving` is :func:`nearest_rank`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Collection, Mapping, Sequence

#: Completions whose latencies the reported percentiles cover.
LATENCY_WINDOW = 4096


def nearest_rank(values: Collection[float], fractions: Sequence[float]) -> list[float]:
    """The *fractions* (in ``[0, 1]``) percentiles of *values* by nearest
    rank: deterministic, no interpolation, stable under any recording
    order.  All 0.0 when *values* is empty."""
    if not values:
        return [0.0] * len(fractions)
    ordered = sorted(values)
    last = len(ordered) - 1
    return [ordered[int(q * last + 0.5)] for q in fractions]


@dataclass(frozen=True)
class ServingReport:
    """Immutable snapshot of one service's lifetime counters.

    ``submitted`` counts admitted requests only; ``rejected`` the requests
    turned away at the admission queue.  ``completed`` splits into plain and
    ``degraded`` (served by the fallback stage after a primary failure or an
    expired deadline — ``expired`` is the deadline subset).  ``failed``
    requests resolved with an exception.  ``batch_histogram`` maps flush
    batch size to occurrence count.  The latency fields are milliseconds:
    the percentiles over the most recent :data:`LATENCY_WINDOW` completed
    requests, ``latency_max_ms`` over every completed request.
    """

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    failed: int = 0
    degraded: int = 0
    expired: int = 0
    batches: int = 0
    peak_queue_depth: int = 0
    queue_depth: int = 0
    batch_histogram: Mapping[int, int] = field(default_factory=dict)
    latency_p50_ms: float = 0.0
    latency_p95_ms: float = 0.0
    latency_p99_ms: float = 0.0
    latency_max_ms: float = 0.0
    wall_seconds: float = 0.0
    #: Resilience counters (sharded service only, except ``shed``).
    #: ``shed`` counts lower-priority requests evicted from a full admission
    #: queue to make room; ``shard_errors`` individual shard dispatch
    #: failures (faults, crashes, corrupt attaches); ``rescued`` sub-batches
    #: served through the in-process exhaustive rescue path after a breaker
    #: opened; ``hedges``/``hedge_wins``/``hedge_mismatches`` the hedged
    #: straggler re-dispatches, how often the hedge leg won the race, and
    #: how often primary and hedge disagreed bit-wise (audited, primary
    #: kept); ``swaps`` committed live artifact hot-swaps.
    shed: int = 0
    shard_errors: int = 0
    rescued: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    hedge_mismatches: int = 0
    swaps: int = 0

    @property
    def pending(self) -> int:
        """Admitted requests not yet resolved either way."""
        return self.submitted - self.completed - self.failed

    @property
    def mean_batch_size(self) -> float:
        """Average requests per flush (0.0 before any flush)."""
        total = sum(size * count for size, count in self.batch_histogram.items())
        return total / self.batches if self.batches else 0.0

    @property
    def throughput_qps(self) -> float:
        """Completed requests per second of wall time (0.0 when idle)."""
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def summary(self) -> str:
        """One-line human-readable digest (RunStats style)."""
        text = (
            f"{self.completed}/{self.submitted} served, "
            f"{self.throughput_qps:.1f} req/s, "
            f"p50 {self.latency_p50_ms:.1f}ms p95 {self.latency_p95_ms:.1f}ms "
            f"p99 {self.latency_p99_ms:.1f}ms, "
            f"mean batch {self.mean_batch_size:.1f}"
        )
        extras = []
        if self.rejected:
            extras.append(f"{self.rejected} rejected")
        if self.shed:
            extras.append(f"{self.shed} shed")
        if self.degraded:
            extras.append(f"{self.degraded} degraded")
        if self.failed:
            extras.append(f"{self.failed} failed")
        if self.rescued:
            extras.append(f"{self.rescued} rescued")
        if self.hedges:
            extras.append(f"{self.hedge_wins}/{self.hedges} hedges won")
        if self.swaps:
            extras.append(f"{self.swaps} swaps")
        if extras:
            text += ", " + ", ".join(extras)
        return text


class ServiceStats:
    """Thread-safe collector behind :class:`ServingReport`.

    The service records admissions/rejections from client threads and
    resolutions from the flush thread; every method takes the one lock, so
    counters always reconcile (``submitted == completed + failed + pending``).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._submitted = 0
        self._rejected = 0
        self._completed = 0
        self._failed = 0
        self._degraded = 0
        self._expired = 0
        self._peak_depth = 0
        self._shed = 0
        self._shard_errors = 0
        self._rescued = 0
        self._hedges = 0
        self._hedge_wins = 0
        self._hedge_mismatches = 0
        self._swaps = 0
        self._batch_histogram: dict[int, int] = {}
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._latency_max = 0.0
        self._first_submit: float | None = None
        self._last_resolve: float | None = None

    def record_submitted(self, queue_depth: int) -> None:
        """One request admitted; *queue_depth* is the depth after enqueue."""
        with self._lock:
            self._submitted += 1
            self._peak_depth = max(self._peak_depth, queue_depth)
            if self._first_submit is None:
                self._first_submit = self._clock()

    def record_rejected(self) -> None:
        """One request turned away at the admission queue."""
        with self._lock:
            self._rejected += 1

    def record_batch(self, size: int) -> None:
        """One flush of *size* requests left the queue."""
        with self._lock:
            self._batch_histogram[size] = self._batch_histogram.get(size, 0) + 1

    def record_completed(
        self, latency_seconds: float, degraded: bool = False, expired: bool = False
    ) -> None:
        """One request resolved with a prediction."""
        with self._lock:
            self._completed += 1
            if degraded:
                self._degraded += 1
            if expired:
                self._expired += 1
            self._latencies.append(latency_seconds)
            self._latency_max = max(self._latency_max, latency_seconds)
            self._last_resolve = self._clock()

    def record_completed_many(self, latencies_seconds: list[float]) -> None:
        """A whole flush of plain (non-degraded) completions in one lock
        acquisition — the happy-path cost is per batch, not per request."""
        if not latencies_seconds:
            return
        with self._lock:
            self._completed += len(latencies_seconds)
            self._latencies.extend(latencies_seconds)
            self._latency_max = max(self._latency_max, max(latencies_seconds))
            self._last_resolve = self._clock()

    def record_shed(self) -> None:
        """One queued request evicted to admit a higher-priority one."""
        with self._lock:
            self._shed += 1

    def record_shard_error(self) -> None:
        """One shard dispatch failed (fault, crash, corrupt attach)."""
        with self._lock:
            self._shard_errors += 1

    def record_rescued(self) -> None:
        """One shard sub-batch served through the in-process rescue path."""
        with self._lock:
            self._rescued += 1

    def record_hedge(self, won: bool) -> None:
        """One hedged re-dispatch resolved; *won* when the hedge leg's
        result was used."""
        with self._lock:
            self._hedges += 1
            if won:
                self._hedge_wins += 1

    def record_hedge_mismatch(self) -> None:
        """A hedge race's losing leg disagreed bitwise with the served
        block (recorded asynchronously, when the loser lands)."""
        with self._lock:
            self._hedge_mismatches += 1

    def record_swap(self) -> None:
        """One live artifact hot-swap committed."""
        with self._lock:
            self._swaps += 1

    def record_failed(self, expired: bool = False) -> None:
        """One request resolved with an exception."""
        with self._lock:
            self._failed += 1
            if expired:
                self._expired += 1
            self._last_resolve = self._clock()

    def snapshot(self, queue_depth: int = 0) -> ServingReport:
        """The current counters frozen into a :class:`ServingReport`."""
        with self._lock:
            p50, p95, p99 = nearest_rank(self._latencies, (0.50, 0.95, 0.99))
            wall = 0.0
            if self._first_submit is not None and self._last_resolve is not None:
                wall = max(0.0, self._last_resolve - self._first_submit)
            return ServingReport(
                submitted=self._submitted,
                completed=self._completed,
                rejected=self._rejected,
                failed=self._failed,
                degraded=self._degraded,
                expired=self._expired,
                batches=sum(self._batch_histogram.values()),
                peak_queue_depth=self._peak_depth,
                queue_depth=queue_depth,
                batch_histogram=dict(self._batch_histogram),
                latency_p50_ms=p50 * 1000.0,
                latency_p95_ms=p95 * 1000.0,
                latency_p99_ms=p99 * 1000.0,
                latency_max_ms=self._latency_max * 1000.0,
                wall_seconds=wall,
                shed=self._shed,
                shard_errors=self._shard_errors,
                rescued=self._rescued,
                hedges=self._hedges,
                hedge_wins=self._hedge_wins,
                hedge_mismatches=self._hedge_mismatches,
                swaps=self._swaps,
            )
