"""Online recognition service: micro-batching, admission control and
serving statistics.

This is the latency-bound front door to the batch-scoring engine: where the
offline :class:`~repro.engine.executor.ParallelExecutor` sweeps a known
query list, :class:`~repro.serving.service.RecognitionService` answers
single-image requests as they arrive — a mobile robot asking "what is this
object?" mid-mission — while still riding the vectorized ``predict_batch``
kernels through dynamic micro-batching.

* :class:`~repro.serving.batcher.MicroBatcher` — bounded FIFO + flush
  thread coalescing requests (``max_batch_size`` / ``max_wait_ms``);
* :class:`~repro.serving.service.RecognitionService` — admission control
  with :class:`~repro.errors.ServiceOverloaded` backpressure, per-request
  deadlines, retry + fallback degradation, warm-started readiness;
* :class:`~repro.serving.registry.PipelineRegistry` — named pipeline
  factories with cache-priming warm starts;
* :class:`~repro.serving.stats.ServiceStats` / :class:`~repro.serving.
  stats.ServingReport` — queue depth, batch-size histogram, p50/p95/p99
  latency, degraded/rejected counts;
* :mod:`~repro.serving.shards` — multi-process fan-out: each flush is cut
  into at most one contiguous chunk of queries per worker process, and every
  worker attaches the whole memory-mapped :mod:`repro.store` artifact
  zero-copy, so its answers are the single-process certified champion bit
  for bit.  It shares the in-process service's front end and replaces only
  how a block is answered; it does not retry (a failed scatter gets one
  pool rebuild and replay, then degrades).
"""

from __future__ import annotations

from repro.config import ServingSettings
from repro.errors import (
    DeadlineExceeded,
    ServiceNotReady,
    ServiceOverloaded,
    ServingError,
)
from repro.serving.batcher import MicroBatcher
from repro.serving.registry import PipelineRegistry, default_registry
from repro.serving.service import RecognitionService
from repro.serving.shards import ShardedRecognitionService, merge_champions, split_flush
from repro.serving.stats import ServiceStats, ServingReport

__all__ = [
    "DeadlineExceeded",
    "MicroBatcher",
    "PipelineRegistry",
    "RecognitionService",
    "ShardedRecognitionService",
    "merge_champions",
    "split_flush",
    "ServiceNotReady",
    "ServiceOverloaded",
    "ServiceStats",
    "ServingError",
    "ServingReport",
    "ServingSettings",
    "default_registry",
]
