"""Global configuration and deterministic random-number handling.

Every stochastic component in the library (dataset synthesis, pair sampling,
network weight initialisation, the randomised baseline) draws its entropy from
a :class:`numpy.random.Generator` obtained through :func:`rng`.  Experiments
are therefore reproducible bit-for-bit from a seed; the library-wide default
seed is :data:`DEFAULT_SEED`.

The module also centralises the handful of numeric defaults shared across
subpackages (canonical render size, siamese input size, histogram bins) so
that the paper's parameters live in one place.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

#: Library-wide default seed; chosen once, used everywhere.
DEFAULT_SEED = 7

#: Side length (pixels) of the square synthetic renders used for the
#: matching pipelines.  The paper works on variable-size crops; 64 px is
#: large enough for contours, histograms and keypoint descriptors while
#: keeping the full NYU-scale experiments tractable on a CPU.
RENDER_SIZE = 64

#: Input size (height, width) of the Normalized-X-Corr siamese network.
#: The paper resizes inputs to 60x160x3; we default to a reduced 30x80x3
#: for CPU training budgets.  The architecture accepts either.
SIAMESE_INPUT_HW = (30, 80)

#: Histogram bins per RGB channel used by the colour-matching pipeline.
HISTOGRAM_BINS = 16

#: Hybrid-matching score weights reported in the paper (Sec. 3.2):
#: alpha weighs the shape score, beta the colour score.
HYBRID_ALPHA = 0.3
HYBRID_BETA = 0.7

#: Lowe ratio-test thresholds evaluated in the paper (Sec. 3.3).
RATIO_THRESHOLDS = (0.75, 0.5)

#: SURF Hessian filter threshold used in the paper (Sec. 3.3).
SURF_HESSIAN_THRESHOLD = 400.0


def rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Accepts three forms so call sites can be permissive:

    * ``None`` — a generator seeded with :data:`DEFAULT_SEED`;
    * an ``int`` — a fresh generator seeded with that value;
    * an existing ``Generator`` — returned unchanged (shared stream).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def spawn(base: np.random.Generator, key: str) -> np.random.Generator:
    """Derive an independent child generator from *base* and a string *key*.

    Dataset builders use this to give each instance its own stream, so adding
    an instance never perturbs the randomness of the others.
    """
    # Fold the key into 64 bits deterministically (hash() is salted per
    # process, so we roll our own stable FNV-1a instead).
    acc = np.uint64(14695981039346656037)
    prime = np.uint64(1099511628211)
    with np.errstate(over="ignore"):
        for byte in key.encode("utf-8"):
            acc = np.uint64((acc ^ np.uint64(byte)) * prime)
    child_seed = int(base.integers(0, 2**32)) ^ int(acc % np.uint64(2**32))
    return np.random.default_rng(child_seed)


@dataclass(frozen=True)
class EngineSettings:
    """Batch-execution-engine knobs: parallelism, caching, fault tolerance.

    ``workers > 1`` fans ``predict_all`` out over *backend* (``"thread"`` or
    ``"process"``); results are bit-identical to the sequential loop for any
    worker count.  ``cache`` toggles reference-feature memoisation;
    ``cache_dir`` adds the persistent on-disk tier.  ``timings`` asks the
    CLI to print the per-stage timings block after a table.

    Fault tolerance (see README "Fault tolerance"): ``max_attempts`` bounds
    per-query prediction attempts (1 = no retry), ``retry_backoff`` the base
    backoff seconds between attempts, ``chunk_timeout`` the per-chunk
    wall-clock budget; ``max_failures`` aborts a sweep once more than that
    many queries have failed, and ``fail_fast`` restores the legacy
    raise-on-first-error behaviour.
    """

    workers: int = 1
    backend: str = "thread"
    cache: bool = True
    cache_capacity: int = 65536
    cache_dir: str | None = None
    timings: bool = False
    max_attempts: int = 1
    retry_backoff: float = 0.0
    chunk_timeout: float | None = None
    max_failures: int | None = None
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.backend not in ("thread", "process"):
            raise ValueError(f"backend must be 'thread' or 'process', got {self.backend!r}")
        if self.cache_capacity < 1:
            raise ValueError(f"cache_capacity must be >= 1, got {self.cache_capacity}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {self.retry_backoff}")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError(
                f"chunk_timeout must be > 0 (or None), got {self.chunk_timeout}"
            )
        if self.max_failures is not None and self.max_failures < 0:
            raise ValueError(f"max_failures must be >= 0, got {self.max_failures}")

    @staticmethod
    def from_env() -> "EngineSettings":
        """Engine defaults, overridable via ``REPRO_WORKERS``,
        ``REPRO_BACKEND``, ``REPRO_NO_CACHE``, ``REPRO_CACHE_DIR``,
        ``REPRO_MAX_ATTEMPTS``, ``REPRO_CHUNK_TIMEOUT`` and
        ``REPRO_MAX_FAILURES``.

        CI uses ``REPRO_WORKERS=2`` to exercise the parallel path across the
        whole test suite without touching any call site, and
        ``REPRO_FAULT_RATE`` (read by :func:`repro.engine.chaos.
        injector_from_env`) to soak the suite in transient injected faults.
        """
        timeout = os.environ.get("REPRO_CHUNK_TIMEOUT") or None
        max_failures = os.environ.get("REPRO_MAX_FAILURES") or None
        return EngineSettings(
            workers=int(os.environ.get("REPRO_WORKERS", "1")),
            backend=os.environ.get("REPRO_BACKEND", "thread"),
            cache=os.environ.get("REPRO_NO_CACHE", "").lower()
            not in ("1", "true", "yes"),
            cache_dir=os.environ.get("REPRO_CACHE_DIR") or None,
            max_attempts=int(os.environ.get("REPRO_MAX_ATTEMPTS", "1")),
            chunk_timeout=float(timeout) if timeout is not None else None,
            max_failures=int(max_failures) if max_failures is not None else None,
        )


@dataclass(frozen=True)
class ServingSettings:
    """Online recognition-service knobs: micro-batching, admission, deadlines.

    ``max_batch_size`` / ``max_wait_ms`` tune the micro-batcher: a flush
    happens as soon as a full batch is queued or the oldest queued request
    has waited ``max_wait_ms``, whichever comes first — larger batches ride
    the vectorized ``predict_batch`` kernels harder, a shorter wait bounds
    tail latency.  ``max_queue_depth`` bounds the admission queue; requests
    arriving past it are rejected with
    :class:`~repro.errors.ServiceOverloaded` instead of queuing into
    unbounded latency.  ``deadline_ms`` is the default per-request deadline
    (``None`` = no deadline); an expired request degrades through the
    service's fallback stage rather than running late.  ``max_attempts``
    bounds per-request prediction attempts when a request is isolated after
    a batch failure (same semantics as the engine's
    :class:`~repro.engine.faults.RetryPolicy`); it applies to the in-process
    service only — the sharded service does not retry; it rescues a chunk
    whose dispatch errored in process instead.
    """

    max_batch_size: int = 32
    max_wait_ms: float = 2.0
    max_queue_depth: int = 256
    deadline_ms: float | None = None
    max_attempts: int = 1

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be > 0 (or None), got {self.deadline_ms}"
            )
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    @staticmethod
    def from_env() -> "ServingSettings":
        """Serving defaults, overridable via ``REPRO_SERVE_BATCH``,
        ``REPRO_SERVE_WAIT_MS``, ``REPRO_SERVE_QUEUE_DEPTH``,
        ``REPRO_SERVE_DEADLINE_MS`` and ``REPRO_SERVE_ATTEMPTS``."""
        deadline = os.environ.get("REPRO_SERVE_DEADLINE_MS") or None
        return ServingSettings(
            max_batch_size=int(os.environ.get("REPRO_SERVE_BATCH", "32")),
            max_wait_ms=float(os.environ.get("REPRO_SERVE_WAIT_MS", "2.0")),
            max_queue_depth=int(os.environ.get("REPRO_SERVE_QUEUE_DEPTH", "256")),
            deadline_ms=float(deadline) if deadline is not None else None,
            max_attempts=int(os.environ.get("REPRO_SERVE_ATTEMPTS", "1")),
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the experiment runner and the benchmark harness.

    ``nyu_scale`` lets callers shrink the 6,934-instance NYUSet by a common
    factor (cardinality ratios are preserved) so the full Table-2/5/6/7 sweeps
    stay affordable in CI while remaining exact at scale 1.0.
    """

    seed: int = DEFAULT_SEED
    render_size: int = RENDER_SIZE
    nyu_scale: float = 1.0
    histogram_bins: int = HISTOGRAM_BINS
    alpha: float = HYBRID_ALPHA
    beta: float = HYBRID_BETA
    engine: EngineSettings = field(default_factory=EngineSettings.from_env)

    def __post_init__(self) -> None:
        if not 0.0 < self.nyu_scale <= 1.0:
            raise ValueError(f"nyu_scale must lie in (0, 1], got {self.nyu_scale}")
        if self.render_size < 16:
            raise ValueError(f"render_size must be >= 16, got {self.render_size}")
        if self.histogram_bins < 2:
            raise ValueError(f"histogram_bins must be >= 2, got {self.histogram_bins}")
