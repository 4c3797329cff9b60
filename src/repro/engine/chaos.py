"""Deterministic fault injection for the execution engine.

The fault-tolerance layer is only trustworthy if it is exercised: this
module wraps any recognition pipeline in a seeded :class:`FaultInjector`
that raises configured exception types for a deterministic subset of
queries, plus corrupt-input generators (all-black masks, NaN pixels,
truncated cache entries) for the degenerate-input suites.

Determinism is the design constraint throughout.  Whether a query is faulty
is a pure function of ``(seed, content_hash(image))`` — not of invocation
order — so the same queries fail under any worker count, any chunking and
any backend, and a sweep at fault rate 0 delegates every call untouched.
Transient faults (``fail_first=k``) fail a faulty query's first *k*
invocations and then recover, which is what lets the retry layer prove
itself: a transient chaos run with retries enabled must reproduce the
fault-free sweep bit-for-bit.

``REPRO_FAULT_RATE`` (with ``REPRO_FAULT_SEED``) turns on suite-wide chaos:
the evaluation runner wraps every *stateless* pipeline in a transient
injector and lets the engine's retries absorb the faults, so the entire
test suite doubles as a fault-tolerance regression at zero expected diff.
Stateful pipelines (``parallel_safe = False``) are never injected — their
shared RNG stream cannot be replayed safely.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.engine.cache import content_hash
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datasets.dataset import LabelledImage
    from repro.engine.executor import ParallelExecutor


class InjectedFault(ReproError):
    """A fault raised by the chaos layer (never by real pipeline code)."""


class TransientInjectedFault(InjectedFault):
    """An injected fault that clears after a bounded number of attempts."""


def fault_draw(seed: int, image: np.ndarray) -> float:
    """Deterministic uniform draw in ``[0, 1)`` for *image* under *seed*.

    A pure function of the seed and the pixel content, so the fault set of a
    sweep is independent of query order, chunking and worker count.
    """
    digest = hashlib.blake2b(
        f"{seed}:{content_hash(image)}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


class FaultInjector:
    """Wraps a pipeline, raising injected faults for a seeded query subset.

    *rate* is the marginal fault probability per distinct query image;
    *fail_first* bounds how many invocations of a faulty query raise before
    it recovers (``None`` = persistent — every invocation raises, so the
    query ends as exactly one ``FailureRecord`` after retries are spent).
    *exception* is the raised type (must accept a message argument).

    The wrapper delegates everything else (``fit``, ``name``, caches,
    ``parallel_safe``, ``scoring_mode``) to the inner pipeline, so it can
    stand anywhere a pipeline can — including as the primary stage of a
    :class:`~repro.pipelines.fallback.FallbackPipeline`, where its faults
    exercise graceful degradation instead of failure records.
    """

    def __init__(
        self,
        pipeline: Any,
        rate: float,
        seed: int = 0,
        exception: type[Exception] = InjectedFault,
        fail_first: int | None = None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ReproError(f"fault rate must lie in [0, 1], got {rate}")
        if fail_first is not None and fail_first < 1:
            raise ReproError(f"fail_first must be >= 1 (or None), got {fail_first}")
        self.inner = pipeline
        self.rate = rate
        self.seed = seed
        self.exception = exception
        self.fail_first = fail_first
        #: Invocation counters per faulty query (content-hash keyed); only
        #: consulted for transient faults.
        self._attempts: dict[str, int] = {}

    # -- fault decision ------------------------------------------------------

    def is_faulty(self, item: "LabelledImage") -> bool:
        """Whether *item* belongs to the injected fault set (pure, seeded)."""
        if self.rate <= 0.0:
            return False
        return fault_draw(self.seed, item.image) < self.rate

    def _should_raise(self, item: "LabelledImage") -> bool:
        """Fault decision plus transient bookkeeping (one count per call)."""
        if not self.is_faulty(item):
            return False
        if self.fail_first is None:
            return True
        key = content_hash(item.image)
        count = self._attempts.get(key, 0) + 1
        self._attempts[key] = count
        return count <= self.fail_first

    # -- pipeline contract ---------------------------------------------------

    @property
    def parallel_safe(self) -> bool:
        return getattr(self.inner, "parallel_safe", True)

    def fit(self, references: Any) -> "FaultInjector":
        self.inner.fit(references)
        return self

    def predict(self, query: "LabelledImage") -> Any:
        if self._should_raise(query):
            raise self.exception(
                f"injected fault (seed {self.seed}, rate {self.rate:g}) on "
                f"{getattr(query, 'model_id', '') or 'query'}"
            )
        return self.inner.predict(query)

    def predict_batch(self, queries: Sequence["LabelledImage"]) -> list:
        for query in queries:
            if self._should_raise(query):
                raise self.exception(
                    f"injected fault (seed {self.seed}, rate {self.rate:g}) in a "
                    f"chunk of {len(queries)} queries"
                )
        return self.inner.predict_batch(list(queries))

    def predict_all(
        self,
        queries: Sequence["LabelledImage"],
        executor: "ParallelExecutor | None" = None,
    ) -> Any:
        if executor is not None:
            return executor.predict_all(self, queries)
        return self.predict_batch(list(queries))

    #: Attributes owned by the wrapper itself; everything else proxies to
    #: the wrapped pipeline in both directions, so harness code that tunes
    #: ``stopwatch``/``keep_view_scores``/caches through the injector reaches
    #: the pipeline that actually predicts.
    _OWN_ATTRS = frozenset(
        {"inner", "rate", "seed", "exception", "fail_first", "_attempts"}
    )

    def __getattr__(self, name: str) -> Any:
        # During unpickling the instance briefly has an empty __dict__;
        # proxying "inner" to itself would recurse forever.
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)

    def __setattr__(self, name: str, value: Any) -> None:
        if name in self._OWN_ATTRS or "inner" not in self.__dict__:
            object.__setattr__(self, name, value)
        else:
            setattr(self.inner, name, value)


def injector_from_env(pipeline: Any) -> Any:
    """Suite-wide chaos mode: wrap *pipeline* per ``REPRO_FAULT_RATE``.

    Returns the pipeline unchanged when the env knob is absent/zero, or when
    the pipeline is stateful (``parallel_safe = False`` — replaying its
    queries would shift the shared RNG stream).  Injected faults are
    transient (``fail_first=1``) so the engine's retry layer absorbs them
    and every run stays bit-identical to its fault-free twin.
    """
    try:
        rate = float(os.environ.get("REPRO_FAULT_RATE", "") or 0.0)
    except ValueError:
        rate = 0.0
    if rate <= 0.0 or not getattr(pipeline, "parallel_safe", True):
        return pipeline
    seed = int(os.environ.get("REPRO_FAULT_SEED", "0") or 0)
    return FaultInjector(
        pipeline,
        rate=min(rate, 1.0),
        seed=seed,
        exception=TransientInjectedFault,
        fail_first=1,
    )


# -- service-level shard chaos -----------------------------------------------


@dataclasses.dataclass(frozen=True)
class ShardChaos:
    """Scheduled fault plan for the sharded service's worker dispatches.

    ``kill_flushes`` / ``error_flushes`` / ``slow_flushes`` name exact flush
    indexes (e.g. "kill the worker on flush 1, recover on the replay"), so
    the fault set is a pure function of the plan and the flush schedule,
    under any worker count or pool rebuild.  Only primary dispatches fire:
    legs with a suffix (replay, warm-up, swap probe) are always exempt,
    which is what lets the replay layer prove recovery deterministically.
    ``kill`` faults terminate the worker process outright (``os._exit``),
    ``error`` faults raise :class:`InjectedFault`, ``slow`` faults sleep for
    ``slow_s`` before scoring (a straggling shard, not a dead one).
    """

    slow_s: float = 0.05
    kill_flushes: tuple[int, ...] = ()
    error_flushes: tuple[int, ...] = ()
    slow_flushes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.slow_s < 0:
            raise ReproError(f"slow_s must be >= 0, got {self.slow_s}")


def apply_shard_chaos(chaos: ShardChaos, key: str) -> None:
    """Run *chaos*'s verdict for one shard dispatch under *key*.

    Called by the shard worker entry point before scoring.  ``key`` is the
    front-end's dispatch key: the flush index, suffixed ``r`` for a
    post-rebuild replay (``"warm"`` and ``"swap"`` have no index at all).
    Kill wins over error wins over slow, so a plan naming all three stays
    well-defined.
    """
    import time

    if not key.isdigit():  # a suffixed leg, or no flush index at all
        return
    flush = int(key)
    if flush in chaos.kill_flushes:
        os._exit(1)
    if flush in chaos.error_flushes:
        raise InjectedFault(f"injected shard fault (dispatch {key})")
    if flush in chaos.slow_flushes:
        time.sleep(chaos.slow_s)


# -- corrupt-input generators ------------------------------------------------


def all_black(item: "LabelledImage") -> "LabelledImage":
    """*item* with its pixels zeroed — an empty segmentation mask."""
    return dataclasses.replace(item, image=np.zeros_like(item.image))


def nan_pixels(
    item: "LabelledImage", fraction: float = 0.25, seed: int = 0
) -> "LabelledImage":
    """*item* with a seeded *fraction* of its pixels set to NaN."""
    image = np.asarray(item.image, dtype=np.float64).copy()
    rng = np.random.default_rng(seed)
    mask = rng.random(image.shape[:2]) < fraction
    image[mask] = np.nan
    return dataclasses.replace(item, image=image)


def truncate_file(path: "str | os.PathLike[str]", keep_bytes: int = 8) -> None:
    """Truncate an on-disk cache entry to *keep_bytes* — a torn write."""
    with open(path, "r+b") as handle:
        handle.truncate(keep_bytes)


def garble_file(path: "str | os.PathLike[str]", seed: int = 0) -> None:
    """Overwrite a cache entry with seeded noise — undeserialisable bytes."""
    rng = np.random.default_rng(seed)
    size = max(16, os.path.getsize(path) // 2)
    with open(path, "wb") as handle:
        handle.write(rng.integers(0, 256, size=size, dtype=np.uint8).tobytes())
