"""Multi-process serving shards over a memory-mapped reference store.

:class:`ShardedRecognitionService` scales recognition out to worker
*processes*: every worker attaches the whole published
:class:`~repro.store.attach.ReferenceStore` version zero-copy behind the
certified index, and each admitted micro-batch is cut into at most
``workers`` contiguous chunks of queries (:func:`split_flush`), one per
worker, whose answers are put back in flush order (:func:`merge_champions`).
The service shares the in-process
:class:`~repro.serving.service.RecognitionService`'s front end — admission,
deadlines, degradation, shedding and the enrollment scaffolding — and
replaces only how a block of live requests is answered.

Why this is *bit-identical* to the single-process path: a worker answers
each of its queries through the certified champion over every reference
row (:mod:`repro.index.twostage`), which equals brute force in row and
float64 score, first-index tie rule included, and a query's champion does
not depend on which other queries share its chunk.  Splitting by query
scores each (query, row) pair once, as a split by rows would, but extracts
and pickles each query once instead of once per worker (DESIGN.md,
"Sharded tier").  Each worker runs NumPy's BLAS on one thread
(:func:`_single_blas_thread`): a worker is one unit of parallelism.

Resilience tier (see README "Resilience"):

* **Worker health** — every worker position has a :class:`~repro.serving.
  health.ShardHealth` breaker fed by dispatch outcomes.  A chunk whose
  worker is EJECTED (open breaker), or whose dispatch errors, is served by
  the in-process *rescue* leg: the front end attaches the same store
  version zero-copy behind the same certified index, so rescue answers are
  the worker's bit for bit; they are still flagged ``degraded`` because
  they were served off their worker.
* **Live hot-swap** — :meth:`~ShardedRecognitionService.swap_store`
  verifies-then-commits a new store epoch mid-traffic: in-flight flushes
  drain against their own epoch's task while new admissions scatter
  against the new one, and any verification failure raises
  :class:`~repro.errors.SwapError` leaving the old epoch serving.

Fault handling follows :class:`~repro.engine.executor.ParallelExecutor`'s
process backend: a :class:`~concurrent.futures.process.BrokenProcessPool`
(a worker died mid-batch) rebuilds the pool once and replays the batch —
scoring is deterministic and read-only, so replay is safe; if the replay
fails too, the batch degrades through the configured fallback pipeline
(flagged ``degraded``) rather than erroring every caller.  The sharded
service does not retry beyond that one replay:
``ServingSettings.max_attempts`` applies to the in-process service only.
"""

from __future__ import annotations

import ctypes
import gc
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.config import ExperimentConfig, ServingSettings
from repro.datasets.dataset import ImageDataset, LabelledImage
from repro.engine.chaos import ShardChaos, apply_shard_chaos
from repro.errors import (
    CalibrationError,
    EnrollmentError,
    ReproError,
    ServingError,
    StoreError,
    SwapError,
)
from repro.pipelines.base import ChampionPipeline, Prediction, RecognitionPipeline
from repro.serving.health import HealthPolicy, ShardHealth
from repro.serving.service import _FrontEnd, _PendingRequest
from repro.store.attach import ReferenceStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.openset.calibration import ThresholdModel


@dataclass(frozen=True)
class ShardTask:
    """Everything a worker process needs to (re)build its pipeline.

    Deliberately small and picklable: the worker re-creates the pipeline
    from the *default registry* name and attaches the whole store version
    by path — no matrices, images or locks ever cross the process boundary.
    It names no row count, so a task can never outlive its version's rows.
    """

    store_dir: str
    store_version: str
    pipeline: str
    config: ExperimentConfig
    #: Service artifact epoch, bumped by live hot-swaps: the memo key
    #: changes so workers re-attach, and the front-end tracks in-flight
    #: batches per epoch for drain accounting.
    epoch: int = 0
    #: Scheduled fault plan run before scoring (chaos suites); ``None`` = off.
    chaos: ShardChaos | None = None


@dataclass(frozen=True)
class SwapReport:
    """Receipt of one committed live hot-swap.

    ``kind`` is ``"store"``; ``old`` / ``new`` the swapped store version ids;
    ``epoch`` the new service epoch and ``shards`` its worker count.
    """

    kind: str
    old: str
    new: str
    epoch: int
    shards: int


#: One query's champion: ``(score, row, label, model_id)``.
Champion = tuple[float, int, str, str]

#: A chunk's answer for one query: its champion, or the exception that
#: query alone raised (see :func:`_isolated`).
Slot = Champion | Exception

#: One attached pipeline per task per worker process.  Plain memo — each
#: worker process is single-threaded, and the key includes the store
#: version and epoch so a new publish or hot-swap naturally re-attaches.
_SHARD_PIPELINES: dict[ShardTask, RecognitionPipeline] = {}


def split_flush(count: int, workers: int) -> list[range]:
    """Cut a flush of *count* queries into at most *workers* chunks.

    The chunks are contiguous, disjoint and in flush order, cover every
    query, and differ in size by at most one; chunk *i* goes to worker
    position *i*.  A flush smaller than *workers* gets one chunk a query,
    so no empty chunk is ever dispatched.
    """
    size, extra = divmod(count, workers)
    chunks: list[range] = []
    start = 0
    for position in range(min(count, workers)):
        stop = start + size + (position < extra)
        chunks.append(range(start, stop))
        start = stop
    return chunks


#: OpenBLAS thread-count setters: NumPy 2's bundled copy, NumPy 1's, a system one.
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                        "openblas_set_num_threads")


def _loaded_openblas() -> list[ctypes.CDLL]:
    """NumPy's wheel-bundled and any system OpenBLAS this process has mapped
    (``RTLD_NOLOAD`` never loads a library that is not loaded already)."""
    import numpy

    bundled = sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*"))
    libraries = []
    for name in [*map(str, bundled), "libopenblas.so.0"]:
        try:
            libraries.append(ctypes.CDLL(name, mode=getattr(os, "RTLD_NOLOAD", 0)))
        except OSError:
            pass
    return libraries


def _single_blas_thread() -> None:
    """Pool initializer: one OpenBLAS thread per shard worker, set at run
    time because a forked worker inherits its parent's loaded BLAS, so
    ``OPENBLAS_NUM_THREADS`` comes too late (DESIGN.md, "Sharded tier").
    Without a setter BLAS is left alone; the answers are the same."""
    for library in _loaded_openblas():
        for symbol in _BLAS_THREAD_SETTERS:
            if hasattr(library, symbol):
                setter = getattr(library, symbol)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


def _certified_pipeline(task: ShardTask) -> RecognitionPipeline:
    """The task's whole store version attached zero-copy behind the
    certified index; shared by worker and rescue leg, so a rescued chunk is
    its worker's, bit for bit.  The row count comes from the attached
    version itself, never from the task."""
    from repro.serving.registry import default_registry

    store = ReferenceStore.attach(task.store_dir, version=task.store_version)
    pipeline = default_registry().build(task.pipeline, task.config)
    pipeline.attach_store(store)  # type: ignore[attr-defined]
    pipeline.attach_index(len(store))  # type: ignore[attr-defined]
    return pipeline


def _shard_pipeline(task: ShardTask) -> RecognitionPipeline:
    pipeline = _SHARD_PIPELINES.get(task)
    if pipeline is None:
        pipeline = _certified_pipeline(task)
        # A hot-swap bumped the epoch: drop attachments of superseded epochs
        # so a long-lived worker never pins every store version it has ever
        # served (a stale-epoch task that still arrives just re-attaches).
        for stale in [key for key in _SHARD_PIPELINES if key.epoch < task.epoch]:
            del _SHARD_PIPELINES[stale]
        _SHARD_PIPELINES[task] = pipeline
    return pipeline


def _indexed_champions(
    pipeline: RecognitionPipeline, queries: list[LabelledImage]
) -> list[Champion]:
    """Per-query champions over the whole library through the certified
    index: champion row + exact score per query, without the ``(Q, V)``
    score matrix, equal to the in-process ``champion_batch`` answer."""
    references = pipeline.references
    out: list[Champion] = []
    for hit in pipeline.champion_batch(queries):  # type: ignore[attr-defined]
        winner = references[hit.row]
        out.append((hit.score, hit.row, winner.label, winner.model_id))
    return out


def _isolated(pipeline: RecognitionPipeline, queries: list[LabelledImage]) -> list[Slot]:
    """Certified champions of the chunk; if that raises, query by query.

    One malformed query then fails alone: its slot holds the exception it
    raised and every other slot its champion, so the worker itself has not
    failed.  The worker and rescue legs both score through here.
    """
    try:
        return _indexed_champions(pipeline, queries)
    except Exception:
        slots: list[Slot] = []
        for query in queries:
            try:
                slots.extend(_indexed_champions(pipeline, [query]))
            except Exception as exc:
                slots.append(exc)
        return slots


def _score_shard(
    task: ShardTask,
    queries: list[LabelledImage],
    dispatch_key: str = "",
    position: int = 0,
) -> list[Slot]:
    """Worker entry point: each query's champion over the whole library.

    Returns one ``(score, row, label, model_id)`` per query, or the
    exception a query raised alone (:func:`_isolated`).  Module-level so
    the process backend can pickle it by reference.  *dispatch_key* names
    the flush (plus an ``r`` leg suffix for replays) and feeds the task's
    scheduled chaos plan, when one is attached, for worker *position*.
    """
    if task.chaos is not None:
        apply_shard_chaos(task.chaos, position, dispatch_key)
    return _isolated(_shard_pipeline(task), queries)


def merge_champions(blocks: Sequence[Sequence[Slot]]) -> list[Slot]:
    """Put the per-chunk answers of one flush back in flush order.

    *blocks* are the chunks' slot lists in position order, and
    :func:`split_flush` cut the flush into contiguous chunks in that order,
    so concatenating them restores it.  A query that raised keeps its
    exception in its own slot and disturbs no other query.
    """
    return [slot for block in blocks for slot in block]


class ShardedRecognitionService(_FrontEnd):
    """Micro-batched recognition fanned out over shard worker processes.

    *pipeline_name* must be a default-registry pipeline whose champion is
    certifiable (:meth:`~repro.pipelines.base.ChampionPipeline.certifiable`:
    the matching families on a tight bound; the hybrid in its weighted-sum
    strategy).  Every worker attaches the published *store_dir* version
    zero-copy and answers a chunk of each flush; the front-end process keeps
    only the admission queue, the deadline/fallback machinery, the worker
    health board and the reassembly — reference matrices live in the
    workers' shared page cache.

    The submit/recognize/report surface, deadlines, fallback degradation,
    shedding and enrollment scaffolding are the in-process
    :class:`~repro.serving.service.RecognitionService`'s own front end;
    this class replaces only how a block is answered (epoch snapshot,
    scatter/gather, reassembly, thresholds) and how an enrollment is committed.
    It does not retry: a failed scatter gets one pool rebuild and replay,
    then degrades through *fallback*.  *chaos* attaches a scheduled
    :class:`~repro.engine.chaos.ShardChaos` fault plan to every worker
    dispatch (test harnesses only).
    """

    def __init__(
        self,
        pipeline_name: str,
        store_dir: str,
        workers: int = 2,
        settings: ServingSettings | None = None,
        config: ExperimentConfig | None = None,
        fallback: RecognitionPipeline | None = None,
        store_version: str | None = None,
        chaos: ShardChaos | None = None,
        references: ImageDataset | None = None,
        enroll_token: str | None = None,
        threshold_model: "ThresholdModel | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if workers < 1:
            raise ServingError(f"workers must be >= 1, got {workers}")
        super().__init__(
            f"sharded-serving({pipeline_name}x{workers})",
            settings,
            fallback,
            enroll_token,
            clock,
        )
        self.config = config or ExperimentConfig()
        self.pipeline_name = pipeline_name
        self.chaos = chaos
        store = ReferenceStore.attach(store_dir, version=store_version)
        self.store_dir = str(store_dir)
        self.store_version = store.store_version
        self._probe_registry_pipeline()
        self._health_policy = HealthPolicy(
            window=self.settings.health_window,
            degrade_errors=self.settings.health_degrade_errors,
            eject_consecutive=self.settings.health_eject_consecutive,
            probation_after=self.settings.health_probation_after,
            recover_successes=self.settings.health_recover_successes,
        )
        self.workers = workers
        #: One ``[0, V)`` row range per worker: each serves the whole library.
        self.shards = (range(len(store)),) * workers
        # Epoch-guarded serving state: the task each flush scatters, the
        # per-worker health board, and the in-flight count per epoch.  All
        # of it is read/replaced under the one condition so a hot-swap commit
        # is atomic with respect to the flush thread's snapshot.
        self._state_lock = threading.Condition()
        self._epoch = 0
        self._flush_index = 0
        self._inflight: dict[int, int] = {}
        self._task = self._build_task(self.store_version, epoch=0)
        self._health = self._new_health_board()
        # Guards pool teardown/rebuild: the flush thread may replace a broken
        # pool while stop() shuts it down.
        self._pool_lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_rebuilds = 0
        # Online enrollment state: the pixel-bearing reference dataset the
        # store was built from (store rows are image-free, so a republish
        # needs the real dataset), and the calibrated rejection threshold
        # applied after reassembly.
        self._references = references
        self._threshold_model: "ThresholdModel | None" = None
        if threshold_model is not None:
            self.attach_thresholds(threshold_model)
        # Serializes hot-swaps; the rescue-pipeline memo has its own lock
        # because the flush thread populates it while a swap may clear it.
        self._swap_lock = threading.Lock()
        self._rescue_lock = threading.Lock()
        self._rescue_pipelines: dict[str, RecognitionPipeline] = {}

    def _probe_registry_pipeline(self) -> None:
        """Fail fast on pipelines the shards cannot serve certified."""
        from repro.serving.registry import default_registry

        probe = default_registry().build(self.pipeline_name, self.config)
        if not hasattr(probe, "attach_store"):
            raise StoreError(
                f"pipeline {self.pipeline_name!r} has no attach_store path "
                "and cannot be served from shards"
            )
        if not (isinstance(probe, ChampionPipeline) and probe.certifiable()):
            raise ServingError(
                f"pipeline {self.pipeline_name!r} has no certified per-view "
                "champion on a tight bound and cannot be served from shards"
            )
        self._higher_is_better = bool(getattr(probe, "higher_is_better", False))

    def _build_task(self, store_version: str, epoch: int) -> ShardTask:
        return ShardTask(
            store_dir=self.store_dir,
            store_version=store_version,
            pipeline=self.pipeline_name,
            config=self.config,
            epoch=epoch,
            chaos=self.chaos,
        )

    def _new_health_board(self) -> tuple[ShardHealth, ...]:
        return tuple(ShardHealth(self._health_policy) for _ in range(self.workers))

    # -- lifecycle ------------------------------------------------------------

    @property
    def pool_rebuilds(self) -> int:
        """Times a broken worker pool was replaced mid-run."""
        with self._pool_lock:
            return self._pool_rebuilds

    @property
    def epoch(self) -> int:
        """The current artifact epoch (bumped by every committed swap)."""
        with self._state_lock:
            return self._epoch

    def start(self) -> "ShardedRecognitionService":
        """Spawn the worker pool, pre-attach every worker, start batching.

        Warm-up scatters one empty scoring round per worker so each pays its
        store attach before the service reports ready — the sharded
        equivalent of the registry's warm-start probe.  (The warm-up
        dispatch key is a non-primary leg, so chaos plans never fire before
        the first real flush.)  The collector is frozen across the fork, so
        no worker's collections touch, and so copy, the pages of the
        objects it inherited.
        """
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_single_blas_thread
                )
            pool = self._pool
        with self._state_lock:
            task = self._task
        gc.collect()
        gc.freeze()
        try:
            warmups = [pool.submit(_score_shard, task, [], "warm") for _ in range(self.workers)]
            for future in warmups:
                future.result()
        finally:
            gc.unfreeze()
        return super().start()

    def stop(self, drain: bool = True) -> None:
        """Stop admission, flush or discard the queue, shut the pool down."""
        super().stop(drain=drain)
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def health_report(self) -> dict[int, dict]:
        """Per-worker health snapshots, keyed by worker position."""
        with self._state_lock:
            board = self._health
        return {position: tracker.snapshot() for position, tracker in enumerate(board)}

    # -- open-set thresholds ---------------------------------------------------

    @property
    def thresholds_attached(self) -> bool:
        """Whether served champions are screened by a calibrated threshold."""
        return self._threshold_model is not None

    def attach_thresholds(
        self, model: "ThresholdModel"
    ) -> "ShardedRecognitionService":
        """Screen every served champion through *model* in the front end.

        The threshold applies at the front-end, after the chunks are put
        back in flush order, so one snapshot of the model screens the whole
        flush.  Raises
        :class:`~repro.errors.CalibrationError` when *model*'s score
        direction disagrees with the served pipeline's.
        """
        if bool(model.higher_is_better) != self._higher_is_better:
            raise CalibrationError(
                f"{self.name}: threshold direction "
                f"(higher_is_better={model.higher_is_better}) disagrees with "
                f"pipeline {self.pipeline_name!r}"
            )
        self._threshold_model = model
        return self

    def detach_thresholds(self) -> None:
        """Back to pure closed-set serving (bit-identical champions)."""
        self._threshold_model = None

    # -- live hot-swap ---------------------------------------------------------

    def swap_store(
        self, version: str | None = None, verify: str = "full"
    ) -> SwapReport:
        """Atomically repoint every shard worker at another store version.

        Verify-then-commit, mid-traffic: the target version (``None`` =
        re-resolve the store's CURRENT pointer) is attached and verified in
        the front-end, and the new task is probed once per worker in the
        pool *before* any state changes.  Only then is the new epoch committed under the
        state lock — flushes already in flight finish against their own
        epoch's task (:meth:`wait_drained` observes the drain) while new
        admissions scatter against the new one.  Any verification or probe
        failure raises :class:`~repro.errors.SwapError` and the old epoch
        keeps serving untouched; the health board and rescue cache reset on
        commit, since they described the superseded artifact.
        """
        with self._swap_lock:
            try:
                store = ReferenceStore.attach(
                    self.store_dir, version=version, verify=verify
                )
            except ReproError as exc:
                raise SwapError(
                    f"{self.name}: swap target failed verification, old "
                    f"epoch kept: {exc}"
                ) from exc
            with self._state_lock:
                new_epoch = self._epoch + 1
            new_task = self._build_task(store.store_version, new_epoch)
            self._probe_task(new_task)
            with self._state_lock:
                old_version = self.store_version
                self._epoch = new_epoch
                self._task = new_task
                self.shards = (range(len(store)),) * self.workers
                self.store_version = store.store_version
                self._health = self._new_health_board()
                self._state_lock.notify_all()
            with self._rescue_lock:
                self._rescue_pipelines.clear()
            self.stats.record_swap()
            return SwapReport(
                kind="store",
                old=old_version,
                new=store.store_version,
                epoch=new_epoch,
                shards=self.workers,
            )

    def _probe_task(self, task: ShardTask) -> None:
        """Attach the new-epoch task in every worker before committing it.

        A swap that cannot serve must fail while the old epoch still
        serves; the probe key is a non-primary leg, so chaos plans never
        fire inside a swap probe.
        """
        with self._pool_lock:
            pool = self._pool
        if pool is None:
            raise SwapError(f"{self.name}: cannot swap while the pool is down")
        futures = [pool.submit(_score_shard, task, [], "swap") for _ in range(self.workers)]
        try:
            for future in futures:
                future.result()
        except BrokenProcessPool as exc:
            self._rebuild_pool()
            raise SwapError(
                f"{self.name}: worker pool broke during the swap probe; "
                "pool rebuilt, old epoch kept"
            ) from exc
        except Exception as exc:
            raise SwapError(
                f"{self.name}: swap probe failed, old epoch kept: {exc}"
            ) from exc

    def wait_drained(self, timeout: float | None = 10.0) -> bool:
        """Block until every pre-swap in-flight flush has resolved.

        Returns ``False`` on timeout.  After a ``True`` return, all traffic
        is served by the current epoch's tasks — the moment a swap caller
        may retire the superseded artifact.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._state_lock:
            while any(epoch < self._epoch for epoch in self._inflight):
                if deadline is None:
                    self._state_lock.wait()
                    continue
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return False
                self._state_lock.wait(remaining)
            return True

    # -- online enrollment -----------------------------------------------------

    def _store_families(self, store: ReferenceStore) -> tuple[str, ...]:
        """The build families of *store*, recovered from its shard namespaces."""
        families: list[str] = []
        for shard in store.manifest.shards:
            if shard.namespace == "shape-hu":
                families.append("shape")
            elif shard.namespace.startswith("color-hist"):
                families.append("color")
            else:
                families.append(shard.namespace)
        return tuple(dict.fromkeys(families))

    def _enroll_references(self) -> ImageDataset:
        """The pixel-bearing *references* (store rows are image-free)."""
        if self._references is None:
            raise EnrollmentError(
                f"{self.name}: no reference dataset attached — construct "
                "the service with references=<ImageDataset> to enroll"
            )
        return self._references

    def _commit_enrollment(
        self, merged: ImageDataset
    ) -> tuple[str, str, int, int, int]:
        """Republish *merged* as a new store version and hot-swap onto it.

        The new content-addressed version is committed through
        :meth:`swap_store`'s verify-then-commit epoch machinery: in-flight
        flushes drain against the old version — every pre-existing-class
        request keeps its old champion bit-for-bit — while new admissions
        scatter against the enrolled one.  On commit the republished feature
        namespaces are invalidated from the process-wide caches (exactly the
        shape/colour namespaces the store carries), and any build or swap
        failure raises :class:`~repro.errors.EnrollmentError` with the old
        epoch still serving.
        """
        from repro.engine.cache import default_cache, default_matrix_cache
        from repro.store.builder import build_store

        store = ReferenceStore.attach(self.store_dir, version=self.store_version)
        old_version = self.store_version
        try:
            result = build_store(
                merged,
                self.store_dir,
                bins=store.manifest.histogram_bins,
                families=self._store_families(store),
            )
            swap = self.swap_store(version=result.store_version, verify="full")
        except (ReproError, SwapError) as exc:
            raise EnrollmentError(
                f"{self.name}: enrollment republish failed, old library "
                f"({old_version}) kept serving: {exc}"
            ) from exc
        # The republished namespaces now have more rows than any cached
        # (V, D) stack; drop exactly those namespaces so the next fit
        # or rescue attach rebuilds against the enrolled library.
        namespaces = [shard.namespace for shard in result.manifest.shards]
        feature_cache = default_cache()
        matrix_cache = default_matrix_cache()
        features = sum(
            feature_cache.invalidate_namespace(namespace)
            for namespace in namespaces
        )
        matrices = sum(
            matrix_cache.invalidate_namespace(namespace)
            for namespace in namespaces
        )
        self._references = merged
        return old_version, swap.new, swap.epoch, features, matrices

    # -- flush path (micro-batcher thread) ------------------------------------

    def _serve_block(self, live: list[_PendingRequest]) -> None:
        """Scatter the block over the current epoch's workers and reassemble.

        The epoch's task and health board are snapshotted atomically and
        this flush counts in flight against that epoch until every future
        of the block is settled, so a concurrent swap can commit at once
        and :meth:`wait_drained` observes the drain.
        """
        queries = [request.query for request in live]
        with self._state_lock:
            epoch = self._epoch
            task = self._task
            board = self._health
            dispatch_key = str(self._flush_index)
            self._flush_index += 1
            self._inflight[epoch] = self._inflight.get(epoch, 0) + 1
        try:
            try:
                champions, flagged = self._scatter_gather(
                    task, board, queries, dispatch_key
                )
            except BrokenProcessPool:
                # One rebuild + one replay: scoring is deterministic and
                # read-only against an immutable store version, so replaying
                # the whole batch is safe and cheap.  The replay key is a
                # non-primary leg: a scheduled chaos kill does not re-fire.
                self._rebuild_pool()
                champions, flagged = self._scatter_gather(
                    task, board, queries, dispatch_key + "r"
                )
        except Exception as exc:
            for request in live:
                self._serve_degraded(request, exc)
        else:
            # Snapshot once per flush: an attach/detach mid-batch must not
            # screen half the block.
            threshold = self._threshold_model
            answered: list[_PendingRequest] = []
            predictions: list[Prediction] = []
            for request, champion, flag in zip(live, champions, flagged):
                if isinstance(champion, Exception):
                    # This query alone raised while being scored.
                    self._serve_degraded(request, champion)
                    continue
                score, _, label, model_id = champion
                prediction = Prediction(
                    label=label, model_id=model_id, score=score, degraded=flag
                )
                if threshold is not None:
                    prediction = threshold.apply(prediction)
                answered.append(request)
                predictions.append(prediction)
            self._complete(answered, predictions)
        finally:
            with self._state_lock:
                self._inflight[epoch] -= 1
                if self._inflight[epoch] <= 0:
                    del self._inflight[epoch]
                self._state_lock.notify_all()

    def _scatter_gather(
        self,
        task: ShardTask,
        board: Sequence[ShardHealth],
        queries: list[LabelledImage],
        dispatch_key: str,
    ) -> tuple[list[Slot], list[bool]]:
        """Send each chunk of the flush to its worker, rescue the sick.

        Returns ``(champions, flags)`` in flush order: each query's
        champion, plus a flag marking queries of a chunk the in-process
        rescue leg served (its worker's breaker was open, or its dispatch
        errored) — those predictions surface as ``degraded``, because they
        were served off their worker.  Rescue and worker both serve the
        certified champion, so the answers are the fault-free ones either
        way.  A query that alone raised has its exception for a champion,
        and its worker still counts a success.
        """
        with self._pool_lock:
            pool = self._pool
        if pool is None:
            raise ServingError(f"{self.name}: worker pool is not running")
        started = self._clock()
        chunks = [[queries[i] for i in chunk] for chunk in split_flush(len(queries), len(board))]
        futures: dict[int, Future] = {
            position: pool.submit(_score_shard, task, chunk, dispatch_key, position)
            for position, chunk in enumerate(chunks)
            if board[position].allow_dispatch()  # open breaker: rescue it
        }
        blocks: list[list[Slot]] = []
        flags: list[bool] = []
        for position, chunk in enumerate(chunks):
            block: list[Slot] | None = None
            if position in futures:
                try:
                    block = futures[position].result()
                    board[position].record_success(self._clock() - started)
                except BrokenProcessPool:
                    # Attribution is approximate — the dead worker may have
                    # been running any chunk — but the pool is gone either
                    # way: record the first observer and let _serve_block
                    # rebuild.
                    board[position].record_error()
                    self.stats.record_shard_error()
                    raise
                except Exception:
                    board[position].record_error()
                    self.stats.record_shard_error()
            rescued = block is None
            if block is None:
                block = self._rescue_shard(task, chunk)
                self.stats.record_rescued()
            blocks.append(block)
            flags.extend([rescued] * len(chunk))
        return merge_champions(blocks), flags

    # -- in-process rescue -----------------------------------------------------

    def _rescue_shard(
        self, task: ShardTask, queries: list[LabelledImage]
    ) -> list[Slot]:
        """Serve one sick worker's chunk in the front-end process, exactly.

        The rescue pipeline attaches the same store version zero-copy
        behind the same certified index every worker runs, so rescue
        answers equal the worker's bit for bit; they are still flagged
        degraded because they were served off their worker.
        """
        return _isolated(self._rescue_pipeline(task), queries)

    def _rescue_pipeline(self, task: ShardTask) -> RecognitionPipeline:
        key = task.store_version
        with self._rescue_lock:
            pipeline = self._rescue_pipelines.get(key)
            if pipeline is None:
                pipeline = _certified_pipeline(task)
                self._rescue_pipelines[key] = pipeline
        return pipeline

    def _rebuild_pool(self) -> None:
        with self._pool_lock:
            broken, self._pool = self._pool, None
            if broken is not None:
                broken.shutdown(wait=False, cancel_futures=True)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_single_blas_thread
            )
            self._pool_rebuilds += 1
