"""Multi-process serving shards over a memory-mapped reference store.

:class:`ShardedRecognitionService` scales recognition out to worker
*processes*: the reference library is split into contiguous row ranges
(:func:`plan_shards`, aligned to class boundaries so each shard owns whole
class namespaces), every worker process attaches its range of the shared
:class:`~repro.store.attach.ReferenceStore` zero-copy, and each admitted
micro-batch is scattered to all shards and merged by a tie-rule-preserving
reduction.  The service shares the in-process
:class:`~repro.serving.service.RecognitionService`'s front end — admission,
deadlines, degradation, shedding and the enrollment scaffolding — and
replaces only how a block of live requests is answered.

Why this is *bit-identical* to the single-process path: every scoring
kernel is row-independent per reference view, so a worker scoring rows
``[start, stop)`` of the memmapped matrix produces exactly the score slice
``scores[:, start:stop]`` of the full computation.  Each worker returns its
per-query ``(score, global_index, label, model_id)`` champion; because
shards are contiguous and ordered, picking the lexicographically best
``(score, global_index)`` across shards — score ascending (or descending
for ``higher_is_better``), index ascending — reproduces NumPy's
argmin/argmax first-index tie rule over the full matrix exactly.  The
sharded equivalence tests and perfbench's per-answer check both pin this.

Resilience tier (see README "Resilience"):

* **Shard health** — every shard has a :class:`~repro.serving.health.
  ShardHealth` breaker fed by dispatch outcomes.  An EJECTED shard (open
  breaker) is skipped by the scatter — no stalled barrier — and its row
  range is served through the in-process *rescue* path: the front-end
  attaches the same store rows zero-copy behind the same certified index,
  so rescue answers are the worker's bit for bit; they are still flagged
  ``degraded`` because they were served off their worker.
* **Hedged dispatch** — with ``hedge_after_ms`` set, a straggling shard's
  sub-batch is re-dispatched to a spare worker after the threshold and the
  first result is taken; the losing leg is audited against the served
  block (both legs score the same immutable rows, so any bitwise
  disagreement is counted as a ``hedge_mismatch``).
* **Live hot-swap** — :meth:`~ShardedRecognitionService.swap_store` /
  :meth:`~ShardedRecognitionService.swap_index` verify-then-commit a new
  artifact epoch mid-traffic: in-flight flushes drain against their own
  epoch's tasks while new admissions scatter against the new one, and any
  verification failure raises :class:`~repro.errors.SwapError` leaving
  the old epoch serving.

Every row range is scored through the certified champion
(:mod:`repro.index.twostage`), equal to brute force in row and float64
score, and each worker runs NumPy's BLAS on one thread
(:func:`_single_blas_thread`): a worker is one unit of parallelism.

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
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
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
from repro.index.twostage import validate_shortlist
from repro.pipelines.base import ChampionPipeline, Prediction, RecognitionPipeline
from repro.serving.health import HealthPolicy, ShardHealth
from repro.serving.service import _FrontEnd, _PendingRequest
from repro.store.attach import ReferenceStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.openset.calibration import ThresholdModel


@dataclass(frozen=True)
class WorkerShard:
    """One contiguous reference row range ``[start, stop)`` owned by a worker.

    ``classes`` lists the class labels whose views fall in the range — with
    class-aligned planning each label appears in exactly one shard, so the
    shard *is* that set of class namespaces.
    """

    index: int
    start: int
    stop: int
    classes: tuple[str, ...]

    def __len__(self) -> int:
        return self.stop - self.start


def plan_shards(labels: Sequence[str], workers: int) -> tuple[WorkerShard, ...]:
    """Split reference rows into ``workers`` contiguous, class-aligned shards.

    Rows are never split mid-class: the plan walks the contiguous runs of
    equal labels (the reference sets are stored grouped by class) and closes
    a shard when its row count reaches the ideal ``V / workers`` boundary.
    With fewer class runs than workers the plan has fewer shards — a shard
    is never empty.
    """
    if workers < 1:
        raise ServingError(f"workers must be >= 1, got {workers}")
    total = len(labels)
    if total == 0:
        raise ServingError("cannot shard an empty reference library")
    runs: list[tuple[int, int]] = []  # (start, stop) of each equal-label run
    start = 0
    for index in range(1, total + 1):
        if index == total or labels[index] != labels[start]:
            runs.append((start, index))
            start = index
    shards: list[WorkerShard] = []
    shard_start = runs[0][0]
    for position, (_, run_stop) in enumerate(runs):
        remaining_runs = len(runs) - position - 1
        remaining_shards = workers - len(shards) - 1
        boundary = (len(shards) + 1) * total / workers
        if (run_stop >= boundary or remaining_runs < remaining_shards) and (
            remaining_shards > 0 or run_stop == total
        ):
            shards.append(
                WorkerShard(
                    index=len(shards),
                    start=shard_start,
                    stop=run_stop,
                    classes=tuple(
                        dict.fromkeys(labels[shard_start:run_stop])
                    ),
                )
            )
            shard_start = run_stop
            if run_stop == total:
                break
    if shard_start < total:  # tail rows when workers > class runs consumed
        shards.append(
            WorkerShard(
                index=len(shards),
                start=shard_start,
                stop=total,
                classes=tuple(dict.fromkeys(labels[shard_start:total])),
            )
        )
    return tuple(shards)


@dataclass(frozen=True)
class ShardTask:
    """Everything a worker process needs to (re)build its shard pipeline.

    Deliberately small and picklable: the worker re-creates the pipeline
    from the *default registry* name and attaches the store range by path —
    no matrices, images or locks ever cross the process boundary.
    """

    store_dir: str
    store_version: str
    pipeline: str
    config: ExperimentConfig
    start: int
    stop: int
    #: Certified-index shortlist size; it changes no answer and no work,
    #: and ``None`` takes the whole row range.
    shortlist_k: int | None = None
    #: Service artifact epoch, bumped by live hot-swaps: the memo key
    #: changes so workers re-attach, and the front-end tracks in-flight
    #: batches per epoch for drain accounting.
    epoch: int = 0
    #: Seeded fault plan run before scoring (chaos suites); ``None`` = off.
    chaos: ShardChaos | None = None


@dataclass(frozen=True)
class SwapReport:
    """Receipt of one committed live hot-swap.

    ``kind`` is ``"store"`` or ``"index"``; ``old`` / ``new`` the swapped
    artifact identities (store version ids, or shortlist sizes as text);
    ``epoch`` the new service epoch and ``shards`` its shard count.
    """

    kind: str
    old: str
    new: str
    epoch: int
    shards: int


#: One query's champion within a shard: ``(score, global_index, label,
#: model_id)``.
Champion = tuple[float, int, str, str]

#: A shard block's answer for one query: its champion, or the exception
#: that query alone raised (see :func:`_isolated`).
Slot = Champion | Exception

#: One attached shard pipeline per (task) per worker process.  Plain memo —
#: each worker process is single-threaded, and the key includes the store
#: version and epoch so a new publish or hot-swap naturally re-attaches.
_SHARD_PIPELINES: dict[ShardTask, RecognitionPipeline] = {}


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
    """The task's rows attached zero-copy behind the certified index; shared
    by worker and rescue leg, so a rescued block is its worker's, bit for bit."""
    from repro.serving.registry import default_registry

    store = ReferenceStore.attach(task.store_dir, version=task.store_version)
    pipeline = default_registry().build(task.pipeline, task.config)
    pipeline.attach_store(store, rows=(task.start, task.stop))  # type: ignore[attr-defined]
    pipeline.attach_index(task.shortlist_k or task.stop - task.start)  # type: ignore[attr-defined]
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
    pipeline: RecognitionPipeline, start: int, queries: list[LabelledImage]
) -> list[Champion]:
    """Per-query champions of one row range through its certified index.

    Champion row + exact score per query, without the ``(Q, V_shard)``
    score matrix.  The certified champion is the brute shard champion, row
    and score bits, so the merge reproduces the whole-matrix tie rule.
    """
    references = pipeline.references
    out: list[Champion] = []
    for hit in pipeline.champion_batch(queries):  # type: ignore[attr-defined]
        winner = references[hit.row]
        out.append((hit.score, start + hit.row, winner.label, winner.model_id))
    return out


def _isolated(
    pipeline: RecognitionPipeline, start: int, queries: list[LabelledImage]
) -> list[Slot]:
    """Certified champions of the block; if that raises, query by query.

    One malformed query then fails alone: its slot holds the exception it
    raised and every other slot its champion, so the shard itself has not
    failed.  The worker, hedge and rescue legs all score through here.
    """
    try:
        return _indexed_champions(pipeline, start, queries)
    except Exception:
        slots: list[Slot] = []
        for query in queries:
            try:
                slots.extend(_indexed_champions(pipeline, start, [query]))
            except Exception as exc:
                slots.append(exc)
        return slots


def _score_shard(
    task: ShardTask, queries: list[LabelledImage], dispatch_key: str = ""
) -> list[Slot]:
    """Worker entry point: each query's champion within this shard.

    Returns one ``(score, global_index, label, model_id)`` per query, or the
    exception a query raised alone (:func:`_isolated`); the index is global
    (shard start + local argmin) so the front-end merge can reproduce the
    whole-matrix first-index tie rule.  Module-level so the process backend
    can pickle it by reference.  *dispatch_key* names the flush (plus a
    ``h``/``r`` leg suffix for hedges and replays) and feeds the task's
    seeded chaos plan, when one is attached.
    """
    if task.chaos is not None:
        apply_shard_chaos(task.chaos, task.start, dispatch_key)
    return _isolated(_shard_pipeline(task), task.start, queries)


def merge_champions(
    per_shard: Sequence[Sequence[Slot]],
    higher_is_better: bool = False,
) -> list[Slot]:
    """Reduce per-shard champions to the global winner per query.

    Lexicographic on ``(score, global_index)`` — score ascending (or
    descending when *higher_is_better*), then lowest index — which equals
    NumPy's argmin/argmax first-index rule over the concatenated score row.
    A query that raised on any shard keeps the first exception in its slot:
    it has no winner, and it does not disturb the other queries' merge.

    Empty champion blocks (a shard whose every row was ejected from the
    reduction upstream) are skipped: the merge seeds from the first
    non-empty block, so determinism of the tie rule is unaffected by which
    shard went dark.
    """
    blocks = [rows for rows in per_shard if len(rows) > 0]
    if not blocks:
        return []
    merged: list[Slot] = list(blocks[0])
    for shard_rows in blocks[1:]:
        for query_index, candidate in enumerate(shard_rows):
            champion = merged[query_index]
            if isinstance(champion, Exception):
                continue
            if isinstance(candidate, Exception):
                merged[query_index] = candidate
                continue
            better = (
                candidate[0] > champion[0]
                if higher_is_better
                else candidate[0] < champion[0]
            )
            # Equal scores keep the earlier (lower-index) champion: shards
            # are ordered, so the incumbent always has the smaller index.
            if better:
                merged[query_index] = candidate
    return merged


class ShardedRecognitionService(_FrontEnd):
    """Micro-batched recognition fanned out over shard worker processes.

    *pipeline_name* must be a default-registry pipeline with a per-view
    batch scoring path (the matching families; the hybrid is served in its
    weighted-sum strategy).  Workers attach the published *store_dir*
    version zero-copy; the front-end process keeps only the admission
    queue, the deadline/fallback machinery, the shard health board and the
    merge — reference matrices live in the workers' shared page cache.

    The submit/recognize/report surface, deadlines, fallback degradation,
    shedding and enrollment scaffolding are the in-process
    :class:`~repro.serving.service.RecognitionService`'s own front end, so
    the load generator drives either interchangeably; this class replaces
    only how a block is answered (epoch snapshot, scatter/gather, merge,
    thresholds) and how an enrollment is committed.  It does not retry: a
    failed scatter gets one pool rebuild and replay, then degrades through
    *fallback*.  *chaos* attaches a seeded
    :class:`~repro.engine.chaos.ShardChaos` fault plan to every worker
    dispatch (test/soak harnesses only).
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
        shortlist_k: int | None = None,
        chaos: ShardChaos | None = None,
        references: ImageDataset | None = None,
        enroll_token: str | None = None,
        threshold_model: "ThresholdModel | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if workers < 1:
            raise ServingError(f"workers must be >= 1, got {workers}")
        if shortlist_k is not None:
            try:
                validate_shortlist(shortlist_k)
            except ReproError as exc:
                raise ServingError(str(exc)) from exc
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
        self._requested_workers = workers
        store = ReferenceStore.attach(store_dir, version=store_version)
        self.store_dir = str(store_dir)
        self.store_version = store.store_version
        self.shortlist_k = shortlist_k
        self._probe_registry_pipeline()
        self._health_policy = HealthPolicy(
            window=self.settings.health_window,
            degrade_errors=self.settings.health_degrade_errors,
            eject_consecutive=self.settings.health_eject_consecutive,
            probation_after=self.settings.health_probation_after,
            recover_successes=self.settings.health_recover_successes,
        )
        labels = store.references().labels
        self.shards: tuple[WorkerShard, ...] = plan_shards(labels, workers)
        self.workers = len(self.shards)
        # Epoch-guarded serving state: the tasks each flush scatters against,
        # the per-shard health board, and the in-flight count per epoch.  All
        # of it is read/replaced under the one condition so a hot-swap commit
        # is atomic with respect to the flush thread's snapshot.
        self._state_lock = threading.Condition()
        self._epoch = 0
        self._flush_index = 0
        self._inflight: dict[int, int] = {}
        self._tasks: tuple[ShardTask, ...] = self._build_tasks(
            self.shards, self.store_version, shortlist_k, epoch=0
        )
        self._health: tuple[ShardHealth, ...] = tuple(
            ShardHealth(self._health_policy) for _ in self.shards
        )
        # Guards pool teardown/rebuild: the flush thread may replace a broken
        # pool while stop() shuts it down.
        self._pool_lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_rebuilds = 0
        # Online enrollment state: the pixel-bearing reference dataset the
        # store was built from (store rows are image-free, so a republish
        # needs the real dataset), and the calibrated rejection threshold
        # applied post-merge.
        self._references = references
        self._threshold_model: "ThresholdModel | None" = None
        if threshold_model is not None:
            self.attach_thresholds(threshold_model)
        # Serializes hot-swaps; the rescue-pipeline memo has its own lock
        # because the flush thread populates it while a swap may clear it.
        self._swap_lock = threading.Lock()
        self._rescue_lock = threading.Lock()
        self._rescue_pipelines: dict[
            tuple[str, int, int], RecognitionPipeline
        ] = {}

    def _probe_registry_pipeline(self) -> None:
        """Fail fast on pipelines the shards cannot serve certified."""
        from repro.serving.registry import default_registry

        probe = default_registry().build(self.pipeline_name, self.config)
        if not hasattr(probe, "attach_store"):
            raise StoreError(
                f"pipeline {self.pipeline_name!r} has no attach_store path "
                "and cannot be served from shards"
            )
        # A hybrid averaging strategy aggregates across views: no bound.
        bound = getattr(type(probe), "_champion_bound", None)
        strategy = getattr(getattr(probe, "strategy", None), "value", "weighted_sum")
        if bound in (None, ChampionPipeline._champion_bound) or strategy != "weighted_sum":
            raise ServingError(
                f"pipeline {self.pipeline_name!r} has no certified per-view "
                "champion and cannot be served from shards"
            )
        self._higher_is_better = bool(getattr(probe, "higher_is_better", False))

    def _build_tasks(
        self,
        shards: Sequence[WorkerShard],
        store_version: str,
        shortlist_k: int | None,
        epoch: int,
    ) -> tuple[ShardTask, ...]:
        return tuple(
            ShardTask(
                store_dir=self.store_dir,
                store_version=store_version,
                pipeline=self.pipeline_name,
                config=self.config,
                start=shard.start,
                stop=shard.stop,
                shortlist_k=shortlist_k,
                epoch=epoch,
                chaos=self.chaos,
            )
            for shard in shards
        )

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

    def _pool_size(self) -> int:
        """Worker processes: one per shard, plus hedging spares."""
        spares = (
            self.settings.spare_workers
            if self.settings.hedge_after_ms is not None
            else 0
        )
        return self.workers + spares

    def start(self) -> "ShardedRecognitionService":
        """Spawn the worker pool, pre-attach every shard, start batching.

        Warm-up scatters one empty scoring round so each worker pays its
        store attach before the service reports ready — the sharded
        equivalent of the registry's warm-start probe.  (The warm-up
        dispatch key is a non-primary leg, so seeded chaos plans never fire
        before the first real flush.)
        """
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self._pool_size(), initializer=_single_blas_thread
                )
            pool = self._pool
        with self._state_lock:
            tasks = self._tasks
        warmups = [pool.submit(_score_shard, task, [], "warm") for task in tasks]
        for future in warmups:
            future.result()
        return super().start()

    def stop(self, drain: bool = True) -> None:
        """Stop admission, flush or discard the queue, shut the pool down."""
        super().stop(drain=drain)
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def health_report(self) -> dict[str, dict]:
        """Per-shard health snapshots, keyed by ``"start:stop"`` row range."""
        with self._state_lock:
            shards = self.shards
            board = self._health
        return {
            f"{shard.start}:{shard.stop}": tracker.snapshot()
            for shard, tracker in zip(shards, board)
        }

    # -- open-set thresholds ---------------------------------------------------

    @property
    def thresholds_attached(self) -> bool:
        """Whether served champions are screened by a calibrated threshold."""
        return self._threshold_model is not None

    def attach_thresholds(
        self, model: "ThresholdModel"
    ) -> "ShardedRecognitionService":
        """Screen every served champion through *model* post-merge.

        The threshold applies at the front-end, after the cross-shard
        champion merge — a per-shard rejection would corrupt the
        first-index tie rule the merge reproduces.  Raises
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
        the front-end, a fresh class-aligned shard plan is drawn from its
        labels, and every new task is probed in the worker pool *before*
        any state changes.  Only then is the new epoch committed under the
        state lock — flushes already in flight finish against their own
        epoch's tasks (:meth:`wait_drained` observes the drain) while new
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
            labels = store.references().labels
            new_shards = plan_shards(labels, self._requested_workers)
            with self._state_lock:
                new_epoch = self._epoch + 1
            new_tasks = self._build_tasks(
                new_shards, store.store_version, self.shortlist_k, new_epoch
            )
            self._probe_tasks(new_tasks)
            with self._state_lock:
                old_version = self.store_version
                self._epoch = new_epoch
                self._tasks = new_tasks
                self.shards = new_shards
                self.workers = len(new_shards)
                self.store_version = store.store_version
                self._health = tuple(
                    ShardHealth(self._health_policy) for _ in new_shards
                )
                self._state_lock.notify_all()
            with self._rescue_lock:
                self._rescue_pipelines.clear()
            self.stats.record_swap()
            return SwapReport(
                kind="store",
                old=old_version,
                new=store.store_version,
                epoch=new_epoch,
                shards=len(new_shards),
            )

    def swap_index(self, shortlist_k: int | None) -> SwapReport:
        """Hot-swap the per-shard shortlist size under the same store.

        Every shard serves the certified champion whatever the size, so a
        swap changes no answer; ``None`` takes each shard's whole row range.
        The new size goes live the way a store swap does: new-epoch tasks
        are probed in the pool first, then committed under the state lock;
        in-flight flushes drain against the old epoch.  Raises
        :class:`~repro.errors.SwapError` when the probe fails.
        """
        if shortlist_k is not None:
            validate_shortlist(shortlist_k)
        with self._swap_lock:
            with self._state_lock:
                new_epoch = self._epoch + 1
                shards = self.shards
            new_tasks = self._build_tasks(
                shards, self.store_version, shortlist_k, new_epoch
            )
            self._probe_tasks(new_tasks)
            with self._state_lock:
                old_k = self.shortlist_k
                self._epoch = new_epoch
                self._tasks = new_tasks
                self.shortlist_k = shortlist_k
                self._state_lock.notify_all()
            self.stats.record_swap()
            return SwapReport(
                kind="index",
                old=str(old_k),
                new=str(shortlist_k),
                epoch=new_epoch,
                shards=len(shards),
            )

    def _probe_tasks(self, tasks: Sequence[ShardTask]) -> None:
        """Attach every new-epoch task in the pool before committing it.

        A swap that cannot serve must fail while the old epoch still
        serves; the probe key is a non-primary leg, so chaos plans never
        fire inside a swap probe.
        """
        with self._pool_lock:
            pool = self._pool
        if pool is None:
            raise SwapError(f"{self.name}: cannot swap while the pool is down")
        futures = [pool.submit(_score_shard, task, [], "swap") for task in tasks]
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
        """Scatter the block over the current epoch's shards and merge.

        The epoch's tasks and health board are snapshotted atomically and
        this flush counts in flight against that epoch until every future
        of the block is settled, so a concurrent swap can commit at once
        and :meth:`wait_drained` observes the drain.
        """
        queries = [request.query for request in live]
        with self._state_lock:
            epoch = self._epoch
            tasks = self._tasks
            board = self._health
            dispatch_key = str(self._flush_index)
            self._flush_index += 1
            self._inflight[epoch] = self._inflight.get(epoch, 0) + 1
        try:
            try:
                champions, flagged = self._scatter_gather(
                    tasks, board, queries, dispatch_key
                )
            except BrokenProcessPool:
                # One rebuild + one replay: scoring is deterministic and
                # read-only against an immutable store version, so replaying
                # the whole batch is safe and cheap.  The replay key is a
                # non-primary leg: a scheduled chaos kill does not re-fire.
                self._rebuild_pool()
                champions, flagged = self._scatter_gather(
                    tasks, board, queries, dispatch_key + "r"
                )
        except Exception as exc:
            for request in live:
                self._serve_degraded(request, exc)
        else:
            # Snapshot once per flush: an attach/detach mid-batch must not
            # screen half the block.  Applied post-merge so the cross-shard
            # first-index tie rule is decided before any rejection.
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
        tasks: Sequence[ShardTask],
        board: Sequence[ShardHealth],
        queries: list[LabelledImage],
        dispatch_key: str,
    ) -> tuple[list[Slot], list[bool]]:
        """Scatter to healthy shards, hedge stragglers, rescue the sick.

        Returns ``(champions, flags)``: the merged global champion per
        query, plus a flag marking queries whose winner came from a
        rescue-served row range — those predictions surface as
        ``degraded``, because they were served off their worker.  Rescue
        and worker both serve the certified champion, so the answers are
        the fault-free ones either way.
        A query that alone raised has its exception for a champion, and
        its shard still counts a success.
        """
        with self._pool_lock:
            pool = self._pool
        if pool is None:
            raise ServingError(f"{self.name}: worker pool is not running")
        started = self._clock()
        primaries: dict[int, Future] = {}
        rescue_positions: list[int] = []
        for position, task in enumerate(tasks):
            if board[position].allow_dispatch():
                primaries[position] = pool.submit(
                    _score_shard, task, queries, dispatch_key
                )
            else:
                # Breaker open: skip the shard, serve its rows in-process.
                rescue_positions.append(position)
        hedges = self._hedge_stragglers(pool, tasks, primaries, queries, dispatch_key)
        blocks: dict[int, list[Slot]] = {}
        for position in sorted(primaries):
            try:
                blocks[position] = self._gather_shard(
                    position, board, primaries[position], hedges.get(position), started
                )
            except BrokenProcessPool:
                # Attribution is approximate — the dead worker may have been
                # running any shard's task — but the pool is gone either
                # way: record the first observer and let _flush rebuild.
                board[position].record_error()
                self.stats.record_shard_error()
                raise
            except Exception:
                board[position].record_error()
                self.stats.record_shard_error()
                rescue_positions.append(position)
        for position in sorted(rescue_positions):
            blocks[position] = self._rescue_shard(tasks[position], queries)
            self.stats.record_rescued()
        ordered = [blocks[position] for position in range(len(tasks))]
        champions = merge_champions(ordered, higher_is_better=self._higher_is_better)
        rescued_ranges = [
            (tasks[position].start, tasks[position].stop)
            for position in rescue_positions
        ]
        flags = [
            not isinstance(champion, Exception)
            and any(start <= champion[1] < stop for start, stop in rescued_ranges)
            for champion in champions
        ]
        return champions, flags

    def _hedge_stragglers(
        self,
        pool: ProcessPoolExecutor,
        tasks: Sequence[ShardTask],
        primaries: dict[int, Future],
        queries: list[LabelledImage],
        dispatch_key: str,
    ) -> dict[int, Future]:
        """Re-dispatch still-pending shards after the hedge threshold."""
        hedge_after_ms = self.settings.hedge_after_ms
        if hedge_after_ms is None or not primaries:
            return {}
        _, pending = wait(set(primaries.values()), timeout=hedge_after_ms / 1000.0)
        if not pending:
            return {}
        hedges: dict[int, Future] = {}
        for position, future in primaries.items():
            if future in pending:
                hedges[position] = pool.submit(
                    _score_shard, tasks[position], queries, dispatch_key + "h"
                )
        return hedges

    def _gather_shard(
        self,
        position: int,
        board: Sequence[ShardHealth],
        primary: Future,
        hedge: Future | None,
        started: float,
    ) -> list[Slot]:
        """One shard's block: primary result, or the winner of a hedge race."""
        if hedge is None:
            block = primary.result()
            board[position].record_success(self._clock() - started)
            return block
        done, _ = wait({primary, hedge}, return_when=FIRST_COMPLETED)
        # Prefer the primary on a photo-finish: deterministic tie handling.
        winner, loser, hedge_won = (
            (primary, hedge, False) if primary in done else (hedge, primary, True)
        )
        try:
            block = winner.result()
        except BrokenProcessPool:
            raise
        except Exception:
            # The winning leg failed; fall back to the other leg (which may
            # itself raise — then the shard errors and the rescue path runs).
            block = loser.result()
            winner, loser, hedge_won = loser, winner, not hedge_won
        self.stats.record_hedge(won=hedge_won)
        board[position].record_success(self._clock() - started)
        self._audit_hedge(loser, block)
        return block

    def _audit_hedge(self, loser: Future, served_block: list[Slot]) -> None:
        """Compare the losing leg to the served block once it lands.

        Both legs score the same immutable rows with the same kernels, so
        any bitwise disagreement is a real divergence: it is counted
        (``hedge_mismatches``) for the chaos suites to assert on; the
        served block is kept either way.  Failed slots agree when both
        legs raised the same exception type with the same arguments.
        """

        def _comparable(block: list[Slot]) -> list[object]:
            return [
                (type(slot), slot.args) if isinstance(slot, Exception) else slot
                for slot in block
            ]

        def _compare(future: Future) -> None:
            try:
                block = future.result()
            except Exception:
                return  # the losing leg failed outright; nothing to audit
            if _comparable(block) != _comparable(served_block):
                self.stats.record_hedge_mismatch()

        loser.add_done_callback(_compare)

    # -- in-process rescue -----------------------------------------------------

    def _rescue_shard(
        self, task: ShardTask, queries: list[LabelledImage]
    ) -> list[Slot]:
        """Serve one sick shard's rows in the front-end process, exactly.

        The rescue pipeline attaches the shard's row range zero-copy behind
        the same certified index its worker runs, so rescue answers equal
        the worker's bit for bit; their merged winners are still flagged
        degraded because they were served off their worker.
        """
        return _isolated(self._rescue_pipeline(task), task.start, queries)

    def _rescue_pipeline(self, task: ShardTask) -> RecognitionPipeline:
        key = (task.store_version, task.start, task.stop)
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
                max_workers=self._pool_size(), initializer=_single_blas_thread
            )
            self._pool_rebuilds += 1
