"""The benchmark's workloads: inputs, set-up, measured phases, gate, metrics.

Each run builds its inputs from the seed, sets the service up several
times (each from empty caches, timing only calls into the program), drives
one service from one thread for the measured phase, and sets up the rest
after it.  Every answer is then checked against an in-process reference
computed after the phase, so the reference never warms the measured
caches.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import multiprocessing
import os
import shutil
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.config import ExperimentConfig
from repro.datasets.dataset import ImageDataset
import repro.engine.cache as engine_cache
from repro.engine.cache import (
    FeatureCache,
    ReferenceMatrixCache,
    default_cache,
    set_default_cache,
    set_default_matrix_cache,
)
from repro.engine.instrument import Stopwatch
from repro.serving.registry import default_registry
from repro.serving.service import RecognitionService
from repro.serving.shards import ShardedRecognitionService
from repro.store.attach import ReferenceStore
from repro.store.builder import build_store

from perfbench import inputs
from perfbench.drive import MemorySampler, Record, closed_loop, open_loop
from perfbench.layers import Tracer

PIPELINE = "hybrid"
FAMILIES = ("shape", "color")
SHORTLIST_K = 128
ENROLL_TOKEN = "perfbench-enroll"
#: Served batches replayed through worker-equivalent shard pipelines.
REPLAY_BATCHES = 32
#: Served answers re-checked against the brute-force champion for recall.
RECALL_SAMPLE = 200
#: Equal time windows of the measured phase; the throughput and latency
#: metrics are each the best window's (see ``best_windows``).
WINDOWS = 5


@dataclass(frozen=True)
class Scale:
    """Input sizes; the tests shrink them, the benchmark uses the defaults."""

    fleet_models_per_class: int = 50  # x 20 views x 10 classes = 10,000 views
    fleet_views_per_model: int = 20
    pool_scale: float = inputs.POOL_SCALE
    working_set: int = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    service: str  # "inproc" | "indexed" | "sharded"
    library: str  # "sns1" | "fleet"
    frames: str  # "fresh" | "revisit"
    loop: str  # "open" | "closed"
    slo_ms: float
    #: Cold set-ups per run; the later half runs after the measured phases.
    setup_reps: int
    rate_hz: float = 0.0
    #: enroll() calls per phase, one starting in the middle of each of as
    #: many equal time windows.
    enrolls: int = 0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="stream-82",
            why=(
                "the paper's setting: one camera streams fresh NYU crops in open "
                "loop at about a quarter of capacity into the in-process hybrid "
                "over SNS1; extraction and batch waiting dominate"
            ),
            service="inproc",
            library="sns1",
            frames="fresh",
            loop="open",
            rate_hz=80.0,
            slo_ms=20.0,
            setup_reps=20,
        ),
        Workload(
            name="fleet-10k-sharded",
            why=(
                "32 robots send fresh crops in closed loop to 2 brute-force shard"
                " workers over a 10k-view store; per-shard scoring and per-shard "
                "re-extraction dominate"
            ),
            service="sharded",
            library="fleet",
            frames="fresh",
            loop="closed",
            slo_ms=320.0,
            setup_reps=1,
        ),
        Workload(
            name="fleet-10k-indexed",
            why=(
                "the same 10k library and closed loop served in-process through a"
                " 128-row KD-tree shortlist; no IPC and no full scoring, the "
                "control for kernel and shard changes"
            ),
            service="indexed",
            library="fleet",
            frames="fresh",
            loop="closed",
            slo_ms=210.0,
            setup_reps=1,
        ),
        Workload(
            name="revisit-enroll-82x2",
            why=(
                "32 robots revisit a small working set on 2 shard workers over "
                "SNS1 while live enrollments land; caches hit, so scatter/gather,"
                " pickling and merge dominate"
            ),
            service="sharded",
            library="sns1",
            frames="revisit",
            loop="closed",
            slo_ms=50.0,
            setup_reps=20,
            enrolls=WINDOWS,
        ),
    )
}


def reset_caches() -> None:
    """Empty the process-wide feature, matrix and content-hash caches for
    the next set-up."""
    set_default_cache(FeatureCache())
    set_default_matrix_cache(ReferenceMatrixCache())
    engine_cache._CONTENT_HASH_MEMO.clear()


def _cold_copy(library: ImageDataset) -> ImageDataset:
    """The library with fresh pixel arrays, so no per-object memo is warm."""
    return ImageDataset(
        name=library.name,
        items=tuple(
            dataclasses.replace(item, image=np.array(item.image)) for item in library
        ),
    )


# -- inputs -------------------------------------------------------------------


@dataclass
class Inputs:
    config: ExperimentConfig
    library: ImageDataset | None
    frames: Callable[[int], Any]
    enrollments: list


def make_inputs(w: Workload, seed: int, root: Path, scale: Scale) -> Inputs:
    config = ExperimentConfig(seed=seed)
    # Every workload maps the fleet library, so whichever run comes first
    # in a checkout renders it.
    fleet = inputs.fleet_library(
        root / ".perfbench-cache",
        scale.fleet_models_per_class,
        scale.fleet_views_per_model,
    )
    library = inputs.sns1() if w.library == "sns1" else fleet
    pool = inputs.crop_pool(scale.pool_scale)
    frames: Callable[[int], Any]
    if w.frames == "fresh":
        frames = inputs.FreshFrames(pool, seed)
    else:
        frames = inputs.RevisitFrames(pool, seed, scale.working_set)
    # Two phases in a traced run, each with its own enrollment events.
    enrollments = inputs.enrollment_batches(2 * w.enrolls)
    return Inputs(config=config, library=library, frames=frames, enrollments=enrollments)


# -- set-up -------------------------------------------------------------------


@dataclass
class Setup:
    service: Any
    pipeline: Any = None  # the served pipeline of an in-process service
    store_dir: str | None = None
    store_version: str | None = None
    views: int = 0
    total_s: float = 0.0
    build_s: float = 0.0
    attach_s: float = 0.0
    start_s: float = 0.0


def set_up(w: Workload, data: Inputs, library: ImageDataset, workdir: Path) -> Setup:
    """One timed set-up from empty caches to a started service."""
    registry = default_registry()
    workers = min(2, os.cpu_count() or 1)
    timer = time.perf_counter
    began = timer()
    if w.service == "inproc":
        pipeline = registry.build(PIPELINE, data.config)
        pipeline.fit(library)
        attached = timer()
        service = RecognitionService(pipeline)
        service.start()
        done = timer()
        return Setup(
            service=service,
            pipeline=pipeline,
            views=len(library),
            total_s=done - began,
            attach_s=attached - began,
        )
    built = build_store(
        library, workdir, bins=data.config.histogram_bins, families=FAMILIES
    )
    built_at = timer()
    if w.service == "indexed":
        pipeline = registry.build(PIPELINE, data.config)
        store = ReferenceStore.attach(workdir, version=built.store_version)
        pipeline.attach_store(store)
        pipeline.attach_index(SHORTLIST_K)
        attached = timer()
        service = RecognitionService(pipeline)
        service.start()
    else:
        pipeline = None
        enrolling = bool(w.enrolls)
        service = ShardedRecognitionService(
            PIPELINE,
            str(workdir),
            workers=workers,
            config=data.config,
            store_version=built.store_version,
            references=library if enrolling else None,
            enroll_token=ENROLL_TOKEN if enrolling else None,
        )
        attached = timer()
        service.start()
    done = timer()
    return Setup(
        service=service,
        pipeline=pipeline,
        store_dir=str(workdir),
        store_version=built.store_version,
        views=len(library),
        total_s=done - began,
        build_s=built_at - began,
        attach_s=attached - built_at,
        start_s=done - attached,
    )


# -- measured phase -----------------------------------------------------------


@dataclass
class Phase:
    records: list[Record]  # the measured requests
    started: float
    warmup: list[Record] = field(default_factory=list)
    began: float = 0.0  # when the warm-up started
    lateness: list[float] = field(default_factory=list)
    enrolls: list[tuple[float, float, Any]] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    report_before: Any = None
    report_after: Any = None
    entries_at_start: int = 0
    digests_at_start: int = 0

    @property
    def served(self) -> list[Record]:
        """Every request of the phase, warm-up included, in submit order."""
        return self.warmup + self.records

    @property
    def next_index(self) -> int:
        return self.served[-1].index + 1 if self.served else 0


def measure(
    w: Workload,
    setup: Setup,
    data: Inputs,
    seconds: float,
    first_index: int,
    enrollments: list,
    sampler: MemorySampler,
) -> Phase:
    service = setup.service
    # Collect, then exempt everything alive (inputs, set-up leftovers,
    # earlier phases) from later collections, so a phase's collector
    # pauses scan only what the phase itself allocates.
    gc.collect()
    gc.freeze()
    cache = default_cache()
    entries = len(cache)
    digests = len(engine_cache._CONTENT_HASH_MEMO)
    hits, misses = cache.stats.snapshot()
    before = service.report()
    enrolls: list[tuple[float, float, Any]] = []
    threads: list[threading.Thread] = []
    # (seconds into the phase, views): one enrollment mid-way through each
    # of w.enrolls equal windows, so every p99 window holds one.
    due = deque(
        ((k + 0.5) * seconds / w.enrolls, additions)
        for k, additions in enumerate(enrollments)
    )

    def enroll(additions: list) -> None:
        started = time.perf_counter()
        report = service.enroll(additions, token=ENROLL_TOKEN)
        enrolls.append((started, time.perf_counter(), report))

    def on_submit(elapsed: float) -> None:
        # Enrollments never overlap: a late one waits for the one before.
        if due and elapsed >= due[0][0] and not any(t.is_alive() for t in threads):
            thread = threading.Thread(target=enroll, args=(due.popleft()[1],), name="enroll")
            thread.start()
            threads.append(thread)

    if w.loop == "open":
        drive = open_loop(
            service.submit,
            data.frames,
            w.rate_hz,
            seconds,
            inputs.SCHEDULE_SEED,
            sampler,
            first_index=first_index,
        )
    else:
        drive = closed_loop(
            service.submit,
            data.frames,
            seconds,
            sampler,
            first_index=first_index,
            on_submit=on_submit if due else None,
        )
    for thread in threads:
        thread.join()
    if len(enrolls) != len(threads):
        raise RuntimeError(f"{len(threads) - len(enrolls)} enrollment(s) failed")
    after_hits, after_misses = cache.stats.snapshot()
    return Phase(
        records=drive.records,
        started=drive.started,
        warmup=drive.warmup,
        began=drive.began,
        lateness=drive.lateness,
        enrolls=sorted(enrolls, key=lambda event: event[0]),
        cache_hits=after_hits - hits,
        cache_misses=after_misses - misses,
        report_before=before,
        report_after=service.report(),
        entries_at_start=entries,
        digests_at_start=digests,
    )


# -- correctness gate and cache guard -------------------------------------------


def _key(prediction: Any) -> tuple:
    return (prediction.label, prediction.model_id, prediction.score)


def _answered(phase: Phase) -> list[Record]:
    return [r for r in phase.served if r.error is None and not r.answer.degraded]


def _reference_pipeline(setup: Setup, config: ExperimentConfig, version: str) -> Any:
    """An in-process pipeline over a store version, with its own cache."""
    pipeline = default_registry().build(PIPELINE, config)
    pipeline.cache = FeatureCache()
    pipeline.attach_store(ReferenceStore.attach(setup.store_dir, version=version))
    return pipeline


#: What the forked gate processes compute: (keys of a query block, frames).
_FORKED: tuple[Callable[[list], list[tuple]], Callable[[int], Any]] | None = None


def _forked_block(indices: list[int]) -> list[tuple]:
    expect, frames = _FORKED
    return expect([frames(i) for i in indices])


def _expected_keys(
    expect: Callable[[list], list[tuple]], frames: Callable[[int], Any], indices: list[int]
) -> list[tuple]:
    """``expect`` over the frames at *indices*, in blocks of 64, split
    between up to two processes forked from this one, so each starts from
    the reference exactly as it stands here."""
    global _FORKED
    blocks = [indices[start : start + 64] for start in range(0, len(indices), 64)]
    _FORKED = (expect, frames)
    pool = multiprocessing.get_context("fork").Pool(min(2, os.cpu_count() or 1))
    try:
        keys = pool.map(_forked_block, blocks)
        pool.close()
    finally:
        pool.terminate()
        pool.join()
        _FORKED = None
    return [key for block in keys for key in block]


def check(w: Workload, setup: Setup, data: Inputs, phases: list[Phase]) -> list[str]:
    """Problems found by the correctness gate and the cache guard."""
    problems: list[str] = []
    answered = [r for phase in phases for r in _answered(phase)]
    pipeline = setup.pipeline
    if pipeline is not None:
        # The service has stopped; re-extract every query instead of
        # reading the features the served batch path cached.
        pipeline.cache = FeatureCache()
    if w.enrolls:
        mismatches = _check_enrolled(setup, data, phases)
    else:
        if w.service == "inproc":
            # batch = scalar: served predict_batch answers against predict().
            def expect(queries: list) -> list[tuple]:
                return [_key(pipeline.predict(q)) for q in queries]

        elif w.service == "indexed":
            # The same retriever, one query at a time through champion_batch.
            def expect(queries: list) -> list[tuple]:
                hits = [pipeline.champion_batch([q])[0] for q in queries]
                winners = [pipeline.references[hit.row] for hit in hits]
                return [(v.label, v.model_id, hit.score) for v, hit in zip(winners, hits)]

        else:
            # sharded = in-process, over the very store version served.
            reference = _reference_pipeline(setup, data.config, setup.store_version)

            def expect(queries: list) -> list[tuple]:
                return [_key(p) for p in reference.predict_batch(queries)]

        wanted = _expected_keys(expect, data.frames, [r.index for r in answered])
        mismatches = sum(_key(r.answer) != key for r, key in zip(answered, wanted))
    if mismatches:
        problems.append(f"correctness gate: {mismatches} of {len(answered)} answers mismatch")
    if w.frames == "fresh":
        problems.extend(_cache_guard(w, setup, data, phases))
    return problems


def _check_enrolled(setup: Setup, data: Inputs, phases: list[Phase]) -> int:
    """Each answer must equal the in-process answer of a library version
    that was live at some point while the request was in flight."""
    events = [event for phase in phases for event in phase.enrolls]
    versions = [setup.store_version] + [report.new_version for _, _, report in events]
    working_set = data.frames.working_set
    expected = []
    for version in versions:
        reference = _reference_pipeline(setup, data.config, version)
        expected.append([_key(p) for p in reference.predict_batch(working_set)])
    mismatches = 0
    for phase in phases:
        for r in _answered(phase):
            low = sum(1 for _, ended, _ in events if ended < r.submitted)
            high = sum(1 for began, _, _ in events if began < r.done)
            slot = data.frames.slot(r.index)
            if all(_key(r.answer) != expected[v][slot] for v in range(low, high + 1)):
                mismatches += 1
    return mismatches


def _cache_guard(w: Workload, setup: Setup, data: Inputs, phases: list[Phase]) -> list[str]:
    """A fresh-frame workload must never be served from a warm cache."""
    problems = []
    if w.service != "sharded":
        # In-process: only the set-up's reference features (shape and
        # colour per view) may be cached when measuring starts, and no
        # query lookup may hit in any phase.
        if phases[0].entries_at_start != 2 * setup.views:
            problems.append(
                f"cache guard: {phases[0].entries_at_start} cache entries at "
                f"start, expected the {2 * setup.views} reference features"
            )
        if phases[0].digests_at_start > setup.views:
            problems.append(
                f"cache guard: {phases[0].digests_at_start} memoised image digests "
                f"at start, more than the {setup.views} reference views"
            )
        for phase in phases:
            if phase.cache_hits:
                problems.append(f"cache guard: {phase.cache_hits} query lookups hit")
    # Shard workers fork from caches emptied before set-up, so no query can
    # hit there as long as every frame's pixels are new.
    digests = set()
    total = 0
    for phase in phases:
        for r in phase.served:
            digests.add(hashlib.blake2b(data.frames(r.index).image.tobytes(), digest_size=16).digest())
            total += 1
    if len(digests) != total:
        problems.append(f"cache guard: {total - len(digests)} repeated frames")
    return problems


# -- metrics --------------------------------------------------------------------


def _percentiles_ms(values: list[float], points: list[float]) -> list[float]:
    if not values:
        return [0.0 for _ in points]
    return [float(v) * 1000.0 for v in np.percentile(values, points)]


def best_windows(
    records: list[Record], started: float, seconds: float
) -> tuple[float, float, float]:
    """The phase's best stretch: the highest rate, the lowest p50 latency
    and the lowest p99 latency among ``WINDOWS`` equal time windows of the
    phase.

    A request belongs to the window it started counting in.  A window's
    rate is its requests over the time from the first one's start to the
    last one's answer; counting answers that fall inside the window
    instead would count whole batches of 32 in or out.  The host's speed
    swings only ever slow a stretch down, so the best window is the
    steadiest figure of the program's speed, as the fastest set-up is for
    ``setup_s``.
    """
    width = seconds / WINDOWS
    windows: list[list[Record]] = [[] for _ in range(WINDOWS)]
    for r in records:
        windows[min(WINDOWS - 1, max(0, int((r.start - started) / width)))].append(r)
    rates, p50s, p99s = [], [], []
    for window in filter(None, windows):
        span = max(r.done for r in window) - min(r.start for r in window)
        rates.append(len(window) / span if span > 0 else 0.0)
        p50, p99 = _percentiles_ms([r.latency_s for r in window], [50, 99])
        p50s.append(p50)
        p99s.append(p99)
    if not rates:
        return 0.0, 0.0, 0.0
    return max(rates), min(p50s), min(p99s)


def end_to_end(
    w: Workload, phase: Phase, seconds: float, setup_times: list[float], peak_mb: float
) -> dict:
    records = phase.records
    attempted = len(records)
    completed = [r for r in records if r.error is None]
    answered = [r for r in completed if not r.answer.degraded]
    rejected = sum(1 for r in records if r.error == "rejected")
    failed = sum(1 for r in records if r.error not in (None, "rejected"))
    degraded = len(completed) - len(answered)
    last = max((r.done for r in completed), default=phase.started)
    qps_whole = len(answered) / (last - phase.started) if last > phase.started else 0.0
    p50_whole, p99_whole = _percentiles_ms([r.latency_s for r in completed], [50, 99])
    best_qps, p50, p99 = best_windows(answered, phase.started, seconds)
    limit = w.slo_ms / 1000.0
    enroll_s = [ended - began for began, ended, _ in phase.enrolls]
    return {
        "attempted": attempted,
        "failed": failed + rejected + degraded,
        "samples": len(completed),
        # In open loop the schedule sets each window's completions, so only
        # the whole phase tells whether the service kept up.
        "throughput_qps": qps_whole if w.loop == "open" else best_qps,
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "throughput_qps_whole": qps_whole,
        "latency_p50_ms_whole": p50_whole,
        "latency_p99_ms_whole": p99_whole,
        "within_slo_frac": sum(1 for r in answered if r.latency_s <= limit) / attempted,
        "error_rate": (failed + rejected + degraded) / attempted,
        "top1_accuracy": (
            sum(1 for r in answered if r.answer.label == r.label) / len(answered)
            if answered
            else 0.0
        ),
        # The fastest of the run's set-ups: the host's speed swings only
        # ever slow a set-up down.  On a 2-core container the median of 20
        # moved by up to 30% between two sets of ten runs.
        "setup_s": min(setup_times),
        "peak_rss_mb": peak_mb,
        "enroll_s": statistics.median(enroll_s) if enroll_s else None,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(
    w: Workload,
    setup: Setup,
    setups: list[Setup],
    data: Inputs,
    plain: Phase,
    traced: Phase,
    tracer: Tracer,
    stopwatch: Stopwatch | None,
) -> dict:
    """Per-layer metrics of the traced phase.

    Every metric in :data:`PER_LAYER_UNITS` is present (a count or share is
    0 where its layer is idle); the times in :data:`LAYER_DETAIL_UNITS` are
    present only where the workload exercises their layer.
    """
    metrics: dict[str, float] = {}
    before, after = traced.report_before, traced.report_after
    batches = after.batches - before.batches
    served = sum(
        size * (count - before.batch_histogram.get(size, 0))
        for size, count in after.batch_histogram.items()
    )
    wall = max(r.done for r in traced.served) - traced.began
    sizes = tracer.batch_sizes()
    metrics["batcher.batches"] = batches
    metrics["batcher.mean_batch_size"] = served / batches if batches else 0.0
    metrics["batcher.peak_queue_depth"] = after.peak_queue_depth
    waits = tracer.queue_waits(traced.served)
    metrics["batcher.queue_wait_ms_p50"], metrics["batcher.queue_wait_ms_p99"] = (
        _percentiles_ms(waits, [50, 99])
    )

    views = setup.views if w.service != "sharded" else sum(len(s) for s in setup.service.shards)
    dims = 7 + 3 * data.config.histogram_bins
    flush_ms = _mean(tracer.flush_spans()) * 1000.0
    metrics["shards.flush_ms"] = flush_ms
    metrics["shards.errors"] = after.shard_errors
    if w.service == "sharded":
        replay = _replay_shards(setup, data, traced, sizes)
        extract_ms, score_ms = replay["extract_ms"], replay["score_ms"]
        hits, misses = replay["hits"], replay["misses"]
        merge_ms = _mean(tracer.merge_s) * 1000.0
        metrics.update({
            "shards.start_s": _median([s.start_s for s in setups]),
            "shards.merge_ms": merge_ms,
            "shards.worker_score_ms": replay["worker_ms"],
            "shards.inprocess_score_ms": replay["inprocess_ms"],
            "shards.dispatch_overhead_ms": flush_ms - replay["worker_ms"] - merge_ms,
        })
    else:
        queries = len(traced.served)
        extract_ms = stopwatch.seconds("extract") / queries * 1000.0 if queries else 0.0
        score_ms = stopwatch.seconds("score") / len(sizes) * 1000.0 if sizes else 0.0
        hits, misses = traced.cache_hits, traced.cache_misses
    metrics["pipelines.extract_ms_per_query"] = extract_ms
    metrics["pipelines.score_ms_per_batch"] = score_ms
    metrics["pipelines.flush_busy_frac"] = sum(tracer.flush_spans()) / wall if wall > 0 else 0.0
    metrics["cache.hits"] = hits
    metrics["cache.misses"] = misses
    metrics["cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0

    if w.service == "indexed":
        candidates = [c for _, c, _ in tracer.index_calls]
        metrics["kernels.rows_scored"] = sum(candidates)
        metrics["kernels.bytes_moved"] = sum(8 * (c * dims + c) for c in candidates)
    else:
        metrics["kernels.rows_scored"] = sum(sizes) * views
        metrics["kernels.bytes_moved"] = sum(8 * (views * dims + q * dims + q * views) for q in sizes)

    metrics.update(dict.fromkeys(("index.candidates_mean", "index.exhaustive_frac", "index.recall_at_1"), 0.0))
    if w.service == "indexed" and tracer.index_calls:
        calls = tracer.index_calls
        metrics.update({
            "index.champion_ms_mean": _mean([s for s, _, _ in calls]) * 1000.0,
            "index.candidates_mean": _mean([c for _, c, _ in calls]),
            "index.exhaustive_frac": sum(1 for _, _, e in calls if e) / len(calls),
            "index.recall_at_1": _recall_at_1(setup, data, traced),
        })

    if w.service != "inproc":
        metrics["store.build_s"] = _median([s.build_s for s in setups])
        metrics["store.attach_ms"] = _median([s.attach_s for s in setups]) * 1000.0
    if tracer.swap_s:
        metrics["store.republish_s"] = _median(tracer.build_s)
        metrics["store.swap_s"] = _median(tracer.swap_s)

    metrics["gen.late_ms_p99"] = _percentiles_ms(traced.lateness, [99])[0]
    if w.loop == "open":
        untraced = _percentiles_ms([r.latency_s for r in plain.records if r.error is None], [50])[0]
        with_trace = _percentiles_ms([r.latency_s for r in traced.records if r.error is None], [50])[0]
        overhead = with_trace / untraced - 1.0 if untraced else 0.0
    else:
        overhead = _qps(plain) / _qps(traced) - 1.0 if _qps(traced) else 0.0
    metrics["trace.overhead_frac"] = overhead
    return metrics


def _qps(phase: Phase) -> float:
    completed = [r for r in phase.records if r.error is None]
    last = max((r.done for r in completed), default=phase.started)
    return len(completed) / (last - phase.started) if last > phase.started else 0.0


def _replay_shards(setup: Setup, data: Inputs, phase: Phase, sizes: list[int]) -> dict:
    """Replay served batches through the calls a shard worker makes.

    Each shard gets a pipeline over its row range of the served store
    version (``ReferenceStore.attach`` then ``attach_store(rows=)``) with
    its own feature cache, as a worker process has; queries are copied, as
    unpickling in a worker copies them.  One more pipeline over all rows
    scores the same query objects, as the in-process service would.
    """
    service = setup.service
    store = ReferenceStore.attach(setup.store_dir, version=service.store_version)

    def pipeline_over(rows: tuple[int, int] | None) -> Any:
        pipeline = default_registry().build(PIPELINE, data.config)
        pipeline.cache = FeatureCache()
        pipeline.stopwatch = Stopwatch()
        pipeline.attach_store(store, rows=rows)
        return pipeline

    def timed(pipeline: Any, queries: list) -> float:
        started = time.perf_counter()
        pipeline.theta_scores_batch(queries).argmin(axis=1)
        return time.perf_counter() - started

    def unpickled(queries: list) -> list:
        return [dataclasses.replace(q, image=np.array(q.image)) for q in queries]

    shards = [pipeline_over((shard.start, shard.stop)) for shard in service.shards]
    whole = pipeline_over(None)
    order = [r for r in phase.served if r.error != "rejected"]
    position = 0
    slowest: list[float] = []
    inprocess: list[float] = []
    replayed = 0
    for size in sizes[:REPLAY_BATCHES]:
        queries = [data.frames(r.index) for r in order[position : position + size]]
        position += size
        slowest.append(max(timed(pipeline, unpickled(queries)) for pipeline in shards))
        inprocess.append(timed(whole, queries))
        replayed += len(queries)
    calls = replayed * len(shards)
    scored_batches = len(slowest) * len(shards)
    return {
        "worker_ms": _mean(slowest) * 1000.0,
        "inprocess_ms": _mean(inprocess) * 1000.0,
        "extract_ms": sum(p.stopwatch.seconds("extract") for p in shards) / calls * 1000.0 if calls else 0.0,
        "score_ms": sum(p.stopwatch.seconds("score") for p in shards) / scored_batches * 1000.0 if scored_batches else 0.0,
        "hits": sum(p.cache.stats.hits for p in shards),
        "misses": sum(p.cache.stats.misses for p in shards),
    }


def _recall_at_1(setup: Setup, data: Inputs, phase: Phase) -> float:
    """Share of sampled served queries whose shortlist held the brute champion."""
    retriever = setup.pipeline.retriever
    sample = _answered(phase)[:RECALL_SAMPLE]
    if not sample:
        return 0.0
    agree = 0
    for r in sample:
        features = setup.pipeline.extract_features(data.frames(r.index))
        agree += retriever.champion(features).row == retriever.champion_brute(features).row
    return agree / len(sample)


# -- one run --------------------------------------------------------------------


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    problems: list[str]
    summary: dict


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, root: Path, scale: Scale = Scale()
) -> RunResult:
    w = WORKLOADS[name]
    data = make_inputs(w, seed, root, scale)
    workdir = root / ".perfbench-work" / str(os.getpid())
    sampler = MemorySampler()
    setups: list[Setup] = []  # every set-up's timings
    setup: Setup | None = None  # the measured one
    # Half the set-ups run before measuring and half after it, so they
    # sample more than one stretch of host speed.
    later = w.setup_reps // 2

    def cold_set_up() -> Setup:
        library = _cold_copy(data.library) if w.setup_reps > 1 else data.library
        reset_caches()
        gc.collect()
        return set_up(w, data, library, workdir / f"setup-{len(setups)}")

    def timed_only() -> None:
        s = cold_set_up()
        s.service.stop()
        # Keep only the timings, so later set-ups and the measured phase
        # do not carry the memory of earlier ones.
        setups.append(dataclasses.replace(s, service=None, pipeline=None))

    try:
        for _ in range(w.setup_reps - later - 1):
            timed_only()
        setup = cold_set_up()
        setups.append(setup)
        if not (w.enrolls or later):
            # The program keeps what it needs; drop the pixels (the fleet
            # library's are memory-mapped and leave residence with them).
            data.library = None
        sampler.sample()
        plain = measure(w, setup, data, seconds, 0, data.enrollments[: w.enrolls], sampler)
        phases = [plain]
        if trace:
            tracer = Tracer()
            stopwatch = None
            tracer.watch_service(setup.service)
            if w.service == "sharded":
                tracer.watch_shards(setup.service)
            else:
                stopwatch = setup.pipeline.stopwatch = Stopwatch()
                if w.service == "indexed":
                    tracer.watch_retriever(setup.pipeline.retriever)
            try:
                traced = measure(
                    w, setup, data, seconds, plain.next_index,
                    data.enrollments[w.enrolls :], sampler,
                )
            finally:
                tracer.restore()
                if setup.pipeline is not None:
                    setup.pipeline.stopwatch = None
            phases.append(traced)
        setup.service.stop()
        gc.unfreeze()
        for _ in range(later):
            timed_only()
        summary = end_to_end(w, plain, seconds, [s.total_s for s in setups], sampler.peak_mb)
        if trace:
            metrics = per_layer(w, setup, setups, data, plain, traced, tracer, stopwatch)
        else:
            metrics = {k: summary[k] for k in END_TO_END_UNITS}
        problems = check(w, setup, data, phases)
    finally:
        gc.unfreeze()
        if setup is not None:
            setup.service.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    attempted = sum(len(p.served) for p in phases)
    failed = sum(
        1 for p in phases for r in p.served if r.error is not None or r.answer.degraded
    )
    return RunResult(
        correct=not problems,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        problems=problems,
        summary=summary,
    )


END_TO_END_UNITS = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "within_slo_frac": "fraction",
    "top1_accuracy": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "batcher.batches": "count",
    "batcher.mean_batch_size": "count",
    "batcher.peak_queue_depth": "count",
    "batcher.queue_wait_ms_p50": "ms",
    "batcher.queue_wait_ms_p99": "ms",
    "pipelines.extract_ms_per_query": "ms",
    "pipelines.score_ms_per_batch": "ms",
    "pipelines.flush_busy_frac": "fraction",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_rate": "fraction",
    "kernels.rows_scored": "count",
    "kernels.bytes_moved": "bytes",
    "index.candidates_mean": "count",
    "index.exhaustive_frac": "fraction",
    "index.recall_at_1": "fraction",
    "shards.flush_ms": "ms",
    "shards.errors": "count",
    "gen.late_ms_p99": "ms",
    "trace.overhead_frac": "fraction",
}

#: Per-layer times of layers only some workloads exercise.  The traced run
#: prints them in its report lines where measured; they stay out of the
#: JSON result, whose every metric must be measured on every workload.
LAYER_DETAIL_UNITS = {
    "index.champion_ms_mean": "ms",
    "shards.start_s": "s",
    "shards.merge_ms": "ms",
    "shards.worker_score_ms": "ms",
    "shards.inprocess_score_ms": "ms",
    "shards.dispatch_overhead_ms": "ms",
    "store.build_s": "s",
    "store.attach_ms": "ms",
    "store.republish_s": "s",
    "store.swap_s": "s",
}
