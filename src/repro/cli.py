"""Command-line interface: ``repro <table> [options]``.

Regenerates any of the paper's tables from the synthetic substrate::

    repro table1
    repro table2 --nyu-scale 0.05
    repro table4 --epochs 10 --train-pairs 1200
    repro all --nyu-scale 0.02

``--nyu-scale 1.0`` reproduces the full 6,934-instance NYUSet sweep; smaller
values run exact miniatures with class ratios preserved.

Engine flags (see README "Performance"): ``--workers N`` fans the matching
loop out over a worker pool (result-identical to sequential), ``--no-cache``
disables reference-feature memoisation, ``--timings`` appends a per-stage
timings block, and ``repro engine`` runs a small dedicated engine demo::

    repro table2 --workers 4 --timings
    repro engine --refs 20 --queries 8 --workers 2 --no-cache

Serving commands (see README "Serving"): ``repro serve`` warm-starts the
online recognition service and drives a concurrent request stream through
it; ``repro patrol --serve`` routes the robot's observations through the
service.  Throughput and latency are measured by ``perfbench/run.py``::

    repro serve --pipeline hybrid --requests 200 --clients 32
    repro patrol --serve --deadline-ms 50

Store commands (see README "Reference store"): ``repro store build``
publishes a memory-mapped reference-feature artifact, ``repro store
verify`` re-hashes every shard against its manifest; ``--workers N`` on
``serve`` switches to the multi-process sharded topology that attaches the
store zero-copy per worker::

    repro store build --store-dir .repro-store
    repro store verify --store-dir .repro-store
    repro serve --workers 2 --store-dir .repro-store

Open-set commands (see README "Open-set recognition & enrollment"):
``repro openset calibrate`` fits per-pipeline rejection thresholds on the
seeded reference library and publishes them as a content-addressed
calibration artifact; ``repro openset eval`` runs the seeded class-holdout
evaluation and writes ``BENCH_openset.json``::

    repro openset calibrate --store-dir .repro-store
    repro openset eval --seed 7 --min-color-auroc 0.8

Index commands (see README "Indexed retrieval"): ``repro index build``
renders the seeded reference library, publishes it as a store and
attaches the certified index over it; ``repro index stats`` reports each
index of an existing store; ``repro index audit``
checks that indexed champions equal brute force over a seeded query
sweep::

    repro index build --library-models 10 --library-views 20
    repro index stats --store-dir .repro-store
    repro index audit --shortlist-k 64 --output AUDIT_index.json
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro import experiments
from repro.config import EngineSettings, ExperimentConfig, ServingSettings, rng

if TYPE_CHECKING:
    from repro.datasets.dataset import LabelledImage
    from repro.pipelines.base import Prediction
    from repro.serving.service import RecognitionService
    from repro.serving.shards import ShardedRecognitionService


#: Shortlist size the index commands use without ``--shortlist-k``.
DEFAULT_SHORTLIST_K = 64


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value!r}")
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _make_config(args: argparse.Namespace) -> ExperimentConfig:
    base = EngineSettings.from_env()
    engine = EngineSettings(
        workers=args.workers if args.workers is not None else base.workers,
        backend=args.backend if args.backend is not None else base.backend,
        cache=False if args.no_cache else base.cache,
        cache_capacity=base.cache_capacity,
        cache_dir=args.cache_dir if args.cache_dir is not None else base.cache_dir,
        timings=args.timings,
        max_attempts=(
            args.max_attempts if args.max_attempts is not None else base.max_attempts
        ),
        chunk_timeout=(
            args.chunk_timeout if args.chunk_timeout is not None else base.chunk_timeout
        ),
        max_failures=(
            args.max_failures if args.max_failures is not None else base.max_failures
        ),
        fail_fast=args.fail_fast or base.fail_fast,
    )
    return ExperimentConfig(seed=args.seed, nyu_scale=args.nyu_scale, engine=engine)


def _timings_block(stats: dict) -> str:
    """The ``--timings`` appendix: a header plus the formatted stats table."""
    from repro.evaluation.tables import format_timings_table

    populated = {name: s for name, s in stats.items() if s is not None}
    return "== TIMINGS ==\n" + format_timings_table(populated)


def _cmd_table1(args: argparse.Namespace) -> str:
    _, text = experiments.table1(_make_config(args))
    return text


def _cmd_table2(args: argparse.Namespace) -> str:
    result = experiments.table2(_make_config(args))
    if not args.timings:
        return result.text
    stats = {}
    for row, res in result.nyu_vs_sns1.items():
        stats[f"{row} (NYU v. SNS1)"] = res.stats
    for row, res in result.sns2_vs_sns1.items():
        stats[f"{row} (SNS1 v. SNS2)"] = res.stats
    return result.text + "\n\n" + _timings_block(stats)


def _cmd_table3(args: argparse.Namespace) -> str:
    result = experiments.table3(_make_config(args), ratio=args.ratio)
    if not args.timings:
        return result.cumulative_text
    stats = {name: res.stats for name, res in result.results.items()}
    return result.cumulative_text + "\n\n" + _timings_block(stats)


def _cmd_table4(args: argparse.Namespace) -> str:
    scale = experiments.SiameseScale(
        train_pairs=args.train_pairs,
        epochs=args.epochs,
        nyu_per_class=args.nyu_per_class,
    )
    return experiments.table4(_make_config(args), scale=scale).text


def _cmd_classwise(table_fn):
    def run(args: argparse.Namespace) -> str:
        _, text = table_fn(_make_config(args))
        return text

    return run


def _cmd_table9(args: argparse.Namespace) -> str:
    result = experiments.table9(_make_config(args), ratio=args.ratio)
    if not args.timings:
        return result.classwise_text
    stats = {name: res.stats for name, res in result.results.items()}
    return result.classwise_text + "\n\n" + _timings_block(stats)


def _resolve_fallback(name: str, config: ExperimentConfig):
    """Build the fallback stage named by ``--fallback``."""
    from repro.imaging.match_shapes import ShapeDistance
    from repro.pipelines.baseline import MostFrequentClassPipeline
    from repro.pipelines.color_only import ColorOnlyPipeline
    from repro.pipelines.shape_only import ShapeOnlyPipeline

    if name == "shape-only":
        return ShapeOnlyPipeline(ShapeDistance.L3)
    if name == "color-only":
        return ColorOnlyPipeline(bins=config.histogram_bins)
    return MostFrequentClassPipeline()


def _cmd_engine(args: argparse.Namespace) -> str:
    """Run the engine demo: a small matching sweep with timings.

    Matches a subset of SNS2 queries against a subset of SNS1 references
    with the shape-only, colour-only and hybrid pipelines under the
    configured engine settings, and always prints the timings block plus a
    failure summary.  ``--fault-rate`` injects deterministic seeded faults
    (see :mod:`repro.engine.chaos`) to demonstrate isolation, retries and
    — with ``--fallback`` — graceful degradation.
    """
    from repro.datasets.shapenet import build_sns1, build_sns2
    from repro.engine import FaultInjector, build_executor, configure_pipeline
    from repro.errors import TooManyFailures
    from repro.evaluation.runner import run_matching_experiment
    from repro.evaluation.tables import format_failure_table
    from repro.imaging.histogram import HistogramMetric
    from repro.imaging.match_shapes import ShapeDistance
    from repro.pipelines.color_only import ColorOnlyPipeline
    from repro.pipelines.fallback import FallbackPipeline
    from repro.pipelines.hybrid import HybridPipeline, HybridStrategy
    from repro.pipelines.shape_only import ShapeOnlyPipeline

    config = _make_config(args)
    references = build_sns1(config)
    queries = build_sns2(config)
    if args.refs:
        references = references.subset(
            list(range(min(args.refs, len(references)))), name="sns1-subset"
        )
    if args.queries:
        queries = queries.subset(
            list(range(min(args.queries, len(queries)))), name="sns2-subset"
        )
    pipelines = [
        ShapeOnlyPipeline(ShapeDistance.L3),
        ColorOnlyPipeline(HistogramMetric.HELLINGER, bins=config.histogram_bins),
        HybridPipeline(
            HybridStrategy.WEIGHTED_SUM,
            alpha=config.alpha,
            beta=config.beta,
            bins=config.histogram_bins,
        ),
    ]
    executor = build_executor(config.engine)
    lines = [
        f"engine: workers={config.engine.workers} backend={config.engine.backend} "
        f"cache={'on' if config.engine.cache else 'off'} "
        f"({len(queries)} queries v. {len(references)} references)"
    ]
    stats = {}
    failures = []
    for pipeline in pipelines:
        configure_pipeline(pipeline, config.engine)
        if args.scalar_scoring:
            pipeline.batch_scoring = False
        name = pipeline.name
        if args.fault_rate:
            # Inject below the fallback chain (when one is configured) so
            # faults degrade to the fallback stage instead of failing.
            pipeline = FaultInjector(
                pipeline, rate=args.fault_rate, seed=args.fault_seed
            )
        if args.fallback:
            pipeline = FallbackPipeline(
                [pipeline, _resolve_fallback(args.fallback, config)]
            )
            name = pipeline.name
        try:
            result = run_matching_experiment(
                pipeline,
                queries,
                references,
                executor=executor,
                keep_view_scores=args.keep_view_scores,
            )
        except TooManyFailures as exc:
            lines.append(f"{name}: ABORTED — {exc}")
            if exc.report is not None:
                failures.extend(exc.report.failures)
            continue
        stats[name] = result.stats
        failures.extend(result.failures)
        lines.append(
            f"{name}: accuracy {result.cumulative_accuracy:.5f} "
            f"({result.stats.summary()})"
        )
    lines += ["", _timings_block(stats)]
    lines += ["", "== FAILURES ==", format_failure_table(failures)]
    return "\n".join(lines)


def _make_serving_settings(args: argparse.Namespace) -> ServingSettings:
    """ServingSettings from the environment with CLI overrides applied."""
    base = ServingSettings.from_env()
    return ServingSettings(
        max_batch_size=(
            args.max_batch_size
            if args.max_batch_size is not None
            else base.max_batch_size
        ),
        max_wait_ms=(
            args.max_wait_ms if args.max_wait_ms is not None else base.max_wait_ms
        ),
        max_queue_depth=(
            args.max_queue_depth
            if args.max_queue_depth is not None
            else base.max_queue_depth
        ),
        deadline_ms=(
            args.deadline_ms if args.deadline_ms is not None else base.deadline_ms
        ),
        max_attempts=(
            args.max_attempts if args.max_attempts is not None else base.max_attempts
        ),
    )


def build_workload(config: ExperimentConfig, requests: int) -> list[LabelledImage]:
    """*requests* NYUSet crops in a seeded shuffled order (cycled when the
    scaled set is smaller than the request count)."""
    from repro.datasets.nyu import build_nyu

    crops = list(build_nyu(config))
    order = rng(config.seed).permutation(len(crops))
    return [crops[int(order[i % len(crops)])] for i in range(requests)]


def _drive_closed_loop(
    service: RecognitionService | ShardedRecognitionService,
    queries: Sequence[LabelledImage],
    clients: int,
) -> list[Prediction | None]:
    """*clients* callers in lockstep with their own completions; a rejected
    or failed request leaves ``None``."""
    results: list[Prediction | None] = [None] * len(queries)

    def client(start: int) -> None:
        for index in range(start, len(queries), clients):
            try:
                results[index] = service.recognize(queries[index])
            except Exception:
                pass  # rejected or failed: the service's stats count it

    threads = [
        threading.Thread(target=client, args=(start,), name=f"client-{start}")
        for start in range(min(clients, len(queries)))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def _cmd_serve(args: argparse.Namespace) -> str:
    """Warm-start the recognition service and drive a request stream.

    Submits ``--requests`` NYUSet crops through ``--clients`` concurrent
    callers (the thread-based stand-in for robots on a network) and prints
    the service report — the smallest end-to-end serving demo.  With
    ``--workers N`` (N >= 2) the stream is served by the multi-process
    sharded topology instead: a store is built (or republished) in
    ``--store-dir``, each worker process attaches it zero-copy and answers
    a chunk of every flush.
    """
    import tempfile

    from repro.datasets.shapenet import build_sns1
    from repro.serving.service import RecognitionService

    config = _make_config(args)
    settings = _make_serving_settings(args)
    workers = args.workers or 1
    references = build_sns1(config)
    store_cleanup: tempfile.TemporaryDirectory | None = None
    if workers > 1:
        from repro.serving.shards import ShardedRecognitionService
        from repro.store import build_store

        store_dir = args.store_dir
        if store_dir is None:
            store_cleanup = tempfile.TemporaryDirectory(prefix="repro-store-")
            store_dir = store_cleanup.name
        build_store(
            references, store_dir, bins=config.histogram_bins,
            families=("shape", "color"),
        )
        fallback_pipeline = None
        if args.fallback:
            fallback_pipeline = _resolve_fallback(args.fallback, config)
            fallback_pipeline.fit(references)
        service = ShardedRecognitionService(
            args.pipeline,
            store_dir,
            workers=workers,
            settings=settings,
            config=config,
            fallback=fallback_pipeline,
        ).start()
    else:
        service = RecognitionService.warm_start(
            args.pipeline,
            references,
            config=config,
            fallback=args.fallback,
            settings=settings,
        )
    queries = build_workload(config, args.requests)
    try:
        answers = _drive_closed_loop(service, queries, args.clients)
    finally:
        service.stop(drain=True)
        if store_cleanup is not None:
            store_cleanup.cleanup()
    report = service.report()
    correct = sum(
        1
        for answer, query in zip(answers, queries)
        if answer is not None and answer.label == query.label
    )
    lines = [
        f"serve: {service.name} ready "
        f"(batch<= {settings.max_batch_size}, wait<= {settings.max_wait_ms:g}ms, "
        f"queue<= {settings.max_queue_depth}, {args.clients} clients)",
        f"  {report.summary()}",
        f"  accuracy {correct}/{len(queries)} over the request stream",
    ]
    return "\n".join(lines)


def _cmd_store(args: argparse.Namespace) -> tuple[str, int]:
    """Build or verify the memory-mapped reference store.

    ``repro store build`` extracts and publishes one content-addressed
    version of the ShapeNetSet1 reference features (idempotent — unchanged
    references republish the same version); ``repro store verify``
    re-hashes every shard of the CURRENT version against its manifest and
    exits 1 on any integrity problem.
    """
    from repro.datasets.shapenet import build_sns1
    from repro.errors import StoreError, StoreIntegrityError
    from repro.store import ReferenceStore, build_store

    subcommand = args.subcommand or "build"
    if subcommand not in ("build", "verify"):
        return (
            f"store: unknown subcommand {subcommand!r} (expected build or verify)",
            2,
        )
    config = _make_config(args)
    store_dir = args.store_dir or ".repro-store"
    if subcommand == "build":
        references = build_sns1(config)
        started = time.perf_counter()
        result = build_store(references, store_dir, bins=config.histogram_bins)
        elapsed = time.perf_counter() - started
        verb = "built" if result.created else "republished"
        shards = ", ".join(
            f"{spec.namespace}/{spec.version}" for spec in result.manifest.shards
        )
        return (
            f"store: {verb} version {result.store_version} in {elapsed:.2f}s "
            f"({len(result.manifest)} views of {references.name})\n"
            f"  path   {result.path}\n"
            f"  shards {shards}",
            0,
        )
    try:
        store = ReferenceStore.attach(store_dir, verify="full")
    except (StoreIntegrityError, StoreError) as exc:
        return f"store: verify FAILED — {exc}", 1
    return (
        f"store: version {store.store_version} verified "
        f"({len(store)} views, {len(store.manifest.shards)} shards, "
        "all digests match)",
        0,
    )


def _cmd_index(args: argparse.Namespace) -> tuple[str, int]:
    """Build, inspect or audit the certified retrieval tier.

    ``repro index build`` renders the seeded reference library
    (``classes x --library-models x --library-views`` views), publishes it
    as a store and attaches an index for every indexable pipeline; ``repro
    index stats`` reports each index of an EXISTING store; ``repro index
    audit`` measures recall@top-1 of indexed-vs-brute champions over the
    SNS2 query sweep and writes the JSON payload.  The audit exits 1 when any champion row or score is not
    bit-identical to brute force — that is a structural guarantee, not a
    tuning knob (see :mod:`repro.index.twostage`).
    """
    import json
    from pathlib import Path

    from repro.errors import ReproError

    subcommand = args.subcommand or "build"
    if subcommand not in ("build", "stats", "audit"):
        return (
            f"index: unknown subcommand {subcommand!r} "
            "(expected build, stats or audit)",
            2,
        )
    config = _make_config(args)
    store_dir = args.store_dir or ".repro-store"
    shortlist_k = args.shortlist_k or DEFAULT_SHORTLIST_K

    def _geometry_lines(report: dict) -> list[str]:
        return [
            f"  {spec['pipeline']:<11} rows {spec['rows']:>6}  "
            f"shortlist K={spec['shortlist_k']}  "
            f"mode {spec['scoring_mode']}"
            for spec in report["indexes"]
        ]

    if subcommand == "build":
        from repro.datasets.shapenet import build_reference_library
        from repro.index import build_index_report
        from repro.store import build_store

        references = build_reference_library(
            config,
            models_per_class=args.library_models,
            views_per_model=args.library_views,
        )
        started = time.perf_counter()
        result = build_store(
            references,
            store_dir,
            bins=config.histogram_bins,
            families=("shape", "color"),
        )
        report = build_index_report(store_dir, shortlist_k, config)
        elapsed = time.perf_counter() - started
        verb = "built" if result.created else "republished"
        lines = [
            f"index: {verb} store version {report['store_version']} in "
            f"{elapsed:.2f}s ({report['library_views']} views of "
            f"{references.name})"
        ] + _geometry_lines(report)
        return "\n".join(lines), 0

    if subcommand == "stats":
        from repro.index import build_index_report

        try:
            report = build_index_report(store_dir, shortlist_k, config)
        except ReproError as exc:
            return f"index: stats FAILED — {exc}", 1
        lines = [
            f"index: store version {report['store_version']} "
            f"({report['library_views']} views)"
        ] + _geometry_lines(report)
        return "\n".join(lines), 0

    from repro.datasets.shapenet import build_reference_library, build_sns2
    from repro.index import recall_audit

    references = build_reference_library(
        config,
        models_per_class=args.library_models,
        views_per_model=args.library_views,
    )
    queries = build_sns2(config)
    if args.queries:
        queries = queries.subset(
            list(range(min(args.queries, len(queries)))), name="sns2-subset"
        )
    ks = args.ks or [8, 16, 32, shortlist_k]
    payload = recall_audit(references, queries, ks, config=config)
    output = Path(args.output or "AUDIT_index.json")
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    lines = [
        f"index: audit over {payload['queries']} queries v. "
        f"{payload['library_views']} views (K in {payload['ks']})"
    ]
    exact = True
    for row in payload["rows"]:
        lines.append(
            f"  {row['pipeline']:<11} K={row['k']:>5}  "
            f"recall {row['recall']:.4f} "
            f"({row['agreements']}/{row['queries']})  "
            f"score_exact {row['score_exact']}  "
            f"exhaustive {row['exhaustive']}"
        )
        exact = exact and row["score_exact"] and row["agreements"] == row["queries"]
    lines.append(f"  wrote {output}")
    if not exact:
        lines.append("index: audit FAILED — indexed champions differ from brute force")
        return "\n".join(lines), 1
    return "\n".join(lines), 0


def _cmd_openset(args: argparse.Namespace) -> tuple[str, int]:
    """Calibrate or evaluate open-set rejection thresholds.

    ``repro openset calibrate`` fits every reporting pipeline's rejection
    threshold on the seeded reference library and publishes the set as a
    content-addressed calibration artifact under ``--store-dir``; ``repro
    openset eval`` runs the seeded class-holdout evaluation (novel views
    of enrolled objects as known probes, every view of the held-out
    classes as unknowns) and writes ``BENCH_openset.json``.  With
    ``--min-color-auroc`` the eval exits 1 when no colour pipeline
    separates knowns from unknowns at that AUROC — the CI acceptance
    gate.
    """
    import json
    from pathlib import Path

    from repro.openset import (
        build_artifact,
        calibrate_pipeline,
        default_openset_pipelines,
        format_openset_report,
        run_openset_eval,
        save_calibration,
    )

    subcommand = args.subcommand or "eval"
    if subcommand not in ("calibrate", "eval"):
        return (
            f"openset: unknown subcommand {subcommand!r} "
            "(expected calibrate or eval)",
            2,
        )
    config = _make_config(args)

    if subcommand == "calibrate":
        from repro.datasets.shapenet import build_reference_library

        store_dir = args.store_dir or ".repro-store"
        references = build_reference_library(
            config, models_per_class=3, views_per_model=12
        )
        started = time.perf_counter()
        models = []
        lines = [
            f"openset: calibrating on {len(references)} views of "
            f"{references.name} (target FAR {args.target_far:g})"
        ]
        for pipeline in default_openset_pipelines(config):
            pipeline.fit(references)
            model = calibrate_pipeline(
                pipeline, references, seed=config.seed, target_far=args.target_far
            )
            models.append(model)
            lines.append(
                f"  {pipeline.name:<28} threshold {model.threshold:>8.4f}  "
                f"auroc {model.auroc:.3f}  far {model.far:.3f}  "
                f"frr {model.frr:.3f}"
            )
        artifact = build_artifact(
            references, models, seed=config.seed, target_far=args.target_far
        )
        path = save_calibration(artifact, store_dir)
        elapsed = time.perf_counter() - started
        lines.append(
            f"  published calibration {artifact.calibration_version} in "
            f"{elapsed:.2f}s -> {path}"
        )
        return "\n".join(lines), 0

    payload = run_openset_eval(
        config,
        holdout=args.holdout,
        target_far=args.target_far,
        store_dir=args.store_dir,
    )
    output = Path(args.output or "BENCH_openset.json")
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    lines = [format_openset_report(payload), f"  wrote {output}"]
    code = 0
    if args.min_color_auroc is not None:
        rows: dict = payload["pipelines"]  # type: ignore[assignment]
        best = max(
            (row["auroc"] for name, row in rows.items() if name.startswith("color")),
            default=0.0,
        )
        if best < args.min_color_auroc:
            lines.append(
                f"openset: FAILED — best colour AUROC {best:.3f} < "
                f"{args.min_color_auroc:g}"
            )
            code = 1
        else:
            lines.append(
                f"  colour AUROC gate met: best {best:.3f} >= "
                f"{args.min_color_auroc:g}"
            )
    return "\n".join(lines), code


def _cmd_patrol(args: argparse.Namespace) -> str:
    """Run a simulated robot patrol and answer a few map queries.

    With ``--serve`` the patrol submits its observations through a
    warm-started :class:`~repro.serving.service.RecognitionService` instead
    of calling the pipeline inline — the service duck-types ``predict``, so
    concurrent missions could share one warm pipeline and batch together.
    """
    from repro.datasets.shapenet import build_sns1
    from repro.knowledge import ObjectRetriever
    from repro.pipelines.hybrid import HybridPipeline, HybridStrategy
    from repro.robot import Robot, build_random_world, run_patrol

    config = _make_config(args)
    world = build_random_world(objects_per_room=args.objects_per_room, rng=config.seed)
    pipeline = HybridPipeline(HybridStrategy.WEIGHTED_SUM)
    pipeline.fit(build_sns1(config))
    service = None
    if args.serve:
        from repro.serving.service import RecognitionService

        service = RecognitionService(
            pipeline, settings=_make_serving_settings(args)
        ).start()
    robot = Robot(sensing_range=2.8, seed=config.seed)
    try:
        log = run_patrol(
            world,
            robot,
            service if service is not None else pipeline,
            [room.center for room in world.rooms],
        )
    finally:
        if service is not None:
            service.stop(drain=True)

    lines = [
        f"patrol: {log.observations} observations, "
        f"recognition accuracy {log.accuracy:.0%}",
        f"semantic map: {len(log.semantic_map)} entries, "
        f"rooms {log.per_room_counts()}",
    ]
    if service is not None:
        lines.append(f"serving: {service.report().summary()}")
    retriever = ObjectRetriever(log.semantic_map)
    for question in (
        "how many pieces of furniture are there?",
        "bring me the nearest container",
    ):
        lines.append(f"Q: {question}")
        lines.append(f"A: {retriever.answer(question)}")
    return "\n".join(lines)


def _cmd_lint(args: argparse.Namespace) -> tuple[str, int]:
    """Run reprolint; exit 0 clean / 1 findings / 2 internal error."""
    from dataclasses import replace as dc_replace

    from repro.analysis import LintConfig, format_report, lint_paths, report_as_json

    try:
        config = LintConfig.from_pyproject(".")
        if args.paths:
            config = dc_replace(config, paths=tuple(args.paths))
        report = lint_paths(config.paths, config)
        text = (
            report_as_json(report)
            if args.format == "json"
            else format_report(report)
        )
    except Exception as exc:  # never let a linter bug look like a clean tree
        return f"lint: internal error: {exc!r}", 2
    return text, report.exit_code


def _cmd_all(args: argparse.Namespace) -> str:
    chunks = []
    for name in ("table1", "table2", "table3", "table4", "table5",
                 "table6", "table7", "table8", "table9"):
        started = time.time()
        chunks.append(f"== {name.upper()} ==")
        chunks.append(_COMMANDS[name](args))
        chunks.append(f"({name} took {time.time() - started:.1f}s)\n")
    return "\n".join(chunks)


_COMMANDS = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "table4": _cmd_table4,
    "table5": _cmd_classwise(experiments.table5),
    "table6": _cmd_classwise(experiments.table6),
    "table7": _cmd_classwise(experiments.table7),
    "table8": _cmd_classwise(experiments.table8),
    "table9": _cmd_table9,
    "patrol": _cmd_patrol,
    "engine": _cmd_engine,
    "serve": _cmd_serve,
    "store": _cmd_store,
    "index": _cmd_index,
    "openset": _cmd_openset,
    "lint": _cmd_lint,
    "all": _cmd_all,
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables of Chiatti et al. (EDBT/ICDT 2019 workshops)",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS), help="table to regenerate")
    parser.add_argument(
        "subcommand",
        nargs="?",
        default=None,
        help="store command: 'build' (default) or 'verify'; "
        "index command: 'build' (default), 'stats' or 'audit'; "
        "openset command: 'calibrate' or 'eval' (default)",
    )
    parser.add_argument("--seed", type=int, default=7, help="global random seed")
    parser.add_argument(
        "--nyu-scale",
        type=float,
        default=0.05,
        help="fraction of the 6,934-instance NYUSet to synthesise (1.0 = full paper scale)",
    )
    parser.add_argument(
        "--ratio", type=float, default=0.5, help="Lowe ratio threshold (tables 3/9)"
    )
    parser.add_argument(
        "--train-pairs", type=int, default=600, help="siamese training pairs (table 4)"
    )
    parser.add_argument(
        "--epochs", type=int, default=5, help="siamese training epochs (table 4)"
    )
    parser.add_argument(
        "--objects-per-room",
        type=int,
        default=6,
        help="objects per room in the simulated patrol world",
    )
    parser.add_argument(
        "--nyu-per-class",
        type=int,
        default=10,
        help="NYU images per class in the table-4 pair test set",
    )
    engine = parser.add_argument_group("engine", "batch execution engine")
    engine.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="parallel prediction workers (default: $REPRO_WORKERS or 1)",
    )
    engine.add_argument(
        "--backend",
        choices=("thread", "process"),
        default=None,
        help="worker pool backend (default: $REPRO_BACKEND or thread)",
    )
    engine.add_argument(
        "--no-cache",
        action="store_true",
        help="disable reference-feature caching",
    )
    engine.add_argument(
        "--cache-dir",
        default=None,
        help="persist cached features to this directory "
        "(default: $REPRO_CACHE_DIR or memory-only)",
    )
    engine.add_argument(
        "--timings",
        action="store_true",
        help="append the per-stage timings block to the output",
    )
    fault = parser.add_argument_group("fault tolerance", "retry / fallback / chaos")
    fault.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=None,
        help="prediction attempts per query, 1 = no retry "
        "(default: $REPRO_MAX_ATTEMPTS or 1)",
    )
    fault.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        help="per-chunk wall-clock budget in seconds "
        "(default: $REPRO_CHUNK_TIMEOUT or unbounded)",
    )
    fault.add_argument(
        "--max-failures",
        type=int,
        default=None,
        help="abort a sweep once more than this many queries have failed "
        "(default: $REPRO_MAX_FAILURES or tolerate all)",
    )
    fault.add_argument(
        "--fail-fast",
        action="store_true",
        help="legacy behaviour: re-raise the first per-query error instead "
        "of isolating and recording it",
    )
    fault.add_argument(
        "--fallback",
        choices=("shape-only", "color-only", "most-frequent"),
        default=None,
        help="engine command: chain each pipeline with this fallback so "
        "stage failures degrade instead of dropping the query",
    )
    fault.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="engine command: inject deterministic seeded faults into this "
        "fraction of queries (chaos demo)",
    )
    fault.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="engine command: seed of the injected fault set",
    )
    engine.add_argument(
        "--scalar-scoring",
        action="store_true",
        help="engine command: force the scalar per-view scoring loop "
        "(disables the vectorized batch path, for comparison)",
    )
    engine.add_argument(
        "--keep-view-scores",
        action="store_true",
        help="engine command: retain the per-view score vector on every "
        "prediction (off by default — costs (queries x views) float64)",
    )
    engine.add_argument(
        "--refs",
        type=int,
        default=0,
        help="engine command: cap the reference set size (0 = all)",
    )
    engine.add_argument(
        "--queries",
        type=int,
        default=0,
        help="engine command: cap the query set size (0 = all)",
    )
    serving = parser.add_argument_group(
        "serving", "online recognition service (serve / patrol --serve)"
    )
    serving.add_argument(
        "--pipeline",
        choices=("shape-only", "color-only", "hybrid", "most-frequent"),
        default="hybrid",
        help="registry pipeline the service warm-starts",
    )
    serving.add_argument(
        "--requests",
        type=_positive_int,
        default=120,
        help="requests to drive through the service",
    )
    serving.add_argument(
        "--clients",
        type=_positive_int,
        default=32,
        help="concurrent closed-loop callers",
    )
    serving.add_argument(
        "--max-batch-size",
        type=_positive_int,
        default=None,
        help="micro-batch size cap (default: $REPRO_SERVE_BATCH or 32)",
    )
    serving.add_argument(
        "--max-wait-ms",
        type=float,
        default=None,
        help="micro-batch accumulation window in milliseconds "
        "(default: $REPRO_SERVE_WAIT_MS or 2.0)",
    )
    serving.add_argument(
        "--max-queue-depth",
        type=_positive_int,
        default=None,
        help="admission queue bound; beyond it requests are rejected "
        "(default: $REPRO_SERVE_QUEUE_DEPTH or 256)",
    )
    serving.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline; expired requests degrade to the "
        "fallback (default: $REPRO_SERVE_DEADLINE_MS or none)",
    )
    serving.add_argument(
        "--serve",
        action="store_true",
        help="patrol command: submit observations through the recognition "
        "service instead of calling the pipeline inline",
    )
    serving.add_argument(
        "--output",
        default=None,
        help="where to write the JSON payload (index audit: AUDIT_index.json; "
        "openset eval: BENCH_openset.json)",
    )
    store = parser.add_argument_group(
        "store", "memory-mapped reference store (store build / store verify)"
    )
    store.add_argument(
        "--store-dir",
        default=None,
        help="store directory (store commands default to .repro-store; "
        "serve --workers defaults to a temporary store)",
    )
    index = parser.add_argument_group(
        "index", "certified retrieval tier (index build / stats / audit)"
    )
    index.add_argument(
        "--shortlist-k",
        type=_positive_int,
        default=None,
        help="coarse-stage shortlist size K for the index commands "
        f"(default {DEFAULT_SHORTLIST_K})",
    )
    index.add_argument(
        "--library-models",
        type=_positive_int,
        default=5,
        help="index build/audit: reference-library models per class",
    )
    index.add_argument(
        "--library-views",
        type=_positive_int,
        default=20,
        help="index build/audit: views rendered per library model",
    )
    index.add_argument(
        "--ks",
        type=_positive_int,
        nargs="+",
        default=None,
        metavar="K",
        help="index audit: shortlist sizes to sweep "
        "(default: 8 16 32 and --shortlist-k)",
    )
    openset = parser.add_argument_group(
        "openset", "open-set rejection thresholds (openset calibrate / eval)"
    )
    openset.add_argument(
        "--holdout",
        type=_positive_int,
        default=2,
        help="openset eval: classes held out of the library as unknowns",
    )
    openset.add_argument(
        "--target-far",
        type=float,
        default=0.05,
        help="openset: imposter false-accept rate the thresholds are fitted at",
    )
    openset.add_argument(
        "--min-color-auroc",
        type=float,
        default=None,
        help="openset eval: exit 1 unless some colour pipeline reaches this "
        "known-vs-unknown AUROC (for CI gating)",
    )
    lint = parser.add_argument_group("lint", "reprolint static analysis")
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="lint: report format (json is what CI consumes)",
    )
    lint.add_argument(
        "--paths",
        nargs="+",
        default=None,
        metavar="PATH",
        help="lint: files/directories to check "
        "(default: [tool.reprolint] paths, then src)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Commands return either the output text (exit 0) or a ``(text, code)``
    pair — ``lint`` uses the latter for its 0/1/2 exit-code contract.
    """
    args = build_parser().parse_args(argv)
    result = _COMMANDS[args.command](args)
    text, code = result if isinstance(result, tuple) else (result, 0)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
