"""Indexed-retrieval bench: certified-champion QPS versus brute force by
library size.

Builds a seeded synthetic reference library (``REPRO_BENCH_INDEX_VIEWS``
views, default 10,000), publishes it as a store once, and then — for each
prefix size — times champion retrieval from *precomputed features* through
(a) the exhaustive kernel scan and (b) the certified champion (one query's
score bound, then an exact re-rank of the rows that can still win), using
the identical re-rank code path for both.  Hard assertions at full size:
the indexed path clears ``MIN_SPEEDUP`` on the hybrid pipeline (whose
brute scan pays both kernels per view), recall@top-1 is ``MIN_RECALL``
(1.0) on every measured pipeline, and every agreeing champion score is
bit-identical to brute force.  The QPS-versus-size curves land in
``BENCH_index.json``.

Serving never scores one query at a time, so one more row times the hybrid
at full size the way a service flush does: ``champion_batch`` over flushes
of ``FLUSH`` queries against the brute ``theta_scores_batch`` argmin over
the same flushes.  That row is gated on recall, bit-identical scores and its
own floor, ``MIN_FLUSH_SPEEDUP``: with every flush's seed rows scored in
one block call it read 4.4-4.7x over six runs on a 2-vCPU host, below
the one-query ``MIN_SPEEDUP`` because brute force is batched too.
"""

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.datasets.shapenet import build_reference_library, build_sns2
from repro.datasets.classes import CLASS_NAMES
from repro.engine.cache import FeatureCache
from repro.serving.registry import default_registry
from repro.store import ReferenceStore, build_store

from conftest import bench_config, run_once

MIN_SPEEDUP = 5.0
#: Floor of the flush-path row (hybrid, flushes of ``FLUSH``).
MIN_FLUSH_SPEEDUP = 3.0
MIN_RECALL = 1.0
#: Pipelines measured; the speedup floor is asserted on "hybrid" (recall is
#: asserted on all of them).
PIPELINES = ("shape-only", "hybrid")
SPEEDUP_PIPELINE = "hybrid"
QUERIES = 40
TIMING_REPEATS = 3
RESULT_FILE = Path("BENCH_index.json")
#: Queries per flush in the flush-path row (the served batch shape).
FLUSH = 16


def _target_views() -> int:
    return int(os.environ.get("REPRO_BENCH_INDEX_VIEWS", "10000"))


def _shortlist_k(views: int) -> int:
    return min(int(os.environ.get("REPRO_BENCH_INDEX_K", "128")), views)


def _library(config, views: int):
    views_per_model = 20
    models_per_class = max(1, views // (len(CLASS_NAMES) * views_per_model))
    return build_reference_library(
        config,
        models_per_class=models_per_class,
        views_per_model=views_per_model,
    )


def _best_seconds_interleaved(first, second, repeats: int = TIMING_REPEATS):
    """Best-of-*repeats* seconds of *first* and of *second*, timed
    alternately within each repeat so host drift lands on both sides."""
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for side, fn in enumerate((first, second)):
            started = time.perf_counter()
            fn()
            best[side] = min(best[side], time.perf_counter() - started)
    return best[0], best[1]


def _flush_row(pipeline, queries) -> dict:
    """The flush-path row: certified ``champion_batch`` against the brute
    ``theta_scores_batch`` argmin, both over the same flushes of queries."""
    flushes = [queries[i : i + FLUSH] for i in range(0, len(queries), FLUSH)]

    def brute_flushes():
        return [pipeline.theta_scores_batch(flush) for flush in flushes]

    def certified_flushes():
        return [hit for flush in flushes for hit in pipeline.champion_batch(flush)]

    thetas = np.vstack(brute_flushes())
    hits = certified_flushes()
    rows = thetas.argmin(axis=1)
    agree = [hit.row == int(row) for hit, row in zip(hits, rows)]
    assert all(
        hit.score == float(theta[row]) for hit, theta, row in zip(hits, thetas, rows)
    ), "flush path: certified scores not bit-identical to brute"
    brute_seconds, certified_seconds = _best_seconds_interleaved(
        brute_flushes, certified_flushes
    )
    return {
        "pipeline": SPEEDUP_PIPELINE,
        "views": len(pipeline.references),
        "flush": FLUSH,
        "queries": len(queries),
        "brute_qps": len(queries) / brute_seconds,
        "indexed_qps": len(queries) / certified_seconds,
        "speedup": brute_seconds / certified_seconds,
        "recall_top1": sum(agree) / len(agree),
        "mean_candidates": sum(hit.candidates for hit in hits) / len(hits),
    }


def test_indexed_retrieval_speedup(benchmark):
    config = bench_config()
    references = _library(config, _target_views())
    views = len(references)
    shortlist_k = _shortlist_k(views)
    queries = list(build_sns2(config))[:QUERIES]
    sizes = sorted({max(shortlist_k, views // 8), views // 4, views // 2, views})

    curve = []
    full_size_rows = {}
    with tempfile.TemporaryDirectory(prefix="repro-index-bench-") as tmp:
        store_dir = Path(tmp) / "store"
        build_started = time.perf_counter()
        build_store(
            references,
            store_dir,
            bins=config.histogram_bins,
            families=("shape", "color"),
            cache=FeatureCache(),
        )
        build_seconds = time.perf_counter() - build_started
        store = ReferenceStore.attach(store_dir)

        for name in PIPELINES:
            pipeline = default_registry().build(name, config)
            pipeline.attach_store(store)
            features = [pipeline.extract_features(query) for query in queries]
            for size in sizes:
                pipeline.attach_store(store, rows=(0, size))
                pipeline.attach_index(min(shortlist_k, size))
                retriever = pipeline.retriever

                def brute_sweep():
                    return [retriever.champion_brute(f) for f in features]

                def indexed_sweep():
                    return [retriever.champion(f) for f in features]

                brute = brute_sweep()
                if size == views and name == SPEEDUP_PIPELINE:
                    # The headline number rides the pytest-benchmark timer.
                    indexed = run_once(benchmark, indexed_sweep)
                else:
                    indexed = indexed_sweep()
                brute_seconds, indexed_seconds = _best_seconds_interleaved(
                    brute_sweep, indexed_sweep
                )

                agree = [b.row == i.row for b, i in zip(brute, indexed)]
                assert all(
                    b.score == i.score
                    for b, i, same in zip(brute, indexed, agree)
                    if same
                ), f"{name}@{size}: re-ranked scores not bit-identical to brute"
                row = {
                    "pipeline": name,
                    "views": size,
                    "shortlist_k": min(shortlist_k, size),
                    "queries": len(queries),
                    "brute_qps": len(queries) / brute_seconds,
                    "indexed_qps": len(queries) / indexed_seconds,
                    "speedup": brute_seconds / indexed_seconds,
                    "recall_top1": sum(agree) / len(agree),
                    "mean_candidates": sum(i.candidates for i in indexed)
                    / len(indexed),
                }
                curve.append(row)
                if size == views:
                    full_size_rows[name] = row
                    if name == SPEEDUP_PIPELINE:
                        flush_row = _flush_row(pipeline, queries)
            pipeline.detach_index()

    payload = {
        "seed": config.seed,
        "library_views": views,
        "shortlist_k": shortlist_k,
        "queries": len(queries),
        "build_seconds": build_seconds,
        "min_speedup_floor": MIN_SPEEDUP,
        "min_flush_speedup_floor": MIN_FLUSH_SPEEDUP,
        "min_recall_floor": MIN_RECALL,
        "speedup_pipeline": SPEEDUP_PIPELINE,
        "curve": curve,
        "flush_path": flush_row,
    }
    RESULT_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print()
    for row in curve:
        print(
            f"{row['pipeline']:<11} V={row['views']:>6}  "
            f"brute {row['brute_qps']:8.1f} q/s  "
            f"indexed {row['indexed_qps']:9.1f} q/s  "
            f"({row['speedup']:5.1f}x)  recall@1 {row['recall_top1']:.4f}"
        )
    print(
        f"{SPEEDUP_PIPELINE:<11} V={views:>6}  flushes of {FLUSH}: "
        f"brute {flush_row['brute_qps']:8.1f} q/s  "
        f"certified {flush_row['indexed_qps']:9.1f} q/s  "
        f"({flush_row['speedup']:5.1f}x)  recall@1 {flush_row['recall_top1']:.4f}"
    )

    for name in PIPELINES:
        assert full_size_rows[name]["recall_top1"] >= MIN_RECALL, (
            f"{name}: recall@top-1 {full_size_rows[name]['recall_top1']:.4f} "
            f"below the {MIN_RECALL} floor at {views} views"
        )
    headline = full_size_rows[SPEEDUP_PIPELINE]["speedup"]
    assert headline >= MIN_SPEEDUP, (
        f"indexed retrieval is only {headline:.1f}x brute at {views} views "
        f"(need >= {MIN_SPEEDUP}x) — the certified tier has regressed"
    )
    assert flush_row["recall_top1"] >= MIN_RECALL, (
        f"flush path: recall@top-1 {flush_row['recall_top1']:.4f} below the "
        f"{MIN_RECALL} floor at {views} views"
    )
    assert flush_row["speedup"] >= MIN_FLUSH_SPEEDUP, (
        f"flush path is only {flush_row['speedup']:.1f}x brute at {views} views "
        f"(need >= {MIN_FLUSH_SPEEDUP}x) — the certified flush path has regressed"
    )
