"""Index construction and statistics over a published reference store.

The store artifact already holds everything the bound needs, the
``(V, 7)`` Hu-signature matrix and the ``(V, 3*bins)`` histogram matrix,
so "building" an index is preparing the library side of the colour bound
(one normalised matrix, see :mod:`repro.index.bounds`), milliseconds even
at 10k views.  :func:`build_index_report` does exactly that for every
indexable registry pipeline; :func:`shard_plan_report` shows how the same
library splits into class-aligned serving shards, each of which certifies
its own champion over its own rows (the merged answer is brute force).
"""

from __future__ import annotations

from pathlib import Path

from repro.config import ExperimentConfig
from repro.index.audit import INDEXABLE_PIPELINES


def build_index_report(
    store_dir: Path | str,
    shortlist_k: int,
    config: ExperimentConfig | None = None,
    pipeline_names=INDEXABLE_PIPELINES,
) -> dict:
    """Attach each indexable pipeline to *store_dir* and index it.

    Returns a JSON-ready payload describing every built index: row count,
    shortlist size and scoring mode.  This is the ``repro index build``
    CLI body: it proves the store artifact supports indexing end to end,
    without mutating the store (indexes are in-memory, rebuilt at attach
    time).
    """
    from repro.serving.registry import default_registry
    from repro.store.attach import ReferenceStore

    store = ReferenceStore.attach(Path(store_dir))
    registry = default_registry()
    reports = []
    for name in pipeline_names:
        pipeline = registry.build(name, config)
        pipeline.attach_store(store)
        pipeline.attach_index(shortlist_k)
        retriever = pipeline.retriever
        reports.append(
            {
                "pipeline": name,
                "rows": retriever.n_rows,
                "shortlist_k": retriever.shortlist_k,
                "scoring_mode": pipeline.scoring_mode,
            }
        )
    return {
        "store_dir": str(store_dir),
        "store_version": store.store_version,
        "library_views": len(store.references()),
        "indexes": reports,
    }


def shard_plan_report(store_dir: Path | str, workers: int) -> dict:
    """How the store's reference rows split into class-aligned shards."""
    from repro.serving.shards import plan_shards
    from repro.store.attach import ReferenceStore

    store = ReferenceStore.attach(Path(store_dir))
    labels = store.references().labels
    shards = []
    for shard in plan_shards(labels, workers):
        shards.append(
            {
                "rows": [shard.start, shard.stop],
                "views": len(shard),
                "classes": list(shard.classes),
            }
        )
    return {
        "store_dir": str(store_dir),
        "store_version": store.store_version,
        "library_views": len(labels),
        "workers": workers,
        "shards": shards,
    }
