"""Agreement audit: indexed champions versus brute force, per pipeline, per K.

The certified champion (:mod:`repro.index.twostage`) equals brute force
for every query, row and float64 score, and the shortlist size K changes
neither.  The audit checks that claim on a seeded query sweep for each
indexable registry pipeline at every K it is given, so CI gates "the
index does not change answers" with a number instead of a hope.

For every (pipeline, K) cell the audit reports:

* ``recall`` — fraction of queries whose indexed champion row equals the
  brute-force champion row (1.0 is the contract; anything less is a bug);
* ``score_exact`` — whether every agreeing query's champion *score* is
  bit-identical to brute force;
* ``exhaustive`` — how many queries re-ranked every row, because their
  bound pruned nothing (degenerate queries, such as contour-less crops);
* ``mean_candidates`` — rows exactly re-ranked per query.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import ExperimentConfig
from repro.datasets.dataset import ImageDataset
from repro.errors import RetrievalIndexError

#: Registry pipelines that support :meth:`attach_index`.
INDEXABLE_PIPELINES = ("shape-only", "color-only", "hybrid")


def recall_audit(
    references: ImageDataset,
    queries: ImageDataset | Sequence,
    ks: Sequence[int],
    pipeline_names: Sequence[str] = INDEXABLE_PIPELINES,
    config: ExperimentConfig | None = None,
) -> dict:
    """Audit indexed-vs-brute top-1 agreement over a query sweep.

    Returns a JSON-ready payload: one row per (pipeline, K) with recall,
    exact-score agreement, exhaustive counts and mean re-ranked rows.
    """
    from repro.serving.registry import default_registry

    queries = list(queries)
    ks = sorted({int(k) for k in ks})
    if not queries:
        raise RetrievalIndexError("recall_audit needs at least one query")
    if not ks or ks[0] < 1:
        raise RetrievalIndexError(f"shortlist sizes must be >= 1, got {list(ks)}")
    registry = default_registry()
    rows = []
    for name in pipeline_names:
        pipeline = registry.build(name, config)
        pipeline.fit(references)
        brute = pipeline.champion_batch(queries)
        for k in ks:
            pipeline.attach_index(k)
            indexed = pipeline.champion_batch(queries)
            agree = [b.row == i.row for b, i in zip(brute, indexed)]
            score_exact = all(
                _same_bits(b.score, i.score)
                for b, i, same_row in zip(brute, indexed, agree)
                if same_row
            )
            rows.append(
                {
                    "pipeline": name,
                    "k": k,
                    "queries": len(queries),
                    "agreements": int(sum(agree)),
                    "recall": sum(agree) / len(queries),
                    "score_exact": bool(score_exact),
                    "exhaustive": int(sum(1 for i in indexed if i.exhaustive)),
                    "mean_candidates": sum(i.candidates for i in indexed)
                    / len(indexed),
                }
            )
        pipeline.detach_index()
    return {
        "library_views": len(references),
        "queries": len(queries),
        "ks": ks,
        "pipelines": list(pipeline_names),
        "rows": rows,
    }


def _same_bits(a: float, b: float) -> bool:
    """Bit-level float equality (NaN == NaN, +0.0 != -0.0 is irrelevant
    here; champions are real scores)."""
    # reprolint: disable=NUM201 -- the audit's whole point is bitwise identity
    return a == b or (a != a and b != b)
